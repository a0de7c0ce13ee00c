"""Per-step diagnostics and the metrics CSV schema.

A metrics row is one dict from column name to value, in CSV column order;
``collect`` builds it, and ``harness.write_metrics_csv`` and
``harness.read_metrics_csv`` round-trip it. The columns are ``FIXED_COLUMNS``

    step, algo, task, seed, mean_reward, validation, kl_from_init,
    degenerate_sequences

followed, for each layer l of the policy, by

    l{l}_mean_F_norm     mean estimated Fisher norm over the batch's
                         non-degenerate (sequence, layer) pairs; 0 if none
    l{l}_mean_grad_norm  mean_b |V_b|, V_b the layer gradient of sequence b
    l{l}_ntk_eigen_mean  isopo-int only: the mean eigenvalue
                         trace(K) / m = mean_b |V_b|^2 of the layer's NTK,
                         which also sets its Tikhonov constant

``step``, ``seed`` and ``degenerate_sequences`` are integers, ``algo`` and
``task`` text, and every other value is a float written with 17 significant
digits (``.17g``), so a row survives the round trip through the file exactly.

``kl_from_init`` is a ``KL_SAMPLES``-sample Monte Carlo estimate of
KL(current || initial) over the first ``KL_PROMPTS`` heldout prompts, read
off the two policies' tables of those prompts (the initial one built once
per run, ``reference_table``) with uniforms the run draws before training.
"""

from __future__ import annotations

import numpy as np

from .isopo import mean_ntk_eigenvalue
from .policy import ContextTable, PolicyNet, kl_from_reference, kl_reference
from .tasks import validation_score

KL_SAMPLES = 256
KL_PROMPTS = 16
# the leading columns, in order, with the type of their values
FIXED_COLUMNS = {
    "step": int,
    "algo": str,
    "task": str,
    "seed": int,
    "mean_reward": float,
    "validation": float,
    "kl_from_init": float,
    "degenerate_sequences": int,
}


def batch_summary(microbatch, fisher_norms, degenerate_count: int, algo: str) -> dict:
    """The batch's columns: mean reward, degenerate count and the layer columns.

    ``fisher_norms`` is the (n_sequences, n_layers) estimate table with NaN
    entries marking degenerate pairs; those are excluded from the mean.
    """
    summary = {
        "mean_reward": float(microbatch.rewards.mean()),
        "degenerate_sequences": int(degenerate_count),
    }
    for l, sq_norms in enumerate(microbatch.scored.sq_norms):
        col = fisher_norms[:, l]
        valid = col[~np.isnan(col)]
        summary[f"l{l}_mean_F_norm"] = float(valid.mean()) if valid.size else 0.0
        summary[f"l{l}_mean_grad_norm"] = float(np.mean(np.sqrt(sq_norms)))
        if algo == "isopo-int":
            summary[f"l{l}_ntk_eigen_mean"] = mean_ntk_eigenvalue(sq_norms)
    return summary


def reference_table(net: PolicyNet, task) -> ContextTable:
    """``net``'s table of the KL prompts: of the initial policy, ``collect``'s
    ``ref``, and of the current one, which ``collect`` builds."""
    return kl_reference(net, task.heldout_prompts[:KL_PROMPTS])


def collect(
    step: int,
    net: PolicyNet,
    ref: ContextTable,
    task,
    summary: dict,
    seed: int,
    algo: str,
    kl_uniforms: np.ndarray,
) -> dict:
    """One metrics row; never mutates the policy.

    ``kl_from_init`` is the KL from ``ref``, the initial policy's
    ``reference_table``, sampled from ``kl_uniforms`` (``KL_SAMPLES``, T),
    which a run draws from the ``kl/{step}`` stream (``harness.draw_steps``),
    so the value at a given step does not depend on how much randomness
    earlier steps consumed. At step 0 no update has run, so ``net`` is the
    initial policy and ``ref`` serves as its table too.
    """
    table = ref if step == 0 else reference_table(net, task)
    row = {
        "step": step,
        "algo": algo,
        "task": task.name,
        "seed": seed,
        "mean_reward": summary["mean_reward"],
        "validation": validation_score(net, task.heldout_prompts),
        "kl_from_init": kl_from_reference(table, ref, kl_uniforms),
    }
    # mean_reward keeps its place; the other summary columns follow in order
    return row | summary
