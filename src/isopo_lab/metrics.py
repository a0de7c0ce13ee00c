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

from .config import RunConfig
from .isopo import mean_ntk_eigenvalue
from .policy import ContextTable, PolicyNet, kl_from_reference, kl_reference
from .tasks import Microbatch, validation_score

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


def reference_table(net: PolicyNet, task) -> ContextTable:
    """``net``'s table of the KL prompts: of the initial policy, ``collect``'s
    ``ref``, and of the current one, which ``collect`` builds."""
    return kl_reference(net, task.heldout_prompts[:KL_PROMPTS])


def collect(
    step: int,
    cfg: RunConfig,
    net: PolicyNet,
    ref: ContextTable,
    task,
    microbatch: Microbatch,
    fisher_norms: tuple[np.ndarray, np.ndarray],
    kl_uniforms: np.ndarray,
) -> dict:
    """The step's metrics row, in column order; never mutates the policy.

    ``microbatch`` is the step's batch as sampled and ``fisher_norms`` its
    ``isopo.sequence_fisher_norms`` pair: the (n_sequences, n_layers) table,
    NaN where a pair is degenerate, which a layer's mean leaves out, and the
    per-sequence degenerate flags. ``cfg`` gives the ``algo`` and ``seed``.

    ``kl_from_init`` is the KL from ``ref``, the initial policy's
    ``reference_table``, sampled from ``kl_uniforms`` (``KL_SAMPLES``, T),
    which a run draws from the ``kl/{step}`` stream (``harness.draw_steps``),
    so the value at a given step does not depend on how much randomness
    earlier steps consumed. At step 0 no update has run, so ``net`` is the
    initial policy, whose table is ``ref`` itself: its KL is 0.0, exactly what
    sampling it against itself gives, and nothing is sampled.
    """
    norms, degenerate = fisher_norms
    kl = 0.0 if step == 0 else kl_from_reference(reference_table(net, task), ref, kl_uniforms)
    row = {
        "step": step,
        "algo": cfg.algo,
        "task": task.name,
        "seed": cfg.seed,
        "mean_reward": float(microbatch.rewards.mean()),
        "validation": validation_score(net, task.heldout_prompts),
        "kl_from_init": kl,
        "degenerate_sequences": int(np.count_nonzero(degenerate)),
    }
    for l, sq_norms in enumerate(microbatch.scored.sq_norms):
        col = norms[:, l]
        valid = col[~np.isnan(col)]
        row[f"l{l}_mean_F_norm"] = float(valid.mean()) if valid.size else 0.0
        row[f"l{l}_mean_grad_norm"] = float(np.mean(np.sqrt(sq_norms)))
        if cfg.algo == "isopo-int":
            row[f"l{l}_ntk_eigen_mean"] = mean_ntk_eigenvalue(sq_norms)
    return row
