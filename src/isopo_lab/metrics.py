"""Per-step diagnostics and the metrics CSV schema.

A metrics row is one dict from column name to value, in CSV column order.
``collect`` builds it, ``harness.write_metrics_csv`` writes its keys as the
header and its values as a line, and ``harness.read_metrics_csv`` reads back
an equal dict. The columns are ``FIXED_COLUMNS``

    step, algo, task, seed, mean_reward, validation, kl_from_init,
    degenerate_sequences

followed, for each layer l of the policy, by

    l{l}_mean_F_norm     mean estimated Fisher norm over the batch's
                         non-degenerate (sequence, layer) pairs; 0 if none
    l{l}_mean_grad_norm  mean_b |V_b|, V_b the layer gradient of sequence b
    l{l}_ntk_eigen_mean  isopo-int only, a diagnostic: mean eigenvalue of
                         the layer's empirical NTK K_ij = <V_i, V_j>, which
                         is trace(K) / m = mean_b |V_b|^2, taken from
                         ``isopo.mean_ntk_eigenvalue``, which also sets
                         interacting ISOPO's Tikhonov constant

``kl_from_init`` is a ``KL_SAMPLES``-sample Monte Carlo KL of the current
policy from the initial one over the first ``KL_PROMPTS`` heldout prompts,
read off the two policies' tables of those prompts (``reference_table``).
The initial policy never changes, so ``harness.train`` builds its table
once, and ``collect`` builds the current policy's: a row's KL costs one
forward, and the step-0 row, whose weights are the initial ones, reads the
initial table as the current one too and costs none.

``batch_summary`` runs only for a row that is written. Every |V_b|^2 comes
from ``Scored.sq_norms``, which the step's Fisher-norm estimate already
computed from the position factors. ``step``, ``seed``
and ``degenerate_sequences`` are integers, ``algo`` and ``task`` text, and
every other value is a float written with 17 significant digits (``.17g``),
so a row survives the round trip through the file exactly.
"""

from __future__ import annotations

import numpy as np

from .isopo import mean_ntk_eigenvalue
from .policy import ContextTable, PolicyNet, kl_from_reference, kl_reference
from .rng import stream
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
    step: int, net: PolicyNet, ref: ContextTable, task, summary: dict, seed: int, algo: str
) -> dict:
    """One metrics row; never mutates the policy.

    ``kl_from_init`` is the KL from ``ref``, the initial policy's
    ``reference_table``. At step 0 no update has run, so ``net`` is the
    initial policy and ``ref`` serves as its table too. The KL estimate uses
    its own stream derived from (run seed, step) so the value at a given
    step does not depend on how much randomness earlier steps consumed.
    """
    table = ref if step == 0 else reference_table(net, task)
    kl = kl_from_reference(table, ref, KL_SAMPLES, stream(seed, f"kl/{step}"))
    row = {
        "step": step,
        "algo": algo,
        "task": task.name,
        "seed": seed,
        "mean_reward": summary["mean_reward"],
        "validation": validation_score(net, task.heldout_prompts),
        "kl_from_init": kl,
    }
    # mean_reward keeps its place; the other summary columns follow in order
    return row | summary
