"""Per-step diagnostics: KL drift, validation score, reward and layer stats."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import PolicyNet, kl_from_reference
from .rng import stream
from .tasks import validation_score

KL_SAMPLES = 256
KL_PROMPTS = 16


@dataclass
class LayerStats:
    """Per-layer means over the microbatch's sequences.

    ``mean_grad_norm`` is the mean of |V_b| and ``ntk_eigen_mean`` the mean
    eigenvalue of the layer's empirical NTK K_ij = <V_i, V_j>, i.e.
    trace(K) / m = mean_b |V_b|^2; both come from the |V_b|^2 that the
    Fisher-norm estimator already computed from the position factors
    (``Scored.sq_norms``). Interacting ISOPO sets its Tikhonov constant from
    ``ntk_eigen_mean``, and only isopo-int runs write it to the CSV.
    """

    mean_fisher_norm: float
    mean_grad_norm: float
    ntk_eigen_mean: float


@dataclass
class BatchSummary:
    """Microbatch-level quantities carried into a metrics row."""

    mean_reward: float
    degenerate_sequences: int
    layer_stats: list[LayerStats]


@dataclass
class StepMetrics:
    step: int
    algo: str
    task: str
    seed: int
    mean_reward: float
    validation: float
    kl_from_init: float
    degenerate_sequences: int
    layer_stats: list[LayerStats]


def batch_summary(microbatch, fisher_norms, degenerate_count: int) -> BatchSummary:
    """Aggregate per-sequence diagnostics into per-layer means.

    ``fisher_norms`` is the (n_sequences, n_layers) estimate table with NaN
    entries marking degenerate pairs; those are excluded from the mean.
    """
    stats = []
    for l, sq_norms in enumerate(microbatch.scored.sq_norms):  # |V_b|^2, the diagonal of K
        col = fisher_norms[:, l]
        valid = col[~np.isnan(col)]
        mean_f = float(valid.mean()) if valid.size else 0.0
        mean_g = float(np.mean(np.sqrt(sq_norms)))
        stats.append(LayerStats(mean_f, mean_g, float(np.mean(sq_norms))))
    return BatchSummary(
        mean_reward=float(microbatch.rewards.mean()),
        degenerate_sequences=int(degenerate_count),
        layer_stats=stats,
    )


def collect(
    step: int,
    net: PolicyNet,
    init_net: PolicyNet,
    task,
    summary: BatchSummary,
    seed: int,
    algo: str,
) -> StepMetrics:
    """One metrics row; never mutates the policy.

    The KL estimate uses its own stream derived from (run seed, step) so the
    value at a given step does not depend on how much randomness earlier
    steps consumed.
    """
    heldout = task.heldout_prompts
    validation = validation_score(net, task, heldout)
    kl_rng = stream(seed, f"kl/{step}")
    kl = kl_from_reference(net, init_net, heldout[:KL_PROMPTS], KL_SAMPLES, kl_rng)
    return StepMetrics(
        step=step,
        algo=algo,
        task=task.name,
        seed=seed,
        mean_reward=summary.mean_reward,
        validation=validation,
        kl_from_init=kl,
        degenerate_sequences=summary.degenerate_sequences,
        layer_stats=summary.layer_stats,
    )
