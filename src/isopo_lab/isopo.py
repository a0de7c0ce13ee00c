"""Fisher-metric sequence rescaling and NTK-preconditioned microbatch updates.

Non-interacting variant
-----------------------
Each sequence's per-layer log-probability gradient V is rescaled before being
weighted by its advantage. The size of V in the Fisher metric is estimated
from a random subsample of the microbatch's per-position rank-one gradient
factors (g_j, a_j), drawn from the flattened (B, T) grid of positions:

    F_norm(V) = sqrt( sum_j (g_j . V a_j)^2 ) / sqrt( sum_j (|g_j| |a_j|)^2 )

The numerator is a subsampled second moment of projections of V onto position
gradients; the denominator removes the overall scale of the samples. The
generalized rescaling multiplies V by

    reg2(F_norm)^p * reg2(|V|)^q * reg2(F_norm / |V|)^r

with reg2(x) = sqrt(max(x^2 + reg_strength * EMA[x^2], 1e-8)). Setting p = -1
normalizes each sequence in the (estimated) Fisher metric, exactly once the
regularized square clears the floor, which bounds every sequence's
contribution to the KL movement of the policy; r = -2 instead matches the
scalar multiple of V closest to the natural-gradient direction.

Interacting variant
-------------------
Per layer, the microbatch's per-sequence gradients form J (m, out, in + 1),
one contraction over the scored (B, T) factor arrays, and the microbatch
update is J^T (J J^T + c I)^-1 A, i.e. the advantage vector is
preconditioned by the layer's empirical neural tangent kernel K = J J^T
(Tikhonov-regularized by c) before the usual contraction with the gradients.
K is one matrix product, and (K + c I)^-1 A is a Cholesky solve, so no
eigendecomposition is needed. The mean NTK eigenvalue that sets c is
trace(K) / m = mean_i |J_i|^2; ``metrics.batch_summary`` computes it once per
batch for every algorithm (it is the ``l{l}_ntk_eigen_mean`` metrics column),
and the training loop derives c from that one value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, EstimatorDegenerateError
from .linalg import solve_tikhonov
from .tasks import Microbatch

RESCALE_FLOOR = 1e-8


@dataclass
class RegEmaState:
    """Per (layer, quantity) exponential moving averages of minibatch means."""

    decay: float = 0.9
    values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.decay < 1.0:
            raise ContractViolation(f"decay must be in (0, 1), got {self.decay}")

    def value(self, key, default: float = 0.0) -> float:
        return self.values.get(key, default)


def ema_update(state: RegEmaState, key, minibatch_mean: float) -> float:
    """Fold one minibatch mean into the EMA; the first call just adopts it."""
    if minibatch_mean < 0:
        raise ContractViolation(f"EMA tracks nonnegative quantities, got {minibatch_mean}")
    if key in state.values:
        state.values[key] = state.decay * state.values[key] + (1.0 - state.decay) * minibatch_mean
    else:
        state.values[key] = float(minibatch_mean)
    return state.values[key]


@dataclass
class RescalingParams:
    """Exponents and regularization for the generalized sequence rescaling."""

    p: float = -1.0
    q: float = 0.0
    r: float = 0.0
    reg_strength: float = 0.0
    ema: RegEmaState = field(default_factory=RegEmaState)

    def __post_init__(self) -> None:
        for name in ("p", "q", "r"):
            if not np.isfinite(getattr(self, name)):
                raise ContractViolation(f"exponent {name} must be finite")
        if self.reg_strength < 0:
            raise ContractViolation("reg_strength must be nonnegative")


@dataclass
class OverlapSamples:
    """Randomly drawn per-position gradient factors shared across sequences.

    ``indices`` point into the C-order flattening of the microbatch's (B, T)
    position grid, and the same positions are used for every layer:
    ``act_in[l]`` (n, in + 1) and ``grad_out[l]`` (n, out) are their factors
    in layer l. ``denominators[l]`` caches sqrt(sum_j (|g_j||a_j|)^2).
    """

    act_in: list[np.ndarray]
    grad_out: list[np.ndarray]
    denominators: list[float]
    indices: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.indices.size)


def _sample_denominator(act_in: np.ndarray, grad_out: np.ndarray) -> float:
    scale = np.linalg.norm(grad_out, axis=1) * np.linalg.norm(act_in, axis=1)
    return float(np.linalg.norm(scale))


def fisher_norm_estimate(
    v: np.ndarray,
    act_in: np.ndarray,
    grad_out: np.ndarray,
    denominator: float | None = None,
):
    """Stochastic Fisher-norm estimate of layer-shaped update matrices ``v``.

    ``v`` is one matrix (out, in + 1), giving a float, or a stack of them
    (..., out, in + 1), giving one estimate per matrix.
    """
    v = np.asarray(v, dtype=float)
    if act_in.shape[0] == 0:
        raise ContractViolation("need at least one overlap sample")
    if v.shape[-2:] != (grad_out.shape[1], act_in.shape[1]):
        raise ContractViolation(
            f"update shape {v.shape} does not match factors "
            f"({grad_out.shape[1]}, {act_in.shape[1]})"
        )
    if denominator is None:
        denominator = _sample_denominator(act_in, grad_out)
    if denominator == 0.0:
        raise EstimatorDegenerateError("all overlap samples are zero")
    proj = np.einsum("jo,...jo->...j", grad_out, act_in @ np.swapaxes(v, -1, -2))
    return np.linalg.norm(proj, axis=-1) / denominator


def draw_overlap_samples(
    microbatch: Microbatch, n_overlap: int, rng: np.random.Generator
) -> OverlapSamples:
    """Uniform sample (without replacement) over all token positions in the batch."""
    if n_overlap < 1:
        raise ContractViolation("n_overlap must be >= 1")
    scored = microbatch.scored
    total = scored.act_in[0].shape[0] * scored.act_in[0].shape[1]
    if total == 0:
        raise ContractViolation("empty microbatch")
    indices = np.sort(rng.permutation(total)[: min(n_overlap, total)])
    act_in = [a.reshape(total, -1)[indices] for a in scored.act_in]
    grad_out = [g.reshape(total, -1)[indices] for g in scored.grad_out]
    denominators = [_sample_denominator(a, g) for a, g in zip(act_in, grad_out)]
    return OverlapSamples(act_in, grad_out, denominators, indices)


def sequence_fisher_norms(
    microbatch: Microbatch, samples: OverlapSamples
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(sequence, layer) Fisher-norm estimates under the shared sample set.

    Returns ``(norms, degenerate)`` where ``norms[i, l]`` is NaN when the
    estimate for that pair is degenerate (all-zero sequence gradient, or an
    all-zero sample set) and ``degenerate[i]`` flags sequences with at least
    one degenerate layer.
    """
    seq_grads = microbatch.scored.seq_grads
    n_seq = seq_grads[0].shape[0]
    norms = np.full((n_seq, len(seq_grads)), np.nan)
    degenerate = np.zeros(n_seq, dtype=bool)
    for l, jac in enumerate(seq_grads):
        denominator = samples.denominators[l]
        if denominator == 0.0:
            degenerate[:] = True
            continue
        live = np.any(jac.reshape(n_seq, -1), axis=1)
        degenerate |= ~live
        norms[live, l] = fisher_norm_estimate(
            jac[live], samples.act_in[l], samples.grad_out[l], denominator
        )
    return norms, degenerate


def _reg2(x, key, params: RescalingParams):
    expectation = params.ema.value(key) if params.reg_strength > 0 else 0.0
    return np.sqrt(np.maximum(x * x + params.reg_strength * expectation, RESCALE_FLOOR))


def _scale(f_norm, grads: np.ndarray, params: RescalingParams, layer: int):
    """reg2(F)^p * reg2(|V|)^q * reg2(F/|V|)^r for matrices V of shape (..., out, in + 1)."""
    grad_norm = np.sqrt(np.sum(grads * grads, axis=(-2, -1)))
    rel = np.divide(f_norm, grad_norm, out=np.zeros_like(grad_norm), where=grad_norm > 0)
    return (
        _reg2(f_norm, (layer, "fisher_sq"), params) ** params.p
        * _reg2(grad_norm, (layer, "grad_sq"), params) ** params.q
        * _reg2(rel, (layer, "rel_sq"), params) ** params.r
    )


def rescaling(
    grad: np.ndarray,
    f_norm: float,
    params: RescalingParams,
    layer: int = 0,
) -> np.ndarray:
    """Scale ``grad`` by reg2(F)^p * reg2(|grad|)^q * reg2(F/|grad|)^r.

    Total for any input: reg2 clamps its square from below at 1e-8, which
    keeps every factor strictly positive and finite; above the floor the
    clamp is inactive, so p = -1 divides by the Fisher norm exactly.
    """
    if f_norm < 0:
        raise ContractViolation(f"F_norm must be nonnegative, got {f_norm}")
    grad = np.asarray(grad, dtype=float)
    return _scale(f_norm, grad, params, layer) * grad


def _refresh_ema(params: RescalingParams, norms: np.ndarray, microbatch: Microbatch) -> None:
    """Fold this minibatch's mean squares of the regulated quantities into the EMA."""
    for l, jac in enumerate(microbatch.scored.seq_grads):
        col = norms[:, l]
        valid = ~np.isnan(col)
        if not np.any(valid):
            continue
        f_sq = col[valid] ** 2
        g_sq = np.sum(jac[valid] ** 2, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_sq = np.where(g_sq > 0, f_sq / g_sq, 0.0)
        ema_update(params.ema, (l, "fisher_sq"), float(f_sq.mean()))
        ema_update(params.ema, (l, "grad_sq"), float(g_sq.mean()))
        ema_update(params.ema, (l, "rel_sq"), float(rel_sq.mean()))


def noninteracting_update(
    microbatch: Microbatch,
    norms: np.ndarray,
    params: RescalingParams,
) -> list[np.ndarray]:
    """Advantage-weighted sum of per-sequence rescaled gradients, per layer.

    ``norms`` is the ``sequence_fisher_norms`` table of this microbatch.
    Sequences whose estimate is degenerate (NaN) contribute their
    advantage-weighted gradient unrescaled rather than being dropped.
    With p = q = r = 0 this reduces exactly to the vanilla policy-gradient
    microbatch sum.
    """
    advantages = microbatch.advantages
    _refresh_ema(params, norms, microbatch)
    grads = []
    for l, jac in enumerate(microbatch.scored.seq_grads):
        valid = ~np.isnan(norms[:, l])
        scale = np.ones(len(jac))  # degenerate fallback: no rescaling
        scale[valid] = _scale(norms[valid, l], jac[valid], params, l)
        grads.append(np.tensordot(advantages * scale, jac, axes=1))
    return grads


def build_ntk(jac: np.ndarray) -> np.ndarray:
    """Gram matrix K_ij = <grad_i, grad_j> of one layer's sequence gradients.

    ``jac`` stacks the m gradients as J (m, out, in + 1). K = J J^T is one
    matrix product of J with its own transpose, which BLAS evaluates as a
    symmetric rank-k update, so K is exactly symmetric.
    """
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 3 or jac.shape[0] == 0:
        raise ContractViolation(
            f"need a stack (m, out, in + 1) of at least one sequence gradient, got {jac.shape}"
        )
    flat = jac.reshape(jac.shape[0], -1)
    return flat @ flat.T


def interacting_update(jac: np.ndarray, advantages, c: float) -> np.ndarray:
    """NTK-preconditioned microbatch update sum_i [(K + cI)^-1 A]_i grad_i.

    ``jac`` stacks the sequence gradients as J (m, out, in + 1), and K = J J^T.
    """
    jac = np.asarray(jac, dtype=float)
    gram = build_ntk(jac)
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (jac.shape[0],):
        raise ContractViolation(
            f"{jac.shape[0]} gradients but {advantages.shape} advantages"
        )
    weights = solve_tikhonov(gram, c, advantages)
    return np.einsum("i,ijk->jk", weights, jac)


__all__ = [
    "RESCALE_FLOOR",
    "RegEmaState",
    "RescalingParams",
    "OverlapSamples",
    "ema_update",
    "fisher_norm_estimate",
    "draw_overlap_samples",
    "sequence_fisher_norms",
    "rescaling",
    "noninteracting_update",
    "build_ntk",
    "interacting_update",
]
