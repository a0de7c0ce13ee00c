"""Fisher-metric sequence rescaling and NTK-preconditioned microbatch updates.

Non-interacting variant
-----------------------
Each sequence's per-layer log-probability gradient V is rescaled before being
weighted by its advantage. The size of V in the Fisher metric is estimated
from a random subsample of the microbatch's per-position rank-one gradient
factors (g_j, a_j):

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
Per layer, the reduced per-sequence gradients are stacked into J and the
microbatch update is J^T (J J^T + c I)^-1 A, i.e. the advantage vector is
preconditioned by the layer's empirical neural tangent kernel K = J J^T
(Tikhonov-regularized by c) before the usual contraction with the gradients.
K is one matrix product, and (K + c I)^-1 A is a Cholesky solve, so no
eigendecomposition is needed: the mean NTK eigenvalue that sets c (and that
the ``l{l}_ntk_eigen_mean`` metrics column logs) is trace(K) / m.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, EstimatorDegenerateError
from .linalg import solve_tikhonov
from .policy import PositionGradFactors
from .tasks import Microbatch

log = logging.getLogger(__name__)

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

    The same position indices are used for every layer (one permutation per
    microbatch). ``denominators[l]`` caches sqrt(sum_j (|g_j||a_j|)^2) for
    layer l. ``seq_slices`` maps each sequence to its global position range,
    which supports optionally excluding a sequence's own positions from its
    estimate.
    """

    layers: list[PositionGradFactors]
    denominators: list[float]
    indices: np.ndarray
    seq_slices: list[tuple[int, int]]

    @property
    def n_samples(self) -> int:
        return int(self.indices.size)


@dataclass
class NtkDecomposition:
    """Empirical NTK of one layer's sequence gradients and its mean eigenvalue."""

    gram: np.ndarray
    mean_eig: float


@dataclass
class NonInteractingUpdate:
    layer_grads: list[np.ndarray]
    fisher_norms: np.ndarray  # (n_sequences, n_layers), NaN where degenerate
    degenerate_sequences: int


def _sample_denominator(factors: PositionGradFactors) -> float:
    scale = np.linalg.norm(factors.grad_out, axis=1) * np.linalg.norm(factors.act_in, axis=1)
    return float(np.linalg.norm(scale))


def fisher_norm_estimate(
    v: np.ndarray,
    factors: PositionGradFactors,
    denominator: float | None = None,
) -> float:
    """Stochastic Fisher-norm estimate of a layer-shaped update matrix ``v``."""
    v = np.asarray(v, dtype=float)
    if len(factors) == 0:
        raise ContractViolation("need at least one overlap sample")
    if v.shape != (factors.grad_out.shape[1], factors.act_in.shape[1]):
        raise ContractViolation(
            f"update shape {v.shape} does not match factors "
            f"({factors.grad_out.shape[1]}, {factors.act_in.shape[1]})"
        )
    if denominator is None:
        denominator = _sample_denominator(factors)
    if denominator == 0.0:
        raise EstimatorDegenerateError("all overlap samples are zero")
    proj = np.einsum("jo,jo->j", factors.grad_out, factors.act_in @ v.T)
    return float(np.linalg.norm(proj) / denominator)


def draw_overlap_samples(
    microbatch: Microbatch, n_overlap: int, rng: np.random.Generator
) -> OverlapSamples:
    """Uniform sample (without replacement) over all token positions in the batch."""
    if n_overlap < 1:
        raise ContractViolation("n_overlap must be >= 1")
    records = microbatch.records
    if not records:
        raise ContractViolation("empty microbatch")
    n_layers = len(records[0].factors)
    seq_slices = []
    start = 0
    for rec in records:
        n_pos = len(rec.factors[0])
        seq_slices.append((start, start + n_pos))
        start += n_pos
    total = start
    take = min(n_overlap, total)
    indices = np.sort(rng.permutation(total)[:take])

    layers = []
    denominators = []
    for l in range(n_layers):
        act = np.concatenate([rec.factors[l].act_in for rec in records], axis=0)
        gout = np.concatenate([rec.factors[l].grad_out for rec in records], axis=0)
        factors = PositionGradFactors(act[indices], gout[indices])
        layers.append(factors)
        denominators.append(_sample_denominator(factors))
    return OverlapSamples(layers, denominators, indices, seq_slices)


def sequence_fisher_norms(
    microbatch: Microbatch,
    samples: OverlapSamples,
    exclude_own: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(sequence, layer) Fisher-norm estimates under the shared sample set.

    Returns ``(norms, degenerate)`` where ``norms[i, l]`` is NaN when the
    estimate for that pair is degenerate (all-zero sequence gradient, or an
    empty/zero sample set) and ``degenerate[i]`` flags sequences with at least
    one degenerate layer.
    """
    records = microbatch.records
    n_layers = len(records[0].factors)
    norms = np.full((len(records), n_layers), np.nan)
    degenerate = np.zeros(len(records), dtype=bool)
    for l in range(n_layers):
        factors = samples.layers[l]
        denominator = samples.denominators[l]
        for i, rec in enumerate(records):
            v = rec.seq_grads[l]
            if not np.any(v):
                degenerate[i] = True
                continue
            fac, den = factors, denominator
            if exclude_own:
                lo, hi = samples.seq_slices[i]
                keep = (samples.indices < lo) | (samples.indices >= hi)
                if not np.any(keep):
                    degenerate[i] = True
                    continue
                fac = PositionGradFactors(factors.act_in[keep], factors.grad_out[keep])
                den = _sample_denominator(fac)
            if den == 0.0:
                degenerate[i] = True
                continue
            norms[i, l] = fisher_norm_estimate(v, fac, den)
    return norms, degenerate


def _reg2(x: float, key, params: RescalingParams) -> float:
    expectation = params.ema.value(key) if params.reg_strength > 0 else 0.0
    return float(np.sqrt(max(x * x + params.reg_strength * expectation, RESCALE_FLOOR)))


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
    grad_norm = float(np.linalg.norm(grad))
    rel = f_norm / grad_norm if grad_norm > 0 else 0.0
    scale = (
        _reg2(f_norm, (layer, "fisher_sq"), params) ** params.p
        * _reg2(grad_norm, (layer, "grad_sq"), params) ** params.q
        * _reg2(rel, (layer, "rel_sq"), params) ** params.r
    )
    return scale * grad


def _refresh_ema(params: RescalingParams, norms: np.ndarray, microbatch: Microbatch) -> None:
    """Fold this minibatch's mean squares of the regulated quantities into the EMA."""
    records = microbatch.records
    for l in range(norms.shape[1]):
        col = norms[:, l]
        valid = ~np.isnan(col)
        if not np.any(valid):
            continue
        f_sq = col[valid] ** 2
        g_sq = np.array(
            [np.sum(rec.seq_grads[l] ** 2) for rec, ok in zip(records, valid) if ok]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_sq = np.where(g_sq > 0, f_sq / g_sq, 0.0)
        ema_update(params.ema, (l, "fisher_sq"), float(f_sq.mean()))
        ema_update(params.ema, (l, "grad_sq"), float(g_sq.mean()))
        ema_update(params.ema, (l, "rel_sq"), float(rel_sq.mean()))


def noninteracting_update(
    microbatch: Microbatch,
    samples: OverlapSamples,
    params: RescalingParams,
    exclude_own: bool = False,
) -> NonInteractingUpdate:
    """Advantage-weighted sum of per-sequence rescaled gradients, per layer.

    Sequences whose estimate is degenerate contribute their advantage-weighted
    gradient unrescaled and are counted (and logged) rather than dropped.
    With p = q = r = 0 this reduces exactly to the vanilla policy-gradient
    microbatch sum.
    """
    records = microbatch.records
    advantages = microbatch.advantages
    norms, degenerate = sequence_fisher_norms(microbatch, samples, exclude_own)
    _refresh_ema(params, norms, microbatch)
    n_layers = norms.shape[1]
    grads = [np.zeros_like(records[0].seq_grads[l]) for l in range(n_layers)]
    for i, rec in enumerate(records):
        for l in range(n_layers):
            v = rec.seq_grads[l]
            if np.isnan(norms[i, l]):
                grads[l] += advantages[i] * v  # degenerate fallback: no rescaling
            else:
                grads[l] += advantages[i] * rescaling(v, norms[i, l], params, l)
    n_degenerate = int(np.count_nonzero(degenerate))
    if n_degenerate:
        log.debug("microbatch had %d estimator-degenerate sequences", n_degenerate)
    return NonInteractingUpdate(grads, norms, n_degenerate)


def _jacobian(seq_grads) -> np.ndarray:
    """One layer's sequence gradients as J of shape (m, out, in+1).

    A list is stacked; an already stacked array is used as is, so a caller
    that needs J for both the NTK and the update stacks it once.
    """
    if len(seq_grads) == 0:
        raise ContractViolation("need at least one sequence gradient")
    if not isinstance(seq_grads, np.ndarray):
        shape = np.shape(seq_grads[0])
        if any(np.shape(g) != shape for g in seq_grads):
            raise ContractViolation("sequence gradients must share a shape")
        seq_grads = np.stack(seq_grads)
    return np.asarray(seq_grads, dtype=float)


def build_ntk(seq_grads) -> NtkDecomposition:
    """Gram matrix K_ij = <grad_i, grad_j> of one layer's sequence gradients.

    ``seq_grads`` is a list of equally shaped gradients or their stack J.
    K = J J^T is one matrix product of J with its own transpose, which BLAS
    evaluates as a symmetric rank-k update, so K is exactly symmetric.
    """
    jac = _jacobian(seq_grads)
    m = jac.shape[0]
    flat = jac.reshape(m, -1)
    gram = flat @ flat.T
    return NtkDecomposition(gram, float(np.trace(gram)) / m)


def interacting_update(
    seq_grads,
    advantages,
    c: float,
    ntk: NtkDecomposition | None = None,
) -> np.ndarray:
    """NTK-preconditioned microbatch update sum_i [(K + cI)^-1 A]_i grad_i.

    ``seq_grads`` is a list of equally shaped gradients or their stack J;
    ``ntk`` may carry K already built from the same gradients.
    """
    jac = _jacobian(seq_grads)
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (jac.shape[0],):
        raise ContractViolation(
            f"{jac.shape[0]} gradients but {advantages.shape} advantages"
        )
    if ntk is None:
        ntk = build_ntk(jac)
    weights = solve_tikhonov(ntk.gram, c, advantages)
    return np.einsum("i,ijk->jk", weights, jac)


__all__ = [
    "RESCALE_FLOOR",
    "RegEmaState",
    "RescalingParams",
    "OverlapSamples",
    "NtkDecomposition",
    "NonInteractingUpdate",
    "ema_update",
    "fisher_norm_estimate",
    "draw_overlap_samples",
    "sequence_fisher_norms",
    "rescaling",
    "noninteracting_update",
    "build_ntk",
    "interacting_update",
]
