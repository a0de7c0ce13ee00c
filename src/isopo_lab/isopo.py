"""Fisher-metric sequence rescaling and NTK-preconditioned microbatch updates.

Non-interacting variant
-----------------------
Each sequence's per-layer log-probability gradient V is rescaled before being
weighted by its advantage. Its size in the Fisher metric is estimated from a
random sample of the microbatch's per-position rank-one gradient factors
(g_j, a_j), positions of the flattened (B, T) grid (``overlap_positions``):

    F_norm(V) = sqrt( sum_j (g_j . V a_j)^2 ) / sqrt( sum_j (|g_j| |a_j|)^2 )

The denominator removes the overall scale of the samples. The rescaling
multiplies V by

    reg2(F_norm)^p * reg2(|V|)^q * reg2(F_norm / |V|)^r

with reg2(x) = sqrt(max(x^2 + reg_strength * EMA[x^2], 1e-8)). p = -1
normalizes each sequence in the estimated Fisher metric, exactly once the
square clears the floor, which bounds its contribution to the policy's KL
movement; r = -2 gives the scalar multiple of V closest to the natural
gradient. A sequence is degenerate in a layer when |V_b|^2 == 0, or when
every sample is zero. Everything is computed from the factors (the
identities are in ``policy``); ``oracle.naive_fisher_norm`` is the reference
on materialized matrices.

Interacting variant
-------------------
Per layer, the update is sum_i [(K + c I)^-1 A]_i V_i: the advantages A are
preconditioned by the layer's empirical neural tangent kernel
K_ij = <V_i, V_j>, Tikhonov-regularized by c, and solved by Cholesky. A
system that is not finite or not positive definite raises
SingularMatrixError, which aborts the run. Each layer's c is reg_factor
times the EMA over steps of the mean NTK eigenvalue trace(K) / m =
mean_i |V_i|^2 (``Scored.sq_norms``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, SingularMatrixError
from .policy import Scored, grad_projections, grad_sum
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


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: what ``np.linalg.norm(x, axis=-1)``
    computes for a real array, bit for bit, without its checks and copy."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _sample_denominator(act_in: np.ndarray, grad_out: np.ndarray) -> float:
    scale = row_norms(grad_out) * row_norms(act_in)
    return float(np.sqrt(scale.dot(scale)))  # np.linalg.norm(scale), bit for bit


def overlap_positions(rng: np.random.Generator, n_positions: int, n_overlap: int) -> np.ndarray:
    """A uniform sample without replacement of min(n_overlap, n_positions) of
    a microbatch's n_positions = B T positions, sorted: the first entries of
    ``rng.permutation(n_positions)``."""
    if n_overlap < 1:
        raise ContractViolation("n_overlap must be >= 1")
    if n_positions == 0:
        raise ContractViolation("empty microbatch")
    return np.sort(rng.permutation(n_positions)[: min(n_overlap, n_positions)])


def sequence_fisher_norms(
    scored: Scored, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(sequence, layer) Fisher-norm estimates of ``scored``'s sequence
    gradients, from the factors at the overlap ``positions``: indices into the
    C-order flattening of the (B, T) grid (``overlap_positions``), the same
    in every layer.

    Returns ``(norms, degenerate)`` where ``norms[i, l]`` is NaN when the
    estimate for that pair is degenerate (|V_i|^2 == 0 in layer l, or an
    all-zero sample set) and ``degenerate[i]`` flags sequences with at least
    one degenerate layer.
    """
    n_seq = len(scored.logprobs)
    norms = np.full((n_seq, len(scored.grad_out)), np.nan)
    degenerate = np.zeros(n_seq, dtype=bool)
    for l, (act_in, grad_out) in enumerate(zip(scored.act_in, scored.grad_out)):
        sample_a = act_in.reshape(-1, act_in.shape[-1])[positions]
        sample_g = grad_out.reshape(-1, grad_out.shape[-1])[positions]
        denominator = _sample_denominator(sample_a, sample_g)
        if denominator == 0.0:
            degenerate[:] = True
            continue
        live = scored.sq_norms[l] > 0.0
        degenerate |= ~live
        proj = grad_projections(grad_out, act_in, sample_g, sample_a)
        norms[live, l] = row_norms(proj[live]) / denominator
    return norms, degenerate


def _reg2(x, key, params: RescalingParams):
    return np.sqrt(np.maximum(x * x + params.reg_strength * params.ema.value(key), RESCALE_FLOOR))


def _scale(f_norm, grad_norm, params: RescalingParams, layer: int):
    """reg2(F)^p * reg2(|V|)^q * reg2(F/|V|)^r for Fisher norms F and Frobenius norms |V|.

    A factor whose exponent is zero is exactly 1.0 for every input, NaN and
    infinity included, so it is not computed; neither is F/|V| unless r != 0.
    """
    scale = 1.0
    if params.p:
        scale = scale * _reg2(f_norm, (layer, "fisher_sq"), params) ** params.p
    if params.q:
        scale = scale * _reg2(grad_norm, (layer, "grad_sq"), params) ** params.q
    if params.r:
        rel = np.divide(f_norm, grad_norm, out=np.zeros_like(grad_norm), where=grad_norm > 0)
        scale = scale * _reg2(rel, (layer, "rel_sq"), params) ** params.r
    return scale


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
    return _scale(f_norm, np.sqrt(np.sum(grad * grad)), params, layer) * grad


def _refresh_ema(params: RescalingParams, norms: np.ndarray, microbatch: Microbatch) -> None:
    """Fold this minibatch's mean squares of the regulated quantities into the EMA."""
    for l, sq_norms in enumerate(microbatch.scored.sq_norms):
        col = norms[:, l]
        valid = ~np.isnan(col)
        if not np.any(valid):
            continue
        f_sq = col[valid] ** 2
        g_sq = sq_norms[valid]
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
    microbatch sum. The EMA that regularizes the rescaling is kept up only
    when ``reg_strength > 0``, the only case that reads it.
    """
    advantages = microbatch.advantages
    scored = microbatch.scored
    if params.reg_strength > 0:
        _refresh_ema(params, norms, microbatch)
    grads = []
    for l, sq_norms in enumerate(scored.sq_norms):
        valid = ~np.isnan(norms[:, l])
        scale = np.ones(len(sq_norms))  # degenerate fallback: no rescaling
        scale[valid] = _scale(norms[valid, l], np.sqrt(sq_norms[valid]), params, l)
        grads.append(grad_sum(scored.grad_out[l], scored.act_in[l], advantages * scale))
    return grads


def _as_factors(grad_out, act_in) -> tuple[np.ndarray, np.ndarray]:
    grad_out = np.asarray(grad_out, dtype=float)
    act_in = np.asarray(act_in, dtype=float)
    if (grad_out.ndim, act_in.ndim) != (3, 3) or act_in.shape[:2] != grad_out.shape[:2]:
        raise ContractViolation(
            f"need factors (m, T, out) and (m, T, in + 1), got {grad_out.shape} and {act_in.shape}"
        )
    if not len(grad_out):
        raise ContractViolation("need at least one sequence")
    return grad_out, act_in


def build_ntk(grad_out, act_in) -> np.ndarray:
    """Gram matrix K_ij = <V_i, V_j> of one layer's sequence gradients, from their
    factors grad_out (m, T, out) and act_in (m, T, in + 1).

    K is the block sum over positions (t, s) of (G G^T) * (A A^T), with G and
    A stacking the factors of all m T positions; it is symmetrized exactly,
    since block sums in different orders round differently.
    """
    grad_out, act_in = _as_factors(grad_out, act_in)
    m, seq_len = grad_out.shape[:2]
    # (m, m T): the projections of every V_i onto the factors of every position
    blocks = grad_projections(
        grad_out, act_in, grad_out.reshape(m * seq_len, -1), act_in.reshape(m * seq_len, -1)
    )
    gram = blocks.reshape(m, m, seq_len).sum(axis=2)
    return 0.5 * (gram + gram.T)


def interacting_update(grad_out, act_in, advantages, c: float) -> np.ndarray:
    """NTK-preconditioned microbatch update sum_i [(K + cI)^-1 A]_i V_i of one
    layer, from the factors of its sequence gradients (see ``build_ntk``).

    Raises ContractViolation for c < 0 or advantages that are not one per
    sequence, and SingularMatrixError when K + cI is not finite or not
    numerically positive definite.
    """
    if c < 0:
        raise ContractViolation(f"regularization must be nonnegative, got {c}")
    gram = build_ntk(grad_out, act_in)
    m = len(gram)
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (m,):
        raise ContractViolation(f"{m} sequences but advantages of shape {advantages.shape}")
    system = gram + c * np.eye(m)
    # numpy's cholesky passes NaN through without raising
    if not np.all(np.isfinite(system)):
        raise SingularMatrixError(f"K + cI with c = {c:.3e} is not finite")
    try:
        chol = np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"K + cI with c = {c:.3e} is not positive definite") from exc
    weights = np.linalg.solve(chol.T, np.linalg.solve(chol, advantages))
    return grad_sum(grad_out, act_in, weights)


def mean_ntk_eigenvalue(sq_norms) -> float:
    """The mean eigenvalue trace(K) / m = mean_i |V_i|^2 of a layer's NTK."""
    return float(np.mean(sq_norms))


def interacting_microbatch_update(
    microbatch: Microbatch, reg_factor: float, ema: RegEmaState
) -> list[np.ndarray]:
    """Every layer's ``interacting_update`` with c = reg_factor * ``ema`` over steps
    of the layer's mean NTK eigenvalue mean_i |V_i|^2 (``Scored.sq_norms``)."""
    advantages = microbatch.advantages
    scored = microbatch.scored
    grads = []
    for l, sq_norms in enumerate(scored.sq_norms):
        c = reg_factor * ema_update(ema, (l, "ntk_mean_eig"), mean_ntk_eigenvalue(sq_norms))
        grads.append(interacting_update(scored.grad_out[l], scored.act_in[l], advantages, c))
    return grads
