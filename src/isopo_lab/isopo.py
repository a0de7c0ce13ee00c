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
K_ij = <V_i, V_j>, Tikhonov-regularized by c, and solved by Cholesky. Each
layer forms one product of all its positions' factors, which gives both K
and every |V_i|^2 (``build_ntk``); the latter become ``Scored.sq_norms``.
Each layer's c is reg_factor times the EMA over steps of the mean NTK
eigenvalue trace(K) / m = mean_i |V_i|^2. All layers' systems are solved as
one stack (``ntk_weights``); one that is not finite or not positive definite
raises SingularMatrixError, which aborts the run.

EMA
---
Both variants read their settings from the run's ``RunConfig``. The EMAs
are the run's dict, keyed by (layer, quantity): "fisher_sq", "grad_sq" and
"rel_sq" for reg2, "ntk_mean_eig" for c. ``ema_update`` folds in one
minibatch mean with weight 1 - ema_decay; a key's first mean is adopted.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .errors import ContractViolation, SingularMatrixError
from .policy import Scored, block_sq_norms, grad_projections, grad_sum
from .tasks import Microbatch

RESCALE_FLOOR = 1e-8


def ema_update(ema: dict, key, mean: float, decay: float) -> float:
    """Fold one minibatch mean into ``ema[key]`` with weight 1 - decay; the
    first call for a key just adopts it."""
    if mean < 0:
        raise ContractViolation(f"EMA tracks nonnegative quantities, got {mean}")
    if key in ema:
        ema[key] = decay * ema[key] + (1.0 - decay) * mean
    else:
        ema[key] = float(mean)
    return ema[key]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: what ``np.linalg.norm(x, axis=-1)``
    computes for a real array, bit for bit, without its checks and copy."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _sample_denominator(act_in: np.ndarray, grad_out: np.ndarray) -> float:
    scale = row_norms(grad_out) * row_norms(act_in)
    return math.sqrt(scale.dot(scale))  # np.linalg.norm(scale), bit for bit


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
        sample_a = act_in.reshape(-1, act_in.shape[-1]).take(positions, axis=0)
        sample_g = grad_out.reshape(-1, grad_out.shape[-1]).take(positions, axis=0)
        denominator = _sample_denominator(sample_a, sample_g)
        if denominator == 0.0:
            degenerate[:] = True
            continue
        dead = ~(scored.sq_norms[l] > 0.0)
        degenerate |= dead
        proj = grad_projections(grad_out, act_in, sample_g, sample_a)
        norms[:, l] = row_norms(proj) / denominator
        norms[dead, l] = np.nan
    return norms, degenerate


def _reg2(x, key, cfg: RunConfig, ema: dict):
    sq = x * x
    # at reg_strength 0 no EMA entry is written, and x * x + 0.0 * 0.0 is x * x
    if cfg.reg_strength > 0:
        sq = sq + cfg.reg_strength * ema.get(key, 0.0)
    return np.sqrt(np.maximum(sq, RESCALE_FLOOR))


def _scale(f_norm, grad_sq, cfg: RunConfig, ema: dict, layer: int):
    """reg2(F)^p * reg2(|V|)^q * reg2(F/|V|)^r for Fisher norms F and squared
    Frobenius norms |V|^2.

    A factor whose exponent is zero is exactly 1.0 for every input, NaN and
    infinity included, so it is not computed; neither is |V| unless q or r
    is nonzero, nor F/|V| unless r is.
    """
    scale = 1.0
    if cfg.p:
        scale = scale * _reg2(f_norm, (layer, "fisher_sq"), cfg, ema) ** cfg.p
    if cfg.q or cfg.r:
        grad_norm = np.sqrt(grad_sq)
    if cfg.q:
        scale = scale * _reg2(grad_norm, (layer, "grad_sq"), cfg, ema) ** cfg.q
    if cfg.r:
        rel = np.divide(f_norm, grad_norm, out=np.zeros_like(grad_norm), where=grad_norm > 0)
        scale = scale * _reg2(rel, (layer, "rel_sq"), cfg, ema) ** cfg.r
    return scale


def rescaling(
    grad: np.ndarray, f_norm: float, cfg: RunConfig, ema: dict, layer: int = 0
) -> np.ndarray:
    """Scale ``grad`` by reg2(F)^p * reg2(|grad|)^q * reg2(F/|grad|)^r.

    Total for any input: reg2 clamps its square from below at 1e-8, which
    keeps every factor strictly positive and finite; above the floor the
    clamp is inactive, so p = -1 divides by the Fisher norm exactly.
    """
    if f_norm < 0:
        raise ContractViolation(f"F_norm must be nonnegative, got {f_norm}")
    grad = np.asarray(grad, dtype=float)
    return _scale(f_norm, np.sum(grad * grad), cfg, ema, layer) * grad


def _refresh_ema(cfg: RunConfig, ema: dict, norms: np.ndarray, microbatch: Microbatch) -> None:
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
        ema_update(ema, (l, "fisher_sq"), float(f_sq.mean()), cfg.ema_decay)
        ema_update(ema, (l, "grad_sq"), float(g_sq.mean()), cfg.ema_decay)
        ema_update(ema, (l, "rel_sq"), float(rel_sq.mean()), cfg.ema_decay)


def noninteracting_update(
    microbatch: Microbatch, norms: np.ndarray, cfg: RunConfig, ema: dict, out=None
) -> list[np.ndarray]:
    """Advantage-weighted sum of per-sequence rescaled gradients, per layer,
    written into the per-layer arrays ``out`` if given.

    ``norms`` is the ``sequence_fisher_norms`` table of this microbatch.
    Sequences whose estimate is degenerate (NaN) contribute their
    advantage-weighted gradient unrescaled rather than being dropped.
    With p = q = r = 0 this reduces exactly to the vanilla policy-gradient
    microbatch sum. The EMA that regularizes the rescaling is kept up only
    when ``reg_strength > 0``, the only case that reads it.
    """
    advantages = microbatch.advantages
    scored = microbatch.scored
    if cfg.reg_strength > 0:
        _refresh_ema(cfg, ema, norms, microbatch)
    grads = []
    for l, (sq_norms, o) in enumerate(zip(scored.sq_norms, out or [None] * len(scored.act_in))):
        f_norms = norms[:, l]
        # degenerate fallback: no rescaling. The scale is elementwise, so a
        # valid entry's bits do not depend on the NaN entries beside it
        scale = np.where(np.isnan(f_norms), 1.0, _scale(f_norms, sq_norms, cfg, ema, l))
        grads.append(grad_sum(scored.grad_out[l], scored.act_in[l], advantages * scale, o))
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


def build_ntk(grad_out, act_in) -> tuple[np.ndarray, np.ndarray]:
    """One layer's NTK, the Gram matrix K_ij = <V_i, V_j> of its sequence
    gradients, and every |V_i|^2, from their factors grad_out (m, T, out) and
    act_in (m, T, in + 1) through one position product.

    With G and A stacking the factors of all m T positions, block (i, j) of
    P = (G G^T) * (A A^T) holds (g_it . g_js)(a_it . a_js). K sums each block
    over t and then, in order, over s, and is symmetrized exactly, since block
    sums in different orders round differently. |V_i|^2 is
    ``policy.block_sq_norms`` of the diagonal blocks.
    """
    grad_out, act_in = _as_factors(grad_out, act_in)
    m, seq_len = grad_out.shape[:2]
    g = grad_out.reshape(m * seq_len, -1)
    a = act_in.reshape(m * seq_len, -1)
    # each second operand a transposed view of the first: numpy's syrk
    prod = g @ g.T
    prod *= a @ a.T
    blocks = prod.reshape(m, seq_len, m, seq_len)
    diag = np.arange(m)
    sq_norms = block_sq_norms(blocks[diag, :, diag, :])
    per_s = np.add.reduce(blocks, axis=1)  # (m, m, T)
    # numpy's order for a last axis shorter than 8, without its per-entry loop
    gram = per_s[..., 0].copy()
    for s in range(1, seq_len):
        gram += per_s[..., s]
    return 0.5 * (gram + gram.T), sq_norms


def ntk_weights(grams, advantages, cs) -> np.ndarray:
    """The weights (K_l + c_l I)^-1 A (L, m) of L layers' NTKs ``grams``, each
    with its Tikhonov constant ``cs[l]``.

    The L systems are one (L, m, m) stack: one finiteness test, one Cholesky
    and two solves, each bit for bit the per-layer call. Raises
    ContractViolation for a c < 0 or advantages that are not one per
    sequence, and SingularMatrixError naming the c of the first layer whose
    K + cI is not finite or not numerically positive definite.
    """
    systems = np.stack(grams)
    n_layers, m = systems.shape[:2]
    cs = np.asarray(cs, dtype=float)
    if np.any(cs < 0):
        raise ContractViolation(f"regularization must be nonnegative, got {cs}")
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (m,):
        raise ContractViolation(f"{m} sequences but advantages of shape {advantages.shape}")
    diag = np.arange(m)
    systems[:, diag, diag] += cs[:, None]
    try:
        # numpy's cholesky passes NaN through without raising
        if not np.all(np.isfinite(systems)):
            raise np.linalg.LinAlgError
        chol = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        for system, c in zip(systems, cs):
            if not np.all(np.isfinite(system)):
                raise SingularMatrixError(f"K + cI with c = {c:.3e} is not finite") from None
            try:
                np.linalg.cholesky(system)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"K + cI with c = {c:.3e} is not positive definite"
                ) from exc
        raise
    rhs = np.broadcast_to(advantages[:, None], (n_layers, m, 1))
    return np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, rhs))[..., 0]


def mean_ntk_eigenvalue(sq_norms) -> float:
    """The mean eigenvalue trace(K) / m = mean_i |V_i|^2 of a layer's NTK."""
    return float(np.add.reduce(sq_norms) / len(sq_norms))  # np.mean, bit for bit


def interacting_update(
    microbatch: Microbatch, cfg: RunConfig, ema: dict, out=None
) -> list[np.ndarray]:
    """NTK-preconditioned update sum_i [(K + cI)^-1 A]_i V_i of every layer,
    written into the per-layer arrays ``out`` if given.

    Each layer's ``build_ntk`` gives K and the |V_i|^2, which become the
    microbatch's ``Scored.sq_norms``, so its row reads the bits c read. c is
    reg_factor times the EMA over steps of the layer's mean NTK eigenvalue
    mean_i |V_i|^2, and ``ntk_weights`` solves every layer's system at once.
    """
    scored = microbatch.scored
    grams, sq_norms = zip(*map(build_ntk, scored.grad_out, scored.act_in))
    scored.sq_norms = list(sq_norms)
    cs = [
        cfg.reg_factor * ema_update(ema, (l, "ntk_mean_eig"), mean_eig, cfg.ema_decay)
        for l, mean_eig in enumerate(map(mean_ntk_eigenvalue, sq_norms))
    ]
    weights = ntk_weights(grams, microbatch.advantages, cs)
    layers = zip(scored.grad_out, scored.act_in, weights, out or [None] * len(grams))
    return [grad_sum(g, a, w, o) for g, a, w, o in layers]
