"""REINFORCE and sequence-level clipped-GRPO references, plus optimizers.

Both gradients are weighted sums sum_b w_b V_b of the sequence
log-probability gradients, taken from the scored factors
(``policy.grad_sum``). REINFORCE weights by the advantages. GRPO reuses one
sampled microbatch over several inner epochs, weighting each sequence by its
importance ratio to the sampling-time policy, the batch's own
``scored.logprobs``, and dropping sequences whose ratio left [1-eps, 1+eps]
in the unfavorable direction. Every surrogate re-scores the batch with
``policy.rescore``, which shares and does not write the batch's arrays. A
ratio that overflows raises FloatingPointError, an ArithmeticError, so the
run aborts instead of dropping the sequence. Given ``out``, the per-layer
views ``PolicyNet.split`` of one flat gradient, a gradient writes there.

Both optimizers descend, theta <- theta - lr * g, elementwise over the
policy's flat ``params`` and one flat gradient, computing into buffers that
``OptimizerState`` owns. ``optimizer_step`` checks the gradient, the updated
weights and AdamW's second moment for finiteness before it writes the
weights or swaps the moments in, so a failing step leaves weights, moments
and step count as they were, and an aborted run keeps its last finite weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import ContractViolation, NonFiniteGradientError, NonFiniteWeightError
from .policy import PolicyNet, Scored, grad_sum, rescore
from .tasks import Microbatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _weighted_grads(scored: Scored, weights, out=None) -> list[np.ndarray]:
    """Per layer, sum_b weights[b] V_b (``grad_sum``), the weights checked once."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != scored.logprobs.shape:
        raise ContractViolation(
            f"{len(scored.logprobs)} sequences but weights of shape {weights.shape}"
        )
    out = out or [None] * len(scored.grad_out)
    return [grad_sum(g, a, weights, o) for g, a, o in zip(scored.grad_out, scored.act_in, out)]


def reinforce_grad(microbatch: Microbatch, out=None) -> list[np.ndarray]:
    """Per-layer sum of advantage-weighted sequence gradients."""
    return _weighted_grads(microbatch.scored, microbatch.advantages, out)


def _ratios(microbatch: Microbatch, current: Scored) -> np.ndarray:
    """Each sequence's ratio to its sampling-time probability."""
    with np.errstate(over="raise"):
        return np.exp(current.logprobs - microbatch.scored.logprobs)


def grpo_clipped_grad(
    microbatch: Microbatch, net: PolicyNet, clip_eps: float, out=None
) -> list[np.ndarray]:
    """Gradient of sum_o min(rho_o A_o, clip(rho_o, 1-eps, 1+eps) A_o) at ``net``."""
    if clip_eps <= 0:
        raise ContractViolation(f"clip_eps must be positive, got {clip_eps}")
    current = rescore(net, microbatch.scored)
    rho = _ratios(microbatch, current)
    advantages = microbatch.advantages
    # gradient flows through the min() only while the ratio branch is active
    active = np.where(advantages >= 0, rho <= 1.0 + clip_eps, rho >= 1.0 - clip_eps)
    coeff = np.where(active, rho * advantages, 0.0)
    return _weighted_grads(current, coeff, out)


def grpo_surrogate(microbatch: Microbatch, net: PolicyNet, clip_eps: float) -> float:
    """Scalar clipped surrogate objective (used by gradient checks)."""
    rho = _ratios(microbatch, rescore(net, microbatch.scored))
    advantages = microbatch.advantages
    clipped = np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps)
    return float(np.sum(np.minimum(rho * advantages, clipped * advantages)))


def reinforce_surrogate(microbatch: Microbatch, net: PolicyNet) -> float:
    """Scalar objective sum_o A_o log pi(o) (used by gradient checks)."""
    return float(microbatch.advantages @ rescore(net, microbatch.scored).logprobs)


@dataclass
class OptimizerState:
    """SGD or AdamW state over a policy's flat ``params``.

    AdamW's moments are flat vectors in the layout of ``params``, None before
    the first step; ``scratch`` holds the step's new moments, a temporary and
    the updated weights in four more.
    """

    step_count: int = 0
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None
    scratch: list[np.ndarray] = field(default_factory=list, repr=False)


def optimizer_step(
    cfg: RunConfig, state: OptimizerState, net: PolicyNet, grad: np.ndarray
) -> PolicyNet:
    """Apply theta <- theta - lr * (preconditioned) grad in place, with the
    config's ``optimizer`` and ``lr``, for ``grad`` in the layout of ``net.params``.

    AdamW uses the standard bias-corrected moment estimates (weight decay
    zero). Raises NonFiniteGradientError for a NaN or infinite gradient or
    second moment (an inf one would make every later update 0), and
    NonFiniteWeightError for a NaN or infinite updated weight; either way
    before touching any weight or the state.
    """
    if np.shape(grad) != net.params.shape:
        raise ContractViolation(f"gradient shape {np.shape(grad)} != params {net.params.shape}")
    if not state.scratch:
        state.scratch = [np.empty_like(net.params) for _ in range(4)]
    m, v, tmp, updated = state.scratch
    t = state.step_count + 1
    # an overflow shows as a non-finite updated weight or second moment, which a check reports
    with np.errstate(over="ignore", invalid="ignore"):
        _check_finite(net, grad, NonFiniteGradientError, "gradient")
        if cfg.optimizer == "sgd":
            np.subtract(net.params, np.multiply(cfg.lr, grad, out=tmp), out=updated)
        else:
            first = state.exp_avg is None  # the moments grow from zero
            np.multiply(0.0 if first else state.exp_avg, ADAM_BETA1, out=m)
            np.multiply(0.0 if first else state.exp_avg_sq, ADAM_BETA2, out=v)
            m += np.multiply(1.0 - ADAM_BETA1, grad, out=tmp)
            v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=tmp), grad, out=tmp)
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            # theta - lr * (m / bc1) / (sqrt(v / bc2) + eps), operation by operation
            denominator = np.sqrt(np.divide(v, bc2, out=updated), out=updated)
            denominator += ADAM_EPS
            step = np.multiply(cfg.lr, np.divide(m, bc1, out=tmp), out=tmp)
            np.subtract(net.params, np.divide(step, denominator, out=tmp), out=updated)
        _check_finite(net, updated, NonFiniteWeightError, "updated weight")
        if cfg.optimizer == "adamw":
            _check_finite(net, v, NonFiniteGradientError, "second moment")
    state.step_count = t
    if cfg.optimizer == "adamw":
        if state.exp_avg is None:
            state.exp_avg, state.exp_avg_sq = np.empty_like(m), np.empty_like(v)
        state.exp_avg, state.scratch[0] = m, state.exp_avg
        state.exp_avg_sq, state.scratch[1] = v, state.exp_avg_sq
    net.params[...] = updated
    return net


def _check_finite(net: PolicyNet, flat: np.ndarray, error, what: str) -> None:
    """``error`` naming the first layer of ``flat`` (in the layout of
    ``net.params``) that holds a NaN or an infinity, and how many."""
    if math.isfinite(flat.sum()):  # a NaN or an infinity makes the sum NaN or infinite
        return
    for l, layer in enumerate(net.split(flat)):
        bad = int(np.count_nonzero(~np.isfinite(layer)))
        if bad:
            raise error(f"layer {l} {what} has {bad} non-finite entries")
