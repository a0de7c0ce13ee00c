"""REINFORCE and sequence-level clipped-GRPO references, plus optimizers.

Both gradients are weighted sums sum_b w_b V_b of the sequence
log-probability gradients, taken from the scored factors
(``policy.grad_sum``). REINFORCE weights by the advantages. GRPO reuses one
sampled microbatch over several inner epochs, weighting each sequence by its
importance ratio to the sampling-time policy, the batch's own
``scored.logprobs``, and dropping sequences whose ratio left [1-eps, 1+eps]
in the unfavorable direction. Every surrogate re-scores the batch under its
own layer-0 inputs ``scored.act_in[0]``, which it shares and does not write.
A ratio that overflows raises FloatingPointError, an ArithmeticError, so the
run aborts instead of dropping the sequence.

Both optimizers descend, theta <- theta - lr * g, elementwise over the
policy's flat ``params``. ``optimizer_step`` checks the gradients and then
the updated weights for finiteness before it writes anything, so an aborted
run keeps its last finite weights, which ``policy.load_checkpoint`` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ContractViolation, NonFiniteGradientError, NonFiniteWeightError
from .policy import PolicyNet, Scored, grad_sum, score
from .tasks import Microbatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _weighted_grads(scored: Scored, weights) -> list[np.ndarray]:
    """Per layer, sum_b weights[b] V_b (``grad_sum``), the weights checked once."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != scored.logprobs.shape:
        raise ContractViolation(
            f"{len(scored.logprobs)} sequences but weights of shape {weights.shape}"
        )
    return [grad_sum(g, a, weights) for g, a in zip(scored.grad_out, scored.act_in)]


def reinforce_grad(microbatch: Microbatch) -> list[np.ndarray]:
    """Per-layer sum of advantage-weighted sequence gradients."""
    return _weighted_grads(microbatch.scored, microbatch.advantages)


def _rescore(microbatch: Microbatch, net: PolicyNet) -> Scored:
    """``score`` of the microbatch at ``net``, under its own layer-0 inputs."""
    return score(net, microbatch.scored.act_in[0], microbatch.tokens)


def _ratios(microbatch: Microbatch, current: Scored) -> np.ndarray:
    """Each sequence's ratio to its sampling-time probability."""
    with np.errstate(over="raise"):
        return np.exp(current.logprobs - microbatch.scored.logprobs)


def grpo_clipped_grad(microbatch: Microbatch, net: PolicyNet, clip_eps: float) -> list[np.ndarray]:
    """Gradient of sum_o min(rho_o A_o, clip(rho_o, 1-eps, 1+eps) A_o) at ``net``."""
    if clip_eps <= 0:
        raise ContractViolation(f"clip_eps must be positive, got {clip_eps}")
    current = _rescore(microbatch, net)
    rho = _ratios(microbatch, current)
    advantages = microbatch.advantages
    # gradient flows through the min() only while the ratio branch is active
    active = np.where(advantages >= 0, rho <= 1.0 + clip_eps, rho >= 1.0 - clip_eps)
    coeff = np.where(active, rho * advantages, 0.0)
    return _weighted_grads(current, coeff)


def grpo_surrogate(microbatch: Microbatch, net: PolicyNet, clip_eps: float) -> float:
    """Scalar clipped surrogate objective (used by gradient checks)."""
    rho = _ratios(microbatch, _rescore(microbatch, net))
    advantages = microbatch.advantages
    clipped = np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps)
    return float(np.sum(np.minimum(rho * advantages, clipped * advantages)))


def reinforce_surrogate(microbatch: Microbatch, net: PolicyNet) -> float:
    """Scalar objective sum_o A_o log pi(o) (used by gradient checks)."""
    return float(microbatch.advantages @ _rescore(microbatch, net).logprobs)


@dataclass
class OptimizerState:
    """SGD or AdamW state over a policy's flat ``params``.

    AdamW's moments are flat vectors in the layout of ``params``.
    """

    step_count: int = 0
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None


def optimizer_step(
    cfg: RunConfig, state: OptimizerState, net: PolicyNet, grads: list[np.ndarray]
) -> PolicyNet:
    """Apply theta <- theta - lr * (preconditioned) grads in place, with the
    config's ``optimizer`` and ``lr``.

    AdamW uses the standard bias-corrected moment estimates (weight decay
    zero). Raises NonFiniteGradientError if a gradient contains NaN or
    infinities, and NonFiniteWeightError if an updated weight would be NaN
    or infinite; either way before touching any weight or the state. The
    update is elementwise, so it runs once over ``net.params`` and the
    gradients flattened into its layout.
    """
    if len(grads) != net.n_layers:
        raise ContractViolation(f"{len(grads)} gradients for {net.n_layers} layers")
    for l, (w, g) in enumerate(zip(net.weights, grads)):
        if g.shape != w.shape:
            raise ContractViolation(f"layer {l} gradient shape {g.shape} != {w.shape}")
    flat = net.flatten(grads)
    t = state.step_count + 1
    # an overflow shows as a non-finite updated weight, which the check reports
    with np.errstate(over="ignore", invalid="ignore"):
        _check_finite(net, flat, NonFiniteGradientError, "gradient")
        if cfg.optimizer == "sgd":
            updated = net.params - cfg.lr * flat
        else:
            m = np.zeros_like(flat) if state.exp_avg is None else state.exp_avg * ADAM_BETA1
            v = np.zeros_like(flat) if state.exp_avg is None else state.exp_avg_sq * ADAM_BETA2
            m += (1.0 - ADAM_BETA1) * flat
            v += (1.0 - ADAM_BETA2) * flat * flat
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            updated = net.params - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        _check_finite(net, updated, NonFiniteWeightError, "updated weight")
    state.step_count = t
    if cfg.optimizer == "adamw":
        state.exp_avg, state.exp_avg_sq = m, v
    net.params[...] = updated
    return net


def _check_finite(net: PolicyNet, flat: np.ndarray, error, what: str) -> None:
    """``error`` naming the first layer of ``flat`` (in the layout of
    ``net.params``) that holds a NaN or an infinity, and how many."""
    if np.isfinite(flat.sum()):  # a NaN or an infinity makes the sum NaN or infinite
        return
    for l, layer in enumerate(net.split(flat)):
        bad = int(np.count_nonzero(~np.isfinite(layer)))
        if bad:
            raise error(f"layer {l} {what} has {bad} non-finite entries")
