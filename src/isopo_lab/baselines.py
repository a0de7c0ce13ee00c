"""REINFORCE and sequence-level clipped-GRPO references, plus optimizers.

REINFORCE is the plain advantage-weighted sum of sequence log-probability
gradients. Both gradients are weighted sums sum_b w_b V_b of the sequence
gradients, and both are taken from the scored factors as one gemm per layer
over the microbatch's B T positions (``policy.grad_sum``), without forming
any V_b. GRPO reuses the same sampled microbatch over several inner epochs,
weighting each sequence by its importance ratio to the sampling-time policy
and dropping (clipping flat) sequences whose ratio left [1-eps, 1+eps] in the
unfavorable direction. The sampling-time policy is held as a snapshot array
of per-sequence log-probabilities, the microbatch's own
``scored.logprobs``. Each inner epoch re-scores the whole microbatch in one
teacher-forced pass. Its inputs depend on the prompts and tokens alone, not
on the weights, and the sampled batch already holds them: its layer-0
inputs ``scored.act_in[0]`` without their constant column are the
teacher-forced inputs value for value, so no epoch builds them again. On
the first inner epoch the ratio is exactly 1 and the two gradients
coincide. A ratio that overflows raises FloatingPointError (an
ArithmeticError), so the training loop aborts instead of silently dropping
the sequence.

Both optimizers follow the descent convention theta <- theta - lr * g, so the
training loop passes the negated ascent gradient. Their update is
elementwise, so ``optimizer_step`` runs it once over all layers: it
concatenates the gradients and the weights, keeps AdamW's two moments as one
flat vector each over the layers in order, checks the gradients and then the
updated weights for finiteness in one pass each, and only then writes each
layer's slice of the updated weights back into its weight matrix, so a step
that would write a NaN or an infinity writes nothing and the run aborts with
its last finite weights, which ``policy.load_checkpoint`` accepts. Per
element this is the per-layer rule, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NonFiniteGradientError, NonFiniteWeightError
from .policy import PolicyNet, Scored, grad_sum, score, sequence_logprobs
from .tasks import Microbatch


def _weighted_grads(scored: Scored, weights: np.ndarray) -> list[np.ndarray]:
    return [grad_sum(g, a, weights) for g, a in zip(scored.grad_out, scored.act_in)]


def reinforce_grad(microbatch: Microbatch) -> list[np.ndarray]:
    """Per-layer sum of advantage-weighted sequence gradients."""
    return _weighted_grads(microbatch.scored, microbatch.advantages)


def _ratios(logprobs: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
    if snapshot.shape != logprobs.shape:
        raise ContractViolation("snapshot size does not match microbatch")
    with np.errstate(over="raise"):
        return np.exp(logprobs - snapshot)


def grpo_clipped_grad(
    microbatch: Microbatch,
    snapshot: np.ndarray,
    net: PolicyNet,
    clip_eps: float,
) -> list[np.ndarray]:
    """Gradient of sum_o min(rho_o A_o, clip(rho_o, 1-eps, 1+eps) A_o) at ``net``.

    ``snapshot`` holds the sampling-time log-probabilities, one per sequence.
    The microbatch is re-scored at ``net`` from its sampled layer-0 inputs,
    which are its teacher-forced inputs value for value.
    """
    if clip_eps <= 0:
        raise ContractViolation(f"clip_eps must be positive, got {clip_eps}")
    inputs = microbatch.scored.act_in[0][..., :-1]  # without the bias column
    current = score(net, microbatch.features, microbatch.tokens, inputs)
    rho = _ratios(current.logprobs, snapshot)
    advantages = microbatch.advantages
    # gradient flows through the min() only while the ratio branch is active
    active = np.where(advantages >= 0, rho <= 1.0 + clip_eps, rho >= 1.0 - clip_eps)
    coeff = np.where(active, rho * advantages, 0.0)
    return _weighted_grads(current, coeff)


def grpo_surrogate(
    microbatch: Microbatch,
    snapshot: np.ndarray,
    net: PolicyNet,
    clip_eps: float,
) -> float:
    """Scalar clipped surrogate objective (used by gradient checks)."""
    rho = _ratios(sequence_logprobs(net, microbatch.features, microbatch.tokens), snapshot)
    advantages = microbatch.advantages
    clipped = np.clip(rho, 1.0 - clip_eps, 1.0 + clip_eps)
    return float(np.sum(np.minimum(rho * advantages, clipped * advantages)))


def reinforce_surrogate(microbatch: Microbatch, net: PolicyNet) -> float:
    """Scalar objective sum_o A_o log pi(o) (used by gradient checks)."""
    logprobs = sequence_logprobs(net, microbatch.features, microbatch.tokens)
    return float(microbatch.advantages @ logprobs)


@dataclass
class OptimizerState:
    """SGD or AdamW state over the policy's list-of-matrices parameters.

    AdamW's moments are flat vectors over all layers, in layer order.
    """

    kind: str = "adamw"
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sgd", "adamw"):
            raise ContractViolation(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ContractViolation("learning rate must be positive")


def optimizer_step(state: OptimizerState, net: PolicyNet, grads: list[np.ndarray]) -> PolicyNet:
    """Apply theta <- theta - lr * (preconditioned) grads in place.

    AdamW uses the standard bias-corrected moment estimates (weight decay
    zero). Raises NonFiniteGradientError if a gradient contains NaN or
    infinities, and NonFiniteWeightError if an updated weight would be NaN
    or infinite; either way before touching any weight or the state. The
    update is elementwise, so it runs once over the gradients and weights
    concatenated in layer order, and each layer's slice is written back.
    """
    if len(grads) != net.n_layers:
        raise ContractViolation(f"{len(grads)} gradients for {net.n_layers} layers")
    for l, (w, g) in enumerate(zip(net.weights, grads)):
        if g.shape != w.shape:
            raise ContractViolation(f"layer {l} gradient shape {g.shape} != {w.shape}")
    flat = np.concatenate([g.ravel() for g in grads])
    updated = np.concatenate([w.ravel() for w in net.weights])
    t = state.step_count + 1
    # an overflow shows as a non-finite updated weight, which the check reports
    with np.errstate(over="ignore", invalid="ignore"):
        _check_finite(flat, grads, NonFiniteGradientError, "gradient")
        if state.kind == "sgd":
            updated -= state.lr * flat
        else:
            m = np.zeros_like(flat) if state.exp_avg is None else state.exp_avg * state.beta1
            v = np.zeros_like(flat) if state.exp_avg is None else state.exp_avg_sq * state.beta2
            m += (1.0 - state.beta1) * flat
            v += (1.0 - state.beta2) * flat * flat
            bc1 = 1.0 - state.beta1**t
            bc2 = 1.0 - state.beta2**t
            updated -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        _check_finite(updated, net.weights, NonFiniteWeightError, "updated weight")
    state.step_count = t
    if state.kind == "adamw":
        state.exp_avg, state.exp_avg_sq = m, v
    start = 0
    for w in net.weights:
        w[...] = updated[start : start + w.size].reshape(w.shape)
        start += w.size
    return net


def _check_finite(flat: np.ndarray, layers: list[np.ndarray], error, what: str) -> None:
    """``error`` naming the first of ``layers`` (concatenated as ``flat``) that
    holds a NaN or an infinity, and how many."""
    if np.isfinite(flat.sum()):  # a NaN or an infinity makes the sum NaN or infinite
        return
    start = 0
    for l, layer in enumerate(layers):
        bad = int(np.count_nonzero(~np.isfinite(flat[start : start + layer.size])))
        if bad:
            raise error(f"layer {l} {what} has {bad} non-finite entries")
        start += layer.size
