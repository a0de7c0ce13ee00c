"""Exact brute-force references for tiny, fully enumerable policies.

Everything here is ground truth obtained without sampling: the Fisher matrix
is the exact output-distribution second moment of flattened log-probability
gradients, computed by enumerating every possible output sequence. These
oracles exist to test the stochastic estimators and layer-wise preconditioned
updates against, and are shipped in the library (not in the test tree) so the
CLI can expose them as a self-check.

Dense solves in this module go through numpy's LAPACK LU solve of each dense
system, a route independent of training's stacked NTK build and solve.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractViolation, EnumerationBudgetError, SingularMatrixError
from .policy import PolicyNet, Scored, score, seq_len_for, teacher_forced_inputs

MAX_ENUM_OUTPUTS = 10_000
MAX_ORACLE_PARAMS = 1_000


def _check_budget(net: PolicyNet, prompts) -> int:
    if not prompts:
        raise ContractViolation("need at least one prompt")
    seq_len = seq_len_for(net, prompts[0].features)
    for p in prompts:
        if seq_len_for(net, p.features) != seq_len:
            raise ContractViolation("prompts imply different sequence lengths")
    n_outputs = net.vocab_size**seq_len
    if n_outputs > MAX_ENUM_OUTPUTS:
        raise EnumerationBudgetError(
            f"{n_outputs} outputs per prompt exceeds the enumeration budget"
        )
    if net.param_count > MAX_ORACLE_PARAMS:
        raise EnumerationBudgetError(
            f"{net.param_count} parameters exceeds the oracle budget"
        )
    return seq_len


def enumerate_scored_outputs(net: PolicyNet, prompt) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, gradients in the layout of ``net.params``) of every
    output sequence, in one batch."""
    seq_len = seq_len_for(net, prompt.features)
    tokens = np.array(list(itertools.product(range(net.vocab_size), repeat=seq_len)))
    features = np.repeat(prompt.features[None], len(tokens), axis=0)
    scored = score(net, teacher_forced_inputs(net, features, tokens), tokens)
    return np.exp(scored.logprobs), net.flatten(scored.seq_grads)


def exact_fisher(net: PolicyNet, prompts) -> np.ndarray:
    """Dense symmetric F = mean over prompts of sum_o pi(o|q) grad(o) grad(o)^T,
    exactly, over the flattened parameters."""
    _check_budget(net, prompts)
    n = net.param_count
    fisher = np.zeros((n, n))
    for prompt in prompts:
        probs, g = enumerate_scored_outputs(net, prompt)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ArithmeticError(f"enumerated probabilities sum to {probs.sum()}")
        fisher += (g * probs[:, None]).T @ g
    fisher /= len(prompts)
    return 0.5 * (fisher + fisher.T)


def fisher_quadratic(net: PolicyNet, prompts, v: np.ndarray) -> float:
    """Direct enumeration of E[(grad . v)^2]; the defining quadratic form."""
    _check_budget(net, prompts)
    v = np.asarray(v, dtype=float)
    total = 0.0
    for prompt in prompts:
        probs, g = enumerate_scored_outputs(net, prompt)
        total += math.fsum(probs * (g @ v) ** 2)
    return total / len(prompts)


def exact_npg(fisher: np.ndarray, g: np.ndarray, damping: float) -> np.ndarray:
    """Solve (F + damping I) v = g densely; the natural-gradient reference."""
    if damping < 0:
        raise ContractViolation(f"damping must be nonnegative, got {damping}")
    g = np.asarray(g, dtype=float)
    n = fisher.shape[0]
    if g.shape != (n,):
        raise ContractViolation(f"gradient shape {g.shape} != ({n},)")
    system = fisher + damping * np.eye(n)
    try:
        v = np.linalg.solve(system, g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = np.linalg.norm(system @ v - g)
    if not np.all(np.isfinite(v)) or residual > 1e-6 * max(np.linalg.norm(g), 1e-300):
        raise SingularMatrixError(
            f"dense solve failed (residual {residual:.3e}); add damping"
        )
    return v


def materialize_position_grads(scored: Scored, layer: int) -> list[np.ndarray]:
    """Full rank-one matrices outer(g_out_j, a_in_j) for every position, in the
    C order of the (B, T) grid."""
    act_in = scored.act_in[layer]
    grad_out = scored.grad_out[layer]
    acts = act_in.reshape(-1, act_in.shape[-1])
    gouts = grad_out.reshape(-1, grad_out.shape[-1])
    return [np.outer(g, a) for g, a in zip(gouts, acts)]


def naive_fisher_norm(v: np.ndarray, mats: list[np.ndarray]) -> float:
    """The Fisher-norm estimate of ``v`` from fully materialized position-gradient
    matrices: the reference for ``isopo.sequence_fisher_norms``."""
    if not mats:
        raise ContractViolation("need at least one materialized gradient")
    v = np.asarray(v, dtype=float)
    num = math.fsum(float(np.sum(v * g)) ** 2 for g in mats)
    den = math.fsum(float(np.sum(g * g)) for g in mats)
    if den == 0.0:
        raise ContractViolation("all materialized gradients are zero")
    return math.sqrt(num) / math.sqrt(den)
