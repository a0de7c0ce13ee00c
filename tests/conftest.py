from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from isopo_lab import isopo, oracle, policy, tasks
from isopo_lab.rng import stream, uniforms


@pytest.fixture
def small_task():
    return tasks.SeqAdditionTask(modulus=5, seq_len=2)


@pytest.fixture
def small_net(small_task):
    return policy.init_policy(
        small_task.vocab_size, small_task.seq_len, small_task.feature_dim, (6,),
        stream(0, "test-init"),
    )


def make_microbatch(net, task, seed=0, n_groups=2, group_size=4, force_advantages=True):
    """Sampled microbatch; nudges advantages away from all-zero when asked."""
    prompts = [
        task.train_prompts[(seed + 5 * gi) % len(task.train_prompts)] for gi in range(n_groups)
    ]
    labels = [f"mb/{gi}/{k}" for gi in range(n_groups) for k in range(group_size)]
    mb = tasks.build_microbatch(net, task, prompts, uniforms(seed, labels, task.seq_len))
    for row in mb.advantages.reshape(n_groups, group_size):
        if force_advantages and not np.any(row):
            row[:] = np.linspace(-1.0, 1.0, group_size)
            row -= row.mean()
    return mb


def overlap(mb, n_overlap, rng):
    """The overlap positions ``rng`` draws for ``mb``, as a run draws a step's."""
    return isopo.overlap_positions(rng, mb.tokens.size, n_overlap)


def sampled_mats(scored, layer, positions):
    """Layer ``layer``'s materialized position gradients at ``positions``: the
    sample set of ``oracle.naive_fisher_norm``."""
    mats = oracle.materialize_position_grads(scored, layer)
    return [mats[i] for i in positions]


def features_of(mb):
    """Each sequence's prompt features (B, F), in the microbatch's row order."""
    features = np.stack([p.features for p in mb.prompts])
    return np.repeat(features, len(mb.tokens) // len(mb.prompts), axis=0)


def teacher_forced_score(net, features, tokens):
    """``policy.score`` of ``tokens`` (B, T) under their teacher-forced inputs."""
    return policy.score(net, policy.teacher_forced_inputs(net, features, tokens), tokens)


def two_pass_softmax(logits):
    """Softmax over the last axis: the exponentials of the shifted logits, then their sum."""
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def as_factors(jac):
    """Rank-one factors (grad_out, act_in) of a stack of matrices V (m, out, in + 1):
    position k of sequence i is (V_i[:, k], e_k), so V_i = sum_k outer(V_i[:, k], e_k)."""
    jac = np.asarray(jac, dtype=float)
    m, _, cols = jac.shape
    return np.swapaxes(jac, 1, 2), np.broadcast_to(np.eye(cols), (m, cols, cols))


def ntk_update(grad_out, act_in, advantages, c):
    """One layer's NTK-preconditioned update sum_i [(K + cI)^-1 A]_i V_i at a
    given c, through training's stacked solve of a one-layer stack."""
    gram, _ = isopo.build_ntk(grad_out, act_in)
    (weights,) = isopo.ntk_weights([gram], advantages, [c])
    return policy.grad_sum(grad_out, act_in, weights)


def scale_grad_out(mb, s):
    """Copy of ``mb`` with every position's backpropagated factor scaled by ``s``;
    keeps the rank-one structure (the sequence gradients are re-contracted)."""
    scored = mb.scored
    scored = policy.Scored(scored.logprobs, scored.act_in, [g * s for g in scored.grad_out])
    return replace(mb, scored=scored)


@pytest.fixture
def microbatch(small_net, small_task):
    return make_microbatch(small_net, small_task, seed=0)
