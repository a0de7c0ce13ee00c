from __future__ import annotations

import numpy as np
import pytest

from isopo_lab import checks, oracle, policy, tasks
from isopo_lab.errors import ContractViolation, EnumerationBudgetError, SingularMatrixError
from isopo_lab.rng import stream, uniforms


def tiny_net(seed=0, seq_len=2):
    return checks._tiny_oracle_policy(seed, seq_len=seq_len)


def test_exact_fisher_two_class_closed_form():
    # single-step two-token policy: logits = W @ [context, 1]
    logits = np.array([0.4, -0.3])
    vocab = 2
    context_dim = vocab + 1
    w = np.zeros((vocab, context_dim + 1))
    w[:, -1] = logits
    net = policy.PolicyNet([w], vocab_size=vocab, context_dim=context_dim)
    prompt = tasks.Prompt(id="t", features=np.zeros(0), target=(0,))
    fisher = oracle.exact_fisher(net, [prompt])
    p = policy.softmax(logits)
    # categorical Fisher over logits is diag(p) - p p^T = p0 p1 [[1,-1],[-1,1]];
    # with a fixed input a the weight-space Fisher is its Kronecker lift
    c = np.diag(p) - np.outer(p, p)
    a = np.zeros(context_dim + 1)
    a[vocab] = 1.0  # position one-hot
    a[-1] = 1.0  # bias augmentation
    expected = np.kron(c, np.outer(a, a))
    assert np.allclose(fisher, expected, atol=1e-10)
    assert np.allclose(c, p[0] * p[1] * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_exact_fisher_symmetric_psd():
    net, prompt = tiny_net(1)
    fisher = oracle.exact_fisher(net, [prompt])
    assert np.array_equal(fisher, fisher.T)
    eigs = np.linalg.eigvalsh(fisher)
    assert eigs.min() >= -1e-12 * max(np.linalg.norm(fisher), 1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(len(fisher))
        assert float(v @ fisher @ v) >= -1e-12


def test_exact_fisher_quadratic_matches_enumeration():
    net, prompt = tiny_net(2)
    fisher = oracle.exact_fisher(net, [prompt])
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(len(fisher))
        direct = oracle.fisher_quadratic(net, [prompt], v)
        assert float(v @ fisher @ v) == pytest.approx(direct, rel=1e-12)


def test_exact_fisher_budget_refusal():
    net, prompt = tiny_net(3, seq_len=2)
    big = policy.init_policy(
        net.vocab_size, net.context_dim, (40, 40), stream(0, "big")
    )
    with pytest.raises(EnumerationBudgetError):
        oracle.exact_fisher(big, [prompt])
    wide_task_prompt = tasks.Prompt(id="w", features=np.zeros(0), target=(0,) * 8)
    wide = policy.init_policy(8, 8 + 8, (4,), stream(0, "wide"))
    with pytest.raises(EnumerationBudgetError):
        oracle.exact_fisher(wide, [wide_task_prompt])


def test_exact_npg_identity_and_diagonal():
    eye = np.eye(3)
    g = np.array([1.0, 2.0, 3.0])
    assert np.allclose(oracle.exact_npg(eye, g, 0.0), g)
    diag = np.diag([2.0, 4.0])
    assert np.allclose(oracle.exact_npg(diag, np.array([2.0, 4.0]), 0.0), [1.0, 1.0])


def test_exact_npg_residual_on_random_spd():
    rng = np.random.default_rng(2)
    for n in (5, 20):
        a = rng.standard_normal((n, n))
        spd = a @ a.T + 0.5 * np.eye(n)
        fisher = 0.5 * (spd + spd.T)
        g = rng.standard_normal(n)
        for damping in (1e-3, 0.0):
            v = oracle.exact_npg(fisher, g, damping)
            system = fisher + damping * np.eye(n)
            assert np.linalg.norm(system @ v - g) <= 1e-9 * np.linalg.norm(g)


def test_exact_npg_damping_to_zero_well_conditioned():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    spd = a @ a.T + np.eye(6)
    fisher = 0.5 * (spd + spd.T)
    g = rng.standard_normal(6)
    base = oracle.exact_npg(fisher, g, 0.0)
    for damping in (1e-8, 1e-10, 1e-12):
        v = oracle.exact_npg(fisher, g, damping)
        assert np.linalg.norm(v - base) <= 1e-6 * np.linalg.norm(base)


def test_exact_npg_singular_raises():
    singular = np.zeros((2, 2))
    with pytest.raises(SingularMatrixError):
        oracle.exact_npg(singular, np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ContractViolation):
        oracle.exact_npg(singular, np.array([1.0, 0.0]), -1.0)


def test_materialized_position_grads(small_net, small_task):
    prompt = small_task.train_prompts[0]
    u = uniforms(0, ["m"], small_task.seq_len)
    _, scored = policy.sample_and_score(small_net, prompt.features[None], u)
    for l in range(small_net.n_layers):
        mats = oracle.materialize_position_grads(scored, l)
        assert len(mats) == small_net.context_dim - small_net.vocab_size - prompt.features.size
        total = sum(mats)
        assert np.allclose(total, scored.seq_grads[l][0], atol=1e-12)
        for m in mats:
            s = np.linalg.svd(m, compute_uv=False)
            if s[0] > 0:
                assert s[1] <= 1e-10 * s[0]  # rank one


def test_flatten_round_trip(small_net):
    vec = oracle.flatten_layer_mats(small_net.weights)
    assert np.array_equal(vec, np.concatenate([w.ravel() for w in small_net.weights]))


def test_rescaling_minimizer_strictly_optimal():
    for k in range(20):
        assert checks.rescaling_minimizer_gap(500 + k) > 0.0


def test_npg_directional_improvement():
    wins = trials = 0
    for k in range(50):
        pair = checks.npg_directional_trial(700 + k)
        if pair is None:
            continue
        trials += 1
        wins += pair[0] > pair[1]
    assert trials >= 40
    assert wins / trials >= 0.8
