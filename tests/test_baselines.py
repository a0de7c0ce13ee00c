from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from isopo_lab import baselines, checks, isopo, policy
from isopo_lab.config import RunConfig
from isopo_lab.errors import (
    ConfigError,
    ContractViolation,
    NonFiniteGradientError,
    NonFiniteWeightError,
)
from isopo_lab.rng import stream

from conftest import make_microbatch, overlap


def sampled_lower(mb, shift):
    """``mb`` as if each sequence's sampling-time log-probability were ``shift``
    lower: every ratio to it is exp(shift) times the batch's own."""
    return replace(mb, scored=replace(mb.scored, logprobs=mb.scored.logprobs - shift))


def test_reinforce_zero_advantages(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=0, force_advantages=False)
    mb.advantages[:] = 0.0
    for grad in baselines.reinforce_grad(mb):
        assert np.all(grad == 0.0)


def test_reinforce_matches_finite_differences(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=1, n_groups=1, group_size=3)
    analytic = baselines.reinforce_grad(mb)
    numeric = checks.fd_grad(lambda: baselines.reinforce_surrogate(mb, small_net), small_net)
    assert np.max(checks.rel_errors(analytic, numeric)) < 1e-5


def test_grpo_first_epoch_equals_reinforce(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=2)
    grpo = baselines.grpo_clipped_grad(mb, small_net, clip_eps=0.2)
    ref = baselines.reinforce_grad(mb)
    # bit for bit: training takes the REINFORCE gradient for GRPO's first epoch
    for a, b in zip(grpo, ref):
        assert np.array_equal(a, b)


def test_grpo_clipped_sequence_contributes_nothing(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=3, n_groups=1, group_size=2)
    eps = 0.2
    # ratios rho = 1 + 2 eps for every sequence: pretend old logprobs were lower
    shift = math.log(1.0 + 2.0 * eps)
    mb.advantages[:] = [1.0, -1.0]  # A>0 clipped, A<0 active
    grads = baselines.grpo_clipped_grad(sampled_lower(mb, shift), small_net, eps)
    rho = 1.0 + 2.0 * eps
    expected = [-(rho * 1.0) * g[1] for g in mb.scored.seq_grads]
    for got, exp in zip(grads, expected):
        assert np.allclose(got, exp, rtol=1e-10)


def test_grpo_matches_finite_differences_off_policy(small_net, small_task):
    # the drift clips sequence 0 (advantage -1, ratio 0.565 < 1 - eps), so
    # the clipped branch's zero gradient is checked too
    mb = make_microbatch(small_net, small_task, seed=4, n_groups=1, group_size=3)
    shifted = small_net.copy()
    drift = stream(4, "drift")
    for w in shifted.weights:
        w += 0.2 * drift.standard_normal(w.shape)
    eps = 0.2
    current = policy.score(shifted, mb.scored.act_in[0], mb.tokens)
    rho = np.exp(current.logprobs - mb.scored.logprobs)
    assert mb.advantages[0] < 0 and rho[0] < 1 - eps - 0.1
    analytic = baselines.grpo_clipped_grad(mb, shifted, eps)
    numeric = checks.fd_grad(lambda: baselines.grpo_surrogate(mb, shifted, eps), shifted)
    assert np.max(checks.rel_errors(analytic, numeric)) < 1e-5


def test_grpo_huge_clip_eps_single_epoch_equals_reinforce(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=5)
    grpo = baselines.grpo_clipped_grad(mb, small_net, clip_eps=1e9)
    ref = baselines.reinforce_grad(mb)
    for a, b in zip(grpo, ref):
        assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(b)), 1.0)


def test_grpo_ratio_overflow_raises(small_net, small_task):
    # a sampling-time log-probability 1e4 below the current one overflows exp();
    # the FloatingPointError is an ArithmeticError, which ends a run ABORTED
    mb = make_microbatch(small_net, small_task, seed=7, n_groups=1, group_size=2)
    mb = sampled_lower(mb, 1e4)
    with pytest.raises(ArithmeticError):
        baselines.grpo_clipped_grad(mb, small_net, 0.2)
    with pytest.raises(ArithmeticError):
        baselines.grpo_surrogate(mb, small_net, 0.2)


def test_reinforce_grad_matches_per_sequence_sum(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=8)
    grads = baselines.reinforce_grad(mb)
    for grad, jac in zip(grads, mb.scored.seq_grads):
        expected = sum(a * g for a, g in zip(mb.advantages, jac))
        assert np.allclose(grad, expected, rtol=1e-12, atol=1e-15)


def test_grpo_clip_eps_checked(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=6)
    for eps in (0.0, -0.2):
        with pytest.raises(ContractViolation):
            baselines.grpo_clipped_grad(mb, small_net, eps)


def test_sgd_step():
    net = policy.PolicyNet([np.ones((2, 3))], vocab_size=2, context_dim=2)
    cfg = RunConfig(optimizer="sgd", lr=0.1)
    state = baselines.OptimizerState()
    baselines.optimizer_step(cfg, state, net, net.flatten([np.full((2, 3), 2.0)]))
    assert np.allclose(net.weights[0], 0.8)


def test_adamw_first_step_magnitude():
    rng = np.random.default_rng(0)
    g = rng.uniform(0.5, 2.0, size=(3, 4)) * np.sign(rng.standard_normal((3, 4)))
    net = policy.PolicyNet([np.zeros((3, 4))], vocab_size=3, context_dim=3)
    lr = 1e-3
    cfg = RunConfig(optimizer="adamw", lr=lr)
    state = baselines.OptimizerState()
    baselines.optimizer_step(cfg, state, net, net.flatten([g.copy()]))
    # bias correction makes the first update lr * g/|g| up to epsilon
    expected = -lr * np.sign(g)
    assert np.allclose(net.weights[0], expected, atol=1e-6 * lr + 1e-12)


def test_adamw_hand_evaluated_second_step():
    g1 = np.array([[1.0]])
    g2 = np.array([[-0.5]])
    net = policy.PolicyNet([np.zeros((1, 1))], vocab_size=1, context_dim=0)
    lr, b1, b2, eps = 0.01, baselines.ADAM_BETA1, baselines.ADAM_BETA2, baselines.ADAM_EPS
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)  # the published defaults
    cfg = RunConfig(optimizer="adamw", lr=lr)
    state = baselines.OptimizerState()
    baselines.optimizer_step(cfg, state, net, net.flatten([g1]))
    baselines.optimizer_step(cfg, state, net, net.flatten([g2]))
    # replay the published update rule by hand
    w = 0.0
    m = v = 0.0
    for t, g in enumerate([1.0, -0.5], start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    assert net.weights[0][0, 0] == pytest.approx(w, rel=1e-12)


def three_layer_net():
    # distinct shapes, so a moment slice put on the wrong layer cannot fit
    shapes = [(5, 4), (3, 6), (2, 4)]
    rng = np.random.default_rng(3)
    weights = [rng.standard_normal(shape) for shape in shapes]
    return policy.PolicyNet(weights, vocab_size=2, context_dim=3)


def test_adamw_three_layers_equal_the_per_layer_rule():
    net = three_layer_net()
    expected = [w.copy() for w in net.weights]
    lr, b1, b2, eps = 1e-2, baselines.ADAM_BETA1, baselines.ADAM_BETA2, baselines.ADAM_EPS
    cfg = RunConfig(optimizer="adamw", lr=lr)
    state = baselines.OptimizerState()
    rng = np.random.default_rng(4)
    m = [np.zeros_like(w) for w in expected]
    v = [np.zeros_like(w) for w in expected]
    for t in range(1, 4):
        grads = [rng.standard_normal(w.shape) for w in expected]
        baselines.optimizer_step(cfg, state, net, net.flatten(grads))
        # AdamW on each layer by itself, with that layer's own moments
        for w, g, ml, vl in zip(expected, grads, m, v):
            ml *= b1
            ml += (1.0 - b1) * g
            vl *= b2
            vl += (1.0 - b2) * g * g
            w -= lr * (ml / (1.0 - b1**t)) / (np.sqrt(vl / (1.0 - b2**t)) + eps)
        for got, want in zip(net.weights, expected):
            assert np.array_equal(got, want)
    assert state.step_count == 3


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_nonfinite_gradient_in_a_later_layer_names_it_and_mutates_nothing(kind):
    net = three_layer_net()
    cfg = RunConfig(optimizer=kind, lr=0.1)
    state = baselines.OptimizerState()
    rng = np.random.default_rng(5)
    baselines.optimizer_step(
        cfg, state, net, net.flatten([rng.standard_normal(w.shape) for w in net.weights])
    )
    weights = [w.copy() for w in net.weights]
    moments = [None if m is None else m.copy() for m in (state.exp_avg, state.exp_avg_sq)]
    grads = [rng.standard_normal(w.shape) for w in net.weights]
    grads[2][1, 3] = np.nan
    grads[2][0, 0] = np.inf
    with pytest.raises(NonFiniteGradientError, match="layer 2 gradient has 2 non-finite"):
        baselines.optimizer_step(cfg, state, net, net.flatten(grads))
    for got, want in zip(net.weights, weights):
        assert np.array_equal(got, want)
    for got, want in zip((state.exp_avg, state.exp_avg_sq), moments):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert state.step_count == 1


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_step_to_nonfinite_weights_names_the_layer_and_mutates_nothing(kind):
    # every update is finite, but one weight would overflow: no weight, moment
    # or step count changes
    net = three_layer_net()
    cfg = RunConfig(optimizer=kind, lr=1.0)
    state = baselines.OptimizerState()
    rng = np.random.default_rng(6)

    def grads():  # |update| <= lr, and -lr at layer 2's [1, 3]
        out = [rng.uniform(-1.0, 1.0, w.shape) for w in net.weights]
        out[2][1, 3] = -1.0
        return out

    baselines.optimizer_step(cfg, state, net, net.flatten(grads()))
    net.weights[2][1, 3] = 1.7e308
    weights = [w.copy() for w in net.weights]
    moments = [None if m is None else m.copy() for m in (state.exp_avg, state.exp_avg_sq)]
    cfg = replace(cfg, lr=1.7e308)
    with pytest.raises(NonFiniteWeightError, match="layer 2 updated weight has 1 non-finite"):
        baselines.optimizer_step(cfg, state, net, net.flatten(grads()))
    for got, want in zip(net.weights, weights):
        assert np.array_equal(got, want)
    for got, want in zip((state.exp_avg, state.exp_avg_sq), moments):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert state.step_count == 1


def test_adamw_second_moment_overflow_aborts_and_mutates_nothing():
    # g**2 overflows for g above about 4e155: v would be inf, every later
    # update m / sqrt(v) of that weight 0, and the run would go on frozen
    cfg = RunConfig(optimizer="adamw", lr=0.1)
    net = policy.PolicyNet([np.zeros((2, 1))], vocab_size=2, context_dim=0)
    state = baselines.OptimizerState()
    with pytest.raises(NonFiniteGradientError, match="layer 0 second moment has 2 non-finite"):
        baselines.optimizer_step(cfg, state, net, np.full(2, 1e160))
    assert np.array_equal(net.params, [0.0, 0.0])
    assert state.step_count == 0 and state.exp_avg is None and state.exp_avg_sq is None
    fresh, fresh_state = policy.PolicyNet([np.zeros((2, 1))], 2, 0), baselines.OptimizerState()
    for _ in range(2):
        baselines.optimizer_step(cfg, state, net, np.ones(2))
        baselines.optimizer_step(cfg, fresh_state, fresh, np.ones(2))
    assert net.params.tobytes() == fresh.params.tobytes()
    assert np.all(net.params < -0.19)


def test_zero_grad_no_weight_decay_is_noop():
    net = policy.PolicyNet([np.full((2, 3), 0.7)], vocab_size=2, context_dim=2)
    cfg = RunConfig(optimizer="adamw", lr=0.5)
    state = baselines.OptimizerState()
    baselines.optimizer_step(cfg, state, net, net.flatten([np.zeros((2, 3))]))
    assert np.allclose(net.weights[0], 0.7)


def test_nonfinite_gradient_aborts_before_mutation():
    net = policy.PolicyNet([np.full((2, 3), 0.3)], vocab_size=2, context_dim=2)
    cfg = RunConfig(optimizer="sgd", lr=0.1)
    state = baselines.OptimizerState()
    bad = np.full((2, 3), 1.0)
    bad[1, 2] = np.nan
    with pytest.raises(NonFiniteGradientError):
        baselines.optimizer_step(cfg, state, net, net.flatten([bad]))
    assert np.allclose(net.weights[0], 0.3)
    assert state.step_count == 0


def test_optimizer_rejects_bad_shapes():
    net = policy.PolicyNet([np.zeros((2, 3))], vocab_size=2, context_dim=2)
    cfg = RunConfig(optimizer="sgd")
    state = baselines.OptimizerState()
    with pytest.raises(ContractViolation):
        baselines.optimizer_step(cfg, state, net, [np.zeros((3, 2))])
    with pytest.raises(ConfigError, match="optimizer must be one of"):
        RunConfig(optimizer="rmsprop")


def test_optimizer_takes_one_flat_gradient_of_the_params_shape():
    net = three_layer_net()
    state = baselines.OptimizerState()
    params = net.params.copy()
    for kind in ("sgd", "adamw"):
        cfg = RunConfig(optimizer=kind)
        n = net.param_count
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), net.weights[0].copy()):
            with pytest.raises(ContractViolation, match="gradient shape"):
                baselines.optimizer_step(cfg, state, net, bad)
    assert np.array_equal(net.params, params) and state.step_count == 0


def overflowing_net():
    # layer 2's [1, 3] sits at 1.7e308, so a step of size 1.7e308 up overflows it
    net = three_layer_net()
    net.weights[2][1, 3] = 1.7e308
    return net


@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_failed_steps_leave_nothing_for_the_next_step(kind):
    # a failing step computes its moments and weights into the state's buffers
    # but swaps none of them in: two failing steps and then two good ones give
    # the bits of the two good steps from a fresh state
    cfg = RunConfig(optimizer=kind, lr=0.1)
    rng = np.random.default_rng(7)
    good = [rng.uniform(-1.0, 1.0, overflowing_net().param_count) for _ in range(2)]
    net, state = overflowing_net(), baselines.OptimizerState()
    nan, up = good[0].copy(), good[0].copy()
    nan[3] = np.nan
    net.split(up)[2][1, 3] = -1.0
    with pytest.raises(NonFiniteGradientError):
        baselines.optimizer_step(cfg, state, net, nan)
    with pytest.raises(NonFiniteWeightError):
        baselines.optimizer_step(replace(cfg, lr=1.7e308), state, net, up)
    fresh, fresh_state = overflowing_net(), baselines.OptimizerState()
    for g in good:
        baselines.optimizer_step(cfg, state, net, g.copy())
        baselines.optimizer_step(cfg, fresh_state, fresh, g.copy())
        assert net.params.tobytes() == fresh.params.tobytes()
        moments = [(state.exp_avg, fresh_state.exp_avg)]
        for got, want in moments + [(state.exp_avg_sq, fresh_state.exp_avg_sq)]:
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
    assert state.step_count == fresh_state.step_count == 2


def every_update(mb, net):
    """Each training update of ``mb`` as a function of ``out``, at ``net``
    drifted off the sampling weights so that GRPO's ratios are not 1."""
    shifted = net.copy()
    shifted.params += 0.2 * stream(9, "drift").standard_normal(shifted.param_count)
    norms, _ = isopo.sequence_fisher_norms(mb.scored, overlap(mb, 8, stream(9, "overlap")))
    ni_cfg = RunConfig(p=-1.0, q=0.5, r=-0.5, reg_strength=0.3)
    return {
        "reinforce": lambda out=None: baselines.reinforce_grad(mb, out),
        "grpo": lambda out=None: baselines.grpo_clipped_grad(mb, shifted, 0.2, out),
        "isopo-ni": lambda out=None: isopo.noninteracting_update(mb, norms, ni_cfg, {}, out),
        "isopo-int": lambda out=None: isopo.interacting_update(
            mb, RunConfig(reg_factor=0.5), {}, out
        ),
    }


@pytest.mark.parametrize("algo", ["reinforce", "grpo", "isopo-ni", "isopo-int"])
def test_update_written_into_views_equals_its_list_form(small_net, small_task, algo):
    mb = make_microbatch(small_net, small_task, seed=10)
    update = every_update(mb, small_net)[algo]
    grad = np.full(small_net.param_count, np.nan)
    out = small_net.split(grad)
    written = update(out)
    assert all(w is o for w, o in zip(written, out, strict=True))
    assert grad.tobytes() == small_net.flatten(update()).tobytes()
