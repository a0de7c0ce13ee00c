from __future__ import annotations

import math

import numpy as np
import pytest

from isopo_lab import baselines, checks, isopo, metrics, oracle, policy, tasks
from isopo_lab.errors import ContractViolation, EstimatorDegenerateError
from isopo_lab.linalg import frobenius_dot, sym_eigh
from isopo_lab.rng import stream, uniforms

from conftest import as_factors, make_microbatch, scale_grad_out


def random_factors(rng, n, out_dim, in_dim):
    """(act_in, grad_out) of n random positions; act_in ends in the bias 1."""
    act = rng.standard_normal((n, in_dim + 1))
    act[:, -1] = 1.0
    return act, rng.standard_normal((n, out_dim))


# ---------------------------------------------------------------- fisher norm


def test_fisher_norm_orthogonal_update_is_zero():
    rng = np.random.default_rng(0)
    act, gout = random_factors(rng, 1, 3, 4)
    g, a = gout[0], act[0]
    # build v orthogonal (Frobenius) to the single rank-one sample
    v = rng.standard_normal((3, 5))
    sample = np.outer(g, a)
    v -= sample * (np.sum(v * sample) / np.sum(sample * sample))
    assert isopo.fisher_norm_estimate(v, act, gout) < 1e-12 * np.linalg.norm(v)


def test_fisher_norm_single_sample_own_outer_product():
    rng = np.random.default_rng(1)
    act, gout = random_factors(rng, 1, 4, 6)
    g, a = gout[0], act[0]
    v = np.outer(g, a)
    # numerator |g|^2 |a|^2, denominator |g||a|, so the estimate is |g||a| = |v|_F
    expected = np.linalg.norm(g) * np.linalg.norm(a)
    got = isopo.fisher_norm_estimate(v, act, gout)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_fisher_norm_matches_materialized_oracle(microbatch):
    samples = isopo.draw_overlap_samples(microbatch, 10, stream(0, "ov"))
    rng = np.random.default_rng(2)
    for l, jac in enumerate(microbatch.scored.seq_grads):
        mats = oracle.materialize_position_grads(microbatch.scored, l)
        sampled = [mats[i] for i in samples.indices]
        for _ in range(20):
            v = rng.standard_normal(jac.shape[1:])
            fast = isopo.fisher_norm_estimate(
                v, samples.act_in[l], samples.grad_out[l], samples.denominators[l]
            )
            slow = oracle.naive_fisher_norm(v, sampled)
            assert fast == pytest.approx(slow, rel=1e-10)


def test_fisher_norm_degenerate_samples_raise():
    act = np.concatenate([np.zeros((2, 3)), np.ones((2, 1))], axis=1)
    with pytest.raises(EstimatorDegenerateError):
        isopo.fisher_norm_estimate(np.ones((4, 4)), act, np.zeros((2, 4)))


def test_fisher_norm_shape_mismatch():
    rng = np.random.default_rng(3)
    act, gout = random_factors(rng, 2, 3, 4)
    with pytest.raises(ContractViolation):
        isopo.fisher_norm_estimate(np.zeros((3, 4)), act, gout)  # needs in_dim + 1 = 5


# ----------------------------------------------------------------- rescaling


def test_rescaling_zero_exponents_identity():
    rng = np.random.default_rng(4)
    grad = rng.standard_normal((3, 5))
    params = isopo.RescalingParams(p=0.0, q=0.0, r=0.0)
    assert np.array_equal(isopo.rescaling(grad, 0.7, params), grad)


def test_rescaling_fisher_normalization_formula():
    rng = np.random.default_rng(5)
    grad = rng.standard_normal((4, 4))
    params = isopo.RescalingParams(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    f = 2.5
    expected = grad / math.sqrt(max(f * f, isopo.RESCALE_FLOOR))
    assert np.allclose(isopo.rescaling(grad, f, params), expected, rtol=1e-14, atol=0)


def test_rescaling_direction_matching_formula():
    rng = np.random.default_rng(6)
    grad = rng.standard_normal((4, 6))
    params = isopo.RescalingParams(p=0.0, q=0.0, r=-2.0, reg_strength=0.0)
    f = 3.0
    gn = float(np.linalg.norm(grad))
    rel = f / gn
    exact = grad / max(rel * rel, isopo.RESCALE_FLOOR)
    got = isopo.rescaling(grad, f, params)
    assert np.allclose(got, exact, rtol=1e-14)
    # above the floor this is grad * |grad|^2 / F^2
    assert np.allclose(got, grad * gn * gn / (f * f), rtol=1e-6)


def test_rescaling_total_for_zero_inputs():
    params = isopo.RescalingParams(p=-1.0, q=1.0, r=-2.0)
    out = isopo.rescaling(np.zeros((2, 2)), 0.0, params)
    assert np.all(np.isfinite(out))


def test_rescaling_rejects_negative_norm():
    with pytest.raises(ContractViolation):
        isopo.rescaling(np.zeros((2, 2)), -1.0, isopo.RescalingParams())


# ------------------------------------------------------------ overlap samples


def test_overlap_clamps_to_all_positions(microbatch):
    total = microbatch.tokens.size
    samples = isopo.draw_overlap_samples(microbatch, 10_000, stream(0, "c"))
    assert samples.n_samples == total
    assert np.array_equal(np.sort(samples.indices), np.arange(total))


def test_overlap_deterministic(microbatch):
    a = isopo.draw_overlap_samples(microbatch, 5, stream(3, "ov"))
    b = isopo.draw_overlap_samples(microbatch, 5, stream(3, "ov"))
    assert np.array_equal(a.indices, b.indices)
    assert a.denominators == b.denominators


def test_overlap_inclusion_uniform(microbatch):
    total = microbatch.tokens.size
    take = 6
    redraws = 10_000
    counts = np.zeros(total)
    rng = stream(0, "uniformity")
    for _ in range(redraws):
        idx = isopo.draw_overlap_samples(microbatch, take, rng).indices
        counts[idx] += 1
    p = take / total
    sigma = math.sqrt(p * (1 - p) / redraws)
    assert np.all(np.abs(counts / redraws - p) < 3 * sigma)


def test_overlap_caches_denominator(microbatch):
    samples = isopo.draw_overlap_samples(microbatch, 7, stream(1, "den"))
    for l, (act, gout) in enumerate(zip(samples.act_in, samples.grad_out)):
        scale = np.linalg.norm(gout, axis=1) * np.linalg.norm(act, axis=1)
        assert samples.denominators[l] == pytest.approx(float(np.linalg.norm(scale)))
        assert samples.denominators[l] > 0


# --------------------------------------------------- non-interacting update


def ni_update(mb, samples, params):
    norms, _ = isopo.sequence_fisher_norms(mb, samples)
    return isopo.noninteracting_update(mb, norms, params)


def test_noninteracting_zero_advantages(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=1, force_advantages=False)
    for g in mb.groups:
        g.advantages = np.zeros_like(g.advantages)
    samples = isopo.draw_overlap_samples(mb, 16, stream(0, "o"))
    for g in ni_update(mb, samples, isopo.RescalingParams(p=-1.0)):
        assert np.all(g == 0.0)


def test_noninteracting_identity_equals_reinforce(microbatch):
    samples = isopo.draw_overlap_samples(microbatch, 16, stream(0, "o"))
    params = isopo.RescalingParams(p=0.0, q=0.0, r=0.0)
    upd = ni_update(microbatch, samples, params)
    ref = baselines.reinforce_grad(microbatch)
    for a, b in zip(upd, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_batched_estimates_match_per_sequence_loop(small_net, small_task):
    # the per-sequence loop is the reference for the batched contractions
    mb = make_microbatch(small_net, small_task, seed=7)
    samples = isopo.draw_overlap_samples(mb, 12, stream(7, "o"))
    params = isopo.RescalingParams(p=-1.0, q=0.5, r=0.25)
    norms, degenerate = isopo.sequence_fisher_norms(mb, samples)
    upd = isopo.noninteracting_update(mb, norms, params)
    assert not degenerate.any()
    for l, jac in enumerate(mb.scored.seq_grads):
        expected = np.zeros_like(jac[0])
        for i in range(len(jac)):
            f = isopo.fisher_norm_estimate(
                jac[i], samples.act_in[l], samples.grad_out[l], samples.denominators[l]
            )
            assert norms[i, l] == pytest.approx(f, rel=1e-14)
            expected += mb.advantages[i] * isopo.rescaling(jac[i], f, params, l)
        assert np.allclose(upd[l], expected, rtol=1e-12, atol=1e-15)


def test_noninteracting_single_sequence_composition(small_net, small_task):
    prompt = small_task.train_prompts[2]
    u = uniforms(9, [f"c/{k}" for k in range(2)], small_task.seq_len)
    mb = tasks.build_microbatch(small_net, small_task, [prompt], u)
    adv = np.array([1.7, 0.0])
    mb.groups[0].advantages = adv
    samples = isopo.draw_overlap_samples(mb, 8, stream(2, "o"))
    params = isopo.RescalingParams(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    upd = ni_update(mb, samples, params)
    # compose the two operations by hand for the only active sequence
    for l in range(small_net.n_layers):
        v = mb.scored.seq_grads[l][0]
        f = isopo.fisher_norm_estimate(
            v, samples.act_in[l], samples.grad_out[l], samples.denominators[l]
        )
        expected = adv[0] * isopo.rescaling(v, f, isopo.RescalingParams(p=-1.0), l)
        assert np.allclose(upd[l], expected, rtol=1e-12, atol=1e-15)


def test_noninteracting_linear_in_advantages(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=4)
    samples = isopo.draw_overlap_samples(mb, 12, stream(4, "o"))
    params = isopo.RescalingParams(p=-1.0, q=0.5, r=0.25)
    rng = np.random.default_rng(8)
    adv1 = [rng.standard_normal(len(g.rewards)) for g in mb.groups]
    adv2 = [rng.standard_normal(len(g.rewards)) for g in mb.groups]

    def update_with(advs):
        for g, a in zip(mb.groups, advs):
            g.advantages = a
        return ni_update(mb, samples, params)

    u1 = update_with(adv1)
    u2 = update_with(adv2)
    u_sum = update_with([a + b for a, b in zip(adv1, adv2)])
    u_scaled = update_with([2.5 * a for a in adv1])
    for a, b, s in zip(u1, u2, u_sum):
        assert np.allclose(a + b, s, atol=1e-12)
    for a, s in zip(u1, u_scaled):
        assert np.allclose(2.5 * a, s, atol=1e-12)


def test_noninteracting_degenerate_fallback(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=5, n_groups=1, group_size=3)
    # zero out one sequence's gradients entirely
    for gout in mb.scored.grad_out:
        gout[1] = 0.0
    samples = isopo.draw_overlap_samples(mb, 6, stream(5, "o"))
    norms, degenerate = isopo.sequence_fisher_norms(mb, samples)
    upd = isopo.noninteracting_update(mb, norms, isopo.RescalingParams(p=-1.0))
    assert np.count_nonzero(degenerate) == 1
    assert np.all(np.isnan(norms[1]))
    assert np.all(np.isfinite([np.max(np.abs(g)) for g in upd]))


def test_cancelling_positions_give_finite_updates(small_net, small_task):
    # positions 0 and 1 of sequence 1 share their input and have opposite
    # gradients, so V_1 = 0 in every layer while its (T, T) Gram products do
    # not vanish; |V_1|^2 is clamped at 0, and no square root sees a negative
    mb = make_microbatch(small_net, small_task, seed=6, n_groups=1, group_size=3)
    for act, gout in zip(mb.scored.act_in, mb.scored.grad_out):
        act[1, 1] = act[1, 0]
        gout[1, 1] = -gout[1, 0]
    assert all(np.all(sq >= 0.0) for sq in mb.scored.sq_norms)
    samples = isopo.draw_overlap_samples(mb, 6, stream(6, "o"))
    norms, degenerate = isopo.sequence_fisher_norms(mb, samples)
    assert not np.any(np.isnan(np.delete(norms, 1, axis=0)))
    for l, sq in enumerate(mb.scored.sq_norms):
        # degenerate exactly when |V_1|^2 came out as 0; otherwise a finite estimate
        assert np.isnan(norms[1, l]) == (sq[1] == 0.0)
    assert degenerate[1] == any(sq[1] == 0.0 for sq in mb.scored.sq_norms)
    summary = metrics.batch_summary(mb, norms, int(np.count_nonzero(degenerate)), "isopo-ni")
    for l in range(len(mb.scored.sq_norms)):
        assert np.isfinite(summary[f"l{l}_mean_grad_norm"])
    for params in (isopo.RescalingParams(p=-1.0), isopo.RescalingParams(p=-1.0, q=0.5, r=-2.0)):
        upd = isopo.noninteracting_update(mb, norms, params)
        assert np.all(np.isfinite(np.concatenate([g.ravel() for g in upd])))
    for gout, act in zip(mb.scored.grad_out, mb.scored.act_in):
        c = float(np.trace(isopo.build_ntk(gout, act))) / len(gout)
        upd = isopo.interacting_update(gout, act, mb.advantages, c)
        assert np.all(np.isfinite(upd))


def test_self_normalization_under_shared_samples(small_net, small_task):
    # grad_out scaled so every Fisher-norm estimate keeps F^2 far above the 1e-8 floor
    prompt = small_task.train_prompts[0]
    u = uniforms(0, [f"p/{k}" for k in range(8)], small_task.seq_len)
    mb = tasks.build_microbatch(small_net, small_task, [prompt], u)
    mb.groups[0].advantages = np.linspace(-1, 1, 8)
    mb = scale_grad_out(mb, 12.0)
    samples = isopo.draw_overlap_samples(mb, 64, stream(0, "ov"))
    norms, degenerate = isopo.sequence_fisher_norms(mb, samples)
    assert not degenerate.any()
    assert np.nanmin(norms) > 2.3  # F^2 > 5, so the floor's clamp is inactive
    params = isopo.RescalingParams(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    for l, jac in enumerate(mb.scored.seq_grads):
        for i in range(len(jac)):
            w = isopo.rescaling(jac[i], norms[i, l], params, l)
            f_w = isopo.fisher_norm_estimate(
                w, samples.act_in[l], samples.grad_out[l], samples.denominators[l]
            )
            assert abs(f_w - 1.0) <= 1e-9


def test_self_normalization_floor_identity(microbatch):
    # the composition equals F / sqrt(max(F^2, floor)): 1 at native scale, and
    # F / 1e-4 once grad_out is scaled so every estimate falls below the floor
    params = isopo.RescalingParams(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    for grad_scale in (1.0, 1e-6):
        mb = scale_grad_out(microbatch, grad_scale)
        samples = isopo.draw_overlap_samples(mb, 16, stream(0, "o"))
        norms, _ = isopo.sequence_fisher_norms(mb, samples)
        below = np.nanmax(norms) ** 2 < isopo.RESCALE_FLOOR
        assert below == (grad_scale < 1.0)
        assert below or np.nanmin(norms) ** 2 > isopo.RESCALE_FLOOR
        for l, jac in enumerate(mb.scored.seq_grads):
            for i in range(len(jac)):
                if np.isnan(norms[i, l]):
                    continue
                w = isopo.rescaling(jac[i], norms[i, l], params, l)
                f_w = isopo.fisher_norm_estimate(
                    w, samples.act_in[l], samples.grad_out[l], samples.denominators[l]
                )
                f = norms[i, l]
                expected = f / 1e-4 if below else f / math.sqrt(max(f * f, isopo.RESCALE_FLOOR))
                assert f_w == pytest.approx(expected, rel=1e-12)


def test_estimator_consistent_with_exact_fisher():
    # sequence-level exact moments vs the position-subsampled estimate
    seed = 0
    net, prompt = checks._tiny_oracle_policy(seed)
    seq_len = len(prompt.target)
    _, v_scored = policy.sample_and_score(
        net, prompt.features[None], uniforms(seed, ["v"], seq_len)
    )
    features = np.repeat(prompt.features[None], 256, axis=0)
    for l in range(net.n_layers):
        fisher_l, mean_sq = oracle.layer_moments(net, [prompt], l)
        v = v_scored.seq_grads[l][0]
        oracle_val = float(v.ravel() @ fisher_l @ v.ravel()) / mean_sq
        estimates = []
        for redraw in range(20):
            u = uniforms(1000 + redraw, [f"r/{k}" for k in range(256)], seq_len)
            tokens, scored = policy.sample_and_score(net, features, u)
            group = tasks.Group(prompt, np.zeros(256), np.zeros(256))
            mb = tasks.Microbatch([group], features, tokens, scored)
            ov = isopo.draw_overlap_samples(mb, 512, stream(redraw, "ov"))
            estimates.append(
                isopo.fisher_norm_estimate(v, ov.act_in[l], ov.grad_out[l], ov.denominators[l])
                ** 2
            )
        mean_est = float(np.mean(estimates))
        assert mean_est == pytest.approx(oracle_val, rel=0.25)


# ------------------------------------------------------------------ NTK side


def test_build_ntk_orthonormal_grads():
    grads = np.zeros((3, 2, 3))
    grads[0, 0, 0] = 1.0
    grads[1, 0, 1] = 1.0
    grads[2, 1, 2] = 1.0
    assert np.array_equal(isopo.build_ntk(*as_factors(grads)), np.eye(3))


def test_build_ntk_duplicated_gradient():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((3, 4))
    sq = float(np.sum(g * g))
    gram = isopo.build_ntk(*as_factors(np.stack([g, g])))
    assert np.allclose(gram, sq * np.array([[1.0, 1.0], [1.0, 1.0]]))
    eig = sym_eigh(gram)
    assert np.allclose(eig.eigenvalues, [0.0, 2.0 * sq], atol=1e-12 * sq)
    # the mean eigenvalue trace(K)/m is the mean squared gradient norm
    assert np.trace(gram) / 2 == pytest.approx(sq, rel=1e-14)


def test_build_ntk_matches_frobenius_dot(microbatch):
    # one gemm sums in another order than the entry-wise reference, so entries
    # agree to rounding relative to the Cauchy-Schwarz bound sqrt(K_ii K_jj)
    scored = microbatch.scored
    for seq_grads, gout, act in zip(scored.seq_grads, scored.grad_out, scored.act_in):
        gram = isopo.build_ntk(gout, act)
        assert np.array_equal(gram, gram.T)
        m = len(seq_grads)
        for i in range(m):
            for j in range(m):
                ref = frobenius_dot(seq_grads[i], seq_grads[j])
                assert abs(gram[i, j] - ref) <= 1e-14 * np.sqrt(gram[i, i] * gram[j, j])


def test_build_ntk_rejects_bad_input():
    bad_pairs = [
        (np.zeros((0, 1, 2)), np.zeros((0, 1, 3))),  # no sequences
        (np.zeros((2, 3)), np.zeros((2, 4))),  # not (m, T, dim)
        (np.zeros((2, 1, 3)), np.zeros((3, 1, 4))),  # sequence counts disagree
    ]
    for gout, act in bad_pairs:
        with pytest.raises(ContractViolation):
            isopo.build_ntk(gout, act)
        with pytest.raises(ContractViolation):
            isopo.interacting_update(gout, act, np.zeros(len(gout)), 0.3)


def test_interacting_single_sequence():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((2, 5))
    sq = float(np.sum(g * g))
    a1, c = 0.8, 0.3
    upd = isopo.interacting_update(*as_factors(g[None]), np.array([a1]), c)
    assert np.allclose(upd, a1 / (sq + c) * g, rtol=1e-12)


def test_interacting_orthonormal_grads_diagonal():
    grads = np.zeros((4, 2, 2))
    for i, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        grads[i, r, c] = 1.0
    adv = np.array([1.0, -2.0, 0.5, 3.0])
    c = 0.7
    upd = isopo.interacting_update(*as_factors(grads), adv, c)
    expected = sum(a / (1.0 + c) * g for a, g in zip(adv, grads))
    assert np.allclose(upd, expected, rtol=1e-12)


def test_interacting_matches_flattened_dense_oracle(microbatch):
    adv = microbatch.advantages
    scored = microbatch.scored
    for seq_grads, gout, act in zip(scored.seq_grads, scored.grad_out, scored.act_in):
        jac = seq_grads.reshape(len(seq_grads), -1)
        c = 0.05 * float(np.trace(jac @ jac.T)) / len(seq_grads) + 1e-9
        upd = isopo.interacting_update(gout, act, adv, c)
        dense = jac.T @ np.linalg.solve(jac @ jac.T + c * np.eye(len(seq_grads)), adv)
        assert np.linalg.norm(upd.ravel() - dense) <= 1e-9 * np.linalg.norm(dense)


def test_interacting_large_c_approaches_vanilla(microbatch):
    adv = microbatch.advantages
    scored = microbatch.scored
    seq_grads = scored.seq_grads[0]
    vanilla = sum(a * g for a, g in zip(adv, seq_grads)).ravel()
    k_norm = float(np.linalg.norm(isopo.build_ntk(scored.grad_out[0], scored.act_in[0])))
    upd = isopo.interacting_update(scored.grad_out[0], scored.act_in[0], adv, 1e6 * k_norm)
    upd = upd.ravel()
    cos = upd @ vanilla / (np.linalg.norm(upd) * np.linalg.norm(vanilla))
    assert math.acos(min(cos, 1.0)) < 1e-3


# ----------------------------------------------------------------------- EMA


def test_ema_first_update_adopts_value():
    state = isopo.RegEmaState(decay=0.9)
    assert isopo.ema_update(state, "k", 5.0) == 5.0


def test_ema_blend():
    state = isopo.RegEmaState(decay=0.9)
    isopo.ema_update(state, "k", 1.0)
    assert isopo.ema_update(state, "k", 2.0) == pytest.approx(1.1)


def test_ema_fixed_point():
    state = isopo.RegEmaState(decay=0.9)
    isopo.ema_update(state, "k", 0.0)
    for _ in range(200):
        isopo.ema_update(state, "k", 3.0)
    assert abs(state.value("k") - 3.0) < 1e-6


def test_ema_invalid_decay():
    with pytest.raises(ContractViolation):
        isopo.RegEmaState(decay=1.0)


def test_reg_strength_uses_ema():
    state = isopo.RegEmaState(decay=0.9)
    params = isopo.RescalingParams(p=-1.0, q=0.0, r=0.0, reg_strength=2.0, ema=state)
    isopo.ema_update(state, (0, "fisher_sq"), 4.0)
    grad = np.ones((2, 2))
    f = 1.0
    expected_scale = 1.0 / math.sqrt(max(f * f + 2.0 * 4.0, isopo.RESCALE_FLOOR))
    assert np.allclose(
        isopo.rescaling(grad, f, params, layer=0), expected_scale * grad, rtol=1e-14, atol=0
    )
