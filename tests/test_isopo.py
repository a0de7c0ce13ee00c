from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from isopo_lab import baselines, checks, isopo, metrics, oracle, policy, tasks
from isopo_lab.config import RunConfig
from isopo_lab.errors import ContractViolation, SingularMatrixError
from isopo_lab.rng import stream, uniforms

from conftest import (
    as_factors,
    make_microbatch,
    ntk_update,
    overlap,
    sampled_mats,
    scale_grad_out,
)


def random_factors(rng, n, out_dim, in_dim):
    """(act_in, grad_out) of n random positions; act_in ends in the bias 1."""
    act = rng.standard_normal((n, in_dim + 1))
    act[:, -1] = 1.0
    return act, rng.standard_normal((n, out_dim))


# ---------------------------------------------------------------- fisher norm


def scored_of(act_in, grad_out):
    """A one-layer ``Scored`` of factors act_in (B, T, in + 1) and grad_out (B, T, out)."""
    return policy.Scored(np.zeros(len(act_in)), [act_in], [grad_out])


def test_fisher_norm_orthogonal_update_is_zero():
    # the one sampled position is sequence 0's first; both position gradients
    # of sequence 1 are orthogonal (Frobenius) to it, since their output
    # factors are orthogonal to its own
    rng = np.random.default_rng(0)
    act, gout = random_factors(rng, 4, 3, 4)
    g = gout[0]
    gout[2:] -= np.outer(gout[2:] @ g, g) / (g @ g)
    scored = scored_of(act.reshape(2, 2, -1), gout.reshape(2, 2, -1))
    norms, degenerate = isopo.sequence_fisher_norms(scored, np.array([0]))
    assert not degenerate.any()
    assert norms[0, 0] > 0.0
    assert norms[1, 0] < 1e-12 * math.sqrt(scored.sq_norms[0][1])


def test_fisher_norm_single_sample_own_outer_product():
    # a one-position sequence sampled at its own position: the numerator is
    # |g|^2 |a|^2 and the denominator |g||a|, so the estimate is |g||a| = |V|_F
    rng = np.random.default_rng(1)
    act, gout = random_factors(rng, 3, 4, 6)
    scored = scored_of(act[:, None], gout[:, None])
    for b in range(3):
        norms, degenerate = isopo.sequence_fisher_norms(scored, np.array([b]))
        assert not degenerate.any()
        expected = np.linalg.norm(gout[b]) * np.linalg.norm(act[b])
        assert norms[b, 0] == pytest.approx(expected, rel=1e-12)
        assert norms[b, 0] == pytest.approx(np.linalg.norm(np.outer(gout[b], act[b])), rel=1e-12)


def test_fisher_norm_matches_materialized_oracle(microbatch):
    scored = microbatch.scored
    positions = overlap(microbatch, 10, stream(0, "ov"))
    norms, degenerate = isopo.sequence_fisher_norms(scored, positions)
    assert not degenerate.any()
    for l, seq_grads in enumerate(scored.seq_grads):
        sampled = sampled_mats(scored, l, positions)
        for b, v in enumerate(seq_grads):
            assert norms[b, l] == pytest.approx(oracle.naive_fisher_norm(v, sampled), rel=1e-10)


def test_fisher_norm_degenerate_samples_are_nan(microbatch):
    # an all-zero sample set marks every sequence degenerate, with NaN norms,
    # although only the sampled sequence has V = 0
    scored = microbatch.scored
    for gout in scored.grad_out:
        gout[0] = 0.0
    seq_len = microbatch.tokens.shape[1]
    norms, degenerate = isopo.sequence_fisher_norms(scored, np.arange(seq_len))
    assert degenerate.all()
    assert np.isnan(norms).all()
    assert all(np.all(sq[1:] > 0.0) for sq in scored.sq_norms)


# ----------------------------------------------------------------- rescaling


def test_rescaling_zero_exponents_identity():
    rng = np.random.default_rng(4)
    grad = rng.standard_normal((3, 5))
    cfg = RunConfig(p=0.0, q=0.0, r=0.0)
    assert np.array_equal(isopo.rescaling(grad, 0.7, cfg, {}), grad)


def test_rescaling_fisher_normalization_formula():
    rng = np.random.default_rng(5)
    grad = rng.standard_normal((4, 4))
    cfg = RunConfig(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    f = 2.5
    expected = grad / math.sqrt(max(f * f, isopo.RESCALE_FLOOR))
    assert np.allclose(isopo.rescaling(grad, f, cfg, {}), expected, rtol=1e-14, atol=0)


def test_rescaling_direction_matching_formula():
    rng = np.random.default_rng(6)
    grad = rng.standard_normal((4, 6))
    cfg = RunConfig(p=0.0, q=0.0, r=-2.0, reg_strength=0.0)
    f = 3.0
    gn = float(np.linalg.norm(grad))
    rel = f / gn
    exact = grad / max(rel * rel, isopo.RESCALE_FLOOR)
    got = isopo.rescaling(grad, f, cfg, {})
    assert np.allclose(got, exact, rtol=1e-14)
    # above the floor this is grad * |grad|^2 / F^2
    assert np.allclose(got, grad * gn * gn / (f * f), rtol=1e-6)


def test_rescaling_total_for_zero_inputs():
    cfg = RunConfig(p=-1.0, q=1.0, r=-2.0)
    out = isopo.rescaling(np.zeros((2, 2)), 0.0, cfg, {})
    assert np.all(np.isfinite(out))


def test_rescaling_rejects_negative_norm():
    with pytest.raises(ContractViolation):
        isopo.rescaling(np.zeros((2, 2)), -1.0, RunConfig(), {})


# ---------------------------------------------------------- overlap positions


def test_overlap_clamps_to_all_positions(microbatch):
    positions = overlap(microbatch, 10_000, stream(0, "c"))
    assert np.array_equal(positions, np.arange(microbatch.tokens.size))


def test_overlap_deterministic(microbatch):
    a = overlap(microbatch, 5, stream(3, "ov"))
    b = overlap(microbatch, 5, stream(3, "ov"))
    assert np.array_equal(a, b)


def test_overlap_inclusion_uniform(microbatch):
    total = microbatch.tokens.size
    take = 6
    redraws = 10_000
    counts = np.zeros(total)
    rng = stream(0, "uniformity")
    for _ in range(redraws):
        counts[overlap(microbatch, take, rng)] += 1
    p = take / total
    sigma = math.sqrt(p * (1 - p) / redraws)
    assert np.all(np.abs(counts / redraws - p) < 3 * sigma)


# --------------------------------------------------- non-interacting update


def ni_update(mb, positions, cfg):
    norms, _ = isopo.sequence_fisher_norms(mb.scored, positions)
    return isopo.noninteracting_update(mb, norms, cfg, {})


def test_noninteracting_zero_advantages(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=1, force_advantages=False)
    mb.advantages[:] = 0.0
    positions = overlap(mb, 16, stream(0, "o"))
    for g in ni_update(mb, positions, RunConfig(p=-1.0)):
        assert np.all(g == 0.0)


def test_noninteracting_identity_equals_reinforce(microbatch):
    positions = overlap(microbatch, 16, stream(0, "o"))
    cfg = RunConfig(p=0.0, q=0.0, r=0.0)
    upd = ni_update(microbatch, positions, cfg)
    ref = baselines.reinforce_grad(microbatch)
    for a, b in zip(upd, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_batched_estimates_match_per_sequence_loop(small_net, small_task):
    # the per-sequence loop is the reference for the batched contractions
    mb = make_microbatch(small_net, small_task, seed=7)
    positions = overlap(mb, 12, stream(7, "o"))
    cfg = RunConfig(p=-1.0, q=0.5, r=0.25)
    norms, degenerate = isopo.sequence_fisher_norms(mb.scored, positions)
    upd = isopo.noninteracting_update(mb, norms, cfg, {})
    assert not degenerate.any()
    for l, jac in enumerate(mb.scored.seq_grads):
        sampled = sampled_mats(mb.scored, l, positions)
        expected = np.zeros_like(jac[0])
        for i in range(len(jac)):
            f = oracle.naive_fisher_norm(jac[i], sampled)
            assert norms[i, l] == pytest.approx(f, rel=1e-14)
            expected += mb.advantages[i] * isopo.rescaling(jac[i], f, cfg, {}, l)
        assert np.allclose(upd[l], expected, rtol=1e-12, atol=1e-15)


def test_rescaling_ema_kept_only_when_read(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=7)
    positions = overlap(mb, 12, stream(7, "o"))
    norms, degenerate = isopo.sequence_fisher_norms(mb.scored, positions)
    assert not degenerate.any()
    ema = {}
    isopo.noninteracting_update(mb, norms, RunConfig(p=-1.0, q=0.5, r=-0.5, reg_strength=0.0), ema)
    assert ema == {}
    # with reg_strength > 0 the step first folds its own mean squares into
    # the EMA, then rescales against them: the per-sequence loop is the reference
    used = RunConfig(p=-1.0, q=0.5, r=-0.5, reg_strength=0.3)
    upd = isopo.noninteracting_update(mb, norms, used, ema)
    for l, (jac, sq_norms) in enumerate(zip(mb.scored.seq_grads, mb.scored.sq_norms)):
        f_sq = norms[:, l] ** 2
        assert ema[(l, "fisher_sq")] == float(f_sq.mean())
        assert ema[(l, "grad_sq")] == float(sq_norms.mean())
        assert ema[(l, "rel_sq")] == float((f_sq / sq_norms).mean())
        expected = sum(
            a * isopo.rescaling(v, f, used, ema, l)
            for a, v, f in zip(mb.advantages, jac, norms[:, l])
        )
        assert np.allclose(upd[l], expected, rtol=1e-12, atol=1e-15)


def test_rescaling_ema_skips_a_layer_without_a_valid_estimate(small_net, small_task):
    # a layer in which every sequence's estimate is degenerate has no mean to
    # fold in: its EMA entries keep their values, while the other layer's move
    cfg = RunConfig(p=-1.0, q=0.5, r=-0.5, reg_strength=0.3)
    ema = {}
    mb = make_microbatch(small_net, small_task, seed=7)
    positions = overlap(mb, 12, stream(7, "o"))
    isopo.noninteracting_update(mb, isopo.sequence_fisher_norms(mb.scored, positions)[0], cfg, ema)
    before = dict(ema)
    sc = make_microbatch(small_net, small_task, seed=8).scored
    dead = policy.Scored(sc.logprobs, sc.act_in, [np.zeros_like(sc.grad_out[0]), sc.grad_out[1]])
    norms, _ = isopo.sequence_fisher_norms(dead, positions)
    assert np.all(np.isnan(norms[:, 0])) and not np.any(np.isnan(norms[:, 1]))
    upd = isopo.noninteracting_update(replace(mb, scored=dead), norms, cfg, ema)
    quantities = ("fisher_sq", "grad_sq", "rel_sq")
    assert set(ema) == set(before) == {(l, k) for l in (0, 1) for k in quantities}
    for (l, k), value in before.items():
        assert (ema[(l, k)] == value) == (l == 0)
    assert not np.any(upd[0]) and np.all(np.isfinite(upd[1]))


def test_noninteracting_single_sequence_composition(small_net, small_task):
    prompt = small_task.train_prompts[2]
    u = uniforms(9, [f"c/{k}" for k in range(2)], small_task.seq_len)
    mb = tasks.build_microbatch(small_net, small_task, [prompt], u)
    adv = np.array([1.7, 0.0])
    mb.advantages[:] = adv
    positions = overlap(mb, 8, stream(2, "o"))
    cfg = RunConfig(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    upd = ni_update(mb, positions, cfg)
    # compose the two operations by hand for the only active sequence
    for l in range(small_net.n_layers):
        v = mb.scored.seq_grads[l][0]
        f = oracle.naive_fisher_norm(v, sampled_mats(mb.scored, l, positions))
        expected = adv[0] * isopo.rescaling(v, f, RunConfig(p=-1.0), {}, l)
        assert np.allclose(upd[l], expected, rtol=1e-12, atol=1e-15)


def test_noninteracting_linear_in_advantages(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=4)
    positions = overlap(mb, 12, stream(4, "o"))
    cfg = RunConfig(p=-1.0, q=0.5, r=0.25)
    rng = np.random.default_rng(8)
    adv1 = rng.standard_normal(len(mb.advantages))
    adv2 = rng.standard_normal(len(mb.advantages))

    def update_with(adv):
        mb.advantages[:] = adv
        return ni_update(mb, positions, cfg)

    u1 = update_with(adv1)
    u2 = update_with(adv2)
    u_sum = update_with(adv1 + adv2)
    u_scaled = update_with(2.5 * adv1)
    for a, b, s in zip(u1, u2, u_sum):
        assert np.allclose(a + b, s, atol=1e-12)
    for a, s in zip(u1, u_scaled):
        assert np.allclose(2.5 * a, s, atol=1e-12)


def test_noninteracting_degenerate_fallback(small_net, small_task):
    mb = make_microbatch(small_net, small_task, seed=5, n_groups=1, group_size=3)
    # zero out one sequence's gradients entirely
    for gout in mb.scored.grad_out:
        gout[1] = 0.0
    positions = overlap(mb, 6, stream(5, "o"))
    norms, degenerate = isopo.sequence_fisher_norms(mb.scored, positions)
    upd = isopo.noninteracting_update(mb, norms, RunConfig(p=-1.0), {})
    assert np.count_nonzero(degenerate) == 1
    assert np.all(np.isnan(norms[1]))
    assert np.all(np.isfinite([np.max(np.abs(g)) for g in upd]))


def test_live_estimates_ignore_a_dead_sequence(small_net, small_task):
    # with sequence 1 zeroed its estimates are NaN, and every other
    # sequence's estimates are the same bits as with sequence 1 left as it
    # is, from samples outside sequence 1
    mb = make_microbatch(small_net, small_task, seed=5)
    n_seq, seq_len = mb.tokens.shape
    positions = np.array([j for j in range(mb.tokens.size) if j // seq_len != 1])
    sc = mb.scored
    dead = policy.Scored(sc.logprobs, sc.act_in, [g.copy() for g in sc.grad_out])
    for gout in dead.grad_out:
        gout[1] = 0.0
    norms, degenerate = isopo.sequence_fisher_norms(sc, positions)
    dead_norms, dead_degenerate = isopo.sequence_fisher_norms(dead, positions)
    assert not np.any(np.isnan(norms)) and not np.any(degenerate)
    assert np.flatnonzero(dead_degenerate).tolist() == [1]
    assert np.all(np.isnan(dead_norms[1]))
    live = np.arange(n_seq) != 1
    assert np.array_equal(norms[live], dead_norms[live])


def test_cancelling_positions_give_finite_updates(small_net, small_task):
    # positions 0 and 1 of sequence 1 share their input and have opposite
    # gradients, so V_1 = 0 in every layer while its (T, T) Gram products do
    # not vanish; |V_1|^2 is clamped at 0, and no square root sees a negative
    mb = make_microbatch(small_net, small_task, seed=6, n_groups=1, group_size=3)
    for act, gout in zip(mb.scored.act_in, mb.scored.grad_out):
        act[1, 1] = act[1, 0]
        gout[1, 1] = -gout[1, 0]
    assert all(np.all(sq >= 0.0) for sq in mb.scored.sq_norms)
    positions = overlap(mb, 6, stream(6, "o"))
    norms, degenerate = isopo.sequence_fisher_norms(mb.scored, positions)
    assert not np.any(np.isnan(np.delete(norms, 1, axis=0)))
    for l, sq in enumerate(mb.scored.sq_norms):
        # degenerate exactly when |V_1|^2 came out as 0; otherwise a finite estimate
        assert np.isnan(norms[1, l]) == (sq[1] == 0.0)
    assert degenerate[1] == any(sq[1] == 0.0 for sq in mb.scored.sq_norms)
    ref = metrics.reference_table(small_net, small_task)
    kl_u = stream(6, "kl").random((metrics.KL_SAMPLES, small_task.seq_len))
    cfg = RunConfig(algo="isopo-ni")
    row = metrics.collect(0, cfg, small_net, ref, small_task, mb, (norms, degenerate), kl_u)
    for l in range(len(mb.scored.sq_norms)):
        assert np.isfinite(row[f"l{l}_mean_grad_norm"])
    for ni_cfg in (RunConfig(p=-1.0), RunConfig(p=-1.0, q=0.5, r=-2.0)):
        upd = isopo.noninteracting_update(mb, norms, ni_cfg, {})
        assert np.all(np.isfinite(np.concatenate([g.ravel() for g in upd])))
    for gout, act in zip(mb.scored.grad_out, mb.scored.act_in):
        c = float(np.trace(isopo.build_ntk(gout, act)[0])) / len(gout)
        upd = ntk_update(gout, act, mb.advantages, c)
        assert np.all(np.isfinite(upd))


def test_self_normalization_under_shared_samples(small_net, small_task):
    # grad_out scaled so every Fisher-norm estimate keeps F^2 far above the 1e-8 floor
    prompt = small_task.train_prompts[0]
    u = uniforms(0, [f"p/{k}" for k in range(8)], small_task.seq_len)
    mb = tasks.build_microbatch(small_net, small_task, [prompt], u)
    mb.advantages[:] = np.linspace(-1, 1, 8)
    mb = scale_grad_out(mb, 12.0)
    positions = overlap(mb, 64, stream(0, "ov"))
    norms, degenerate = isopo.sequence_fisher_norms(mb.scored, positions)
    assert not degenerate.any()
    assert np.nanmin(norms) > 2.3  # F^2 > 5, so the floor's clamp is inactive
    cfg = RunConfig(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    for l, jac in enumerate(mb.scored.seq_grads):
        sampled = sampled_mats(mb.scored, l, positions)
        for i in range(len(jac)):
            w = isopo.rescaling(jac[i], norms[i, l], cfg, {}, l)
            assert abs(oracle.naive_fisher_norm(w, sampled) - 1.0) <= 1e-9


def test_self_normalization_floor_identity(microbatch):
    # the composition equals F / sqrt(max(F^2, floor)): 1 at native scale, and
    # F / 1e-4 once grad_out is scaled so every estimate falls below the floor
    cfg = RunConfig(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    for grad_scale in (1.0, 1e-6):
        mb = scale_grad_out(microbatch, grad_scale)
        positions = overlap(mb, 16, stream(0, "o"))
        norms, _ = isopo.sequence_fisher_norms(mb.scored, positions)
        below = np.nanmax(norms) ** 2 < isopo.RESCALE_FLOOR
        assert below == (grad_scale < 1.0)
        assert below or np.nanmin(norms) ** 2 > isopo.RESCALE_FLOOR
        for l, jac in enumerate(mb.scored.seq_grads):
            sampled = sampled_mats(mb.scored, l, positions)
            for i in range(len(jac)):
                if np.isnan(norms[i, l]):
                    continue
                w = isopo.rescaling(jac[i], norms[i, l], cfg, {}, l)
                f_w = oracle.naive_fisher_norm(w, sampled)
                f = norms[i, l]
                expected = f / 1e-4 if below else f / math.sqrt(max(f * f, isopo.RESCALE_FLOOR))
                assert f_w == pytest.approx(expected, rel=1e-12)


def test_estimator_consistent_with_exact_fisher():
    # sequence-level exact moments vs the position-subsampled estimate of a
    # sequence gradient V; each redraw samples 256 sequences and estimates the
    # norm of V, appended as sequence 256, from all 512 of their positions
    seed = 0
    net, prompt = checks._tiny_oracle_policy(seed)
    seq_len = len(prompt.target)
    _, v_scored = policy.sample_and_score(
        net, prompt.features[None], uniforms(seed, ["v"], seq_len)
    )
    estimates = []
    for redraw in range(20):
        u = uniforms(1000 + redraw, [f"r/{k}" for k in range(256)], seq_len)
        _, scored = policy.sample_and_score(net, prompt.features[None], u)
        joined = policy.Scored(
            np.append(scored.logprobs, v_scored.logprobs),
            [np.concatenate(pair) for pair in zip(scored.act_in, v_scored.act_in)],
            [np.concatenate(pair) for pair in zip(scored.grad_out, v_scored.grad_out)],
        )
        positions = isopo.overlap_positions(stream(redraw, "ov"), 256 * seq_len, 512)
        norms, _ = isopo.sequence_fisher_norms(joined, positions)
        estimates.append(norms[256] ** 2)
    fisher = oracle.exact_fisher(net, [prompt])
    start = 0
    for l, w in enumerate(net.weights):
        # layer l's diagonal block F_ll; E|g_l|^2 = tr F_ll
        fisher_l = fisher[start : start + w.size, start : start + w.size]
        mean_sq = float(np.trace(fisher_l))
        start += w.size
        v = v_scored.seq_grads[l][0].ravel()
        oracle_val = float(v @ fisher_l @ v) / mean_sq
        mean_est = float(np.mean([est[l] for est in estimates]))
        assert mean_est == pytest.approx(oracle_val, rel=0.25)


# ------------------------------------------------------------------ NTK side


def test_build_ntk_orthonormal_grads():
    grads = np.zeros((3, 2, 3))
    grads[0, 0, 0] = 1.0
    grads[1, 0, 1] = 1.0
    grads[2, 1, 2] = 1.0
    assert np.array_equal(isopo.build_ntk(*as_factors(grads))[0], np.eye(3))


def test_build_ntk_duplicated_gradient():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((3, 4))
    sq = float(np.sum(g * g))
    gram = isopo.build_ntk(*as_factors(np.stack([g, g])))[0]
    assert np.allclose(gram, sq * np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(np.linalg.eigvalsh(gram), [0.0, 2.0 * sq], atol=1e-12 * sq)
    # the mean eigenvalue trace(K)/m is the mean squared gradient norm
    assert np.trace(gram) / 2 == pytest.approx(sq, rel=1e-14)


def test_build_ntk_matches_entrywise_sum(microbatch):
    # one gemm sums in another order than the entry-wise reference, so entries
    # agree to rounding relative to the Cauchy-Schwarz bound sqrt(K_ii K_jj)
    scored = microbatch.scored
    for seq_grads, gout, act in zip(scored.seq_grads, scored.grad_out, scored.act_in):
        gram = isopo.build_ntk(gout, act)[0]
        assert np.array_equal(gram, gram.T)
        m = len(seq_grads)
        for i in range(m):
            for j in range(m):
                ref = float(np.sum(seq_grads[i] * seq_grads[j]))
                assert abs(gram[i, j] - ref) <= 1e-14 * np.sqrt(gram[i, i] * gram[j, j])


@pytest.mark.parametrize("seq_len", [2, 3, 5])
def test_build_ntk_reads_grad_sq_norms_and_numpy_block_sums_bit_for_bit(seq_len):
    # the diagonal blocks of the position product give Scored.sq_norms' bits,
    # and below T = 8 the in-order sum over s is numpy's own last-axis sum
    rng = np.random.default_rng(seq_len)
    for out_dim, in_dim in ((32, 51), (16, 32)):
        gout = rng.standard_normal((32, seq_len, out_dim))
        act = rng.standard_normal((32, seq_len, in_dim + 1))
        gram, sq_norms = isopo.build_ntk(gout, act)
        assert np.array_equal(sq_norms, policy.grad_sq_norms(gout, act))
        flat_g, flat_a = gout.reshape(-1, out_dim), act.reshape(-1, in_dim + 1)
        blocks = policy.grad_projections(gout, act, flat_g, flat_a).reshape(32, 32, seq_len)
        summed = blocks.sum(axis=2)
        assert np.array_equal(gram, 0.5 * (summed + summed.T))


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
            ntk_update(gout, act, np.zeros(len(gout)), 0.3)


def test_interacting_rejects_bad_arguments():
    gout, act = as_factors(np.random.default_rng(5).standard_normal((3, 2, 4)))
    with pytest.raises(ContractViolation):
        ntk_update(gout, act, np.ones(3), -1.0)
    with pytest.raises(ContractViolation):
        ntk_update(gout, act, np.ones(4), 0.5)


def test_interacting_numeric_failures_are_singular():
    g = np.random.default_rng(6).standard_normal((2, 4))
    # two equal sequence gradients: K is singular, and c = 0 leaves it so
    gout, act = as_factors(np.stack([g, g]))
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        ntk_update(gout, act, np.ones(2), 0.0)
    assert np.all(np.isfinite(ntk_update(gout, act, np.ones(2), 0.1)))
    # cholesky would pass a NaN system through without raising
    gout_inf = gout.copy()
    gout_inf[0, 0, 0] = np.inf
    for factor, c in ((gout, np.nan), (gout, np.inf), (gout_inf, 0.1)):
        with np.errstate(invalid="ignore"), pytest.raises(SingularMatrixError, match="not finite"):
            ntk_update(factor, act, np.ones(2), c)


def layer_stack(rng, m=6, n_layers=3):
    """NTKs (n_layers, m, m) of random gradients, positive definite at any c >= 0."""
    jac = rng.standard_normal((n_layers, m, 2 * m))
    return jac @ jac.swapaxes(1, 2)


def test_stacked_solve_equals_per_layer_cholesky_and_solves(microbatch):
    # each layer with its own c; the stack's one cholesky and two solves give
    # the per-layer calls' bits
    rng = np.random.default_rng(12)
    scored = microbatch.scored
    stacks = [
        [isopo.build_ntk(g, a)[0] for g, a in zip(scored.grad_out, scored.act_in)],
        list(layer_stack(rng, m=len(microbatch.advantages))),
    ]
    for grams in stacks:
        cs = [0.05 * (l + 1) * float(np.trace(k)) / len(k) for l, k in enumerate(grams)]
        adv = microbatch.advantages
        weights = isopo.ntk_weights(grams, adv, cs)
        for gram, c, w in zip(grams, cs, weights, strict=True):
            chol = np.linalg.cholesky(gram + c * np.eye(len(gram)))
            assert np.array_equal(w, np.linalg.solve(chol.T, np.linalg.solve(chol, adv)))


def test_stacked_solve_names_the_c_of_the_first_failing_layer():
    rng = np.random.default_rng(13)
    cs = [0.5, 0.25, 0.125]
    nan_layer = layer_stack(rng)
    nan_layer[1, 2, 3] = np.nan
    singular = layer_stack(rng)
    singular[1] = np.ones((6, 6))  # rank one, and c = 0 leaves it so
    cases = [
        (nan_layer, cs, "K + cI with c = 2.500e-01 is not finite"),
        (singular, [0.5, 0.0, 0.125], "K + cI with c = 0.000e+00 is not positive definite"),
    ]
    # a failing layer before a non-finite one is the one named, as layer by layer
    both = singular.copy()
    both[2, 0, 0] = np.inf
    cases.append((both, [0.5, 0.0, 0.125], "K + cI with c = 0.000e+00 is not positive definite"))
    for grams, c, message in cases:
        with np.errstate(invalid="ignore"), pytest.raises(SingularMatrixError) as err:
            isopo.ntk_weights(grams, np.ones(6), c)
        assert str(err.value) == message


def test_interacting_single_sequence():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((2, 5))
    sq = float(np.sum(g * g))
    a1, c = 0.8, 0.3
    upd = ntk_update(*as_factors(g[None]), np.array([a1]), c)
    assert np.allclose(upd, a1 / (sq + c) * g, rtol=1e-12)


def test_interacting_orthonormal_grads_diagonal():
    grads = np.zeros((4, 2, 2))
    for i, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        grads[i, r, c] = 1.0
    adv = np.array([1.0, -2.0, 0.5, 3.0])
    c = 0.7
    upd = ntk_update(*as_factors(grads), adv, c)
    expected = sum(a / (1.0 + c) * g for a, g in zip(adv, grads))
    assert np.allclose(upd, expected, rtol=1e-12)


def test_interacting_matches_flattened_dense_oracle(microbatch):
    adv = microbatch.advantages
    scored = microbatch.scored
    for seq_grads, gout, act in zip(scored.seq_grads, scored.grad_out, scored.act_in):
        jac = seq_grads.reshape(len(seq_grads), -1)
        c = 0.05 * float(np.trace(jac @ jac.T)) / len(seq_grads) + 1e-9
        upd = ntk_update(gout, act, adv, c)
        dense = jac.T @ np.linalg.solve(jac @ jac.T + c * np.eye(len(seq_grads)), adv)
        assert np.linalg.norm(upd.ravel() - dense) <= 1e-9 * np.linalg.norm(dense)


def test_interacting_large_c_approaches_vanilla(microbatch):
    adv = microbatch.advantages
    scored = microbatch.scored
    seq_grads = scored.seq_grads[0]
    vanilla = sum(a * g for a, g in zip(adv, seq_grads)).ravel()
    k_norm = float(np.linalg.norm(isopo.build_ntk(scored.grad_out[0], scored.act_in[0])[0]))
    upd = ntk_update(scored.grad_out[0], scored.act_in[0], adv, 1e6 * k_norm)
    upd = upd.ravel()
    cos = upd @ vanilla / (np.linalg.norm(upd) * np.linalg.norm(vanilla))
    assert math.acos(min(cos, 1.0)) < 1e-3


def test_interacting_update_sets_c_from_ntk_trace(microbatch):
    # c = reg_factor * EMA of trace(K) / m; a second step on the same batch
    # blends the EMA with an equal mean, so c stays put up to rounding
    ema = {}
    for _ in range(2):
        upd = isopo.interacting_update(microbatch, RunConfig(reg_factor=0.5), ema)
    scored = microbatch.scored
    for l, (g, a) in enumerate(zip(scored.grad_out, scored.act_in)):
        mean_eig = float(np.trace(isopo.build_ntk(g, a)[0])) / len(g)
        assert ema[(l, "ntk_mean_eig")] == pytest.approx(mean_eig, rel=1e-12)
        expected = ntk_update(g, a, microbatch.advantages, 0.5 * mean_eig)
        assert np.allclose(upd[l], expected, rtol=1e-9, atol=1e-15)


def test_interacting_c_is_reg_factor_times_the_ema_of_mean_eigenvalues(small_net, small_task):
    # the Tikhonov rule: at every step c = reg_factor * EMA over steps of the
    # layer's mean_i |V_i|^2, recomputed here from each batch's sq_norms; from
    # the second step on it is not the step's own mean eigenvalue
    cfg = RunConfig(reg_factor=0.5, ema_decay=0.6)
    d, ema, expected_ema = cfg.ema_decay, {}, {}
    for seed in (1, 2, 3, 4):
        mb = make_microbatch(small_net, small_task, seed=seed)
        upd = isopo.interacting_update(mb, cfg, ema)
        scored = mb.scored
        for l, sq_norms in enumerate(scored.sq_norms):
            own = float(np.mean(sq_norms))
            # the EMA adopts the first mean, then blends in each next one
            expected_ema[l] = d * expected_ema[l] + (1 - d) * own if l in expected_ema else own
            c = cfg.reg_factor * expected_ema[l]
            expected = ntk_update(scored.grad_out[l], scored.act_in[l], mb.advantages, c)
            assert np.allclose(upd[l], expected, rtol=1e-9, atol=1e-15)


# ----------------------------------------------------------------------- EMA


def test_ema_first_update_adopts_value():
    assert isopo.ema_update({}, "k", 5.0, 0.9) == 5.0


def test_ema_blend():
    ema = {}
    isopo.ema_update(ema, "k", 1.0, 0.9)
    assert isopo.ema_update(ema, "k", 2.0, 0.9) == pytest.approx(1.1)


def test_ema_fixed_point():
    ema = {}
    isopo.ema_update(ema, "k", 0.0, 0.9)
    for _ in range(200):
        isopo.ema_update(ema, "k", 3.0, 0.9)
    assert abs(ema["k"] - 3.0) < 1e-6


def test_ema_rejects_a_negative_mean():
    ema = {"k": 1.0}
    with pytest.raises(ContractViolation, match="nonnegative"):
        isopo.ema_update(ema, "k", -1e-300, 0.9)
    assert ema == {"k": 1.0}


def test_reg_strength_uses_ema():
    ema = {}
    cfg = RunConfig(p=-1.0, q=0.0, r=0.0, reg_strength=2.0)
    isopo.ema_update(ema, (0, "fisher_sq"), 4.0, cfg.ema_decay)
    grad = np.ones((2, 2))
    f = 1.0
    expected_scale = 1.0 / math.sqrt(max(f * f + 2.0 * 4.0, isopo.RESCALE_FLOOR))
    assert np.allclose(
        isopo.rescaling(grad, f, cfg, ema, layer=0), expected_scale * grad, rtol=1e-14, atol=0
    )
