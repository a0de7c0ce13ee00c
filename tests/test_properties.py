"""Property-based checks (Hypothesis) of the factor identities, the batched
estimators and config I/O."""

from __future__ import annotations

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isopo_lab import baselines, isopo, oracle, policy, tasks
from isopo_lab.config import (
    ALGOS,
    OPTIMIZERS,
    RULES,
    TASKS,
    RunConfig,
    parse_config,
    serialize_config,
)
from isopo_lab.errors import ConfigError
from isopo_lab.rng import stream

from conftest import make_microbatch, ntk_update, overlap, sampled_mats

TASK = tasks.SeqAdditionTask(modulus=5, seq_len=2)
NET = policy.init_policy(
    TASK.vocab_size, TASK.seq_len, TASK.feature_dim, (6,), stream(0, "prop")
)
N_SEQ = 8  # make_microbatch default: 2 groups of 4


def permuted(mb, perm):
    """The same sequences in order ``perm``, as one group (group structure
    does not enter the estimators checked here)."""
    sc = mb.scored
    scored = policy.Scored(
        sc.logprobs[perm], [a[perm] for a in sc.act_in], [g[perm] for g in sc.grad_out]
    )
    return tasks.Microbatch(
        mb.prompts[:1], mb.tokens[perm], scored, mb.rewards[perm], mb.advantages[perm]
    )


def assert_close(a, b):
    assert np.max(np.abs(a - b)) <= 1e-12 * max(float(np.max(np.abs(b))), 1e-300)


def int_update(mb):
    grads = []
    grams = isopo.build_ntk(mb.scored.grad_out, mb.scored.act_in)[0]
    for gout, act, gram in zip(mb.scored.grad_out, mb.scored.act_in, grams):
        c = float(np.trace(gram)) / len(gout)
        grads.append(ntk_update(gout, act, mb.advantages, c))
    return grads


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), perm=st.permutations(range(N_SEQ)))
def test_sequence_permutation_equivariance(seed, perm):
    perm = np.array(perm)
    mb = make_microbatch(NET, TASK, seed=seed)
    other = permuted(mb, perm)
    positions = overlap(mb, 10, stream(seed, "prop-ov"))
    # the same positions in ``other``: sequence perm[i] of ``mb`` is its sequence i
    seq_len = mb.tokens.shape[1]
    rows = np.argsort(perm)[positions // seq_len]
    p_positions = np.sort(rows * seq_len + positions % seq_len)

    norms, degenerate = isopo.sequence_fisher_norms(mb.scored, positions)
    p_norms, p_degenerate = isopo.sequence_fisher_norms(other.scored, p_positions)
    assert np.array_equal(np.isnan(p_norms), np.isnan(norms[perm]))
    assert np.array_equal(p_degenerate, degenerate[perm])
    assert_close(np.nan_to_num(p_norms), np.nan_to_num(norms[perm]))

    for a, b in zip(baselines.reinforce_grad(other), baselines.reinforce_grad(mb)):
        assert_close(a, b)
    ni = isopo.noninteracting_update(mb, norms, RunConfig(p=-1.0), {})
    p_ni = isopo.noninteracting_update(other, p_norms, RunConfig(p=-1.0), {})
    for a, b in zip(p_ni, ni):
        assert_close(a, b)
    for a, b in zip(int_update(other), int_update(mb)):
        assert_close(a, b)


@st.composite
def factor_arrays(draw, cancel=False):
    """One layer's position factors grad_out (B, T, out) and act_in (B, T, in + 1)
    with B in 1-6 and T in 1-4 (T = 1 is the bandit shape). With ``cancel``,
    every sequence's positions share one input and their gradients sum to
    zero, so V_b = 0 up to rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_seq, seq_len = draw(st.integers(1, 6)), draw(st.integers(2 if cancel else 1, 4))
    out_dim, in_dim = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grad_out = rng.standard_normal((n_seq, seq_len, out_dim))
    act_in = rng.standard_normal((n_seq, seq_len, in_dim + 1))
    act_in[..., -1] = 1.0
    if cancel:
        grad_out[:, -1] = -grad_out[:, :-1].sum(axis=1)
        act_in[:] = act_in[:, :1]
    return grad_out, act_in, rng


def term_scales(grad_out, act_in):
    """sum_t |g_bt| |a_bt| per sequence: the size of the rank-one terms summed into
    V_b. The factor forms round relative to it, not to the result, which
    cancellation inside V_b can make arbitrarily smaller."""
    return np.sum(
        np.linalg.norm(grad_out, axis=-1) * np.linalg.norm(act_in, axis=-1), axis=1
    )


@settings(max_examples=200, deadline=None)
@given(factors=factor_arrays())
def test_factor_identities_match_materialized_gradients(factors):
    grad_out, act_in, rng = factors
    seq_grads = policy.Scored(np.zeros(len(grad_out)), [act_in], [grad_out]).seq_grads[0]
    scale = term_scales(grad_out, act_in)

    # |V_b|^2 from per-sequence (T, T) Grams
    ref_sq = np.sum(seq_grads * seq_grads, axis=(1, 2))
    assert np.all(np.abs(policy.grad_sq_norms(grad_out, act_in) - ref_sq) <= 1e-13 * scale**2)

    # sum_b w_b V_b as one gemm; entry-wise against the sum of |terms|
    w = rng.standard_normal(len(grad_out))
    ref_sum = np.tensordot(w, seq_grads, axes=1)
    bound = policy.grad_sum(np.abs(grad_out), np.abs(act_in), np.abs(w))
    assert np.all(np.abs(policy.grad_sum(grad_out, act_in, w) - ref_sum) <= 1e-13 * bound)

    # NTK entries, against the Cauchy-Schwarz scale of the summed terms
    flat = seq_grads.reshape(len(seq_grads), -1)
    (gram,) = isopo.build_ntk([grad_out], [act_in])[0]
    assert np.array_equal(gram, gram.T)
    assert np.all(np.abs(gram - flat @ flat.T) <= 1e-14 * np.outer(scale, scale))

    # Fisher-norm estimates from the projections g_j . V_b a_j of sampled
    # positions, against the oracle on the materialized sample
    n_positions = grad_out.shape[0] * grad_out.shape[1]
    positions = np.sort(rng.permutation(n_positions)[: int(rng.integers(1, n_positions + 1))])
    scored = policy.Scored(np.zeros(len(grad_out)), [act_in], [grad_out])
    norms, degenerate = isopo.sequence_fisher_norms(scored, positions)
    assert not degenerate.any()
    sampled = sampled_mats(scored, 0, positions)
    slow = np.array([oracle.naive_fisher_norm(v, sampled) for v in seq_grads])
    assert np.all(np.abs(norms[:, 0] - slow) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(factors=factor_arrays(cancel=True))
def test_squared_norm_of_cancelling_factors_is_clamped(factors):
    # the Gram sum of a V_b that cancels rounds to either side of 0; the
    # clamp keeps every |V_b|^2 a valid square, next to 0 on the terms' scale
    grad_out, act_in, _ = factors
    sq_norms = policy.grad_sq_norms(grad_out, act_in)
    assert np.all(sq_norms >= 0.0)
    assert np.all(sq_norms <= 1e-13 * term_scales(grad_out, act_in) ** 2)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    f_norm=st.floats(1e-2, 1e3),
    s=st.floats(1e-1, 1e3),
)
def test_fisher_normalization_is_scale_invariant(seed, f_norm, s):
    # above the floor, p = -1 divides by F, so scaling V and F together by s
    # leaves the rescaled gradient unchanged
    v = np.random.default_rng(seed).standard_normal((3, 4))
    cfg = RunConfig(p=-1.0)
    assert (s * f_norm) ** 2 > isopo.RESCALE_FLOOR
    got = isopo.rescaling(s * v, s * f_norm, cfg, {})
    want = isopo.rescaling(v, f_norm, cfg, {})
    assert np.allclose(got, want, rtol=1e-12, atol=0)


FINITE = dict(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, max_value=1e6, **FINITE)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6, **FINITE)


@st.composite
def config_fields(draw):
    """RunConfig keyword arguments: values in range, and any text as ``out_dir``."""
    return dict(
        task=draw(st.sampled_from(TASKS)),
        algo=draw(st.sampled_from(ALGOS)),
        p=draw(st.floats(-10.0, 10.0)),
        q=draw(st.floats(-10.0, 10.0)),
        r=draw(st.floats(-10.0, 10.0)),
        reg_strength=draw(NONNEGATIVE),
        reg_factor=draw(NONNEGATIVE),
        clip_eps=draw(POSITIVE),
        inner_epochs=draw(st.integers(1, 20)),
        group_size=draw(st.integers(2, 64)),
        groups_per_microbatch=draw(st.integers(1, 64)),
        n_overlap=draw(st.integers(1, 1024)),
        ema_decay=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        optimizer=draw(st.sampled_from(OPTIMIZERS)),
        lr=draw(POSITIVE),
        steps=draw(st.integers(0, 10_000)),
        eval_every=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**31)),
        normalize_std=draw(st.booleans()),
        out_dir=draw(st.text()),
        seq_modulus=draw(st.integers(2, 64)),
        seq_len=draw(st.integers(1, 8)),
        exact_match_reward=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(kwargs=config_fields())
@example(kwargs={"out_dir": "runs/a#b"})
@example(kwargs={"out_dir": "runs/a\nseed = 1"})
@example(kwargs={"out_dir": "runs/a\u2028"})
@example(kwargs={"out_dir": " runs"})
@example(kwargs={"out_dir": "runs/a b=c"})
@example(kwargs={"out_dir": ""})
def test_config_round_trip(kwargs):
    # a config round-trips, or is refused for an out_dir that config.txt
    # cannot hold on one line: "#" starts a comment, a line break ends the
    # line, and parsing strips the ends; an empty one would name the current
    # directory
    try:
        cfg = RunConfig(**kwargs)
    except ConfigError as exc:
        assert str(exc).startswith("key 'out_dir': ")
        return
    # keys outside the config's algorithm or task are not serialized, so a
    # round trip reads them back at their defaults
    defaults = RunConfig()
    out_of_scope = {
        f.name: getattr(defaults, f.name)
        for f in fields(RunConfig)
        if (RULES[f.name].algos and cfg.algo not in RULES[f.name].algos)
        or (RULES[f.name].tasks and cfg.task not in RULES[f.name].tasks)
    }
    cfg = replace(cfg, **out_of_scope)
    assert parse_config(serialize_config(cfg)) == cfg


# finite floats of every scale, with zeros, subnormals and values whose square overflows
NORM_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-160, 1.4e154, -1e300, 1.7e308]
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 70), st.data())
def test_row_norms_equal_linalg_norm_bit_for_bit(n_rows, n_cols, data):
    values = data.draw(st.lists(NORM_FLOATS, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    x = np.array(values).reshape(n_rows, n_cols)
    y = np.array(data.draw(st.lists(NORM_FLOATS, min_size=n_rows, max_size=n_rows)))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(isopo.row_norms(x), np.linalg.norm(x, axis=1))
        scale = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        got = isopo._sample_denominator(y, x)
        want = float(np.linalg.norm(scale))
    assert got == want or (np.isnan(got) and np.isnan(want))


# every float: NaN, infinities, signed zeros, subnormals and squares that overflow
ANY_FLOATS = st.floats() | st.sampled_from(
    [np.nan, -np.inf, np.inf, 0.0, -0.0, 5e-324, -2.5e-320, 1e-4, 1.4e154, -1.7e308]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ANY_FLOATS, min_size=1, max_size=6),
    st.floats(min_value=0.0, allow_infinity=False),
)
def test_reg2_without_regularization_skips_the_ema_term_bit_for_bit(xs, v):
    # at reg_strength 0, x * x + 0.0 * v is x * x for every float x and
    # finite v >= 0, so _reg2 need not read the EMA
    x = np.array(xs)
    ema = {(0, "fisher_sq"): v}
    with np.errstate(over="ignore", invalid="ignore"):
        got = isopo._reg2(x, (0, "fisher_sq"), RunConfig(reg_strength=0.0), ema)
        want = np.sqrt(np.maximum(x * x + 0.0 * v, isopo.RESCALE_FLOOR))
    assert got.tobytes() == want.tobytes()


# NaN of both signs, infinities, signed zeros and subnormals
ROW_MAX_SPECIALS = np.array(
    [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
)


def assert_row_max_agrees(logits):
    """``_normalize``'s max equals the reduction along the last axis bit for
    bit, except the sign of a zero max that a row holds with both signs, or
    of a NaN max; e, its sum and the log softmax of every row without a NaN
    are the bits that the last-axis max gives."""
    with np.errstate(invalid="ignore", over="ignore"):
        m, e, total = policy._normalize(logits)
        want = np.maximum.reduce(logits, axis=-1, keepdims=True)
        want_e = np.exp(logits - want)
        want_total = np.add.reduce(want_e, axis=-1, keepdims=True)
        log_softmax = logits - m - np.log(total)
        want_log_softmax = logits - want - np.log(want_total)
    nan = np.isnan(want)
    zeros = logits == 0.0
    negative = np.any(zeros & np.signbit(logits), axis=-1, keepdims=True)
    positive = np.any(zeros & ~np.signbit(logits), axis=-1, keepdims=True)
    both_zeros = (want == 0.0) & negative & positive
    assert np.array_equal(np.isnan(m), nan) and np.all(m[both_zeros] == 0.0)
    exact = ~nan & ~both_zeros
    assert m[exact].tobytes() == want[exact].tobytes()
    rows = ~nan[..., 0]
    for got, expected in [(e, want_e), (total, want_total), (log_softmax, want_log_softmax)]:
        assert got[rows].tobytes() == expected[rows].tobytes()


@settings(max_examples=300, deadline=None)
@given(
    lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    vocab=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_row_max_is_the_last_axis_reduction(lead, vocab, seed, density):
    # logits of every scale, subnormals included, with a share replaced by NaN,
    # infinities, signed zeros and subnormals
    rng = np.random.default_rng(seed)
    shape = (*lead, vocab)
    logits = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    special = rng.random(shape) < density
    logits[special] = rng.choice(ROW_MAX_SPECIALS, np.count_nonzero(special))
    assert_row_max_agrees(logits)


def test_row_max_of_rows_with_both_zeros():
    # the rows whose max is a zero held with both signs, where the sign of the
    # max may depend on the order of the reduction
    row = [-0.0, -5e-324, 0.0, -np.inf, 0.0, -0.0, 0.0, -0.0, -1.0]
    assert_row_max_agrees(np.array([row, row[::-1]]))
    assert_row_max_agrees(np.array([[0.0, -0.0], [-0.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    group=st.integers(0, 1),
    shift=st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
    normalize_std=st.booleans(),
)
def test_group_mean_baseline(seed, group, shift, normalize_std):
    # each group's advantages sum to zero, and a constant added to one group's
    # rewards leaves the REINFORCE gradient as it was: every sequence's
    # advantage is measured from its own group's mean reward
    prompts = [TASK.train_prompts[(seed + 5 * g) % len(TASK.train_prompts)] for g in range(2)]
    u = stream(seed, "baseline").random((N_SEQ, TASK.seq_len))

    def offset_rewards(batch_prompts, tokens):
        lifted = np.array([p is prompts[group] for p in batch_prompts])
        return TASK.rewards(batch_prompts, tokens) + shift * lifted

    mb = tasks.build_microbatch(NET, TASK, prompts, u, normalize_std)
    offset = SimpleNamespace(rewards=offset_rewards)
    shifted = tasks.build_microbatch(NET, offset, prompts, u, normalize_std)
    assert not np.array_equal(shifted.rewards, mb.rewards)
    for batch in (mb, shifted):
        adv = batch.advantages
        scale = max(1.0, float(np.max(np.abs(adv))), float(np.max(np.abs(batch.rewards))))
        assert np.all(np.abs(adv.reshape(2, -1).sum(axis=1)) <= 1e-12 * scale)
    for got, want, g, a in zip(
        baselines.reinforce_grad(shifted),
        baselines.reinforce_grad(mb),
        mb.scored.grad_out,
        mb.scored.act_in,
    ):
        bound = policy.grad_sum(np.abs(g), np.abs(a), np.abs(mb.advantages) + 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(bound)
