"""Property-based checks (Hypothesis) of the batched estimators and of config I/O."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isopo_lab import baselines, isopo, policy, tasks
from isopo_lab.config import (
    ALGO_KEYS,
    ALGOS,
    OPTIMIZERS,
    TASK_KEYS,
    TASKS,
    RunConfig,
    parse_config,
    serialize_config,
)
from isopo_lab.rng import stream

from conftest import make_microbatch

TASK = tasks.SeqAdditionTask(modulus=5, seq_len=2)
NET = policy.init_policy(
    TASK.vocab_size, TASK.vocab_size + TASK.seq_len + TASK.feature_dim, (6,), stream(0, "prop")
)
N_SEQ = 8  # make_microbatch default: 2 groups of 4


def permuted(mb, perm):
    """The same sequences in order ``perm``, as one group (group structure
    does not enter the estimators checked here)."""
    sc = mb.scored
    scored = policy.Scored(
        sc.logprobs[perm], [a[perm] for a in sc.act_in], [g[perm] for g in sc.grad_out]
    )
    group = tasks.Group(mb.groups[0].prompt, mb.rewards[perm], mb.advantages[perm])
    return tasks.Microbatch([group], mb.features[perm], mb.tokens[perm], scored)


def assert_close(a, b):
    assert np.max(np.abs(a - b)) <= 1e-12 * max(float(np.max(np.abs(b))), 1e-300)


def int_update(mb):
    grads = []
    for jac in mb.scored.seq_grads:
        ntk = isopo.build_ntk(jac)
        grads.append(isopo.interacting_update(jac, mb.advantages, ntk.mean_eig, ntk))
    return grads


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), perm=st.permutations(range(N_SEQ)))
def test_sequence_permutation_equivariance(seed, perm):
    perm = np.array(perm)
    mb = make_microbatch(NET, TASK, seed=seed)
    other = permuted(mb, perm)
    samples = isopo.draw_overlap_samples(mb, 10, stream(seed, "prop-ov"))

    norms, degenerate = isopo.sequence_fisher_norms(mb, samples)
    p_norms, p_degenerate = isopo.sequence_fisher_norms(other, samples)
    assert np.array_equal(np.isnan(p_norms), np.isnan(norms[perm]))
    assert np.array_equal(p_degenerate, degenerate[perm])
    assert_close(np.nan_to_num(p_norms), np.nan_to_num(norms[perm]))

    for a, b in zip(baselines.reinforce_grad(other), baselines.reinforce_grad(mb)):
        assert_close(a, b)
    ni = isopo.noninteracting_update(mb, samples, isopo.RescalingParams(p=-1.0))
    p_ni = isopo.noninteracting_update(other, samples, isopo.RescalingParams(p=-1.0))
    for a, b in zip(p_ni.layer_grads, ni.layer_grads):
        assert_close(a, b)
    for a, b in zip(int_update(other), int_update(mb)):
        assert_close(a, b)


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
    params = isopo.RescalingParams(p=-1.0)
    assert (s * f_norm) ** 2 > isopo.RESCALE_FLOOR
    got = isopo.rescaling(s * v, s * f_norm, params)
    want = isopo.rescaling(v, f_norm, params)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


FINITE = dict(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, max_value=1e6, **FINITE)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6, **FINITE)


@st.composite
def valid_configs(draw):
    cfg = RunConfig(
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
        out_dir=draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789/_-.", min_size=1)),
        seq_modulus=draw(st.integers(2, 64)),
        seq_len=draw(st.integers(1, 8)),
        exact_match_reward=draw(st.booleans()),
    )
    # keys outside the config's algorithm or task are not serialized, so a
    # round trip reads them back at their defaults
    defaults = RunConfig()
    out_of_scope = {
        f.name: getattr(defaults, f.name)
        for f in fields(RunConfig)
        if (f.name in ALGO_KEYS and cfg.algo not in ALGO_KEYS[f.name])
        or (f.name in TASK_KEYS and cfg.task not in TASK_KEYS[f.name])
    }
    return replace(cfg, **out_of_scope)


@settings(max_examples=200, deadline=None)
@given(cfg=valid_configs())
def test_config_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
