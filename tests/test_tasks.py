from __future__ import annotations

import numpy as np
import pytest

from isopo_lab import policy, tasks
from isopo_lab.errors import ContractViolation
from isopo_lab.rng import stream


def test_group_advantages_mean_baseline():
    adv = tasks.group_advantages([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(adv, [0.5, -0.5, -0.5, 0.5])


def test_group_advantages_constant_rewards():
    assert np.allclose(tasks.group_advantages([1.0, 1.0, 1.0, 1.0]), 0.0)
    # degenerate group with std normalization stays all-zero thanks to the epsilon
    assert np.allclose(tasks.group_advantages([1.0, 1.0], normalize_std=True), 0.0)


def test_group_advantages_std_normalized():
    adv = tasks.group_advantages([2.0, 0.0], normalize_std=True)
    # mean 1, std 1; epsilon shifts the result by < 1e-5
    assert abs(adv[0] - 1.0) < 1e-5
    assert abs(adv[1] + 1.0) < 1e-5


def test_group_advantages_sum_zero_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.uniform(0, 1, size=rng.integers(2, 20))
        adv = tasks.group_advantages(r)
        assert abs(adv.sum()) <= 1e-12 * r.size * max(np.abs(r).max(), 1.0)


def test_group_advantages_needs_two():
    with pytest.raises(ContractViolation):
        tasks.group_advantages([1.0])


def test_bandit_reward_is_table_lookup():
    table = np.zeros((2, 3))
    table[0] = [1.0, 0.2, 0.0]
    table[1] = [0.1, 0.9, 0.3]
    task = tasks.BanditTask(n_prompts=2, n_arms=3, table=table)
    prompt = next(p for p in task.train_prompts + task.heldout_prompts if p.id == "arm0")
    assert task.rewards([prompt, prompt], [[0], [2]]).tolist() == [1.0, 0.0]
    assert prompt.target == (0,)


def test_seq_reward_single_digit():
    task = tasks.SeqAdditionTask(modulus=10, seq_len=1)
    prompt = next(p for p in task.train_prompts + task.heldout_prompts if p.id == "1+2")
    assert task.rewards([prompt, prompt], [[3], [4]]).tolist() == [1.0, 0.0]


def test_seq_reward_partial_credit():
    task = tasks.SeqAdditionTask(modulus=10, seq_len=3)
    prompt = next(p for p in task.train_prompts + task.heldout_prompts if p.id == "5+7")
    # 5 + 7 = 12 -> digits (2, 1, 0) least significant first
    assert prompt.target == (2, 1, 0)
    full, partial = task.rewards([prompt, prompt], [(2, 1, 0), (2, 1, 5)])
    assert full == 1.0
    assert partial == pytest.approx(2.0 / 3.0)
    exact = tasks.SeqAdditionTask(modulus=10, seq_len=3, exact_match_reward=True)
    prompt = next(p for p in exact.train_prompts + exact.heldout_prompts if p.id == "5+7")
    assert exact.rewards([prompt, prompt], [(2, 1, 5), (2, 1, 0)]).tolist() == [0.0, 1.0]


def test_rewards_bounded():
    rng = np.random.default_rng(1)
    seq = tasks.SeqAdditionTask(modulus=6, seq_len=2)
    prompts = [seq.train_prompts[i] for i in rng.integers(len(seq.train_prompts), size=100)]
    r = seq.rewards(prompts, rng.integers(0, 6, size=(100, 2)))
    assert np.all((0.0 <= r) & (r <= 1.0))
    bandit = tasks.BanditTask()
    prompts = [bandit.train_prompts[i] for i in rng.integers(len(bandit.train_prompts), size=100)]
    rb = bandit.rewards(prompts, rng.integers(0, bandit.vocab_size, size=(100, 1)))
    assert np.all((0.0 <= rb) & (rb <= 1.0))


def test_batched_rewards_equal_per_sequence_rule():
    # one call scores a batch; each row is the per-sequence rule, bit for bit
    rng = np.random.default_rng(2)
    seq = tasks.SeqAdditionTask(modulus=4, seq_len=3)
    prompts = [seq.train_prompts[i] for i in rng.integers(len(seq.train_prompts), size=200)]
    tokens = rng.integers(0, 4, size=(200, 3))
    per_sequence = [
        sum(t == d for t, d in zip(row, p.target)) / seq.seq_len
        for p, row in zip(prompts, tokens.tolist())
    ]
    assert seq.rewards(prompts, tokens).tolist() == per_sequence
    bandit = tasks.BanditTask()
    prompts = [bandit.train_prompts[i] for i in rng.integers(len(bandit.train_prompts), size=50)]
    arms = rng.integers(0, bandit.vocab_size, size=(50, 1))
    expected = [bandit.table[int(p.id.removeprefix("arm")), a] for p, (a,) in zip(prompts, arms)]
    assert bandit.rewards(prompts, arms).tolist() == expected
    with pytest.raises(ContractViolation):
        seq.rewards(prompts[:2], tokens[:3])
    with pytest.raises(ContractViolation):
        bandit.rewards(prompts[:2], tokens[:2])


def test_splits_disjoint_and_sized():
    for task in (tasks.SeqAdditionTask(), tasks.BanditTask()):
        tasks.assert_disjoint_split(task)
    seq = tasks.SeqAdditionTask()
    total = len(seq.train_prompts) + len(seq.heldout_prompts)
    assert total == 16 * 16
    frac = len(seq.heldout_prompts) / total
    assert 0.1 < frac < 0.3


def test_validation_perfect_policy_scores_one():
    table = np.zeros((4, 4))
    for i in range(4):
        table[i, i] = 1.0
    task = tasks.BanditTask(n_prompts=4, n_arms=4, table=table)
    # a linear layer reading the prompt one-hot emits the matching arm
    context_dim = task.vocab_size + task.seq_len + task.feature_dim
    w = np.zeros((4, context_dim + 1))
    for i in range(4):
        w[i, task.vocab_size + task.seq_len + i] = 50.0
    net = policy.PolicyNet([w], vocab_size=4, context_dim=context_dim)
    prompts = task.train_prompts + task.heldout_prompts
    assert tasks.validation_score(net, prompts) == 1.0


def test_validation_zero_weight_net_base_rate():
    task = tasks.SeqAdditionTask(modulus=10, seq_len=1)
    context_dim = task.vocab_size + task.seq_len + task.feature_dim
    net = policy.PolicyNet(
        [np.zeros((10, context_dim + 1))], vocab_size=10, context_dim=context_dim
    )
    prompts = task.train_prompts + task.heldout_prompts
    # zero logits decode greedily to token 0; exactly the (a, b) with (a+b)%10 == 0 match
    expected = sum(1 for p in prompts if p.target == (0,)) / len(prompts)
    got = tasks.validation_score(net, prompts)
    assert got == pytest.approx(expected)
    assert got == pytest.approx(0.1)


def test_validation_ignores_rng():
    task = tasks.SeqAdditionTask(modulus=5, seq_len=2)
    net = policy.init_policy(task.vocab_size, task.seq_len, task.feature_dim, (6,), stream(0, "v"))
    # greedy decoding draws no random numbers, so repeated calls agree exactly
    a = tasks.validation_score(net, task.heldout_prompts)
    b = tasks.validation_score(net, task.heldout_prompts)
    assert a == b


def test_microbatch_views(microbatch):
    n = microbatch.tokens.shape[0]
    records = microbatch.records
    assert len(records) == n
    assert microbatch.advantages.shape == (n,)
    assert microbatch.rewards.shape == (n,)
    assert records[0].prompt is microbatch.groups[0].prompt
    assert records[n - 1].prompt is microbatch.groups[-1].prompt
    assert [r.tokens for r in records] == [tuple(row) for row in microbatch.tokens.tolist()]
    assert np.array_equal(
        microbatch.features, np.stack([r.prompt.features for r in records])
    )
    mb = microbatch
    with pytest.raises(ContractViolation):
        tasks.Microbatch(mb.groups[:1], mb.features, mb.tokens, mb.scored)


def test_group_requires_two_records(small_task):
    prompt = small_task.train_prompts[0]
    with pytest.raises(ContractViolation):
        tasks.Group(prompt, np.array([1.0]), np.array([0.0]))


def test_build_microbatch_needs_equal_groups(small_net, small_task):
    prompts = small_task.train_prompts[:2]
    u = np.full((5, small_task.seq_len), 0.5)
    with pytest.raises(ContractViolation):
        tasks.build_microbatch(small_net, small_task, prompts, u)
    with pytest.raises(ContractViolation):
        tasks.build_microbatch(small_net, small_task, [], u)
    mb = tasks.build_microbatch(small_net, small_task, prompts, u[:4])
    assert [len(g.rewards) for g in mb.groups] == [2, 2]
