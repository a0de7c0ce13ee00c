from __future__ import annotations

import numpy as np
import pytest

from isopo_lab import isopo, metrics, tasks
from isopo_lab.config import RunConfig
from isopo_lab.rng import stream

from conftest import make_microbatch, overlap


def row_for(mb, net, task, n_overlap=16, seed=0, algo="reinforce"):
    positions = overlap(mb, n_overlap, stream(seed, "ms"))
    fisher_norms = isopo.sequence_fisher_norms(mb.scored, positions)
    ref = metrics.reference_table(net, task)
    cfg = RunConfig(algo=algo, seed=seed)
    return metrics.collect(0, cfg, net, ref, task, mb, fisher_norms, kl_u(task)), fisher_norms[0]


def kl_u(task, seed=0):
    return stream(seed, "kl").random((metrics.KL_SAMPLES, task.seq_len))


def test_step_zero_kl_is_exactly_zero(small_net, small_task, microbatch):
    row, _ = row_for(microbatch, small_net, small_task)
    assert row["kl_from_init"] == 0.0
    assert row["step"] == 0
    assert row["task"] == "seqtask"


def test_row_columns_in_order(small_net, small_task, microbatch):
    row, _ = row_for(microbatch, small_net, small_task, seed=3, algo="isopo-int")
    layers = [
        f"l{l}_{name}"
        for l in range(len(microbatch.scored.sq_norms))
        for name in ("mean_F_norm", "mean_grad_norm", "ntk_eigen_mean")
    ]
    assert list(row) == [*metrics.FIXED_COLUMNS, *layers]
    assert (row["algo"], row["seed"]) == ("isopo-int", 3)
    assert row["mean_reward"] == float(microbatch.rewards.mean())


def test_mean_fisher_norm_matches_manual_average(small_net, small_task, microbatch):
    row, norms = row_for(microbatch, small_net, small_task)
    for l in range(len(microbatch.scored.sq_norms)):
        col = norms[:, l]
        manual = float(np.mean(col[~np.isnan(col)]))
        assert row[f"l{l}_mean_F_norm"] == pytest.approx(manual, abs=1e-12)
        manual_g = float(np.mean([np.linalg.norm(g) for g in microbatch.scored.seq_grads[l]]))
        assert row[f"l{l}_mean_grad_norm"] == pytest.approx(manual_g, abs=1e-12)


def test_collect_does_not_mutate_policy(small_net, small_task, microbatch):
    before = [w.copy() for w in small_net.weights]
    positions = overlap(microbatch, 16, stream(0, "ms"))
    fisher_norms = isopo.sequence_fisher_norms(microbatch.scored, positions)
    ref = metrics.reference_table(small_net.copy(), small_task)
    cfg = RunConfig(algo="grpo", seed=3)
    metrics.collect(5, cfg, small_net, ref, small_task, microbatch, fisher_norms, kl_u(small_task))
    for a, b in zip(before, small_net.weights):
        assert np.array_equal(a, b)


def test_validation_of_perfect_policy(small_task, small_net):
    # overwrite final layer so greedy emits each prompt's target digits is hard here;
    # instead check the wiring through a bandit cheat policy
    import numpy as np

    from isopo_lab import policy as pol

    table = np.eye(4)
    task = tasks.BanditTask(n_prompts=4, n_arms=4, table=table)
    context_dim = task.vocab_size + task.seq_len + task.feature_dim
    w = np.zeros((4, context_dim + 1))
    for i in range(4):
        w[i, task.vocab_size + task.seq_len + i] = 30.0
    net = pol.PolicyNet([w], vocab_size=4, context_dim=context_dim)
    mb = make_microbatch(net, task, seed=0, n_groups=2, group_size=2)
    row, _ = row_for(mb, net, task, n_overlap=4)
    assert row["validation"] == 1.0


def test_degenerate_count_passthrough(small_net, small_task, microbatch):
    positions = overlap(microbatch, 8, stream(0, "d"))
    norms, _ = isopo.sequence_fisher_norms(microbatch.scored, positions)
    flags = np.zeros(len(norms), dtype=bool)
    flags[[0, 2, 5]] = True
    ref = metrics.reference_table(small_net, small_task)
    row = metrics.collect(
        0, RunConfig(), small_net, ref, small_task, microbatch, (norms, flags), kl_u(small_task)
    )
    assert row["degenerate_sequences"] == 3


def test_step_zero_kl_samples_nothing(small_net, small_task, microbatch, monkeypatch):
    # at step 0 the row's table is the reference itself, so its KL is 0.0
    # without sampling; a later row still samples its KL
    def refuse(*args):
        raise AssertionError("step 0 sampled its KL")

    monkeypatch.setattr(metrics, "kl_from_reference", refuse)
    row, _ = row_for(microbatch, small_net, small_task)
    assert row["kl_from_init"] == 0.0 and not np.signbit(row["kl_from_init"])
    calls = []
    monkeypatch.setattr(metrics, "kl_from_reference", lambda *args: calls.append(args) or 0.5)
    positions = overlap(microbatch, 16, stream(0, "ms"))
    fisher_norms = isopo.sequence_fisher_norms(microbatch.scored, positions)
    ref = metrics.reference_table(small_net, small_task)
    u = kl_u(small_task)
    row = metrics.collect(5, RunConfig(), small_net, ref, small_task, microbatch, fisher_norms, u)
    assert row["kl_from_init"] == 0.5
    assert len(calls) == 1 and calls[0][1] is ref and calls[0][2] is u
