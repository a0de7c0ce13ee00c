from __future__ import annotations

import numpy as np
import pytest

from isopo_lab import isopo, metrics, tasks
from isopo_lab.rng import stream

from conftest import make_microbatch


def summary_for(mb, n_overlap=16, seed=0):
    samples = isopo.draw_overlap_samples(mb, n_overlap, stream(seed, "ms"))
    norms, degenerate = isopo.sequence_fisher_norms(mb, samples)
    return metrics.batch_summary(mb, norms, int(np.count_nonzero(degenerate)), "reinforce"), norms


def kl_u(task, seed=0):
    return stream(seed, "kl").random((metrics.KL_SAMPLES, task.seq_len))


def test_step_zero_kl_is_exactly_zero(small_net, small_task, microbatch):
    summary, _ = summary_for(microbatch)
    ref = metrics.reference_table(small_net, small_task)
    row = metrics.collect(0, small_net, ref, small_task, summary, 0, "reinforce", kl_u(small_task))
    assert row["kl_from_init"] == 0.0
    assert row["step"] == 0
    assert row["task"] == "seqtask"


def test_mean_fisher_norm_matches_manual_average(microbatch):
    summary, norms = summary_for(microbatch)
    for l in range(len(microbatch.scored.sq_norms)):
        col = norms[:, l]
        manual = float(np.mean(col[~np.isnan(col)]))
        assert summary[f"l{l}_mean_F_norm"] == pytest.approx(manual, abs=1e-12)
        manual_g = float(np.mean([np.linalg.norm(g) for g in microbatch.scored.seq_grads[l]]))
        assert summary[f"l{l}_mean_grad_norm"] == pytest.approx(manual_g, abs=1e-12)


def test_collect_does_not_mutate_policy(small_net, small_task, microbatch):
    before = [w.copy() for w in small_net.weights]
    summary, _ = summary_for(microbatch)
    ref = metrics.reference_table(small_net.copy(), small_task)
    metrics.collect(5, small_net, ref, small_task, summary, 3, "grpo", kl_u(small_task))
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
    summary, _ = summary_for(mb, n_overlap=4)
    ref = metrics.reference_table(net, task)
    row = metrics.collect(0, net, ref, task, summary, 0, "reinforce", kl_u(task))
    assert row["validation"] == 1.0


def test_degenerate_count_passthrough(microbatch):
    samples = isopo.draw_overlap_samples(microbatch, 8, stream(0, "d"))
    norms, _ = isopo.sequence_fisher_norms(microbatch, samples)
    summary = metrics.batch_summary(microbatch, norms, 3, "reinforce")
    assert summary["degenerate_sequences"] == 3
