from __future__ import annotations

import hashlib

import numpy as np
import pytest

from isopo_lab import baselines, checks, harness, isopo, policy
from isopo_lab.config import RunConfig
from isopo_lab.errors import ConfigError, CsvFormatError
from isopo_lab.rng import stream


def quick_cfg(**kw):
    base = dict(steps=4, eval_every=2, seed=0, group_size=4, groups_per_microbatch=2)
    base.update(kw)
    return RunConfig(**base)


def test_steps_zero_writes_single_row(tmp_path):
    res = harness.train(quick_cfg(steps=0), tmp_path / "r")
    assert len(res.rows) == 1
    assert res.rows[0]["step"] == 0
    assert res.rows[0]["kl_from_init"] == 0.0
    rows = harness.read_metrics_csv(res.csv_path)
    assert len(rows) == 1 and rows[0]["step"] == 0


def test_train_deterministic_byte_identical(tmp_path):
    cfg = quick_cfg(algo="isopo-ni", p=-1.0, steps=6, eval_every=3, seed=11)
    a = harness.train(cfg, tmp_path / "a")
    b = harness.train(cfg, tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()


def test_reinforce_and_identity_isopo_share_trajectories(tmp_path):
    cfg_r = quick_cfg(algo="reinforce", steps=6, seed=3)
    cfg_i = quick_cfg(algo="isopo-ni", p=0.0, q=0.0, r=0.0, steps=6, seed=3)
    net_r = policy.load_checkpoint(harness.train(cfg_r, tmp_path / "r").checkpoint_path)
    net_i = policy.load_checkpoint(harness.train(cfg_i, tmp_path / "i").checkpoint_path)
    for a, b in zip(net_r.weights, net_i.weights):
        assert np.max(np.abs(a - b)) <= 1e-10


def test_same_seed_same_microbatch_across_algorithms(small_task):
    cfgs = [
        quick_cfg(algo="reinforce", seed=5),
        quick_cfg(algo="grpo", seed=5),
        quick_cfg(algo="isopo-int", seed=5),
    ]
    batches = []
    for cfg in cfgs:
        task = harness.make_task(cfg)
        net = harness.build_policy(task, cfg.seed)
        batches.append(harness.sample_microbatch(net, task, cfg, step=1))
    ref = batches[0]
    for mb in batches[1:]:
        assert [r.tokens for r in mb.records] == [r.tokens for r in ref.records]
        assert np.array_equal(mb.rewards, ref.rewards)


# SHA-256 of the tokens sample_microbatch draws at steps 1-3 from the initial
# policy of seed 0 with the default config; recorded before the batched
# forward/backward replaced the per-position sampler, which drew the same tokens
PINNED_TOKENS = {
    "seqtask": "aba4c840e2fceac97c766e9fe81134efc0a5057eb6dd567ef452ae582713cf63",
    "bandit": "f1699af739290f4acd51fda86a0168482b0362d504b1b9cac8bb79bdc65c50a7",
}
PINNED_KL = 1.2114804858293802


@pytest.mark.parametrize("task_name", sorted(PINNED_TOKENS))
def test_sampled_tokens_pinned(task_name):
    cfg = RunConfig(task=task_name, seed=0)
    task = harness.make_task(cfg)
    net = harness.build_policy(task, cfg.seed)
    steps = []
    for step in (1, 2, 3):
        mb = harness.sample_microbatch(net, task, cfg, step)
        steps.append(";".join(",".join(str(t) for t in r.tokens) for r in mb.records))
    digest = hashlib.sha256("/".join(steps).encode("ascii")).hexdigest()
    assert digest == PINNED_TOKENS[task_name]


def test_kl_from_reference_pinned():
    task = harness.make_task(RunConfig(task="seqtask"))
    ref = harness.build_policy(task, 0)
    net = ref.copy()
    drift = stream(0, "pin-perturb")
    for w in net.weights:
        w += 0.3 * drift.standard_normal(w.shape)
    kl = policy.kl_from_reference(net, ref, task.heldout_prompts[:16], 256, stream(0, "pin-kl"))
    assert kl == pytest.approx(PINNED_KL, rel=1e-12, abs=0)


def test_rewards_are_pure_task_rewards(tmp_path):
    # the reward column must equal the task verifier's output, with no KL term
    cfg = quick_cfg(algo="isopo-ni", p=-1.0, steps=3, eval_every=1, seed=7)
    res = harness.train(cfg, tmp_path / "r")
    task = harness.make_task(cfg)
    net = harness.build_policy(task, cfg.seed)
    for row in res.rows:
        step = row["step"]
        mb = harness.sample_microbatch(net, task, cfg, step)
        raw = np.mean([task.reward(r.prompt, r.tokens) for r in mb.records])
        if step == 0:
            assert row["mean_reward"] == pytest.approx(float(raw))
        else:
            break  # later steps use updated weights; step-0 equality pins provenance


def test_run_table_equals_each_steps_own_streams():
    cfg = quick_cfg(seed=3)
    task = harness.make_task(cfg)
    table = harness.draw_steps(task, cfg, range(5))
    for step in range(5):
        prompts, u = table[step]
        alone_prompts, alone_u = harness.draw_steps(task, cfg, [step])[step]
        assert [p.id for p in prompts] == [p.id for p in alone_prompts]
        assert np.array_equal(u, alone_u)
        # row 5 is sequence 1 of group 1 (group size 4)
        label = f"policy/{step}/{prompts[1].id}/1"
        assert np.array_equal(u[5], stream(cfg.seed, label).random(task.seq_len))


def test_groups_exceeding_train_prompts_rejected(tmp_path):
    cfg = quick_cfg(task="bandit", groups_per_microbatch=50)
    with pytest.raises(ConfigError):
        harness.train(cfg, tmp_path / "r")
    assert not (tmp_path / "r").exists()


def test_all_algorithms_run_and_write(tmp_path):
    for algo, extra in (
        ("reinforce", {}),
        ("grpo", {"inner_epochs": 2}),
        ("isopo-ni", {"p": -1.0}),
        ("isopo-int", {"reg_factor": 1.0}),
    ):
        cfg = quick_cfg(algo=algo, steps=3, eval_every=1, **extra)
        res = harness.train(cfg, tmp_path / algo)
        assert not res.aborted
        rows = harness.read_metrics_csv(res.csv_path)
        assert [r["step"] for r in rows] == [0, 1, 2, 3]
        header = res.csv_path.read_text().splitlines()[0]
        assert ("ntk_eigen_mean" in header) == (algo == "isopo-int")


def test_grpo_inner_epochs_move_further(tmp_path):
    one = quick_cfg(algo="grpo", inner_epochs=1, steps=2, seed=2)
    four = quick_cfg(algo="grpo", inner_epochs=4, steps=2, seed=2)
    net1 = policy.load_checkpoint(harness.train(one, tmp_path / "e1").checkpoint_path)
    net4 = policy.load_checkpoint(harness.train(four, tmp_path / "e4").checkpoint_path)
    init = harness.build_policy(harness.make_task(one), 2)
    d1 = sum(np.sum((a - b) ** 2) for a, b in zip(net1.weights, init.weights))
    d4 = sum(np.sum((a - b) ** 2) for a, b in zip(net4.weights, init.weights))
    assert d4 > d1


def test_csv_round_trip_and_malformed_errors(tmp_path):
    res = harness.train(quick_cfg(steps=2, eval_every=1), tmp_path / "r")
    rows = harness.read_metrics_csv(res.csv_path)
    assert rows[0]["algo"] == "reinforce"
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,metrics,header\n1,2,3,4\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        harness.read_metrics_csv(bad)
    lines = res.csv_path.read_text().splitlines()
    bad.write_text("\n".join([lines[0], "1,reinforce,seqtask,0,oops"]) + "\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        harness.read_metrics_csv(bad)
    bad.write_text(
        "\n".join([lines[0], lines[1].replace(lines[1].split(",")[4], "zzz", 1)]) + "\n"
    )
    with pytest.raises(CsvFormatError):
        harness.read_metrics_csv(bad)


def test_repeated_csv_column_is_rejected(tmp_path):
    res = harness.train(quick_cfg(steps=0), tmp_path / "r")
    header, row = res.csv_path.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header},l0_mean_F_norm\n{row},1.5\n")
    with pytest.raises(CsvFormatError, match="line 1: .*l0_mean_F_norm"):
        harness.read_metrics_csv(bad)


@pytest.mark.parametrize(
    "algo, extra",
    [
        ("reinforce", {}),
        ("grpo", {"inner_epochs": 2}),
        ("isopo-ni", {"p": -1.0}),
        ("isopo-int", {}),
        ("isopo-int", {"task": "bandit", "reg_factor": 0.0}),  # aborts at step 1
    ],
)
def test_csv_reads_back_the_run_rows(tmp_path, algo, extra):
    res = harness.train(quick_cfg(algo=algo, steps=3, eval_every=2, **extra), tmp_path / "r")
    assert res.aborted == (extra.get("reg_factor") == 0.0)
    assert harness.read_metrics_csv(res.csv_path) == res.rows


def test_compare_single_run_median_equals_best(tmp_path):
    cfg = quick_cfg(steps=2, eval_every=1)
    rows, _ = harness.compare([cfg], 1, tmp_path / "cmp", ["only"])
    assert rows
    for row in rows:
        assert row["validation_best"] == row["validation_median"]
        assert row["validation_min"] == row["validation_max"]
        assert row["n_runs"] == 1 and row["aborted_runs"] == 0


def test_compare_best_is_elementwise_max(tmp_path):
    cfg = quick_cfg(steps=4, eval_every=2, seed=0)
    rows, results = harness.compare([cfg], 3, tmp_path / "cmp3", ["r"])
    runs = results["r"]
    assert len(runs) == 3
    assert sorted(r.config.seed for r in runs) == [0, 1, 2]
    for row in rows:
        step = row["step"]
        vals = [m["validation"] for r in runs for m in r.rows if m["step"] == step]
        assert row["validation_best"] == max(vals)
        assert row["validation_median"] == float(np.median(vals))
        assert row["validation_min"] == min(vals)


def test_compare_aggregates_recomputable_from_run_csvs(tmp_path):
    cfg = quick_cfg(steps=2, eval_every=1)
    rows, _ = harness.compare([cfg], 2, tmp_path / "agg", ["x"])
    per_run = {}
    for seed in (0, 1):
        csv_rows = harness.read_metrics_csv(tmp_path / "agg" / f"x-seed{seed}" / "metrics.csv")
        for r in csv_rows:
            per_run.setdefault(r["step"], []).append(r["validation"])
    for row in rows:
        vals = per_run[row["step"]]
        assert row["validation_best"] == max(vals)
        assert row["validation_median"] == float(np.median(vals))


def test_gradcheck_passes_and_lists_each_suite_once():
    results = checks.run_gradcheck(seed=1)
    names = [r.name for r in results]
    assert len(names) == len(set(names)) == 5
    assert all(r.passed for r in results)


def test_gradcheck_detects_corrupted_backward():
    def tamper(grads):
        bad = [g.copy() for g in grads]
        bad[0][0, 0] += 0.25
        return bad

    results = checks.run_gradcheck(seed=1, grad_tamper=tamper)
    by_name = {r.name: r for r in results}
    assert not by_name["policy-backward-fd"].passed


def test_oracle_check_passes():
    results = checks.run_oracle_check(seed=0)
    assert len({r.name for r in results}) == 5
    assert all(r.passed for r in results)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_singular_ntk_solve_aborts_cleanly(tmp_path, seed):
    # bandit sequences are one token long, so two draws of one arm for one
    # prompt have equal gradients and K is singular; with reg_factor = 0 the
    # Cholesky solve of K + cI fails at step 1
    cfg = quick_cfg(task="bandit", algo="isopo-int", reg_factor=0.0, seed=seed)
    res = harness.train(cfg, tmp_path / "r")
    assert res.aborted
    assert res.abort_reason.startswith("step 1: SingularMatrixError")
    assert (tmp_path / "r" / "ABORTED").read_text().startswith("step 1:")
    # the failing step still gets its row; the failed solve left the weights untouched
    assert [row["step"] for row in res.rows] == [0, 1]
    assert res.rows[1]["kl_from_init"] == 0.0


@pytest.mark.parametrize(
    "algo, module, name",
    [
        ("reinforce", "baselines", "reinforce_grad"),
        ("grpo", "baselines", "grpo_clipped_grad"),
        ("isopo-ni", "isopo", "noninteracting_update"),
        ("isopo-int", "isopo", "interacting_update"),
    ],
)
def test_failure_inside_update_aborts_with_row(tmp_path, monkeypatch, algo, module, name):
    module = getattr(harness, module)
    # step 2 is not an eval step, so its row is there only because the run aborted there
    cfg = quick_cfg(algo=algo, steps=4, eval_every=3, seed=4)
    current = {}
    sample, grad = harness.sample_microbatch, getattr(module, name)

    def tracked_sample(net, task, cfg, step, draws=None):
        current["step"] = step
        return sample(net, task, cfg, step, draws)

    def failing_grad(*args, **kwargs):
        if current["step"] == 2:
            raise FloatingPointError("injected")
        return grad(*args, **kwargs)

    monkeypatch.setattr(harness, "sample_microbatch", tracked_sample)
    monkeypatch.setattr(module, name, failing_grad)
    res = harness.train(cfg, tmp_path / "r")
    assert res.aborted
    assert res.abort_reason.startswith("step 2: FloatingPointError")
    assert [row["step"] for row in res.rows] == [0, 2]
    assert [r["step"] for r in harness.read_metrics_csv(res.csv_path)] == [0, 2]


@pytest.mark.parametrize("algo", ["reinforce", "grpo", "isopo-ni", "isopo-int"])
def test_training_never_materializes_sequence_gradients(tmp_path, monkeypatch, algo):
    # every per-sequence quantity comes from the position factors, so a run
    # that cannot read Scored.seq_grads finishes and writes the same file
    cfg = quick_cfg(task="seqtask", algo=algo, steps=10, eval_every=1, seed=2)
    reference = harness.train(cfg, tmp_path / "reference").csv_path.read_bytes()

    def refuse(self):
        raise AssertionError("training read Scored.seq_grads")

    monkeypatch.setattr(policy.Scored, "seq_grads", property(refuse))
    res = harness.train(cfg, tmp_path / "guarded")
    assert not res.aborted
    assert res.csv_path.read_bytes() == reference


def test_grpo_rescores_only_after_its_first_epoch(tmp_path, monkeypatch):
    # the first inner epoch takes reinforce_grad, which equals the clipped
    # gradient at the sampling weights bit for bit, so it scores nothing
    calls = []
    original = baselines.grpo_clipped_grad

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(baselines, "grpo_clipped_grad", counted)
    harness.train(quick_cfg(algo="grpo", inner_epochs=4, steps=3), tmp_path / "r")
    assert len(calls) == 3 * 3


def test_ntk_column_is_mean_ntk_eigenvalue(tmp_path):
    cfg = quick_cfg(algo="isopo-int", steps=1)
    res = harness.train(cfg, tmp_path / "r")
    row = harness.read_metrics_csv(res.csv_path)[0]
    task = harness.make_task(cfg)
    mb = harness.sample_microbatch(harness.build_policy(task, cfg.seed), task, cfg, 0)
    for l, (gout, act) in enumerate(zip(mb.scored.grad_out, mb.scored.act_in)):
        expected = float(np.trace(isopo.build_ntk(gout, act))) / len(gout)
        assert row[f"l{l}_ntk_eigen_mean"] == pytest.approx(expected, rel=1e-12, abs=0)
        assert row[f"l{l}_ntk_eigen_mean"] > 0


def test_aborted_run_recorded_and_excluded(tmp_path, monkeypatch):
    cfg = quick_cfg(steps=3, eval_every=1, seed=1)
    original = baselines.optimizer_step
    calls = {"n": 0}

    def explode_on_second(state, net, grads):
        calls["n"] += 1
        if calls["n"] == 2:
            grads = [g.copy() for g in grads]
            grads[0][0, 0] = np.nan
        return original(state, net, grads)

    monkeypatch.setattr(harness.baselines, "optimizer_step", explode_on_second)
    res = harness.train(cfg, tmp_path / "boom")
    assert res.aborted
    assert "step 2" in res.abort_reason
    assert (tmp_path / "boom" / "ABORTED").exists()
    # aggregate excludes the aborted run but flags it
    agg = harness.aggregate_runs({"z": [res]})
    assert agg == [] or all(r["n_runs"] == 0 for r in agg)
