from __future__ import annotations

import pytest

from isopo_lab import cli


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_cli_train_and_plot(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.cfg",
        "algo = reinforce\nsteps = 2\neval_every = 1\ngroup_size = 4\n"
        "groups_per_microbatch = 2\n",
    )
    out = tmp_path / "out"
    code = cli.main(["train", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.txt").exists()
    captured = capsys.readouterr().out
    assert "final step 2" in captured

    plots = tmp_path / "plots"
    code = cli.main(["plot", "--in", str(tmp_path), "--out", str(plots)])
    assert code == 0
    assert (plots / "validation_vs_step.svg").exists()
    assert (plots / "kl_vs_validation.svg").exists()


def test_cli_train_seed_override_changes_output(tmp_path):
    cfg = write_config(
        tmp_path / "run.cfg",
        "steps = 1\neval_every = 1\ngroup_size = 4\ngroups_per_microbatch = 2\n",
    )
    cli.main(["train", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "s1")])
    cli.main(["train", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "s2")])
    a = (tmp_path / "s1" / "metrics.csv").read_text()
    b = (tmp_path / "s2" / "metrics.csv").read_text()
    assert a != b


def test_cli_compare(tmp_path, capsys):
    cfg1 = write_config(
        tmp_path / "a.cfg",
        "algo = reinforce\nsteps = 1\neval_every = 1\ngroup_size = 4\n"
        "groups_per_microbatch = 2\n",
    )
    cfg2 = write_config(
        tmp_path / "b.cfg",
        "algo = isopo-ni\np = -1.0\nsteps = 1\neval_every = 1\ngroup_size = 4\n"
        "groups_per_microbatch = 2\n",
    )
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--config", cfg1, "--config", cfg2, "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    assert (out / "aggregate.csv").exists()
    assert (out / "a-seed0" / "metrics.csv").exists()
    assert (out / "b-seed1" / "metrics.csv").exists()
    header = (out / "aggregate.csv").read_text().splitlines()[0]
    assert header.startswith("label,step,n_runs,aborted_runs,validation_best")


def test_cli_compare_reports_aborted_runs(tmp_path, capsys):
    ok = write_config(
        tmp_path / "ok.cfg",
        "algo = reinforce\nsteps = 1\neval_every = 1\ngroup_size = 4\n"
        "groups_per_microbatch = 2\n",
    )
    # bandit sequences are one token long, so the NTK is singular and with
    # reg_factor = 0 every run aborts at step 1
    singular = write_config(
        tmp_path / "singular.cfg",
        "task = bandit\nalgo = isopo-int\nreg_factor = 0.0\nsteps = 2\n"
        "group_size = 4\ngroups_per_microbatch = 2\n",
    )
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", ok, "--config", singular, "--seeds", "2",
                     "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    aborted = [line for line in lines if line.startswith("ABORTED: ")]
    assert [line.split(": ")[1] for line in aborted] == ["singular seed 0", "singular seed 1"]
    assert all("step 1: SingularMatrixError" in line for line in aborted)
    header = (out / "aggregate.csv").read_text().splitlines()[0]
    assert header.startswith("label,step,n_runs,aborted_runs,validation_best")


def test_cli_gradcheck_pass(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_cli_oracle_check_pass(capsys):
    assert cli.main(["oracle-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_cli_bad_config_errors(tmp_path):
    cfg = write_config(tmp_path / "bad.cfg", "algo = reinforce\nclip_eps = 0.2\n")
    with pytest.raises(Exception):
        cli.main(["train", "--config", cfg])
