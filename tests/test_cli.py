from __future__ import annotations

from isopo_lab import cli
from isopo_lab.config import load_config

AGGREGATE_HEADER = (
    "label,step,n_runs,aborted_runs,validation_median,validation_min,validation_max,"
    "kl_median,kl_min,kl_max"
)


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
    assert header == AGGREGATE_HEADER


def test_cli_config_txt_names_the_run_directory(tmp_path, capsys):
    # a run's config.txt parses back to the directory the run wrote, when
    # --out or compare chose it over the config file's out_dir
    cfg = write_config(
        tmp_path / "a.cfg",
        "out_dir = runs/elsewhere\nsteps = 1\neval_every = 1\ngroup_size = 4\n"
        "groups_per_microbatch = 2\n",
    )
    out = tmp_path / "x"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert load_config(out / "config.txt").out_dir == str(out)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", cfg, "--seeds", "2", "--out", str(out)]) == 0
    for run in ("a-seed0", "a-seed1"):
        assert load_config(out / run / "config.txt").out_dir == str(out / run)
    capsys.readouterr()
    # an --out that config.txt cannot hold on one line is an error before any
    # run trains, the same line for train and compare
    for command in ("train", "compare"):
        for bad in ("y#1", "y\nseed = 1"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / bad)]) == 2
            captured = capsys.readouterr()
            # the flag's error names the key alone, not the config file
            assert captured.err.startswith("error: key 'out_dir': not one line")
            assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "cmp", "x"]


def test_cli_names_the_config_file_only_for_errors_in_it(tmp_path, capsys):
    # seed = -1 in the file names the file, in train and compare; the same
    # value from --seed is checked by dataclasses.replace and names only the
    # key, as a bad --out does. One line, exit code 2, nothing written
    cfg = write_config(tmp_path / "c.cfg", "steps = 1\n")
    assert cli.main(["train", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    bad = write_config(tmp_path / "bad.cfg", "steps = 1\nseed = -1\n")
    for command in ("train", "compare"):
        assert cli.main([command, "--config", bad, "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: seed must be >= 0, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "c.cfg"]


def test_cli_train_reports_an_aborted_run(tmp_path, capsys):
    # bandit's NTK is singular, so with reg_factor = 0 the run aborts at step 1:
    # train prints the reason after the final row and exits 1
    singular = write_config(
        tmp_path / "singular.cfg",
        "task = bandit\nalgo = isopo-int\nreg_factor = 0.0\nsteps = 2\n"
        "group_size = 4\ngroups_per_microbatch = 2\n",
    )
    out = tmp_path / "out"
    assert cli.main(["train", "--config", singular, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("final step 1: ")
    assert lines[2].startswith("ABORTED: step 1: SingularMatrixError: ")
    assert (out / "ABORTED").read_text() == lines[2].removeprefix("ABORTED: ") + "\n"


def test_cli_compare_numbers_configs_that_share_a_stem(tmp_path):
    # two run.cfg files in different directories are labelled run-0 and run-1
    text = "steps = 1\neval_every = 1\ngroup_size = 4\ngroups_per_microbatch = 2\n"
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_config(tmp_path / "a" / "run.cfg", text)
    second = write_config(tmp_path / "b" / "run.cfg", text + "seed = 5\n")
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", first, "--config", second, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "run-0-seed0", "run-1-seed5"]
    rows = (out / "aggregate.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["run-0", "run-0", "run-1", "run-1"]


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
    header, *rows = (out / "aggregate.csv").read_text().splitlines()
    assert header == AGGREGATE_HEADER
    # the all-aborted label keeps its rows: no live run, two aborted, no statistics
    assert [row for row in rows if row.startswith("singular,")] == [
        "singular,0,0,2,,,,,,",
        "singular,1,0,2,,,,,,",
    ]


def test_cli_gradcheck_pass(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_cli_oracle_check_pass(capsys):
    assert cli.main(["oracle-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_cli_bad_config_errors(tmp_path, capsys):
    # one line on stderr and exit code 2, no traceback, for train and compare
    scoped = write_config(tmp_path / "bad.cfg", "algo = reinforce\nclip_eps = 0.2\n")
    unknown = write_config(tmp_path / "unknown.cfg", "algo = reinforce\nnope = 1\n")
    assert cli.main(["train", "--config", scoped, "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == (
        f"error: {scoped}: key 'clip_eps' only applies to algo ['grpo'], config uses 'reinforce'\n"
    )
    assert cli.main(["train", "--config", unknown, "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == f"error: {unknown}: line 2: unknown key 'nope'\n"
    ok = write_config(tmp_path / "ok.cfg", "steps = 1\n")
    too_many = write_config(tmp_path / "many.cfg", "groups_per_microbatch = 300\n")
    code = cli.main(["compare", "--config", ok, "--config", too_many, "--out", str(tmp_path / "c")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: groups_per_microbatch=300 exceeds 202 training prompts\n"
    )
    assert not (tmp_path / "t").exists() and not (tmp_path / "c").exists()


def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys):
    # a missing, unreadable or non-UTF-8 config file is one error line and
    # exit code 2, no traceback; compare writes nothing
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["train", "--config", missing, "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == (
        f"error: {missing}: cannot read config: No such file or directory\n"
    )
    assert cli.main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read config: ")
    binary = tmp_path / "latin1.cfg"
    binary.write_bytes("algo = reinforce  # d\xe9j\xe0 vu\n".encode("latin-1"))
    assert cli.main(["train", "--config", str(binary), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == (
        f"error: {binary}: config is not UTF-8 text: invalid continuation byte\n"
    )
    ok = write_config(tmp_path / "ok.cfg", "steps = 1\n")
    for bad in (missing, str(binary)):
        code = cli.main(["compare", "--config", ok, "--config", bad, "--out", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not (tmp_path / "t").exists() and not (tmp_path / "c").exists()


def test_cli_task_without_a_heldout_split_is_a_config_error(tmp_path, capsys):
    # seq_modulus = 2 leaves 4 training prompts and none held out: one error
    # line and exit code 2, no traceback, for train and compare; nothing written
    tiny = write_config(tmp_path / "tiny.cfg", "seq_modulus = 2\nsteps = 1\n")
    expected = "error: seqtask has 4 training and 0 heldout prompts; both must be nonempty\n"
    assert cli.main(["train", "--config", tiny, "--out", str(tmp_path / "t")]) == 2
    captured = capsys.readouterr()
    assert captured.err == expected and captured.out == ""
    ok = write_config(tmp_path / "ok.cfg", "steps = 1\n")
    code = cli.main(["compare", "--config", ok, "--config", tiny, "--out", str(tmp_path / "c")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == expected and captured.out == ""
    assert not (tmp_path / "t").exists() and not (tmp_path / "c").exists()


def test_cli_plot_without_runs_is_an_error(tmp_path, capsys):
    # no metrics.csv under --in, or no such directory: one error line, exit
    # code 2, and no SVG or output directory
    (tmp_path / "empty").mkdir()
    for source in (tmp_path / "empty", tmp_path / "missing"):
        code = cli.main(["plot", "--in", str(source), "--out", str(tmp_path / "plots")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no metrics.csv under {source}\n" and captured.out == ""
    assert not (tmp_path / "plots").exists()


def test_cli_bad_flag_values_are_errors(tmp_path, capsys):
    # no seeds for compare or a negative check seed: one error line, exit
    # code 2, no traceback; compare writes nothing
    ok = write_config(tmp_path / "ok.cfg", "steps = 1\n")
    for seeds in ("0", "-1"):
        code = cli.main(["compare", "--config", ok, "--seeds", seeds, "--out", str(tmp_path / "c")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seeds must be >= 1, got {seeds}\n" and captured.out == ""
    assert not (tmp_path / "c").exists()
    for command in ("gradcheck", "oracle-check"):
        assert cli.main([command, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n" and captured.out == ""


def test_cli_plot_of_a_malformed_csv_is_an_error(tmp_path, capsys):
    # the CSV's error names its file and line; no SVG or output directory
    bad = tmp_path / "runs" / "r" / "metrics.csv"
    bad.parent.mkdir(parents=True)
    bad.write_text("step,algo\n0,reinforce\n")
    code = cli.main(["plot", "--in", str(tmp_path / "runs"), "--out", str(tmp_path / "plots")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: line 1: header must start step,algo,task")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "plots").exists()


def test_cli_out_naming_a_file_is_an_error(tmp_path, capsys):
    # an --out that is a file, or lies under one: one error line and exit
    # code 2, before any run trains or any CSV is read (the malformed CSV
    # under --in would be an error of its own)
    cfg = write_config(tmp_path / "run.cfg", "steps = 1\n")
    runs = tmp_path / "runs" / "r"
    runs.mkdir(parents=True)
    (runs / "metrics.csv").write_text("step,algo\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    commands = (
        ["train", "--config", cfg, "--out"],
        ["compare", "--config", cfg, "--out"],
        ["plot", "--in", str(tmp_path / "runs"), "--out"],
    )
    for command in commands:
        for out in (blocker, blocker / "sub"):
            code = cli.main([*command, str(out)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: output directory {out}: ")
            assert captured.err.count("\n") == 1 and captured.out == ""
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.cfg", "runs"]
