"""Smoke tests of the scripts under ``tools/``, so they keep running."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from isopo_lab import checks

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_repeat_for_one_run(tmp_path):
    tool = load_tool("output_digests")
    labels = [label for label, _ in tool.run_set()]
    assert len(labels) == len(set(labels)) == 112
    text = "algo = isopo-ni\nsteps = 2\neval_every = 1\ngroup_size = 4\ngroups_per_microbatch = 2\n"
    first = tool.digest_line("smoke", text, tmp_path / "a")
    assert first == tool.digest_line("smoke", text, tmp_path / "b")
    label, *digests = first.split(" ")
    # metrics.csv, checkpoint.txt, config.txt, then "-" for the missing ABORTED
    assert label == "smoke" and [len(d) for d in digests] == [64, 64, 64, 1]
    assert digests[3] == "-" and len(set(digests[:3])) == 3
    # a diverging run writes ABORTED, hashed in the fourth column, then its reason
    text = "task = bandit\noptimizer = sgd\nlr = 1.7e308\nsteps = 2\neval_every = 1\n"
    line = tool.digest_line("abort", text, tmp_path / "c")
    assert [len(d) for d in line.split(" ")[1:5]] == [64] * 4
    assert line.split(" ", 5)[5].startswith("step 1: ")


def test_output_digests_print_each_check_suite():
    # one line per suite, gradcheck before oracle-check, the error's repr
    # exact, so equal lines mean equal bits
    tool = load_tool("output_digests")
    lines = tool.check_lines(1)
    suites = [("gradcheck", s) for s in checks.run_gradcheck(seed=1)]
    suites += [("oracle-check", s) for s in checks.run_oracle_check(seed=1)]
    assert len(lines) == len(suites) == 10
    for line, (command, suite) in zip(lines, suites):
        label, verdict, error, *detail = line.split(" ")
        assert label == f"{command}/seed1/{suite.name}"
        assert verdict == ("PASS" if suite.passed else "FAIL")
        assert float(error) == suite.max_error and " ".join(detail) == suite.detail
    # the GRPO suite reaches the clip: its detail names a nonzero clipped count
    (grpo,) = [line.split(" ") for line in lines if "/grpo-surrogate-fd " in line]
    clipped, n_seqs = map(int, grpo[3].split("/"))
    assert 0 < clipped <= n_seqs and grpo[4:] == ["sequences", "clipped"]
