"""Fast self-test of the benchmark: ``python3 -m pytest -q perfbench/test_perfbench.py``.

Runs every workload at a tiny size in both modes and checks that each metric
named in BENCHMARK.json is emitted with its unit; checks that the output check
rejects a wrong value; and checks that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_STEPS = 5


@pytest.fixture(autouse=True)
def _one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _assert_emits(result: dict, specs: list[dict]) -> None:
    assert result["correct"], result
    assert result["attempted"] >= 3 and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {s["name"]: s["unit"] for s in specs}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(workload):
    result, _ = run.run(workload, seed=1, seconds=0.2, trace=False, steps=TINY_STEPS)
    _assert_emits(result, SPEC["end_to_end"])
    assert all(result["metrics"][s["name"]]["value"] > 0 for s in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_emitted(workload):
    result, _ = run.run(workload, seed=2, seconds=0.4, trace=True, steps=TINY_STEPS)
    _assert_emits(result, SPEC["per_layer"])
    spans = run.OUT_DIR / f"{workload}-seed2-trace1" / "spans.jsonl"
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"run", "id", "name", "start", "end", "parent"}


def test_output_check_rejects_wrong_output(tmp_path):
    isopo_lab = workloads.import_package()
    from isopo_lab import harness

    cfg = isopo_lab.parse_config(workloads.config_text("seq-ni", 0, TINY_STEPS))
    reference = workloads.load_reference("seq-ni")[0]
    assert worker.step1_tokens_digest(harness, cfg) == reference["tokens_step1"]
    rows = [row for row in reference["rows"] if row[0] <= TINY_STEPS]
    result = harness.train(cfg, tmp_path)
    csv = (tmp_path / "metrics.csv").read_bytes()
    assert worker.check_output(tmp_path, result, rows, csv) == []

    shifted = [[step, reward, kl * (1 + 1e-4) + 1e-6] for step, reward, kl in rows]
    assert any("kl_from_init" in p for p in worker.check_output(tmp_path, result, shifted, csv))
    assert any("differs" in p for p in worker.check_output(tmp_path, result, rows, b"other"))


def test_refuses_to_run_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "seq-ni", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
