"""Training-run benchmark for isopo-lab.

    python3 perfbench/run.py --workload seq-ni --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
of that checkout, in worker processes pinned to single-threaded BLAS.

With ``--trace 0`` it times the set-up of fresh processes, then repeats
``harness.train`` on the workload's config for ``--seconds`` and reports
the end-to-end metrics. With ``--trace 1`` it runs untraced for half the time
and traced for the other half, and reports the per-layer metrics and the
tracing overhead. Set-up is timed by setup_worker.py, and every
training run's output is checked by worker.py.

Output: one line per metric, an ``env`` line, and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.perfbench_out/`` in the checkout; the traced run leaves
its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = workloads.HERE
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# fresh set-up processes timed right before and again right after the training
# runs: core speed drifts over tens of seconds, and both sides average two
# points of that drift
SETUP_SAMPLES = 6
# seconds a worker may run beyond its measuring time before it counts as hung
WORKER_SLACK_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_rel": "ref",
    "run_cpu_rel": "ref",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class BenchError(Exception):
    """A worker process failed; no result can be reported."""


def _call_worker(script: str, args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **workloads.PINNED_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} ran longer than {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _relative(run: dict, clock: str) -> float:
    """A training run's ``wall`` or ``cpu`` time over the reference kernel's."""
    return run[f"{clock}_s"] / run[f"ref_{clock}_s"]


def _time_setups(workload: str, seed: int) -> list[float]:
    return [
        _call_worker("setup_worker.py", [workload, str(seed)], WORKER_SLACK_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, steps: int | None = None):
    """Measure one workload; returns (result object, human-readable lines)."""
    out_root = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    setups = []
    if not trace:
        # one untimed set-up first, to fill the bytecode caches
        _call_worker("setup_worker.py", [workload, str(seed)], WORKER_SLACK_S)
        setups += _time_setups(workload, seed)
    report = _call_worker(
        "worker.py",
        [workload, str(seed), repr(float(seconds)), str(int(trace)),
         "-" if steps is None else str(steps), str(out_root)],
        seconds + WORKER_SLACK_S,
    )
    if not trace:
        setups += _time_setups(workload, seed)
    runs = report["runs"]
    failed = sum(not r["ok"] for r in runs)
    untraced = [r for r in runs if r["phase"] == "untraced"]
    n_steps = workloads.steps_for(workload) if steps is None else steps
    lines = [
        f"{workload} seed {seed}: {len(runs)} training runs of {n_steps} steps on training seeds"
        f" {sorted({r['train_seed'] for r in runs})}, {failed} failed",
    ]
    lines += [f"problem: {p.strip()}" for p in report["problems"][:10]]
    raw = {
        "run.wall_s": statistics.median(r["wall_s"] for r in untraced),
        "run.cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "calibration.kernel_ms": 1e3 * statistics.median(r["ref_wall_s"] for r in untraced),
    }

    if trace:
        traced_runs = [r for r in runs if r["phase"] == "traced"]
        traced = [r["layers"] for r in traced_runs]
        metrics = {
            name: statistics.median(layer[name] for layer in traced) for name in traced[0]
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            _relative(r, "wall") for r in traced_runs
        ) / statistics.median(_relative(r, "wall") for r in untraced)
        metrics.update(raw)
        units = {name: tracing.unit_of(name) for name in metrics}
        lines.append(f"per-layer figures: median of {len(traced)} traced runs")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_rel": statistics.median(_relative(r, "wall") for r in untraced),
            "run_cpu_rel": statistics.median(_relative(r, "cpu") for r in untraced),
            "peak_rss_mb": report["peak_rss_mb"],
            "success_rate": 1.0 - failed / len(runs),
        }
        units = END_TO_END_UNITS
        lines.append(
            f"setup_s: median of {len(setups)} fresh processes; run_rel, run_cpu_rel: median of"
            f" {len(untraced)} runs; error_rate {failed / len(runs)!r} ({failed} of {len(runs)})"
        )
        lines.append("  raw: " + ", ".join(f"{name} = {value!r}" for name, value in raw.items()))
        shutil.rmtree(out_root, ignore_errors=True)
    lines += [f"  {name} = {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append("env " + json.dumps(report["env"], sort_keys=True))
    result = {
        "correct": failed == 0 and not report["problems"],
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "isopo_lab" / "__init__.py").is_file():
        print(f"no isopo_lab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
