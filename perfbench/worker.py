"""Run and check training runs in one fresh benchmark process.

``run.py`` starts this file with single-threaded BLAS and reads the JSON
object it prints last. Usage:

    worker.py <workload> <seed> <seconds> <trace 0|1> <steps|-> <out dir>

It runs ``harness.train`` on the workload's training seeds in turn (see
workloads.py) until ``seconds`` have passed, at least twice, after one
untimed warm-up run; each phase starts the cycle anew, so traced runs repeat
the seeds of untraced ones. It checks every run's output and reports wall
and CPU time per run, with the time of the reference kernel in
calibration.py around it. With tracing on, the first half of the time runs
untraced and the second half traced, so the overhead of tracing is measured
in the same process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads

ROOT = workloads.ROOT
TEXT_COLUMNS = ("algo", "task")


def step1_tokens_digest(harness, cfg) -> str:
    """SHA-256 of the tokens that step 1 of a run with ``cfg`` samples."""
    task = harness.make_task(cfg)
    net = harness.build_policy(task, cfg.seed)
    microbatch = harness.sample_microbatch(net, task, cfg, 1)
    text = ";".join(",".join(str(t) for t in rec.tokens) for rec in microbatch.records)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def check_output(out: Path, result, reference_rows, first_csv: bytes | None) -> list[str]:
    """Problems with one run's output; an empty list means the run is correct."""
    problems = []
    if result.aborted or (out / "ABORTED").exists():
        problems.append(f"run aborted: {result.abort_reason}")
    if not (out / "checkpoint.txt").is_file():
        problems.append("no checkpoint written")
    raw = (out / "metrics.csv").read_bytes()
    if first_csv is not None and raw != first_csv:
        problems.append("metrics.csv differs from the first run of the same seed")
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for row in rows:
        for column, value in row.items():
            if column not in TEXT_COLUMNS and not math.isfinite(float(value)):
                problems.append(f"step {row['step']}: {column} = {value} is not finite")
    if [int(row["step"]) for row in rows] != [r[0] for r in reference_rows]:
        problems.append("eval rows are at other steps than recorded")
        return problems
    for row, (step, mean_reward, kl) in zip(rows, reference_rows):
        for column, want in (("mean_reward", mean_reward), ("kl_from_init", kl)):
            got = float(row[column])
            if abs(got - want) > workloads.ATOL + workloads.RTOL * abs(want):
                problems.append(f"step {step}: {column} = {got!r}, recorded {want!r}")
    return problems


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {key: os.environ.get(key) for key in workloads.PINNED_ENV},
        "git_commit": git_commit(),
    }


def train(workload, seed, seconds, trace, steps, out_root) -> dict:
    isopo_lab = workloads.import_package()
    from isopo_lab import harness

    problems = []
    prepared = {}
    for train_seed, recorded in workloads.load_reference(workload).items():
        cfg = isopo_lab.parse_config(workloads.config_text(workload, train_seed, steps))
        tokens_ok = step1_tokens_digest(harness, cfg) == recorded["tokens_step1"]
        if not tokens_ok:
            problems.append(f"training seed {train_seed}: step-1 tokens differ from the recorded")
        rows = [row for row in recorded["rows"] if row[0] <= cfg.steps]
        prepared[train_seed] = {"cfg": cfg, "rows": rows, "tokens_ok": tokens_ok, "csv": None}

    tracer = None
    traced_spans = []
    runs = []
    # (phase, least runs, seconds); the warm-up run is checked but not timed
    phases = [("warmup", 1, 0.0), ("untraced", 2, seconds / 2 if trace else seconds)]
    if trace:
        phases.append(("traced", 2, seconds / 2))
    ref_before = calibration.time_kernel()
    for phase, min_runs, budget in phases:
        if phase == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        phase_start = time.perf_counter()
        n_phase = 0
        while n_phase < min_runs or time.perf_counter() - phase_start < budget:
            train_seed = workloads.training_seed(seed, n_phase)
            this = prepared[train_seed]
            out = out_root / f"run{len(runs)}"
            if tracer is not None:
                tracer.reset()
            record = {"phase": phase, "train_seed": train_seed, "problems": []}
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                result = harness.train(this["cfg"], out)
            except Exception:
                result = None
                record["problems"].append(traceback.format_exc(limit=3))
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = time.process_time() - cpu0
            ref_after = calibration.time_kernel()
            record["ref_wall_s"] = (ref_before[0] + ref_after[0]) / 2
            record["ref_cpu_s"] = (ref_before[1] + ref_after[1]) / 2
            ref_before = ref_after
            if result is not None:
                try:
                    record["problems"] = check_output(out, result, this["rows"], this["csv"])
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    record["problems"].append(f"unreadable output: {exc!r}")
                if this["csv"] is None and not record["problems"]:
                    this["csv"] = (out / "metrics.csv").read_bytes()
            if tracer is not None:
                record["layers"] = tracing.per_layer_metrics(tracer)
                traced_spans.append(list(tracer.spans))
            record["ok"] = this["tokens_ok"] and not record["problems"]
            runs.append(record)
            shutil.rmtree(out, ignore_errors=True)
            n_phase += 1

    report = {
        "runs": runs,
        "problems": problems + [p for r in runs for p in r["problems"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        tracing.write_spans(out_root / "spans.jsonl", traced_spans)
    return report


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, steps, out_dir = argv
    report = train(
        workload, int(seed), float(seconds), trace == "1",
        None if steps == "-" else int(steps), Path(out_dir),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
