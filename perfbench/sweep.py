"""Run the benchmark on several seeds per workload and summarise it.

    python3 perfbench/sweep.py [--record LABEL]

For every workload in BENCHMARK.json it runs ``run.py`` with ``--trace 0`` on
seeds 0-9 and with ``--trace 1`` on seeds 0-2, for ``run_seconds`` from
BENCHMARK.json each. It prints, per end-to-end metric, the median, the
quartiles and the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's bound,
and the median of each per-layer metric. With
``--record`` the summary is appended to ``trajectory.json`` as one point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = run.HERE / "trajectory.json"
SEEDS = list(range(10))
TRACED_SEEDS = SEEDS[:3]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect output\n{proc.stdout}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return result, env


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    point = {"label": args.record, "run_seconds": SPEC["run_seconds"], "seeds": SEEDS,
             "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        e2e: dict[str, list] = {}
        layers: dict[str, list] = {}
        for trace, chosen, table in ((0, SEEDS, e2e), (1, TRACED_SEEDS, layers)):
            for seed in chosen:
                result, point["env"] = bench(workload, seed, trace)
                for name, metric in result["metrics"].items():
                    table.setdefault(name, []).append(metric["value"])
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        summary = {"end_to_end": {}, "per_layer": {}}
        print(f"{workload}: {len(SEEDS)} untraced runs, {len(TRACED_SEEDS)} traced")
        for name, values in e2e.items():
            s = summary["end_to_end"][name] = dict(summarise(values), unit=units[name])
            print(f"  {name:14s} median {s['median']:.6g} {units[name]:5s} q1 {s['q1']:.6g}"
                  f" q3 {s['q3']:.6g} spread {s['spread']:.4f} (bound {bounds[name]})")
        for name, values in layers.items():
            summary["per_layer"][name] = {"median": statistics.median(values), "unit": units[name]}
            print(f"  {name:38s} {statistics.median(values):.6g} {units[name]}")
        point["workloads"][workload] = summary
    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
        trajectory["points"].append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
