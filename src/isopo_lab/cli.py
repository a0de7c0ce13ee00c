"""Command-line entry point.

Subcommands:
  train        one seeded training run from a config file
  compare      several configs x seeds, with an aggregate summary CSV
  gradcheck    finite-difference and estimator-equivalence self-checks
  oracle-check exact-enumeration self-checks on a tiny policy
  plot         static SVG charts from run CSVs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks, harness, plotting
from .config import load_config


def _print_suites(results) -> int:
    failed = 0
    for suite in results:
        status = "PASS" if suite.passed else "FAIL"
        extra = f" ({suite.detail})" if suite.detail else ""
        print(f"{status}  {suite.name}: max error {suite.max_error:.3e}{extra}")
        failed += not suite.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="isopo-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training loop")
    p_train.add_argument("--config", required=True, help="path to a key = value config file")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="override the output directory")

    p_cmp = sub.add_parser("compare", help="run several configs across seeds")
    p_cmp.add_argument("--config", action="append", required=True, dest="configs")
    p_cmp.add_argument("--seeds", type=int, default=1, help="number of seeds per config")
    p_cmp.add_argument("--out", default="runs/compare", help="output directory")

    p_grad = sub.add_parser("gradcheck", help="finite-difference self-checks")
    p_grad.add_argument("--seed", type=int, default=0)

    p_oracle = sub.add_parser("oracle-check", help="exact-enumeration self-checks")
    p_oracle.add_argument("--seed", type=int, default=0)

    p_plot = sub.add_parser("plot", help="render SVG charts from run CSVs")
    p_plot.add_argument("--in", dest="in_dir", required=True,
                        help="directory scanned recursively for metrics.csv files")
    p_plot.add_argument("--out", required=True, help="directory for the SVG files")

    args = parser.parse_args(argv)

    if args.command == "train":
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = load_config(args.config, **overrides)
        result = harness.train(cfg, out_dir=args.out)
        last = result.rows[-1]
        print(f"wrote {result.csv_path}")
        print(
            f"final step {last['step']}: validation {last['validation']:.4f}, "
            f"kl_from_init {last['kl_from_init']:.6f}"
        )
        if result.aborted:
            print(f"ABORTED: {result.abort_reason}")
            return 1
        return 0

    if args.command == "compare":
        configs = [load_config(path) for path in args.configs]
        labels = [Path(path).stem for path in args.configs]
        if len(set(labels)) != len(labels):
            labels = [f"{label}-{i}" for i, label in enumerate(labels)]
        rows, results = harness.compare(configs, args.seeds, args.out, labels)
        print(f"wrote {Path(args.out) / 'aggregate.csv'} ({len(rows)} aggregate rows)")
        aborted = [(label, r) for label, runs in results.items() for r in runs if r.aborted]
        for label, r in aborted:
            print(f"ABORTED: {label} seed {r.config.seed}: {r.abort_reason}")
        return 1 if aborted else 0

    if args.command == "gradcheck":
        return _print_suites(checks.run_gradcheck(seed=args.seed))

    if args.command == "oracle-check":
        return _print_suites(checks.run_oracle_check(seed=args.seed))

    if args.command == "plot":
        csvs = sorted(Path(args.in_dir).rglob("metrics.csv"))
        outputs = plotting.plot_runs(csvs, args.out)
        for name, path in outputs.items():
            print(f"wrote {path}")
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
