"""Time the benchmark's set-up in one fresh process.

    setup_worker.py <workload> <seed>

``run.py`` starts this file with single-threaded BLAS and reads the JSON
object it prints. The clock starts right before ``isopo_lab`` is imported and
stops after ``harness.build_policy``: it covers the package import, config
parsing, ``harness.make_task`` and ``harness.build_policy``. Only
``workloads`` and the standard modules it needs are loaded before the clock
starts, so none of the benchmark's own code is counted.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    text = workloads.config_text(workload, workloads.training_seed(seed, 0))
    start = time.perf_counter()
    isopo_lab = workloads.import_package()
    from isopo_lab import harness

    cfg = isopo_lab.parse_config(text)
    task = harness.make_task(cfg)
    harness.build_policy(task, cfg.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
