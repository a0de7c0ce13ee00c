"""Record reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

For each workload and each of the ``N_REFERENCE_SEEDS`` training seeds it
stores the SHA-256 of the tokens sampled at step 1 and the ``mean_reward``
and ``kl_from_init`` of every eval row. The file pins the program's behaviour
at the commit that recorded it; re-record only when a change is meant to
alter what training computes, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil

import workloads

os.environ.update(workloads.PINNED_ENV)

import worker  # noqa: E402


def record(workload: str, seed: int, out_dir) -> dict:
    isopo_lab = workloads.import_package()
    from isopo_lab import harness

    cfg = isopo_lab.parse_config(workloads.config_text(workload, seed))
    result = harness.train(cfg, out_dir)
    if result.aborted:
        raise SystemExit(f"{workload} seed {seed} aborted: {result.abort_reason}")
    rows = [[row.step, row.mean_reward, row.kl_from_init] for row in result.rows]
    shutil.rmtree(out_dir)
    return {"tokens_step1": worker.step1_tokens_digest(harness, cfg), "rows": rows}


def main() -> None:
    out_dir = workloads.ROOT / ".perfbench_out" / "reference-run"
    parts = []
    for workload in workloads.WORKLOADS:
        entries = [
            f'  "{seed}": {json.dumps(record(workload, seed, out_dir))}'
            for seed in range(workloads.N_REFERENCE_SEEDS)
        ]
        parts.append(f' "{workload}": {{\n' + ",\n".join(entries) + "\n }")
        print(f"recorded {workload}")
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
