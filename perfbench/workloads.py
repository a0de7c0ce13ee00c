"""The benchmark's workloads as run-config text, and the recorded reference values.

Every workload trains the same seqtask policy (M=16, T=3, 4 groups of 8
sequences, AdamW at lr 3e-4, an eval row every 5 steps); only the algorithm
and the step count differ. README.md in this directory says why each one
exists and which layer it stresses.

A benchmark run trains on the ``N_REFERENCE_SEEDS`` training seeds whose
outputs were recorded in ``reference.json``, in turn, starting at ``--seed``
modulo their number, so every run can be checked against known-good values.
The work of one training run can depend on its seed (for example, how many
sweeps isopo-int's Jacobi eigensolver needs); cycling through the same seeds
gives every benchmark run the same mix of work.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

COMMON = """\
task = seqtask
seq_modulus = 16
seq_len = 3
group_size = 8
groups_per_microbatch = 4
optimizer = adamw
lr = 3e-4
eval_every = 5
"""

# name -> (algorithm-specific config lines, training steps per run)
WORKLOADS = {
    "seq-ni": ("algo = isopo-ni\np = -1\nn_overlap = 64\n", 40),
    "seq-int": ("algo = isopo-int\nreg_factor = 1\n", 5),
    "seq-grpo": ("algo = grpo\nclip_eps = 0.2\ninner_epochs = 4\n", 20),
}

N_REFERENCE_SEEDS = 16

# Set in every process the benchmark starts: numpy's OpenBLAS is multi-threaded
# by default, and on a small machine the extra threads would measure the scheduler.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Recorded eval rows must agree within |got - want| <= ATOL + RTOL * |want|.
# The slack admits a change of BLAS summation order (drift ~1e-13 relative)
# and nothing that changes what is computed.
RTOL = 1e-6
ATOL = 1e-9


def import_package():
    """Import ``isopo_lab`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import isopo_lab

    found = Path(isopo_lab.__file__).resolve().parent
    if found != SRC / "isopo_lab":
        raise SystemExit(f"imported isopo_lab from {found}, expected {SRC / 'isopo_lab'}")
    return isopo_lab


def training_seed(seed: int, run_index: int) -> int:
    """Training seed of the ``run_index``-th timed run of a benchmark run with ``seed``."""
    return (seed + run_index) % N_REFERENCE_SEEDS


def steps_for(workload: str) -> int:
    return WORKLOADS[workload][1]


def config_text(workload: str, train_seed: int, steps: int | None = None) -> str:
    """Config file text for one training run; ``steps`` shortens it (self-test)."""
    algo_lines, default_steps = WORKLOADS[workload]
    n_steps = default_steps if steps is None else steps
    return COMMON + algo_lines + f"steps = {n_steps}\nseed = {train_seed}\n"


def load_reference(workload: str) -> dict:
    """Per training seed: ``{"tokens_step1": sha256 hex, "rows": [[step, mean_reward, kl_from_init], ...]}``."""
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {int(seed): entry for seed, entry in table[workload].items()}
