"""Print one digest line per training run of a fixed set of 112 runs, then
one line per self-check suite.

Usage, with no flags, from any directory:

    python tools/output_digests.py

Each run trains from this checkout's ``src`` into a temporary directory. The
line for a run holds its label, one SHA-256 per output file, in the order
``metrics.csv``, ``checkpoint.txt``, ``config.txt``, ``ABORTED`` (``-`` for a
file that is missing), and its abort reason, if it aborted. ``config.txt`` is
hashed without its ``out_dir = <run dir>`` line, which names the temporary
directory the run wrote. Two checkouts that print the same column wrote the
same bytes of that file on every run of the set:

- the reference seeds of each benchmark workload (``perfbench/workloads.py``);
- each algorithm on seqtask and bandit, seeds 0-2, 60 steps, a row every 7;
- each algorithm on seqtask and bandit with AdamW at lr 1e307 and SGD at lr
  1.7e308, 10 steps, a row every 3, where most runs diverge and abort;
- generalized isopo-ni (q = 0.5, r = -0.5, reg_strength = 0.3, so every
  rescaling factor and the EMA are read) on seqtask and bandit, seeds 0-2,
  60 steps, a row every 7;
- each algorithm on seqtask with ``normalize_std = true``, and again with
  ``exact_match_reward = true``, seed 0, 60 steps, a row every 7;
- each algorithm on seqtask with SGD at lr 0.03, and isopo-int and
  generalized isopo-ni with ``ema_decay = 0.5``, seed 0, 60 steps, a row
  every 7;
- GRPO on seqtask with ``inner_epochs = 1`` and ``inner_epochs = 8``, seed 0,
  60 steps, a row every 7;
- isopo-int and isopo-ni on seqtask at ``seq_len = 12``, seed 0, 60 steps, a
  row every 7: from T = 8 on, numpy sums a length-T axis pairwise, not in
  order, so a change of summation order over positions shows here first.

After the run lines comes one line per self-check suite at seeds 0-2, at
each seed those of ``gradcheck`` and then of ``oracle-check``: its label
(``gradcheck/seed0/<suite>``), ``PASS`` or ``FAIL``, the ``repr`` of its
largest error, so that every bit of it shows, and its detail, if any.

BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

ALGOS = ("reinforce", "grpo", "isopo-ni", "isopo-int")
TASKS = ("seqtask", "bandit")
DIVERGING = {
    "adamw-lr1e307": "optimizer = adamw\nlr = 1e307\n",
    "sgd-lr1.7e308": "optimizer = sgd\nlr = 1.7e308\n",
}
GENERALIZED = "algo = isopo-ni\nq = 0.5\nr = -0.5\nreg_strength = 0.3\n"
SEQTASK_SWITCHES = {
    "normalize-std": "normalize_std = true\n",
    "exact-match": "exact_match_reward = true\n",
}
SGD = "optimizer = sgd\nlr = 0.03\n"
EMA_DECAY = {"isopo-int": "algo = isopo-int\n", "isopo-ni-qr-reg": GENERALIZED}
INNER_EPOCHS = (1, 8)
LONG = ("isopo-int", "isopo-ni")
OUTPUTS = ("metrics.csv", "checkpoint.txt", "config.txt", "ABORTED")


def run_set() -> list[tuple[str, str]]:
    """(label, config text) of every run of the set, in print order."""
    runs = [
        (f"{name}/seed{seed}", config_text(name, seed))
        for name in WORKLOADS
        for seed in range(workloads.N_REFERENCE_SEEDS)
    ]
    for algo in ALGOS:
        for task in TASKS:
            base = f"algo = {algo}\ntask = {task}\n"
            runs += [
                (f"{algo}/{task}/seed{seed}", base + f"seed = {seed}\nsteps = 60\neval_every = 7\n")
                for seed in range(3)
            ]
            runs += [
                (f"{algo}/{task}/{name}", base + lines + "steps = 10\neval_every = 3\n")
                for name, lines in DIVERGING.items()
            ]
    for task in TASKS:
        runs += [
            (
                f"isopo-ni-qr-reg/{task}/seed{seed}",
                GENERALIZED + f"task = {task}\nseed = {seed}\nsteps = 60\neval_every = 7\n",
            )
            for seed in range(3)
        ]
    seqtask = "task = seqtask\nseed = 0\nsteps = 60\neval_every = 7\n"
    runs += [
        (f"{algo}/seqtask/{name}", f"algo = {algo}\n{line}" + seqtask)
        for name, line in SEQTASK_SWITCHES.items()
        for algo in ALGOS
    ]
    runs += [(f"{algo}/seqtask/sgd-lr0.03", f"algo = {algo}\n{SGD}" + seqtask) for algo in ALGOS]
    runs += [
        (f"{name}/seqtask/ema-decay0.5", lines + "ema_decay = 0.5\n" + seqtask)
        for name, lines in EMA_DECAY.items()
    ]
    runs += [
        (f"grpo/seqtask/inner-epochs{n}", f"algo = grpo\ninner_epochs = {n}\n" + seqtask)
        for n in INNER_EPOCHS
    ]
    runs += [(f"{algo}/seqtask/seq-len12", f"algo = {algo}\nseq_len = 12\n" + seqtask) for algo in LONG]
    return runs


def digest_line(label: str, text: str, out_dir) -> str:
    """Train the run of config ``text`` into ``out_dir`` and return its line."""
    from isopo_lab import config, harness

    result = harness.train(config.parse_config(text), out_dir)
    digests = [digest(Path(out_dir) / name) for name in OUTPUTS]
    return " ".join([label, *digests, result.abort_reason]).rstrip()


def digest(path: Path) -> str:
    """SHA-256 of the file at ``path``, without the ``out_dir`` line of a
    ``config.txt``; ``-`` if there is no file."""
    if not path.exists():
        return "-"
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "config.txt":
        lines = [line for line in lines if not line.startswith(b"out_dir = ")]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def check_lines(seed: int) -> list[str]:
    """One line per suite of ``gradcheck`` and then of ``oracle-check`` at ``seed``."""
    from isopo_lab import checks

    lines = []
    suites = (("gradcheck", checks.run_gradcheck), ("oracle-check", checks.run_oracle_check))
    for command, run in suites:
        for suite in run(seed=seed):
            verdict = "PASS" if suite.passed else "FAIL"
            fields = [f"{command}/seed{seed}/{suite.name}", verdict, repr(float(suite.max_error))]
            lines.append(" ".join([*fields, suite.detail]).rstrip())
    return lines


def main() -> int:
    os.environ.update(workloads.PINNED_ENV)  # before numpy loads
    workloads.import_package()
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, text) in enumerate(run_set()):
            print(digest_line(label, text, Path(tmp) / str(index)), flush=True)
    for seed in range(3):
        print("\n".join(check_lines(seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
