"""Seeded training loops, CSV metrics files and multi-run comparison.

A run is fully determined by (config, seed): every random draw comes from a
named stream (``rng``), the metrics CSV prints floats with 17 significant
digits, and repeated runs produce byte-identical files. Nothing a run draws
after its initial weights depends on the policy, so ``train`` draws every
step's prompts, sequence uniforms, overlap positions and KL uniforms before
the first step (``draw_steps``), the KL uniforms of steps that write no row
included, so a row written only because its step aborts reads them too.

Every step samples a microbatch of groups, scored by the task's reward with
no KL penalty near it and given group-relative advantages. Step 0 only
probes the initial policy; from step 1 on the algorithm's update follows:
one optimizer step, or ``inner_epochs`` of them for GRPO, whose first epoch
takes the REINFORCE gradient because its ratios are exactly 1.

A row is written on every ``eval_every``-th step and on the step that
aborts. A numeric failure inside the update (any ArithmeticError: a
non-finite gradient or updated weight, a Tikhonov system that is not finite
or not positive definite, GRPO ratio overflow) ends the run as ABORTED with
the step and the reason, and so does a written row that holds a NaN or an
infinity (``NonFiniteMetricError``, naming the column). numpy's overflow and
invalid-value warnings are off during the steps: the checks, not the
warnings, decide whether a run ends.

A step estimates its Fisher norms at most once, on first read: by isopo-ni's
update or by the step's row. A step that writes no row computes none of its
diagnostics, and skipping them changes no other step. ``make_task`` returns
one shared, read-only task per set of task-defining fields and checks the
config against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, isopo, metrics, policy, tasks
from .config import RunConfig, serialize_config
from .errors import ConfigError, ContractViolation, CsvFormatError, NonFiniteMetricError
from .metrics import FIXED_COLUMNS
from .rng import draws, stream, uniforms

DEFAULT_HIDDEN = (32, 32)


@dataclass
class RunResult:
    config: RunConfig
    out_dir: Path
    csv_path: Path
    checkpoint_path: Path
    rows: list[dict]
    aborted: bool = False
    abort_reason: str = ""


def make_task(cfg: RunConfig):
    """The run's task: one shared, read-only instance per process for each
    set of task-defining fields (for seqtask ``seq_modulus``, ``seq_len`` and
    ``exact_match_reward``; bandit has none). ConfigError when a split is
    empty or a microbatch has more groups than the task has training prompts."""
    fields = (cfg.seq_modulus, cfg.seq_len, cfg.exact_match_reward) if cfg.task == "seqtask" else ()
    task = _shared_task(cfg.task, *fields)
    n_train, n_heldout = len(task.train_prompts), len(task.heldout_prompts)
    if not n_train or not n_heldout:
        split = f"{n_train} training and {n_heldout} heldout prompts"
        raise ConfigError(f"{cfg.task} has {split}; both must be nonempty")
    if cfg.groups_per_microbatch > n_train:
        raise ConfigError(
            f"groups_per_microbatch={cfg.groups_per_microbatch} exceeds {n_train} training prompts"
        )
    return task


@functools.cache
def _shared_task(name: str, *fields):
    return tasks.SeqAdditionTask(*fields) if name == "seqtask" else tasks.BanditTask()


def build_policy(task, seed: int) -> policy.PolicyNet:
    return policy.init_policy(
        task.vocab_size, task.seq_len, task.feature_dim, DEFAULT_HIDDEN, stream(seed, "init")
    )


class StepDraws(NamedTuple):
    """What one step draws, none of which depends on the policy."""

    prompts: list[tasks.Prompt]  # the step's G prompts, one per group
    u: np.ndarray  # (B, T) sampling uniforms, one row per sequence
    overlap: np.ndarray  # the overlap sample's positions (``isopo.overlap_positions``)
    kl: np.ndarray  # (KL_SAMPLES, T) uniforms of the KL of the step's row, if it writes one


def draw_steps(task, cfg: RunConfig, steps) -> dict[int, StepDraws]:
    """Every step's ``StepDraws``, derived before the first step.

    Step s draws its prompts from the ``prompts/{s}`` stream, its overlap
    positions from ``overlap/{s}`` and its KL uniforms from ``kl/{s}``, all
    keyed in one ``rng.draws`` pass. Sequence k of prompt p's group samples
    from the first T uniforms of the stream ``policy/{s}/{p.id}/{k}``, which
    names the drawn prompt, so one ``rng.uniforms`` call derives them after.
    """
    train = task.train_prompts
    steps = list(steps)
    n_seqs = cfg.groups_per_microbatch * cfg.group_size

    def choose(gen):
        return gen.choice(len(train), size=cfg.groups_per_microbatch, replace=False)

    def overlap(gen):
        return isopo.overlap_positions(gen, n_seqs * task.seq_len, cfg.n_overlap)

    def kl(gen):
        return gen.random((metrics.KL_SAMPLES, task.seq_len))

    kinds = (("prompts", choose), ("overlap", overlap), ("kl", kl))
    found = draws(cfg.seed, [(f"{name}/{step}", draw) for name, draw in kinds for step in steps])
    n = len(steps)
    prompts = [[train[int(idx)] for idx in chosen] for chosen in found[:n]]
    labels = [
        f"policy/{step}/{p.id}/{k}"
        for step, chosen in zip(steps, prompts)
        for p in chosen
        for k in range(cfg.group_size)
    ]
    u = uniforms(cfg.seed, labels, task.seq_len).reshape(n, n_seqs, task.seq_len)
    return dict(zip(steps, map(StepDraws, prompts, u, found[n : 2 * n], found[2 * n :])))


def sample_microbatch(net, task, cfg: RunConfig, step: int, plan=None) -> tasks.Microbatch:
    """Groups for one step; each sequence gets its own (step, prompt, index) stream.

    ``plan`` is the run's ``draw_steps`` table; without it, the step's
    prompts and uniforms are drawn here, and are the same.
    """
    drawn = (plan or draw_steps(task, cfg, [step]))[step]
    return tasks.build_microbatch(net, task, drawn.prompts, drawn.u, cfg.normalize_std)


def _format_value(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_metrics_csv(path, rows: list[dict]) -> None:
    """Header from the first row's keys (``FIXED_COLUMNS`` without rows), one line per row."""
    columns = list(rows[0]) if rows else FIXED_COLUMNS
    lines = [",".join(columns)]
    lines.extend(",".join(_format_value(row[c]) for c in columns) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path) -> list[dict]:
    """Parse a metrics CSV back into dict rows; malformed input names the line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CsvFormatError(f"{path}: line 1: empty file")
    header = lines[0].split(",")
    if header[: len(FIXED_COLUMNS)] != list(FIXED_COLUMNS):
        raise CsvFormatError(f"{path}: line 1: header must start {','.join(FIXED_COLUMNS)}")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise CsvFormatError(f"{path}: line 1: repeated columns {repeated}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise CsvFormatError(
                f"{path}: line {lineno}: {len(parts)} fields, header has {len(header)}"
            )
        row = {}
        for name, raw in zip(header, parts):
            parse = FIXED_COLUMNS.get(name, float)
            try:
                row[name] = parse(raw)
            except ValueError as exc:
                raise CsvFormatError(
                    f"{path}: line {lineno}: column {name!r}: "
                    f"{raw!r} is not a valid {parse.__name__}"
                ) from exc
        rows.append(row)
    return rows


def _update(cfg, net, optimizer, microbatch, fisher_norms, ema, grad) -> None:
    """Apply the step's optimizer steps: ``inner_epochs`` for GRPO, one otherwise.

    ``fisher_norms()`` gives the step's ``isopo.sequence_fisher_norms`` pair.
    Every update writes its per-layer sums into the views ``net.split(grad)``
    of ``grad``, a vector in the layout of ``net.params`` that the run
    allocates once, which is then negated in place and stepped on.
    """
    out = net.split(grad)
    for epoch in range(cfg.inner_epochs if cfg.algo == "grpo" else 1):
        if cfg.algo == "reinforce" or (cfg.algo == "grpo" and epoch == 0):
            # GRPO's first epoch runs at the sampling weights: every ratio is
            # exactly 1, so its clipped gradient is the REINFORCE gradient
            baselines.reinforce_grad(microbatch, out)
        elif cfg.algo == "grpo":
            baselines.grpo_clipped_grad(microbatch, net, cfg.clip_eps, out)
        elif cfg.algo == "isopo-ni":
            isopo.noninteracting_update(microbatch, fisher_norms()[0], cfg, ema, out)
        else:
            isopo.interacting_update(microbatch, cfg, ema, out)
        baselines.optimizer_step(cfg, optimizer, net, np.negative(grad, out=grad))


def _check_finite(row: dict) -> None:
    """NonFiniteMetricError naming the first float column of ``row`` that is NaN or infinite."""
    for column, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteMetricError(f"{column} = {value}")


def _abort_reason(step: int, exc: ArithmeticError) -> str:
    return f"step {step}: {type(exc).__name__}: {exc}"


def train(cfg: RunConfig, out_dir=None) -> RunResult:
    """Run one seeded training loop and write metrics.csv plus a checkpoint; an
    ``out_dir`` given replaces ``cfg.out_dir``, so config.txt names it."""
    if out_dir is not None:
        cfg = replace(cfg, out_dir=str(out_dir))
    task = make_task(cfg)
    plan = draw_steps(task, cfg, range(cfg.steps + 1))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    net = build_policy(task, cfg.seed)
    kl_ref = metrics.reference_table(net, task)
    optimizer = baselines.OptimizerState()
    grad = np.empty_like(net.params)  # every update's flat gradient (``_update``)
    ema: dict = {}  # the run's EMAs, keyed by (layer, quantity) (``isopo``)

    rows: list[dict] = []
    abort_reason = ""
    # the finiteness checks, not numpy's warnings, decide whether a run ends
    with np.errstate(over="ignore", invalid="ignore"):
        for step, drawn in plan.items():
            microbatch = sample_microbatch(net, task, cfg, step, plan)
            # estimated on first read, by isopo-ni's update or the row; an
            # update changes no array of its microbatch (isopo-int's fills
            # the Scored.sq_norms cache)
            fisher_norms = functools.cache(
                functools.partial(isopo.sequence_fisher_norms, microbatch.scored, drawn.overlap)
            )
            if step > 0:
                try:
                    _update(cfg, net, optimizer, microbatch, fisher_norms, ema, grad)
                except ArithmeticError as exc:
                    abort_reason = _abort_reason(step, exc)
            if abort_reason or step % cfg.eval_every == 0:
                row = metrics.collect(
                    step, cfg, net, kl_ref, task, microbatch, fisher_norms(), drawn.kl
                )
                rows.append(row)
                try:
                    _check_finite(row)
                except NonFiniteMetricError as exc:
                    abort_reason = abort_reason or _abort_reason(step, exc)
            if abort_reason:
                break
    aborted = bool(abort_reason)

    csv_path = out / "metrics.csv"
    write_metrics_csv(csv_path, rows)
    checkpoint_path = out / "checkpoint.txt"
    policy.save_checkpoint(net, checkpoint_path)
    (out / "config.txt").write_text(serialize_config(cfg), encoding="utf-8")
    marker = out / "ABORTED"
    if aborted:
        marker.write_text(abort_reason + "\n", encoding="utf-8")
    else:  # a clean rerun into the directory of an aborted run
        marker.unlink(missing_ok=True)
    return RunResult(cfg, out, csv_path, checkpoint_path, rows, aborted, abort_reason)


AGGREGATE_COLUMNS = (
    "label",
    "step",
    "n_runs",
    "aborted_runs",
    "validation_median",
    "validation_min",
    "validation_max",
    "kl_median",
    "kl_min",
    "kl_max",
)


def aggregate_runs(results_by_label: dict[str, list[RunResult]]) -> list[dict]:
    """Per-label, per-step median, min and max of validation and KL.

    Aborted runs are excluded from the statistics but counted in the
    ``aborted_runs`` column. A label whose runs all aborted still gets a row
    for each step its runs logged, with ``n_runs`` 0 and empty statistics.
    """
    rows = []
    for label, results in results_by_label.items():
        live = [r for r in results if not r.aborted]
        aborted = len(results) - len(live)
        steps = sorted({m["step"] for r in (live or results) for m in r.rows})
        for step in steps:
            row = {"label": label, "step": step, "n_runs": len(live), "aborted_runs": aborted}
            if not live:
                rows.append(row | dict.fromkeys(AGGREGATE_COLUMNS[len(row) :], ""))
                continue
            vals = [m["validation"] for r in live for m in r.rows if m["step"] == step]
            kls = [m["kl_from_init"] for r in live for m in r.rows if m["step"] == step]
            row["validation_median"] = float(np.median(vals))
            row["validation_min"] = min(vals)
            row["validation_max"] = max(vals)
            row["kl_median"] = float(np.median(kls))
            row["kl_min"] = min(kls)
            row["kl_max"] = max(kls)
            rows.append(row)
    return rows


def compare(
    runs: dict[str, RunConfig], n_seeds: int, out_dir
) -> tuple[list[dict], dict[str, list[RunResult]]]:
    """Train each labelled config of ``runs`` at seeds cfg.seed, ..., cfg.seed +
    n_seeds - 1, each as ``replace(cfg, seed=s, out_dir=...)`` naming its own
    directory ``out_dir / <label>-seed<s>``, and write per-run CSVs plus
    aggregate.csv. Every config is checked against its task before the first
    run trains, so a config the task rejects, or a directory that config.txt
    cannot hold, raises ConfigError with nothing written; no runs, an
    ``n_seeds`` that is not an int >= 1, or a label that is not one path
    component, raises ContractViolation.
    """
    if not runs or type(n_seeds) is not int or n_seeds < 1:
        raise ContractViolation(f"compare needs runs and an int n_seeds >= 1, got {n_seeds!r}")
    out, planned = Path(out_dir), {}
    for label, cfg in runs.items():
        if Path(label).name != label:
            raise ContractViolation(f"label {label!r} is not one path component")
        seeds = range(cfg.seed, cfg.seed + n_seeds)
        planned[label] = [replace(cfg, seed=s, out_dir=str(out / f"{label}-seed{s}")) for s in seeds]
        make_task(cfg)
    out.mkdir(parents=True, exist_ok=True)
    results_by_label = {label: [train(cfg) for cfg in cfgs] for label, cfgs in planned.items()}
    agg_rows = aggregate_runs(results_by_label)
    write_metrics_csv(out / "aggregate.csv", agg_rows)
    return agg_rows, results_by_label
