"""Seeded training loops, CSV metrics files and multi-run comparison.

A run is fully determined by (config, seed): every random draw comes from a
named stream (``rng``), the metrics CSV prints floats with 17 significant
digits, and repeated runs produce byte-identical files. Nothing a run draws
after its initial weights depends on the policy, so ``train`` draws every
step's prompts, sequence uniforms, overlap positions and KL uniforms before
the first step (``draw_steps``).

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
infinity (``NonFiniteMetricError``, naming the column). An aborting step off
the ``eval_every`` grid draws its KL uniforms from ``kl/{step}``. numpy's
overflow and invalid-value warnings are off during the steps: the checks,
not the warnings, decide whether a run ends.

Fisher norms are estimated only where they are read, on every isopo-ni step
and every written row, and a batch is summarized only for a written row;
skipping a step's diagnostics changes no other step. ``make_task`` returns
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
from .config import RunConfig, serialize_config, validate_config
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
    task = tasks.SeqAdditionTask(*fields) if name == "seqtask" else tasks.BanditTask()
    tasks.assert_disjoint_split(task)
    return task


def build_policy(task, seed: int) -> policy.PolicyNet:
    return policy.init_policy(
        task.vocab_size, task.seq_len, task.feature_dim, DEFAULT_HIDDEN, stream(seed, "init")
    )


class StepDraws(NamedTuple):
    """What one step draws, none of which depends on the policy."""

    prompts: list[tasks.Prompt]  # the step's G prompts, one per group
    u: np.ndarray  # (B, T) sampling uniforms, one row per sequence
    overlap: np.ndarray  # the overlap sample's positions (``isopo.overlap_positions``)
    kl: np.ndarray | None  # (KL_SAMPLES, T) uniforms of its row's KL, on a KL step


def draw_steps(task, cfg: RunConfig, steps, kl_steps=None) -> dict[int, StepDraws]:
    """Every step's ``StepDraws``, derived before the first step.

    Step s draws its prompts from the ``prompts/{s}`` stream, its overlap
    positions from ``overlap/{s}`` and, on a KL step (by default, each step
    that ``eval_every`` gives a row), its KL uniforms from ``kl/{s}``, all
    keyed in one ``rng.draws`` pass. Sequence k of prompt p's group samples
    from the first T uniforms of the stream ``policy/{s}/{p.id}/{k}``, which
    names the drawn prompt, so one ``rng.uniforms`` call derives them after.
    """
    train = task.train_prompts
    steps = list(steps)
    if kl_steps is None:
        kl_steps = [step for step in steps if step % cfg.eval_every == 0]
    n_seqs = cfg.groups_per_microbatch * cfg.group_size

    def choose(gen):
        return gen.choice(len(train), size=cfg.groups_per_microbatch, replace=False)

    def overlap(gen):
        return isopo.overlap_positions(gen, n_seqs * task.seq_len, cfg.n_overlap)

    def kl(gen):
        return gen.random((metrics.KL_SAMPLES, task.seq_len))

    found = draws(
        cfg.seed,
        [(f"prompts/{step}", choose) for step in steps]
        + [(f"overlap/{step}", overlap) for step in steps]
        + [(f"kl/{step}", kl) for step in kl_steps],
    )
    prompts = [[train[int(idx)] for idx in chosen] for chosen in found[: len(steps)]]
    overlaps = found[len(steps) : 2 * len(steps)]
    kls = dict(zip(kl_steps, found[2 * len(steps) :]))
    labels = [
        f"policy/{step}/{p.id}/{k}"
        for step, chosen in zip(steps, prompts)
        for p in chosen
        for k in range(cfg.group_size)
    ]
    u = uniforms(cfg.seed, labels, task.seq_len).reshape(len(steps), n_seqs, task.seq_len)
    return {
        step: StepDraws(chosen, step_u, positions, kls.get(step))
        for step, chosen, step_u, positions in zip(steps, prompts, u, overlaps)
    }


def sample_microbatch(net, task, cfg: RunConfig, step: int, plan=None) -> tasks.Microbatch:
    """Groups for one step; each sequence gets its own (step, prompt, index) stream.

    ``plan`` is the run's ``draw_steps`` table; without it, the step's
    prompts and uniforms are drawn here, and are the same.
    """
    drawn = (plan or draw_steps(task, cfg, [step], kl_steps=[]))[step]
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


def _update(cfg, net, optimizer, microbatch, norms, rescale_params) -> None:
    """Apply the step's optimizer steps: ``inner_epochs`` for GRPO, one otherwise."""
    for epoch in range(cfg.inner_epochs if cfg.algo == "grpo" else 1):
        if cfg.algo == "reinforce" or (cfg.algo == "grpo" and epoch == 0):
            # GRPO's first epoch runs at the sampling weights: every ratio is
            # exactly 1, so its clipped gradient is the REINFORCE gradient
            grads = baselines.reinforce_grad(microbatch)
        elif cfg.algo == "grpo":
            grads = baselines.grpo_clipped_grad(
                microbatch, microbatch.scored.logprobs, net, cfg.clip_eps
            )
        elif cfg.algo == "isopo-ni":
            grads = isopo.noninteracting_update(microbatch, norms, rescale_params)
        else:
            grads = isopo.interacting_microbatch_update(
                microbatch, cfg.reg_factor, rescale_params.ema
            )
        baselines.optimizer_step(optimizer, net, [-g for g in grads])


def _check_finite(row: dict) -> None:
    """NonFiniteMetricError naming the first float column of ``row`` that is NaN or infinite."""
    for column, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteMetricError(f"{column} = {value}")


def _abort_reason(step: int, exc: ArithmeticError) -> str:
    return f"step {step}: {type(exc).__name__}: {exc}"


def train(cfg: RunConfig, out_dir=None) -> RunResult:
    """Run one seeded training loop and write metrics.csv plus a checkpoint."""
    cfg = validate_config(cfg)
    task = make_task(cfg)
    plan = draw_steps(task, cfg, range(cfg.steps + 1))
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    net = build_policy(task, cfg.seed)
    kl_ref = metrics.reference_table(net, task)
    optimizer = baselines.OptimizerState(cfg.optimizer, cfg.lr)
    # the run's one EMA state: isopo-ni and isopo-int each key their own entries
    rescale_params = isopo.RescalingParams(
        cfg.p, cfg.q, cfg.r, cfg.reg_strength, isopo.RegEmaState(cfg.ema_decay)
    )

    rows: list[dict] = []
    abort_reason = ""
    # the finiteness checks, not numpy's warnings, decide whether a run ends
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            microbatch = sample_microbatch(net, task, cfg, step, plan)
            norms = degenerate = None
            if cfg.algo == "isopo-ni":  # the only update that reads the norms
                norms, degenerate = isopo.sequence_fisher_norms(
                    microbatch.scored, plan[step].overlap
                )
            if step > 0:
                try:
                    _update(cfg, net, optimizer, microbatch, norms, rescale_params)
                except ArithmeticError as exc:
                    abort_reason = _abort_reason(step, exc)
            if abort_reason or step % cfg.eval_every == 0:
                if norms is None:  # an update leaves its microbatch as it was sampled
                    norms, degenerate = isopo.sequence_fisher_norms(
                        microbatch.scored, plan[step].overlap
                    )
                summary = metrics.batch_summary(
                    microbatch, norms, int(np.count_nonzero(degenerate)), cfg.algo
                )
                kl_u = plan[step].kl
                if kl_u is None:  # a row written only because the step aborted
                    kl_u = draw_steps(task, cfg, [step], kl_steps=[step])[step].kl
                row = metrics.collect(step, net, kl_ref, task, summary, cfg.seed, cfg.algo, kl_u)
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
    "validation_best",
    "validation_median",
    "validation_min",
    "validation_max",
    "kl_median",
    "kl_min",
    "kl_max",
)


def aggregate_runs(results_by_label: dict[str, list[RunResult]]) -> list[dict]:
    """Per-label, per-step best/median/min/max of validation and KL.

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
            row["validation_best"] = max(vals)
            row["validation_median"] = float(np.median(vals))
            row["validation_min"] = min(vals)
            row["validation_max"] = max(vals)
            row["kl_median"] = float(np.median(kls))
            row["kl_min"] = min(kls)
            row["kl_max"] = max(kls)
            rows.append(row)
    return rows


def compare(
    configs: list[RunConfig],
    n_seeds: int,
    out_dir,
    labels: list[str] | None = None,
) -> tuple[list[dict], dict[str, list[RunResult]]]:
    """Train every (config, seed) pair and write per-run CSVs plus aggregate.csv.

    Every run's config is checked before the first run trains, so a bad one
    raises ConfigError with nothing written; so is a repeated label, which
    raises ContractViolation.
    """
    if not configs or n_seeds < 1:
        raise ContractViolation("compare needs at least one config and one seed")
    if labels is None:
        labels = [f"{cfg.algo}-{i}" for i, cfg in enumerate(configs)]
    if len(labels) != len(configs):
        raise ContractViolation("one label per config required")
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ContractViolation(f"repeated labels {repeated}")
    planned = {}
    for cfg, label in zip(configs, labels):
        planned[label] = [validate_config(replace(cfg, seed=cfg.seed + k)) for k in range(n_seeds)]
        make_task(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_by_label = {
        label: [train(run_cfg, out / f"{label}-seed{run_cfg.seed}") for run_cfg in run_cfgs]
        for label, run_cfgs in planned.items()
    }
    agg_rows = aggregate_runs(results_by_label)
    write_metrics_csv(out / "aggregate.csv", agg_rows)
    return agg_rows, results_by_label
