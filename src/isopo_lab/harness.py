"""Seeded training loops, CSV metrics files and multi-run comparison.

A run is fully determined by (config, seed): every random draw comes from a
named counter-based stream, the metrics CSV prints floats with 17 significant
digits, and repeated runs produce byte-identical files.

Every step, step 0 included, takes one path: sample a microbatch of groups
(scored by the task's reward, with no KL penalty anywhere near the reward
path, and given group-relative advantages), draw the shared overlap sample,
estimate every sequence's per-layer Fisher norm, and summarize the batch; the
same diagnostics are logged for every algorithm, so the per-layer statistics
are comparable across runs. Steps 1 and later then apply the algorithm's
update: one optimizer step for reinforce, isopo-ni and isopo-int, and
``inner_epochs`` steps on the same batch for GRPO. Step 0 only probes the
initial policy. A row is written on every ``eval_every``-th step and on the
step that aborts: a numeric failure inside the update (any ArithmeticError:
a non-finite gradient, a Tikhonov system that is not positive definite, GRPO
ratio overflow) ends the run as ABORTED with the step and the reason, and
the failing step's row still holds its batch's diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, isopo, metrics, policy, tasks
from .config import RunConfig, serialize_config, validate_config
from .errors import ConfigError, ContractViolation, CsvFormatError
from .rng import stream

DEFAULT_HIDDEN = (32, 32)
FIXED_COLUMNS = (
    "step",
    "algo",
    "task",
    "seed",
    "mean_reward",
    "validation",
    "kl_from_init",
    "degenerate_sequences",
)


@dataclass
class RunResult:
    config: RunConfig
    out_dir: Path
    csv_path: Path
    checkpoint_path: Path
    rows: list[metrics.StepMetrics]
    aborted: bool = False
    abort_reason: str = ""


def make_task(cfg: RunConfig):
    if cfg.task == "seqtask":
        return tasks.SeqAdditionTask(cfg.seq_modulus, cfg.seq_len, cfg.exact_match_reward)
    return tasks.BanditTask()


def build_policy(task, seed: int) -> policy.PolicyNet:
    context_dim = task.vocab_size + task.seq_len + task.feature_dim
    return policy.init_policy(task.vocab_size, context_dim, DEFAULT_HIDDEN, stream(seed, "init"))


def sample_microbatch(net, task, cfg: RunConfig, step: int) -> tasks.Microbatch:
    """Groups for one step; each sequence gets its own (step, prompt, index) stream."""
    train = task.train_prompts
    if cfg.groups_per_microbatch > len(train):
        raise ConfigError(
            f"groups_per_microbatch={cfg.groups_per_microbatch} exceeds "
            f"{len(train)} training prompts"
        )
    prompt_rng = stream(cfg.seed, f"prompts/{step}")
    chosen = prompt_rng.choice(len(train), size=cfg.groups_per_microbatch, replace=False)
    prompts = [train[int(idx)] for idx in chosen]
    rngs = [
        [stream(cfg.seed, f"policy/{step}/{p.id}/{k}") for k in range(cfg.group_size)]
        for p in prompts
    ]
    return tasks.build_microbatch(net, task, prompts, rngs, cfg.normalize_std)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_header(n_layers: int, include_ntk: bool) -> str:
    cols = list(FIXED_COLUMNS)
    for l in range(n_layers):
        cols.append(f"l{l}_mean_F_norm")
        cols.append(f"l{l}_mean_grad_norm")
        if include_ntk:
            cols.append(f"l{l}_ntk_eigen_mean")
    return ",".join(cols)


def metrics_to_row(sm: metrics.StepMetrics, include_ntk: bool) -> str:
    vals = [
        sm.step,
        sm.algo,
        sm.task,
        sm.seed,
        sm.mean_reward,
        sm.validation,
        sm.kl_from_init,
        sm.degenerate_sequences,
    ]
    for ls in sm.layer_stats:
        vals.append(ls.mean_fisher_norm)
        vals.append(ls.mean_grad_norm)
        if include_ntk:
            vals.append(ls.ntk_eigen_mean)
    return ",".join(_format_value(v) for v in vals)


def write_metrics_csv(path, rows: list[metrics.StepMetrics], include_ntk: bool) -> None:
    n_layers = len(rows[0].layer_stats) if rows else 0
    lines = [csv_header(n_layers, include_ntk)]
    lines.extend(metrics_to_row(r, include_ntk) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path) -> list[dict]:
    """Parse a metrics CSV back into dict rows; malformed input names the line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError(f"{path}: line 1: empty file")
    header = lines[0].split(",")
    for i, expected in enumerate(FIXED_COLUMNS):
        if i >= len(header) or header[i] != expected:
            raise CsvFormatError(f"{path}: line 1: expected column {expected!r} at position {i}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise CsvFormatError(
                f"{path}: line {lineno}: {len(parts)} fields, header has {len(header)}"
            )
        row: dict = {}
        for name, raw in zip(header, parts):
            if name in ("algo", "task"):
                row[name] = raw
            elif name in ("step", "seed", "degenerate_sequences"):
                try:
                    row[name] = int(raw)
                except ValueError as exc:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: column {name!r}: {raw!r} is not an integer"
                    ) from exc
            else:
                try:
                    row[name] = float(raw)
                except ValueError as exc:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: column {name!r}: {raw!r} is not a number"
                    ) from exc
        rows.append(row)
    return rows


def _update(cfg, net, optimizer, microbatch, norms, summary, rescale_params, ntk_ema) -> None:
    """Apply the step's optimizer steps: ``inner_epochs`` for GRPO, one otherwise."""
    for _ in range(cfg.inner_epochs if cfg.algo == "grpo" else 1):
        if cfg.algo == "reinforce":
            grads = baselines.reinforce_grad(microbatch)
        elif cfg.algo == "grpo":
            grads = baselines.grpo_clipped_grad(
                microbatch, microbatch.scored.logprobs, net, cfg.clip_eps
            )
        elif cfg.algo == "isopo-ni":
            grads = isopo.noninteracting_update(microbatch, norms, rescale_params)
        else:
            grads = []
            for l, jac in enumerate(microbatch.scored.seq_grads):
                mean_eig = summary.layer_stats[l].ntk_eigen_mean
                c = cfg.reg_factor * isopo.ema_update(ntk_ema, (l, "ntk_mean_eig"), mean_eig)
                grads.append(isopo.interacting_update(jac, microbatch.advantages, c))
        baselines.optimizer_step(optimizer, net, [-g for g in grads])


def train(cfg: RunConfig, out_dir=None) -> RunResult:
    """Run one seeded training loop and write metrics.csv plus a checkpoint."""
    cfg = validate_config(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    task = make_task(cfg)
    tasks.assert_disjoint_split(task)
    net = build_policy(task, cfg.seed)
    init_net = net.copy()
    optimizer = baselines.OptimizerState(cfg.optimizer, cfg.lr)
    rescale_params = isopo.RescalingParams(
        cfg.p, cfg.q, cfg.r, cfg.reg_strength, isopo.RegEmaState(cfg.ema_decay)
    )
    ntk_ema = isopo.RegEmaState(cfg.ema_decay)
    include_ntk = cfg.algo == "isopo-int"

    rows: list[metrics.StepMetrics] = []
    aborted = False
    abort_reason = ""
    for step in range(cfg.steps + 1):
        microbatch = sample_microbatch(net, task, cfg, step)
        overlap = isopo.draw_overlap_samples(
            microbatch, cfg.n_overlap, stream(cfg.seed, f"overlap/{step}")
        )
        norms, degenerate = isopo.sequence_fisher_norms(microbatch, overlap)
        summary = metrics.batch_summary(microbatch, norms, int(np.count_nonzero(degenerate)))
        if step > 0:
            try:
                _update(cfg, net, optimizer, microbatch, norms, summary, rescale_params, ntk_ema)
            except ArithmeticError as exc:
                aborted = True
                abort_reason = f"step {step}: {type(exc).__name__}: {exc}"
        if aborted or step % cfg.eval_every == 0:
            rows.append(metrics.collect(step, net, init_net, task, summary, cfg.seed, cfg.algo))
        if aborted:
            break

    csv_path = out / "metrics.csv"
    write_metrics_csv(csv_path, rows, include_ntk)
    checkpoint_path = out / "checkpoint.txt"
    policy.save_checkpoint(net, checkpoint_path)
    (out / "config.txt").write_text(serialize_config(cfg), encoding="utf-8")
    if aborted:
        (out / "ABORTED").write_text(abort_reason + "\n", encoding="utf-8")
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
    ``aborted_runs`` column.
    """
    rows = []
    for label, results in results_by_label.items():
        live = [r for r in results if not r.aborted]
        aborted = len(results) - len(live)
        steps = sorted({m.step for r in live for m in r.rows})
        for step in steps:
            vals = [m.validation for r in live for m in r.rows if m.step == step]
            kls = [m.kl_from_init for r in live for m in r.rows if m.step == step]
            if not vals:
                continue
            rows.append(
                {
                    "label": label,
                    "step": step,
                    "n_runs": len(live),
                    "aborted_runs": aborted,
                    "validation_best": max(vals),
                    "validation_median": float(np.median(vals)),
                    "validation_min": min(vals),
                    "validation_max": max(vals),
                    "kl_median": float(np.median(kls)),
                    "kl_min": min(kls),
                    "kl_max": max(kls),
                }
            )
    return rows


def compare(
    configs: list[RunConfig],
    n_seeds: int,
    out_dir,
    labels: list[str] | None = None,
) -> tuple[list[dict], dict[str, list[RunResult]]]:
    """Train every (config, seed) pair and write per-run CSVs plus aggregate.csv."""
    if not configs or n_seeds < 1:
        raise ContractViolation("compare needs at least one config and one seed")
    if labels is None:
        labels = [f"{cfg.algo}-{i}" for i, cfg in enumerate(configs)]
    if len(labels) != len(configs):
        raise ContractViolation("one label per config required")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_by_label: dict[str, list[RunResult]] = {}
    for cfg, label in zip(configs, labels):
        runs = []
        for k in range(n_seeds):
            seed = cfg.seed + k
            run_cfg = validate_config(replace(cfg, seed=seed))
            runs.append(train(run_cfg, out / f"{label}-seed{seed}"))
        results_by_label[label] = runs
    agg_rows = aggregate_runs(results_by_label)
    lines = [",".join(AGGREGATE_COLUMNS)]
    for row in agg_rows:
        lines.append(",".join(_format_value(row[c]) for c in AGGREGATE_COLUMNS))
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return agg_rows, results_by_label
