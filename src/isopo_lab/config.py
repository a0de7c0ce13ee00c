"""Run configuration: flat ``key = value`` files with ``#`` comments.

Unknown keys are hard errors, as are keys that only make sense for a
different algorithm or task (e.g. ``clip_eps`` outside GRPO), so a typo can
never silently fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

ALGOS = ("reinforce", "grpo", "isopo-ni", "isopo-int")
TASKS = ("bandit", "seqtask")
OPTIMIZERS = ("sgd", "adamw")

# keys that are only meaningful for specific algorithms / tasks
ALGO_KEYS = {
    "clip_eps": {"grpo"},
    "inner_epochs": {"grpo"},
    "p": {"isopo-ni"},
    "q": {"isopo-ni"},
    "r": {"isopo-ni"},
    "reg_strength": {"isopo-ni"},
    "reg_factor": {"isopo-int"},
    "ema_decay": {"isopo-ni", "isopo-int"},
}
TASK_KEYS = {
    "seq_modulus": {"seqtask"},
    "seq_len": {"seqtask"},
    "exact_match_reward": {"seqtask"},
}


@dataclass(frozen=True)
class RunConfig:
    task: str = "seqtask"
    algo: str = "reinforce"
    p: float = -1.0
    q: float = 0.0
    r: float = 0.0
    reg_strength: float = 0.0
    reg_factor: float = 1.0
    clip_eps: float = 0.2
    inner_epochs: int = 4
    group_size: int = 8
    groups_per_microbatch: int = 4
    n_overlap: int = 64
    ema_decay: float = 0.9
    optimizer: str = "adamw"
    lr: float = 3e-4
    steps: int = 200
    eval_every: int = 5
    seed: int = 0
    normalize_std: bool = False
    out_dir: str = "runs/out"
    seq_modulus: int = 16
    seq_len: int = 3
    exact_match_reward: bool = False


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind in ("bool", bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    if kind in ("int", int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc
    if kind in ("float", float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc
    return raw


def validate_config(cfg: RunConfig, explicit_keys=()) -> RunConfig:
    """Range/consistency checks plus scope checks for explicitly given keys."""
    if cfg.algo not in ALGOS:
        raise ConfigError(f"algo must be one of {ALGOS}, got {cfg.algo!r}")
    if cfg.task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg.task!r}")
    if cfg.optimizer not in OPTIMIZERS:
        raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {cfg.optimizer!r}")
    # NaN passes every range check below, and inf would reach the weights
    for key, kind in _FIELD_TYPES.items():
        if kind in ("float", float) and not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"key {key!r} must be finite, got {getattr(cfg, key)}")
    for key in explicit_keys:
        if key in ALGO_KEYS and cfg.algo not in ALGO_KEYS[key]:
            raise ConfigError(
                f"key {key!r} only applies to algo {sorted(ALGO_KEYS[key])}, "
                f"config uses {cfg.algo!r}"
            )
        if key in TASK_KEYS and cfg.task not in TASK_KEYS[key]:
            raise ConfigError(
                f"key {key!r} only applies to task {sorted(TASK_KEYS[key])}, "
                f"config uses {cfg.task!r}"
            )
    counts = {
        "group_size": (cfg.group_size, 2),
        "groups_per_microbatch": (cfg.groups_per_microbatch, 1),
        "n_overlap": (cfg.n_overlap, 1),
        "inner_epochs": (cfg.inner_epochs, 1),
        "eval_every": (cfg.eval_every, 1),
        "seq_modulus": (cfg.seq_modulus, 2),
        "seq_len": (cfg.seq_len, 1),
    }
    for name, (value, minimum) in counts.items():
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if cfg.steps < 0:
        raise ConfigError(f"steps must be >= 0, got {cfg.steps}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.lr <= 0:
        raise ConfigError(f"lr must be positive, got {cfg.lr}")
    if cfg.clip_eps <= 0:
        raise ConfigError(f"clip_eps must be positive, got {cfg.clip_eps}")
    if not 0.0 < cfg.ema_decay < 1.0:
        raise ConfigError(f"ema_decay must be in (0, 1), got {cfg.ema_decay}")
    if cfg.reg_strength < 0 or cfg.reg_factor < 0:
        raise ConfigError("reg_strength and reg_factor must be nonnegative")
    return cfg


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse ``key = value`` lines; unknown keys and scope violations are errors."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    explicit = set(values)
    values.update(overrides)
    cfg = RunConfig(**values)
    return validate_config(cfg, explicit_keys=explicit)


def load_config(path, **overrides) -> RunConfig:
    """``parse_config`` of the file at ``path``; a ConfigError names the file,
    also when it cannot be read or is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text: {exc.reason}") from exc
    try:
        return parse_config(text, **overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _applicable_keys(cfg: RunConfig) -> list[str]:
    keys = []
    for f in fields(RunConfig):
        if f.name in ALGO_KEYS and cfg.algo not in ALGO_KEYS[f.name]:
            continue
        if f.name in TASK_KEYS and cfg.task not in TASK_KEYS[f.name]:
            continue
        keys.append(f.name)
    return keys


def serialize_config(cfg: RunConfig) -> str:
    """Emit every key applicable to the config's algo/task; round-trips."""
    lines = []
    for key in _applicable_keys(cfg):
        value = getattr(cfg, key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"

