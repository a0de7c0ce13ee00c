"""Run configuration: flat ``key = value`` files with ``#`` comments.

Each field of ``RunConfig`` carries its rule (``RULES``): the values it
accepts and the algorithms or tasks it applies to. A config checks every
field against its rule and type when it is built, from a file, in Python or
by ``dataclasses.replace``: bool fields take bools, int fields integral
numbers, float fields finite real numbers (numpy scalars pass, bools do not)
and str fields nonempty strs that read back from one line of a file: no
``#``, no line break (``str.splitlines``), no surrounding whitespace. A
number is kept as the Python int or float it equals. A wrong type or value
is a ConfigError naming the key.

In a file, unknown and repeated keys are errors, and so is a key that only
applies to another algorithm or task (e.g. ``clip_eps`` outside GRPO).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import NamedTuple

from .errors import ConfigError

ALGOS = ("reinforce", "grpo", "isopo-ni", "isopo-int")
TASKS = ("bandit", "seqtask")
OPTIMIZERS = ("sgd", "adamw")


class Rule(NamedTuple):
    """A field's accepted values: one of ``choices``, or a number in
    [low, high], or in (low, high) when ``strict``; and the algorithms and
    tasks it applies to (empty: all of them)."""

    choices: tuple = ()
    low: float | None = None
    high: float = math.inf
    strict: bool = False
    algos: tuple = ()
    tasks: tuple = ()


def _ruled(default, **rule):
    return field(default=default, metadata={"rule": Rule(**rule)})


@dataclass(frozen=True)
class RunConfig:
    task: str = _ruled("seqtask", choices=TASKS)
    algo: str = _ruled("reinforce", choices=ALGOS)
    p: float = _ruled(-1.0, algos=("isopo-ni",))
    q: float = _ruled(0.0, algos=("isopo-ni",))
    r: float = _ruled(0.0, algos=("isopo-ni",))
    reg_strength: float = _ruled(0.0, low=0, algos=("isopo-ni",))
    reg_factor: float = _ruled(1.0, low=0, algos=("isopo-int",))
    clip_eps: float = _ruled(0.2, low=0, strict=True, algos=("grpo",))
    inner_epochs: int = _ruled(4, low=1, algos=("grpo",))
    group_size: int = _ruled(8, low=2)
    groups_per_microbatch: int = _ruled(4, low=1)
    n_overlap: int = _ruled(64, low=1)
    ema_decay: float = _ruled(0.9, low=0, high=1, strict=True, algos=("isopo-ni", "isopo-int"))
    optimizer: str = _ruled("adamw", choices=OPTIMIZERS)
    lr: float = _ruled(3e-4, low=0, strict=True)
    steps: int = _ruled(200, low=0)
    eval_every: int = _ruled(5, low=1)
    seed: int = _ruled(0, low=0)
    normalize_std: bool = False
    out_dir: str = "runs/out"
    seq_modulus: int = _ruled(16, low=2, tasks=("seqtask",))
    seq_len: int = _ruled(3, low=1, tasks=("seqtask",))
    exact_match_reward: bool = _ruled(False, tasks=("seqtask",))

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _checked(f.name, f.type, getattr(self, f.name)))


RULES = {f.name: f.metadata.get("rule", Rule()) for f in fields(RunConfig)}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# a field type: the Python types it accepts, its name in errors, its conversion
_KINDS = {
    "bool": (bool, "a boolean", bool),
    "int": (Integral, "an integer", int),
    "float": (Real, "a number", float),
    "str": (str, "a string", str),
}
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _checked(key: str, kind: str, value):
    """``value`` as the Python type of a ``kind`` field; ConfigError when its
    type or value breaks the field's rule."""
    accepted, name, convert = _KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind != "bool"):
        raise ConfigError(f"key {key!r}: expected {name}, got {value!r}")
    try:
        value = convert(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    # NaN passes every range check below, and inf would reach the weights
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {value}")
    # a str is written to config.txt as one nonempty line, which must parse back to it
    if kind == "str" and ("#" in value or value.strip() != value or len(value.splitlines()) != 1):
        raise ConfigError(f"key {key!r}: not one line free of '#' and edge whitespace: {value!r}")
    rule = RULES[key]
    if rule.choices and value not in rule.choices:
        raise ConfigError(f"{key} must be one of {rule.choices}, got {value!r}")
    if rule.low is None or (
        rule.low < value < rule.high if rule.strict else rule.low <= value <= rule.high
    ):
        return value
    if rule.high < math.inf:
        bounds = f"({rule.low}, {rule.high})" if rule.strict else f"[{rule.low}, {rule.high}]"
        raise ConfigError(f"{key} must be in {bounds}, got {value}")
    wanted = ("positive" if rule.low == 0 else f"> {rule.low}") if rule.strict else f">= {rule.low}"
    raise ConfigError(f"{key} must be {wanted}, got {value}")


def _scope_error(cfg: RunConfig, key: str) -> str | None:
    """Why ``key`` does not apply to the config's algo or task, or None."""
    rule = RULES[key]
    for kind, allowed, used in (("algo", rule.algos, cfg.algo), ("task", rule.tasks, cfg.task)):
        if allowed and used not in allowed:
            return f"key {key!r} only applies to {kind} {sorted(allowed)}, config uses {used!r}"
    return None


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        return _BOOL_WORDS[raw.lower()] if kind == "bool" else _KINDS[kind][2](raw)
    except (KeyError, ValueError):
        raise ConfigError(f"key {key!r}: expected {_KINDS[kind][1]}, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; unknown keys and scope violations are errors.
    A config derived from the result is ``dataclasses.replace`` of it."""
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
    cfg = RunConfig(**values)
    for key in values:
        error = _scope_error(cfg, key)
        if error:
            raise ConfigError(error)
    return cfg


def load_config(path) -> RunConfig:
    """``parse_config`` of the file at ``path``; a ConfigError names the file,
    also when it cannot be read or is not UTF-8 text. A value set after, by
    ``dataclasses.replace``, is checked there, and its error names no file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text: {exc.reason}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def serialize_config(cfg: RunConfig) -> str:
    """Emit every key applicable to the config's algo/task; round-trips."""
    lines = []
    for key in RULES:
        if not _scope_error(cfg, key):
            value = getattr(cfg, key)
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
    return "\n".join(lines) + "\n"
