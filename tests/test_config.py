from __future__ import annotations

from dataclasses import fields

import pytest

from isopo_lab.config import (
    RunConfig,
    parse_config,
    serialize_config,
    validate_config,
)
from isopo_lab.errors import ConfigError


def test_parse_minimal():
    cfg = parse_config("algo = reinforce\nsteps = 3\n")
    assert cfg.algo == "reinforce"
    assert cfg.steps == 3
    assert cfg.task == "seqtask"


def test_parse_comments_and_blanks():
    text = """
    # a comment
    algo = grpo
    clip_eps = 0.3   # inline comment
    inner_epochs = 2

    """
    cfg = parse_config(text)
    assert cfg.algo == "grpo"
    assert cfg.clip_eps == 0.3
    assert cfg.inner_epochs == 2


def test_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1\n")


def test_duplicate_key_is_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("steps = 1\nsteps = 2\n")


def test_missing_equals_is_error():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("steps = 1\nnonsense\n")


def test_algo_scoped_key_rejected_for_wrong_algo():
    with pytest.raises(ConfigError, match="clip_eps"):
        parse_config("algo = reinforce\nclip_eps = 0.2\n")
    with pytest.raises(ConfigError, match="'p'"):
        parse_config("algo = grpo\np = -1\n")
    with pytest.raises(ConfigError, match="reg_factor"):
        parse_config("algo = isopo-ni\nreg_factor = 1.0\n")
    # the same keys parse fine for the right algorithm
    parse_config("algo = grpo\nclip_eps = 0.2\n")
    parse_config("algo = isopo-ni\np = -1\n")
    parse_config("algo = isopo-int\nreg_factor = 1.0\n")


def test_task_scoped_key_rejected_for_bandit():
    with pytest.raises(ConfigError, match="seq_modulus"):
        parse_config("task = bandit\nseq_modulus = 8\n")


def test_value_validation():
    with pytest.raises(ConfigError, match="group_size"):
        parse_config("group_size = 1\n")
    with pytest.raises(ConfigError, match="steps"):
        parse_config("steps = -1\n")
    with pytest.raises(ConfigError, match="algo"):
        parse_config("algo = ppo\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("normalize_std = maybe\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("steps = 2.5\n")


def test_round_trip_identity():
    for cfg in (
        RunConfig(),
        RunConfig(algo="grpo", clip_eps=0.35, inner_epochs=2, normalize_std=True),
        RunConfig(algo="isopo-ni", p=-1.0, q=0.25, r=-2.0, reg_strength=0.5),
        RunConfig(algo="isopo-int", reg_factor=2.0, task="bandit", lr=1e-2),
    ):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        # serialize is stable under a second round trip
        assert serialize_config(parse_config(text)) == text


def test_n_overlap_applies_to_every_algorithm():
    # every algorithm logs per-layer Fisher norms from an n_overlap-position sample
    for algo in ("reinforce", "grpo", "isopo-ni", "isopo-int"):
        cfg = parse_config(f"algo = {algo}\nn_overlap = 16\n")
        assert cfg.n_overlap == 16
        text = serialize_config(cfg)
        assert "n_overlap = 16" in text
        assert parse_config(text) == cfg


def test_serialize_omits_out_of_scope_keys():
    text = serialize_config(RunConfig(algo="reinforce"))
    assert "clip_eps" not in text
    # "p =" alone would also match "n_overlap = ", so compare whole keys
    assert "p" not in {line.split(" = ")[0] for line in text.splitlines()}
    text = serialize_config(RunConfig(algo="grpo", task="bandit"))
    assert "clip_eps" in text
    assert "seq_modulus" not in text


def test_validate_config_direct():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(ema_decay=1.5))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(optimizer="lbfgs"))


# an algorithm for which each float key is in scope
FLOAT_KEY_ALGO = {
    "p": "isopo-ni",
    "q": "isopo-ni",
    "r": "isopo-ni",
    "reg_strength": "isopo-ni",
    "reg_factor": "isopo-int",
    "clip_eps": "grpo",
    "ema_decay": "isopo-ni",
    "lr": "reinforce",
}


def test_float_key_table_covers_every_float_field():
    assert set(FLOAT_KEY_ALGO) == {f.name for f in fields(RunConfig) if f.type == "float"}


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(FLOAT_KEY_ALGO))
def test_non_finite_float_rejected_at_parse(key, raw):
    with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
        parse_config(f"algo = {FLOAT_KEY_ALGO[key]}\n{key} = {raw}\n")
