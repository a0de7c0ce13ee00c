"""Toy grouped-sampling environments with verifiable rewards.

``BanditTask`` is a single-step table lookup: each prompt indexes a fixed
reward row and the reward is the chosen arm's entry. ``SeqAdditionTask`` is
autoregressive: the prompt encodes a pair (a, b) as two one-hot blocks and
the target is the base-M digit expansion of a + b, least significant digit
first, over T positions; the reward is the fraction of correct positions (or
exact match, behind a flag). A task's ``rewards`` scores a batch in one call.

Prompts are split into train and heldout sets by a stable hash, so the split
never depends on interpreter state. A task is read-only once built (tuples
of prompts, non-writeable arrays), so one instance serves every run in a
process (``harness.make_task``).

A sequence's advantage is its reward minus its group's mean, optionally
divided by the group's standard deviation. A microbatch is sampled from one
row of uniforms per sequence, which the caller derives (``rng.uniforms``),
and holds its sequences as rows of arrays: tokens, scores, rewards and
advantages (``Microbatch``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import policy
from .errors import ContractViolation
from .rng import stream

STD_EPS = 1e-6


@dataclass(frozen=True)
class Prompt:
    id: str
    features: np.ndarray
    target: tuple[int, ...]


@dataclass(frozen=True)
class Group:
    """One prompt of a microbatch and the rewards of its G sequences."""

    prompt: Prompt
    rewards: np.ndarray


@dataclass(frozen=True)
class SequenceView:
    """One sequence of a microbatch: its prompt and its tokens."""

    prompt: Prompt
    tokens: tuple[int, ...]


@dataclass(frozen=True)
class Microbatch:
    """All groups sampled for one optimization step, held as arrays.

    ``prompts`` holds one prompt per group. Row b of ``tokens`` (B, T),
    ``rewards`` (B,), ``advantages`` (B,) and every array in ``scored`` is
    the same sequence, and group g is rows g·G to g·G + G - 1, sampled for
    ``prompts[g]``. ``scored`` is the sampling-time score, and its
    ``act_in[0]`` the batch's layer-0 inputs, from which ``policy.score``
    re-scores it at other weights.
    """

    prompts: tuple[Prompt, ...]
    tokens: np.ndarray
    scored: policy.Scored
    rewards: np.ndarray
    advantages: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.rewards)
        if not len(self.tokens) == len(self.scored.logprobs) == len(self.advantages) == n:
            raise ContractViolation(f"{n} rewards, but the other arrays disagree")
        if not self.prompts or n % len(self.prompts) or n < 2 * len(self.prompts):
            raise ContractViolation(
                f"{n} sequences do not split into {len(self.prompts)} groups of 2 or more"
            )

    @property
    def groups(self) -> list[Group]:
        """One ``Group`` per prompt, its rewards a view of rows of ``rewards``."""
        rows = self.rewards.reshape(len(self.prompts), -1)
        return [Group(p, r) for p, r in zip(self.prompts, rows)]

    @property
    def records(self) -> list[SequenceView]:
        """One ``SequenceView`` per row."""
        size = len(self.tokens) // len(self.prompts)
        prompts = [p for p in self.prompts for _ in range(size)]
        return [SequenceView(p, tuple(row)) for p, row in zip(prompts, self.tokens.tolist())]


def group_advantages(rewards, normalize_std: bool = False) -> np.ndarray:
    """Rewards minus their group's mean, optionally divided by (std + 1e-6),
    for groups along the last axis: (size,) for one group, (G, size) for G."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ContractViolation("advantage estimation needs at least 2 rewards")
    adv = r - np.add.reduce(r, axis=-1, keepdims=True) / r.shape[-1]  # r.mean, bit for bit
    if normalize_std:
        adv = adv / (r.std(axis=-1, keepdims=True) + STD_EPS)
    return adv


def build_microbatch(net, task, prompts, u, normalize_std: bool = False) -> Microbatch:
    """Sample, reward and score one microbatch.

    ``u`` holds one row of T uniforms per sequence, G = len(u) / len(prompts)
    rows per group: group g holds rows g·G to g·G + G - 1, sampled for
    ``prompts[g]``. Each sequence's tokens depend on its row and the policy
    alone. The advantages of all groups come from one ``group_advantages``
    pass over the (groups, G) rewards.
    """
    if not prompts or len(u) % len(prompts):
        raise ContractViolation(f"{len(u)} uniform rows do not split into {len(prompts)} groups")
    size = len(u) // len(prompts)
    tokens, scored = policy.sample_and_score(net, np.array([p.features for p in prompts]), u)
    # rewards come from the task verifier and nowhere else
    rewards = task.rewards([p for p in prompts for _ in range(size)], tokens)
    advantages = group_advantages(rewards.reshape(len(prompts), size), normalize_std)
    return Microbatch(tuple(prompts), tokens, scored, rewards, advantages.reshape(-1))


def _heldout_hash(key: str) -> bool:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % 5 == 0  # ~20% heldout


class SeqAdditionTask:
    """Emit the base-M digits of a + b over T autoregressive steps."""

    name = "seqtask"

    def __init__(self, modulus: int = 16, seq_len: int = 3, exact_match_reward: bool = False):
        if modulus < 2 or seq_len < 1:
            raise ContractViolation("need modulus >= 2 and seq_len >= 1")
        self.modulus = modulus
        self.vocab_size = modulus
        self.seq_len = seq_len
        self.feature_dim = 2 * modulus
        self.exact_match_reward = exact_match_reward
        train, heldout = [], []
        for a in range(modulus):
            for b in range(modulus):
                prompt = self._make_prompt(a, b)
                (heldout if _heldout_hash(f"seq:{a},{b}") else train).append(prompt)
        self.train_prompts, self.heldout_prompts = tuple(train), tuple(heldout)

    def _make_prompt(self, a: int, b: int) -> Prompt:
        features = np.zeros(self.feature_dim)
        features[a] = 1.0
        features[self.modulus + b] = 1.0
        features.flags.writeable = False
        total = (a + b) % (self.modulus**self.seq_len)
        digits = []
        for _ in range(self.seq_len):
            digits.append(total % self.modulus)
            total //= self.modulus
        return Prompt(id=f"{a}+{b}", features=features, target=tuple(digits))

    def rewards(self, prompts, tokens) -> np.ndarray:
        """Rewards (B,) of sequences ``tokens`` (B, T), row b answering
        ``prompts[b]``: the fraction of positions equal to the target's
        digit, or 1.0 for an exact match and 0.0 otherwise."""
        tokens = _check_tokens(prompts, tokens, self.seq_len)
        targets = np.fromiter([d for p in prompts for d in p.target], np.int64)
        correct = np.add.reduce(tokens == targets.reshape(tokens.shape), axis=1)
        if self.exact_match_reward:
            return (correct == self.seq_len).astype(float)
        return correct / self.seq_len


class BanditTask:
    """Single-step task: reward of arm k for prompt p is a fixed table entry."""

    name = "bandit"
    seq_len = 1

    def __init__(self, n_prompts: int = 8, n_arms: int = 8, table: np.ndarray | None = None):
        if n_prompts < 2 or n_arms < 2:
            raise ContractViolation("need at least 2 prompts and 2 arms")
        self.vocab_size = n_arms
        self.feature_dim = n_prompts
        if table is None:
            # the table is part of the task definition, not of any run's seed
            table = stream(0, "bandit-table").uniform(0.0, 1.0, size=(n_prompts, n_arms))
        table = np.array(table, dtype=float)  # a copy, so freezing it leaves the caller's alone
        if table.shape != (n_prompts, n_arms):
            raise ContractViolation(f"table shape {table.shape} != ({n_prompts}, {n_arms})")
        table.flags.writeable = False
        self.table = table
        self._row_of: dict[str, int] = {}
        train, heldout = [], []
        for i in range(n_prompts):
            features = np.zeros(n_prompts)
            features[i] = 1.0
            features.flags.writeable = False
            prompt = Prompt(id=f"arm{i}", features=features, target=(int(np.argmax(table[i])),))
            self._row_of[prompt.id] = i
            # every 4th prompt held out: keeps both splits nonempty for small tables
            (heldout if i % 4 == 3 else train).append(prompt)
        self.train_prompts, self.heldout_prompts = tuple(train), tuple(heldout)

    def rewards(self, prompts, tokens) -> np.ndarray:
        """Rewards (B,) of one-token sequences ``tokens`` (B, 1), row b
        answering ``prompts[b]``: the chosen arm's entry of the prompt's row."""
        tokens = _check_tokens(prompts, tokens, 1)
        rows = [self._row_of[p.id] for p in prompts]
        return self.table[rows, tokens[:, 0]]


def _check_tokens(prompts, tokens, seq_len: int) -> np.ndarray:
    """``tokens`` as a (len(prompts), seq_len) array, or ContractViolation."""
    tokens = np.asarray(tokens)
    if tokens.shape != (len(prompts), seq_len):
        raise ContractViolation(
            f"tokens {tokens.shape} are not {len(prompts)} sequences of {seq_len} tokens"
        )
    return tokens


def validation_score(net, prompts) -> float:
    """Mean exact-match rate under greedy decoding."""
    prompts = list(prompts)
    if not prompts:
        raise ContractViolation("validation needs at least one prompt")
    tokens = policy.greedy(net, np.stack([p.features for p in prompts]))
    hits = sum(1 for p, row in zip(prompts, tokens.tolist()) if tuple(row) == p.target)
    return hits / len(prompts)
