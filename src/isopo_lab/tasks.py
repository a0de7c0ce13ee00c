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
row of uniforms per sequence, which the caller derives (``rng.uniforms``).
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

    def __hash__(self) -> int:  # features excluded; id is unique per task
        return hash(self.id)


@dataclass
class Group:
    """Rewards and centered advantages of the G sequences sampled for one prompt."""

    prompt: Prompt
    rewards: np.ndarray
    advantages: np.ndarray

    def __post_init__(self) -> None:
        if len(self.rewards) < 2:
            raise ContractViolation("a group needs at least 2 sequences")
        if len(self.rewards) != len(self.advantages):
            raise ContractViolation("group fields disagree on group size")


@dataclass(frozen=True)
class SequenceView:
    """One sequence of a microbatch: its prompt and its tokens."""

    prompt: Prompt
    tokens: tuple[int, ...]


@dataclass
class Microbatch:
    """All groups sampled for one optimization step, held as arrays.

    Row b of ``tokens`` (B, T) and of every array in ``scored`` is the same
    sequence; rows run through the groups in order. ``scored`` is the
    sampling-time score, and its ``act_in[0]`` the batch's layer-0 inputs,
    from which ``policy.score`` re-scores it at other weights.
    """

    groups: list[Group]
    tokens: np.ndarray
    scored: policy.Scored

    def __post_init__(self) -> None:
        n = sum(len(g.rewards) for g in self.groups)
        if not len(self.tokens) == len(self.scored.logprobs) == n:
            raise ContractViolation(f"groups hold {n} sequences, arrays disagree")

    @property
    def records(self) -> list[SequenceView]:
        prompts = [g.prompt for g in self.groups for _ in g.rewards]
        return [SequenceView(p, tuple(row)) for p, row in zip(prompts, self.tokens.tolist())]

    @property
    def rewards(self) -> np.ndarray:
        return np.concatenate([g.rewards for g in self.groups])

    @property
    def advantages(self) -> np.ndarray:
        return np.concatenate([g.advantages for g in self.groups])


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
    pass over the (groups, G) rewards, and each ``Group`` holds its row of
    both.
    """
    if not prompts or len(u) % len(prompts):
        raise ContractViolation(f"{len(u)} uniform rows do not split into {len(prompts)} groups")
    size = len(u) // len(prompts)
    tokens, scored = policy.sample_and_score(net, np.array([p.features for p in prompts]), u)
    # rewards come from the task verifier and nowhere else
    rewards = task.rewards([p for p in prompts for _ in range(size)], tokens)
    rewards = rewards.reshape(len(prompts), size)
    advantages = group_advantages(rewards, normalize_std)
    groups = [Group(p, r, a) for p, r, a in zip(prompts, rewards, advantages)]
    return Microbatch(groups, tokens, scored)


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


def assert_disjoint_split(task) -> None:
    train_ids = {p.id for p in task.train_prompts}
    held_ids = {p.id for p in task.heldout_prompts}
    overlap = train_ids & held_ids
    if overlap:
        raise ContractViolation(f"train/heldout prompts overlap: {sorted(overlap)[:5]}")
