"""Named, counter-based random streams.

Every source of randomness in a run is a Philox generator keyed by
``(master seed, stream label)``. Labels are plain strings such as
``"policy/12/3+5/0"`` so that, e.g., the sequences sampled at step 12 do not
depend on how much randomness any other part of the run consumed. This is
what makes runs byte-reproducible and algorithm swaps sampling-identical.

``stream`` builds one generator and is the reference. Sampling needs only the
first few uniforms of thousands of streams per run, so ``uniforms`` derives
them all at once: numpy's ``SeedSequence`` pool mixing, its key generation and
Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
SC 2011) are integer arithmetic, done here on arrays over every label. Row i
of ``uniforms(seed, labels, n)`` equals ``stream(seed, labels[i]).random(n)``
bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

# numpy's SeedSequence constants (pool of 4 uint32 words)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF

# Philox4x64-10 multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def stream(seed: int, label: str) -> np.random.Generator:
    """Return an independent generator for (seed, label).

    The label is hashed with SHA-256, so distinct labels give statistically
    independent Philox keys and the mapping is stable across platforms.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    seq = np.random.SeedSequence(entropy=[int(seed)] + words)
    return np.random.Generator(np.random.Philox(seq))


def uniforms(seed: int, labels, n: int) -> np.ndarray:
    """Uniforms (len(labels), n): row i is ``stream(seed, labels[i]).random(n)``."""
    labels = list(labels)
    digests = b"".join(hashlib.sha256(label.encode("utf-8")).digest() for label in labels)
    words = np.frombuffer(digests, dtype="<u8").reshape(len(labels), 4)
    return entropy_uniforms(seed, words, n)


def _uint32_words(value: int) -> list[int]:
    """numpy's coercion of one non-negative entropy int: 32-bit words, low first."""
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def entropy_uniforms(seed: int, words, n: int) -> np.ndarray:
    """Row i is ``Generator(Philox(SeedSequence([seed, *words[i]]))).random(n)``.

    ``words`` is a (rows, k) array of 64-bit entropy words. numpy coerces a
    word below 2**32 to one uint32 and a larger one to two, so rows are
    grouped by which of their words need two and each group is mixed as one
    (rows, length) array.
    """
    words = np.asarray(words, dtype=np.uint64)
    seed_words = np.array(_uint32_words(int(seed)), dtype=np.uint32)
    low, high = words & np.uint64(_MASK32), words >> np.uint64(32)
    # columns lo0, hi0, lo1, hi1, ...: each word's uint32 halves, low first
    halves = np.stack([low, high], axis=-1).astype(np.uint32)
    halves = halves.reshape(len(words), 2 * words.shape[1])
    pattern = (high != 0) @ (1 << np.arange(words.shape[1]))
    out = np.empty((len(words), n))
    # a set, not np.unique, which would import numpy.ma (about 1 MB) into every run
    for code in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == code)
        cols = [2 * j + h for j in range(words.shape[1]) for h in (0, 1)[: 1 + (code >> j & 1)]]
        entropy = np.concatenate(
            [np.broadcast_to(seed_words, (len(rows), len(seed_words))), halves[rows][:, cols]],
            axis=1,
        )
        out[rows] = _philox_random(_seed_key(entropy), n)
    return out


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words; returns the next hash constant too."""
    value = value ^ np.uint32(const)
    const = (const * mult) & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _seed_key(entropy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys (two uint64 columns) of SeedSequence(entropy rows of uint32).

    The hash constants advance the same way for every row, so they stay
    Python ints and only the pool is an array.
    """
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[:, i] if i < entropy.shape[1] else np.zeros(len(entropy), np.uint32)
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(entropy[:, src], const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state(2, uint64): four uint32 words read in pairs, low word first
    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64))
    shift = np.uint64(32)
    return state[0] | state[1] << shift, state[2] | state[3] << shift


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product m * x, from 32-bit halves."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & mask, x >> shift
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (lo_lo >> shift) + (lo_hi & mask) + (hi_lo & mask)
    hi = x_hi * m_hi + (lo_hi >> shift) + (hi_lo >> shift) + (mid >> shift)
    return hi, x * np.uint64(m)


def _philox_random(key: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """``Generator(Philox(key=key)).random(n)`` per row: block b has counter b + 1
    and gives four draws; a draw x becomes (x >> 11) * 2**-53."""
    rows, blocks = len(key[0]), -(-n // 4)
    k0, k1 = key[0][:, None], key[1][:, None]
    zeros = np.zeros((rows, blocks), dtype=np.uint64)
    c0 = zeros + np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3 = zeros, zeros, zeros
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    draws = np.stack([c0, c1, c2, c3], axis=-1).reshape(rows, 4 * blocks)[:, :n]
    return (draws >> np.uint64(11)) * (1.0 / 9007199254740992.0)
