"""Named, counter-based random streams.

Every source of randomness in a run is a Philox generator keyed by
``(master seed, stream label)``. Labels are plain strings such as
``"policy/12/3+5/0"``, so the sequences sampled at step 12 do not depend on
how much randomness any other part of the run consumed; this makes runs
byte-reproducible and algorithm swaps sampling-identical.

``stream`` builds one generator and is the reference. ``uniforms`` derives
the keys of many labels at once (``_stream_keys``) and runs Philox4x64-10
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011) on
them, so row i of ``uniforms(seed, labels, n)`` equals
``stream(seed, labels[i]).random(n)`` bit for bit. The keys are numpy's
``SeedSequence`` mixing done on one fixed-shape array, except for a label
with a SHA-256 word below 2**32 (about one in 2**30): numpy mixes such a
word as one uint32, not two, so numpy's own ``SeedSequence`` keys that row
and the array code keeps one shape. ``draws`` serves a draw that needs
numpy's own algorithm (``choice``, ``permutation``):
``draws(seed, [(label, draw)])[0]`` equals ``draw(stream(seed, label))``.
"""

from __future__ import annotations

import functools
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
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
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


def _stream_keys(seed: int, labels) -> np.ndarray:
    """Philox keys (len(labels), 2): row i is the key of ``stream(seed, labels[i])``."""
    digests = b"".join(hashlib.sha256(label.encode("utf-8")).digest() for label in labels)
    return _entropy_keys(seed, np.frombuffer(digests, dtype="<u8").reshape(-1, 4))


def uniforms(seed: int, labels, n: int) -> np.ndarray:
    """Uniforms (len(labels), n): row i is ``stream(seed, labels[i]).random(n)``."""
    return _philox_random(_stream_keys(seed, labels), n)


def draws(seed: int, requests) -> list:
    """``[draw(stream(seed, label)) for label, draw in requests]``, from one
    ``_stream_keys`` pass over the labels.

    Each draw gets this call's one generator with its Philox state set to
    what ``stream(seed, label)`` starts from: the label's key, a zero counter
    and an empty buffer. A draw must return what it drew and not keep the
    generator, which the next request re-keys: that gives the bits of a
    fresh ``Generator(Philox(key=key))`` per request in about half the time.
    """
    requests = list(requests)
    keys = _stream_keys(seed, [label for label, _ in requests])
    gen = np.random.Generator(np.random.Philox(key=0))
    empty = np.zeros(4, dtype=np.uint64)
    results = []
    for key, (_, draw) in zip(keys, requests):
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": empty, "key": key},
            "buffer": empty,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        results.append(draw(gen))
    return results


def _entropy_keys(seed: int, words) -> np.ndarray:
    """Philox keys (rows, 2) of ``SeedSequence([seed, *words[i]])`` per row i.

    ``words`` is a (rows, k) array of 64-bit words. numpy coerces an entropy
    int to uint32 words, low first: two for a word of ``words`` unless it is
    below 2**32. ``_seed_key`` mixes every row in the two-per-word form. A
    SHA-256 row has a shorter word with probability about k * 2**-32, too
    rarely to earn a second array shape, so such a row is re-keyed by numpy's
    own ``SeedSequence``: the derivation ``stream`` runs.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"entropy must be non-negative, got {seed}")
    n_seed = (seed.bit_length() + 31) // 32 or 1  # seed 0 is one word
    seed_words = np.frombuffer(seed.to_bytes(4 * n_seed, "little"), "<u4")
    words = np.asarray(words, dtype="<u8")
    halves = words.view("<u4")  # columns lo0, hi0, lo1, hi1, ...
    keys = _seed_key(np.concatenate([np.tile(seed_words, (len(words), 1)), halves], axis=1))
    for i in np.flatnonzero((halves[:, 1::2] == 0).any(axis=1)):
        keys[i] = np.random.SeedSequence([seed, *words[i].tolist()]).generate_state(2, np.uint64)
    return keys


def _hash_constants(n: int, const: int, mult: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``n`` successive SeedSequence hash constants from ``const``: the xor
    and multiplier of each as (n, 1) uint32 columns, and the next constant."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    columns = [np.array(c, dtype=np.uint32)[:, None] for c in (xors, mults)]
    return columns[0], columns[1], const


@functools.cache
def _hash_schedule(length: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (xors, mults) columns of every hash ``_seed_key`` runs on entropy
    of ``length`` words, in its order: the 4 pool words, then each pool
    word's 3 destinations, then each later word's 4 pool words, and last the
    4 output words. The constants advance the same way for every row and
    every call, so each length's schedule is made once."""
    schedule, const = [], _INIT_A
    for n in [_POOL_SIZE] + [_POOL_SIZE - 1] * _POOL_SIZE + [_POOL_SIZE] * (length - _POOL_SIZE):
        xors, mults, const = _hash_constants(n, const, _MULT_A)
        schedule.append((xors, mults))
    return (*schedule, _hash_constants(_POOL_SIZE, _INIT_B, _MULT_B)[:2])


def _hashmix(value: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hash of uint32 words: ``value`` (words, rows), or one
    row that numpy broadcasts, with the j-th word hashed by the j-th of the
    (xors, mults) ``constants``."""
    xors, mults = constants
    value = (value ^ xors) * mults
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _seed_key(entropy: np.ndarray) -> np.ndarray:
    """Philox keys (rows, 2) of SeedSequence(entropy rows of 4 or more uint32 words).

    The pool is one (4, rows) array: each source word is hashed for all its
    destinations at once, and each entropy word past the fourth for all four
    pool words at once, with the constants of ``_hash_schedule``.
    """
    first, *spread, last = _hash_schedule(entropy.shape[1])
    pool = _hashmix(entropy[:, :_POOL_SIZE].T, first)
    for src, constants in enumerate(spread[:_POOL_SIZE]):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for src, constants in enumerate(spread[_POOL_SIZE:], _POOL_SIZE):
        pool = _mix(pool, _hashmix(entropy[:, src], constants))
    # generate_state(2, uint64): four uint32 words read in pairs, low word first
    state = _hashmix(pool, last).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _mulhilo(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products m * x, from 32-bit halves."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    m_lo, m_hi = m & mask, m >> shift
    x_lo, x_hi = x & mask, x >> shift
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (lo_lo >> shift) + (lo_hi & mask) + (hi_lo & mask)
    hi = x_hi * m_hi + (lo_hi >> shift) + (hi_lo >> shift) + (mid >> shift)
    return hi, x * m


def _philox_random(keys: np.ndarray, n: int) -> np.ndarray:
    """``Generator(Philox(key=key)).random(n)`` per key of ``keys`` (rows, 2):
    block b has counter b + 1 and gives four draws; a draw x becomes
    (x >> 11) * 2**-53.

    The counter words are held as two stacked (2, rows, blocks) arrays,
    ``x`` = (c0, c2), the words each round multiplies, and ``y`` = (c1, c3),
    so a round is one ``_mulhilo`` and the key is one (2, rows, 1) array.
    """
    rows, blocks = len(keys), -(-n // 4)
    k = keys.T[:, :, None]
    x = np.zeros((2, rows, blocks), dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros_like(x)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k = k + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, x)
        # c0, c2 = hi(c2 M1) ^ c1 ^ k0, hi(c0 M0) ^ c3 ^ k1; c1, c3 = lo(c2 M1), lo(c0 M0)
        x, y = hi[::-1] ^ y ^ k, lo[::-1]
    draws = np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(rows, 4 * blocks)[:, :n]
    return (draws >> np.uint64(11)) * (1.0 / 9007199254740992.0)
