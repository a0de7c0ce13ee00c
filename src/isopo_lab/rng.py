"""Named, counter-based random streams.

Every source of randomness in a run is a Philox generator keyed by
``(master seed, stream label)``. Labels are plain strings such as
``"policy/12/3+5/0"``, so the sequences sampled at step 12 do not depend on
how much randomness any other part of the run consumed; this makes runs
byte-reproducible and algorithm swaps sampling-identical.

``stream`` builds one generator and is the reference. ``uniforms`` derives
the keys of many labels at once, doing numpy's ``SeedSequence`` mixing on
arrays (``_stream_keys``), and runs Philox4x64-10 (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC 2011) on them, so row i of
``uniforms(seed, labels, n)`` equals ``stream(seed, labels[i]).random(n)``
bit for bit. ``draws`` serves a draw that needs numpy's own algorithm
(``choice``, ``permutation``): ``draws(seed, [(label, draw)])[0]`` equals
``draw(stream(seed, label))``.
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
    labels = list(labels)
    digests = b"".join(hashlib.sha256(label.encode("utf-8")).digest() for label in labels)
    return _entropy_keys(seed, np.frombuffer(digests, dtype="<u8").reshape(len(labels), 4))


def uniforms(seed: int, labels, n: int) -> np.ndarray:
    """Uniforms (len(labels), n): row i is ``stream(seed, labels[i]).random(n)``."""
    return _philox_random(_stream_keys(seed, labels), n)


def draws(seed: int, requests) -> list:
    """``[draw(stream(seed, label)) for label, draw in requests]``, from one
    ``_stream_keys`` pass over the labels.

    Each draw gets this call's one generator with its Philox state set to
    what ``stream(seed, label)`` starts from: the label's key, a zero counter
    and an empty buffer. A draw must return what it drew and not keep the
    generator, which the next request re-keys.
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


def _entropy_keys(seed: int, words) -> np.ndarray:
    """Philox keys (rows, 2) of ``SeedSequence([seed, *words[i]])`` per row i.

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
    keys = np.empty((len(words), 2), dtype=np.uint64)
    # a set, not np.unique, which would import numpy.ma (about 1 MB) into every run
    for code in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == code)
        cols = [2 * j + h for j in range(words.shape[1]) for h in (0, 1)[: 1 + (code >> j & 1)]]
        entropy = np.concatenate(
            [np.broadcast_to(seed_words, (len(rows), len(seed_words))), halves[rows][:, cols]],
            axis=1,
        )
        keys[rows] = _seed_key(entropy)
    return keys


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words: ``value[j]`` (one word per row) is
    hashed with the j-th of ``len(value)`` successive hash constants. Returns
    the hashes and the next constant."""
    xors, mults = [], []
    for _ in range(len(value)):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    value = value ^ np.array(xors, dtype=np.uint32)[:, None]
    value = value * np.array(mults, dtype=np.uint32)[:, None]
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _seed_key(entropy: np.ndarray) -> np.ndarray:
    """Philox keys (rows, 2) of SeedSequence(entropy rows of uint32).

    The hash constants advance the same way for every row, so they stay
    Python ints, and the pool is one (4, rows) array: each source word is
    hashed for all its destinations at once, and each entropy word past the
    fourth for all four pool words at once.
    """
    rows, length = entropy.shape
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[: min(length, _POOL_SIZE)] = entropy[:, :_POOL_SIZE].T
    pool, const = _hashmix(pool, _INIT_A)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        mixed, const = _hashmix(np.broadcast_to(pool[src], (len(dst), rows)), const)
        pool[dst] = _mix(pool[dst], mixed)
    for src in range(_POOL_SIZE, length):
        mixed, const = _hashmix(np.broadcast_to(entropy[:, src], pool.shape), const)
        pool = _mix(pool, mixed)
    # generate_state(2, uint64): four uint32 words read in pairs, low word first
    state = _hashmix(pool, _INIT_B, _MULT_B)[0].astype(np.uint64)
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
