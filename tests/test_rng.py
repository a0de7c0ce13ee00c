"""The vectorized uniforms kernel against numpy's generators, the reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopo_lab.rng import _entropy_keys, _philox_random, draws, stream, uniforms

LABELS = ["policy/0/3+5/0", "policy/40/15+15/7", "prompts/3", "", "ünïcode/λ"]


def reference(seed, labels, n):
    return np.stack([stream(seed, label).random(n) for label in labels])


# seeds of one, two and three uint32 words; n > 4 needs a second Philox block
@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**64 + 1])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
def test_uniforms_match_stream(seed, n):
    assert np.array_equal(uniforms(seed, LABELS, n), reference(seed, LABELS, n))


DRAWS = [
    lambda g: g.permutation(96),
    lambda g: g.choice(40, size=4, replace=False),
    lambda g: g.random((5, 3)),
    # an odd count of 32-bit draws leaves half a word buffered for the next
    lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
]


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**64 + 1])
def test_draws_match_stream(seed):
    requests = [(label, draw) for draw in DRAWS for label in LABELS]
    for got, (label, draw) in zip(draws(seed, requests), requests, strict=True):
        assert np.array_equal(got, draw(stream(seed, label)))


def test_uniforms_of_no_labels():
    assert uniforms(0, [], 3).shape == (0, 3)


def test_entropy_words_below_two_to_the_32():
    # numpy coerces such a word to one uint32, so its row mixes fewer words;
    # a SHA-256 word is that small with probability 2**-32, so the rows are made up
    words = np.array(
        [[5, 2**40, 0, 2**63 + 7], [2**33, 1, 2**64 - 1, 12], [2**40, 2**41, 2**42, 2**43]],
        dtype=np.uint64,
    )
    for seed in (0, 7, 2**40):
        expected = [
            np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=[seed, *map(int, row)]))
            ).random(6)
            for row in words
        ]
        assert np.array_equal(_philox_random(_entropy_keys(seed, words), 6), np.stack(expected))


# a word below 2**32 (0 included) is one uint32 to numpy, a larger one two
WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    rows=st.lists(st.lists(WORDS, min_size=4, max_size=4), max_size=8),
)
def test_entropy_keys_match_seed_sequence_property(seed, rows):
    words = np.array(rows, dtype=np.uint64).reshape(len(rows), 4)
    expected = [np.random.SeedSequence([seed, *row]).generate_state(2, np.uint64) for row in rows]
    assert np.array_equal(_entropy_keys(seed, words), np.reshape(expected, (len(rows), 2)))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        uniforms(-1, ["x"], 2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    labels=st.lists(st.text(max_size=12), max_size=6),
    n=st.integers(1, 10),
)
def test_uniforms_match_stream_property(seed, labels, n):
    got = uniforms(seed, labels, n)
    assert got.shape == (len(labels), n)
    if labels:
        assert np.array_equal(got, reference(seed, labels, n))
