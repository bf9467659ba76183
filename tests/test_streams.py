"""Block-computed random streams against ``numpy.random.default_rng``."""

from __future__ import annotations

import numpy as np
import pytest

from slicekit import streams

# Zero, one 32-bit word, two words, three words and four words of seed.
SEEDS = [0, 12345, 2**32 - 1, 2**32 + 5, 2**64 + 9, 2**100 + 1]
# Step ranges below 2**32, and one crossing it, where k gains a second
# entropy word and the helper has to split its block.
RANGES = [(0, 40), (2**32 - 4, 2**32 + 4), (2**40, 2**40 + 3)]


def reference(seed, k, stream):
    return np.random.default_rng([seed, k, stream])


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("start, stop", RANGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_words_and_doubles_match_default_rng(seed, start, stop, stream):
    block = streams.words(seed, start, stop, stream, 6)
    assert block.shape == (stop - start, 6) and block.dtype == np.uint64
    doubles = streams.doubles(block)
    for row, k in enumerate(range(start, stop)):
        assert np.array_equal(block[row], reference(seed, k, stream).bit_generator.random_raw(6))
        assert np.array_equal(doubles[row], reference(seed, k, stream).uniform(0.0, 1.0, size=6))


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_integers_match_default_rng(seed, gated):
    # The update stream's order: a uniform() when gated, then integers(n).
    start, stop = 2**32 - 20, 2**32 + 20
    block = streams.words(seed, start, stop, 1, 1 + gated)
    for n in range(1, 65):
        drawn = streams.integers(seed, start, 1, block, n)
        for row, k in enumerate(range(start, stop)):
            rng = reference(seed, k, 1)
            if gated:
                assert streams.doubles(block[row, 0]) == rng.uniform()
            assert drawn[row] == rng.integers(n)


@pytest.mark.parametrize("gated", [False, True])
def test_lemire_rejections_fall_back_to_the_generator(gated, monkeypatch):
    # 2**32 % n = 2**31 - 1: about half of the first 32-bit draws are
    # rejected, and those steps need more output than the block holds.
    n, seed, start, stop = 2**31 + 1, 99, 1000, 1064
    block = streams.words(seed, start, stop, 1, 1 + gated)
    built = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    drawn = streams.integers(seed, start, 1, block, n)
    monkeypatch.undo()
    assert 10 < len(built) < 54
    for row, k in enumerate(range(start, stop)):
        rng = reference(seed, k, 1)
        rng.uniform(size=int(gated))
        assert drawn[row] == rng.integers(n)


def test_one_value_range_draws_nothing():
    block = streams.words(3, 0, 5, 1, 1)
    assert np.array_equal(streams.integers(3, 0, 1, block, 1), np.zeros(5))


@pytest.mark.parametrize("start, stop", [(-1, 3), (5, 4), (0, 2**63 + 1)])
def test_bad_step_ranges_rejected(start, stop):
    with pytest.raises(ValueError):
        streams.words(0, start, stop, 0, 1)


@pytest.mark.parametrize("n", [0, 2**32])
def test_bad_ranges_rejected(n):
    with pytest.raises(ValueError):
        streams.integers(0, 0, 1, streams.words(0, 0, 2, 1, 1), n)


def test_empty_block():
    assert streams.words(7, 10, 10, 0, 4).shape == (0, 4)
