"""Stream derivation: ``substream`` is numpy's own SeedSequence-seeded PCG64."""
import pickle

import numpy as np
import pytest

from firmgrowth import rng
from firmgrowth.rng import substream


def reference(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def assert_same_stream(got, expected):
    assert got.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(got.integers(0, 2**63, 8), expected.integers(0, 2**63, 8))
    assert np.array_equal(got.random(4), expected.random(4))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
HEADS = [(), (0,), (4,), (2**32 - 1,), (2**32, 7), (1, 2**40)]
# Both sides of the first block edges, and the last one-word iterations.
TIMES = [0, 1, rng._BLOCK - 1, rng._BLOCK, 2 * rng._BLOCK - 1, 2 * rng._BLOCK,
         12_345, 2**32 - rng._BLOCK - 1, 2**32 - rng._BLOCK, 2**32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("head", HEADS, ids=str)
def test_substream_matches_seed_sequence(seed, head):
    rng._blocks.clear()
    for t in TIMES:
        for _ in range(2):  # the first call builds a block, the second reads it
            assert_same_stream(substream(seed, *head, t), reference(seed, *head, t))
    assert (seed, *head) in rng._blocks


@pytest.mark.parametrize("t", [2**32, 2**32 + 5, 2**64 - 1])
def test_wide_last_key_part_falls_back_to_seed_sequence(t):
    rng._blocks.clear()
    for _ in range(2):
        assert_same_stream(substream(9, 2, t), reference(9, 2, t))
    assert not rng._blocks


def test_seed_only_and_integral_key_types():
    assert_same_stream(substream(7), reference(7))
    for _ in range(2):
        assert_same_stream(substream(np.int64(7), np.uint32(3), 5.0), reference(7, 3, 5))


def test_negative_parts_are_rejected_without_a_block():
    rng._blocks.clear()
    for key in [(-1, 0, 3), (1, -2, 3)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                substream(*key)
    assert not rng._blocks


def test_remembered_prefixes_are_bounded():
    rng._blocks.clear()
    for seed in range(3 * rng._MAX_HEADS):
        substream(seed, 0, 1)
        substream(seed, 0, 2)
    assert len(rng._blocks) == rng._MAX_HEADS
    assert_same_stream(substream(0, 0, 3), reference(0, 0, 3))


def test_block_generator_pickles():
    substream(3, 1, 10)
    gen = substream(3, 1, 11)
    assert_same_stream(pickle.loads(pickle.dumps(gen)), reference(3, 1, 11))
