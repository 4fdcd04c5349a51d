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


# First draws of every numpy sampler a run calls, each from a fresh stream of
# one fixed key. The pinned manifest hashes depend on these algorithms; when a
# hash moves and this test fails too, numpy's samplers moved, not the code.
# Where numpy picks an algorithm by the parameters, both sides are pinned.
KNOWN_DRAWS = [
    ("binomial", lambda g: g.binomial([3, 40, 5000], 0.3), [1, 14, 1520]),
    ("multivariate_hypergeometric count",
     lambda g: g.multivariate_hypergeometric([4, 9, 2, 7], 10, method="count"), [3, 4, 1, 2]),
    ("multivariate_hypergeometric marginals",
     lambda g: g.multivariate_hypergeometric([400, 900, 200, 700], 1000, method="marginals"),
     [189, 390, 91, 330]),
    ("hypergeometric", lambda g: g.hypergeometric([5, 600], [7, 900], [6, 700]), [3, 276]),
    ("integers", lambda g: g.integers(0, 1000, 4), [962, 637, 128, 793]),
    ("normal", lambda g: g.normal(2.0, 3.0, 3),
     [2.143508062234755, 0.14611936844928541, 6.307800823774926]),
    ("standard_normal", lambda g: g.standard_normal(3),
     [0.04783602074491836, -0.6179602105169049, 1.4359336079249754]),
    ("random", lambda g: g.random(3), [0.6378970227582859, 0.7932979646438517, 0.3609578331268727]),
    ("uniform", lambda g: g.uniform(1.0, 2.0, 3),
     [1.6378970227582859, 1.7932979646438518, 1.3609578331268728]),
    ("choice sparse", lambda g: g.choice(10_000, 5, replace=False),
     [5149, 1286, 7932, 9622, 6377]),
    ("choice dense", lambda g: g.choice(20, 15, replace=False),
     [16, 11, 13, 9, 7, 0, 17, 5, 18, 1, 14, 19, 4, 2, 3]),
]


@pytest.mark.parametrize("draw,expected", [d[1:] for d in KNOWN_DRAWS],
                         ids=[d[0] for d in KNOWN_DRAWS])
def test_numpy_sampler_known_answers(draw, expected):
    got = draw(substream(2024, 5, 3)).tolist()
    if isinstance(expected[0], int):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=1e-12)
