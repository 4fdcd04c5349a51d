"""Deterministic random-stream derivation for reproducible simulations.

``substream(seed, *key)`` is ``Generator(PCG64(SeedSequence(seed,
spawn_key=key)))``. The run loop asks for one stream per stage and
iteration, with the iteration as the key's last part, and hashing each
``SeedSequence`` on its own costs more than drawing from the stream. So
the first call of a ``(seed, head)`` prefix of a key computes the seeding
words of a block of consecutive last parts together: numpy's
``SeedSequence`` hash is restated below over uint32 arrays, and each
generator gets its words from a precomputed row. The words, hence every
draw, are numpy's own. A key that no block holds (none, or a last part
wider than one uint32 word) is seeded by ``SeedSequence`` itself.
"""
from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool of 4 words).
# Its hash constants advance the same way whatever words it hashes, so every
# entropy word but the last (the iteration) is hashed once, on Python ints.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
_POOL = 4

_BLOCK = 256      # last key parts seeded together; 8 KiB of words
_MAX_HEADS = 64   # (seed, head) prefixes remembered, oldest dropped first
# Prefix -> (first last part, words) of its block. Every entry is a pure
# function of its key: what the cache holds changes what a call costs, never
# the stream it returns.
_blocks: dict[tuple[int, ...], tuple[int, np.ndarray]] = {}


def _int_words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as numpy splits it."""
    words = [n & _MASK]
    while n > _MASK:
        n >>= 32
        words.append(n & _MASK)
    return words


def _hashmix(value, const: int):
    """(hashed value, next hash constant); ``value`` is an int or uint32 array."""
    value = value ^ const
    const = const * _MULT_A & _MASK
    value = value * const & _MASK
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return r ^ r >> 16


def _seed_words(entropy: list) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` for each element of the
    uint32 array that ends ``entropy``, one row of 4 words each.

    ``entropy`` holds more than 4 words, all ints but that last one."""
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)

    state = []
    const = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK
        value = value * const & _MASK
        state.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


@functools.cache
def _seeded_type():
    # Imported on the first block, so that importing this module leaves
    # numpy.random unloaded.
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        """Precomputed ``generate_state(4, uint64)`` words for PCG64."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise NotImplementedError("only PCG64's 4 uint64 seeding words are stored")
            return self.words

        def __reduce__(self):  # a pickled generator carries its seed sequence
            return _seeded, (self.words,)

    return Seeded


def _seeded(words: np.ndarray):
    return _seeded_type()(words)


def _block(seed: int, head: tuple[int, ...], start: int) -> tuple[int, np.ndarray]:
    """Seeding words for the keys ``(*head, t)``, ``t`` in ``[start, start + _BLOCK)``.

    A spawn key pads the run entropy to the pool size, so the last key part
    is hashed after the pool is full, as the last entropy word."""
    run_words = _int_words(seed)
    run_words += [0] * (_POOL - len(run_words))
    entropy = [*run_words, *(w for k in head for w in _int_words(k)),
               np.arange(start, start + _BLOCK, dtype=np.uint32)]
    return start, _seed_words(entropy)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, key) pair.

    Streams are derived from the master seed plus a structural key (stream id,
    iteration index, ...) instead of by sequential draws, so consuming more or
    fewer values in one stream never shifts the values seen by another. This
    keeps e.g. the replacement draws identical when the allocation mode of the
    market changes.
    """
    seed = int(seed)
    key = tuple(map(int, key))
    if not key or key[-1] > _MASK or min(seed, *key) < 0:
        # SeedSequence rejects a negative seed or key part before any block
        # is remembered.
        ss = np.random.SeedSequence(seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))
    head, t = (seed, *key[:-1]), key[-1]
    block = _blocks.get(head)
    if block is None or not 0 <= t - block[0] < _BLOCK:
        if block is None and len(_blocks) >= _MAX_HEADS:
            _blocks.pop(next(iter(_blocks)))
        block = _blocks[head] = _block(seed, key[:-1], t - t % _BLOCK)
    start, words = block
    return np.random.Generator(np.random.PCG64(_seeded(words[t - start])))
