"""Seeded deterministic random streams.

A :class:`RandomStream` is a Mersenne Twister generator with a fixed 64-bit
seed; the single-step API and straight simulation draw from it. Trials of the
randomized-restart sampler draw from counter-based child streams instead
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
Trial j of a stream seeded ``seed`` has the seed
``s_j = derive_stream_seed(seed, j)``, and its draw k (k = 1, 2, ...) is

    (splitmix64((s_j + k * 0x9E3779B97F4A7C15) mod 2^64) >> 11) * 2^-53,

the output sequence of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) started
at s_j. Every draw is a pure function of (s_j, k), so :func:`counter_draws`
computes any draws of any trials at once on numpy ``uint64`` arrays.
:meth:`RandomStream.spawn` returns a :class:`CounterStream` that yields the
same draws one at a time, and :func:`counter_streams` yields them for many
trials, the first draws of all of them made in one call.

:func:`twister_draws` makes the next ``random()`` draws of many Mersenne
Twister streams as one numpy array, from the words each stream's own
``getrandbits`` returns.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from .network import _is_index

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


# The constants as numpy scalars, made once: on a block of a few hundred
# draws, making them per call cost a third of the call.
_GOLDEN_U = np.uint64(_GOLDEN)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))

#: Size of a :class:`CounterStream`'s first and largest blocks of draws.
_FIRST_DRAWS = 256
_MOST_DRAWS = 4096


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a ``uint64`` array, in place."""
    x ^= x >> _U30
    x *= _MIX1_U
    x ^= x >> _U27
    x *= _MIX2_U
    x ^= x >> _U31
    return x


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Seed of the index-th child stream of a stream seeded with master_seed.
    Refuses a master seed or an index that is not an integer (a bool is
    not) in [0, 2^64): the seed reduces both mod 2^64, so such a value
    would give another value's stream."""
    if not _is_index(master_seed) or not 0 <= master_seed < 1 << 64:
        raise ValueError(f"master seed {master_seed!r} is not an integer in [0, 2^64)")
    if not _is_index(index) or not 0 <= index < 1 << 64:
        raise ValueError(f"stream index {index!r} is not an integer in [0, 2^64)")
    return _splitmix64((int(master_seed) + (int(index) + 1) * _GOLDEN) & _MASK64)


def derive_stream_seeds(master_seed: int, first: int, stop: int) -> np.ndarray:
    """``derive_stream_seed(master_seed, j)`` for j in [first, stop), as
    ``uint64``."""
    steps = np.arange(first + 1, stop + 1, dtype=np.uint64) * _GOLDEN_U
    return _mix(steps + np.uint64(master_seed & _MASK64))


def counter_draws(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Draw number ``counters`` of the child streams seeded ``seeds``
    (broadcast together, both ``uint64``), as floats in [0, 1)."""
    x = _mix(seeds + counters * _GOLDEN_U)
    x >>= _U11
    return x * 2.0**-53  # exact: x < 2^53


def _blocks(seed: np.uint64, first: int, size: int):
    """Draws first, first + 1, ... of the child stream seeded ``seed``, in
    blocks whose size doubles from ``size`` to ``_MOST_DRAWS``."""
    while True:
        counters = np.arange(first, first + size, dtype=np.uint64)
        yield memoryview(counter_draws(seed, counters))  # yields Python floats
        first += size
        size = min(2 * size, _MOST_DRAWS)


def counter_streams(seeds: np.ndarray, ahead: int):
    """The ``random`` of each child stream seeded ``seeds`` (``uint64``), in
    order, each yielding the draws :class:`CounterStream` yields. The first
    ``ahead`` draws of all of them (at most ``_MOST_DRAWS`` each) are made
    in one numpy call, which for short trials costs less than a call per
    stream."""
    ahead = min(ahead, _MOST_DRAWS)
    rows = counter_draws(seeds[:, None], np.arange(1, ahead + 1, dtype=np.uint64))
    size = min(max(2 * ahead, _FIRST_DRAWS), _MOST_DRAWS)  # doubling on from the first block
    for seed, row in zip(seeds, rows):
        blocks = itertools.chain((memoryview(row),), _blocks(seed, ahead + 1, size))
        yield itertools.chain.from_iterable(blocks).__next__


class CounterStream:
    """The draws of one child stream, in order: a ``random()`` that yields
    draw 1, 2, ... of the SplitMix64 sequence started at ``seed_value``.

    Draws are made by :func:`counter_draws` in blocks whose size doubles
    from ``_FIRST_DRAWS`` to ``_MOST_DRAWS``. Up to a few hundred draws a
    call costs about the same whatever its size, so the first block covers
    a trial of up to about 100 transitions in one call; doubling keeps the
    draws made and not used below those used, and a long trial pays numpy's
    call overhead rarely.
    """

    __slots__ = ("seed_value", "random")

    def __init__(self, seed: int):
        self.seed_value = int(seed) & _MASK64
        blocks = _blocks(np.uint64(self.seed_value), 1, _FIRST_DRAWS)
        self.random = itertools.chain.from_iterable(blocks).__next__

    def __repr__(self) -> str:
        return f"CounterStream(seed={self.seed_value})"


def twister_draws(streams: Sequence[random.Random], count: int) -> np.ndarray:
    """The next ``count`` ``random()`` draws of each of ``streams``, as
    (streams, count) floats, each stream moved as those calls move it. The
    array is laid out draw by draw (its transpose is C-contiguous), so the
    streams' draw i are adjacent.

    ``getrandbits(64 * count)`` reads the 2 * count words that count calls
    of ``random()`` read, first word least significant, and a draw is
    ``(a * 2^26 + b) / 2^53`` from its two words' top 27 and 26 bits, as
    ``random.Random.random`` makes it. Each stream's words are written into
    one array of words, shifted there in place, so the words and the draws
    are the only arrays of their size."""
    words = np.empty((len(streams), 2 * count), dtype="<u4")
    size = 8 * count
    view = memoryview(words.reshape(-1).view(np.uint8))
    for k, stream in enumerate(streams):
        view[k * size : (k + 1) * size] = stream.getrandbits(64 * count).to_bytes(size, "little")
    high, low = words[:, 0::2], words[:, 1::2]
    high >>= 5
    low >>= 6
    draws = high.T.astype(np.float64, order="C")
    draws *= 67108864.0
    draws += low.T
    draws *= 1.0 / 9007199254740992.0
    return draws.T


class RandomStream(random.Random):
    """Uniform [0, 1) stream with a recorded seed.

    Two streams built with the same seed produce identical draw sequences.
    The inherited ``random()`` method is the primitive every sampler in this
    package consumes; draws never equal 1.0.
    """

    def __init__(self, seed: int):
        self.seed_value = int(seed) & _MASK64
        super().__init__(self.seed_value)

    def spawn(self, index: int) -> CounterStream:
        """The index-th child stream, deterministic in (seed, index) and
        independent of this stream's position."""
        return CounterStream(derive_stream_seed(self.seed_value, index))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed_value})"
