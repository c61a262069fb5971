"""Seeded deterministic random streams.

Every draw in this package is one of a SplitMix64 sequence (Steele, Lea &
Flood, OOPSLA 2014) read as a counter stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011). Draw k (k = 1, 2, ...) of
the stream seeded s is

    (splitmix64((s + k * 0x9E3779B97F4A7C15) mod 2^64) >> 11) * 2^-53,

a pure function of (s, k), so :func:`counter_draws` makes any draws of any
streams at once, which is how the lock-step samplers draw. One class holds
a stream: :class:`RandomStream`, whose ``random`` is the C-level
``__next__`` of a chain of blocks that one generator makes, and whose
count of draws taken lets a lock-step batch claim its next draws and make
them itself. :meth:`RandomStream.spawn` gives trial j the stream seeded
``derive_stream_seed(seed, j)``, whose seeds :func:`derive_stream_seeds`
makes for many trials at once.
"""

from __future__ import annotations

import itertools
import operator

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

#: Size of a stream's first and largest blocks of draws. Up to a few
#: hundred draws a numpy call costs about the same whatever its size, so
#: the first block covers a trial of up to about 100 transitions in one
#: call; doubling keeps the draws made and not used below those used.
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


def _require_u64(value, what: str) -> int:
    """``value`` as an int, refused unless it is an integer (a bool is not)
    in [0, 2^64): reduced mod 2^64, another would give another's stream."""
    if not _is_index(value) or not 0 <= value < 1 << 64:
        raise ValueError(f"{what} {value!r} is not an integer in [0, 2^64)")
    return int(value)


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Seed of the index-th child stream of a stream seeded with master_seed.
    Refuses a master seed or an index that is not an integer (a bool is
    not) in [0, 2^64)."""
    master_seed = _require_u64(master_seed, "master seed")
    index = _require_u64(index, "stream index")
    return _splitmix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


def derive_stream_seeds(master_seed: int, first: int, stop: int) -> np.ndarray:
    """``derive_stream_seed(master_seed, j)`` for j in [first, stop), as
    ``uint64``."""
    steps = np.arange(first + 1, stop + 1, dtype=np.uint64) * _GOLDEN_U
    return _mix(steps + np.uint64(master_seed & _MASK64))


def counter_draws(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Draw number ``counters`` of the streams seeded ``seeds`` (broadcast
    together, both ``uint64``, one at least an array), as floats in [0, 1).
    The draws are made in one ``uint64`` array, turned into the floats in
    place (``copyto`` copies the words first, as they overlap)."""
    x = _mix(seeds + counters * _GOLDEN_U)
    x >>= _U11
    draws = x.view(np.float64)
    np.copyto(draws, x.view(np.int64), casting="unsafe")  # exact: x < 2^53
    draws *= 2.0**-53
    return draws


def _draw_blocks(seed: int, made: list):
    """The blocks of draws of the stream seeded ``seed`` after the
    ``made[1]`` draws made so far, doubling from ``_FIRST_DRAWS`` up to
    ``_MOST_DRAWS``, each an iterator over a list of its draws, whose
    remaining length gives the draws taken, put in ``made`` = [block,
    draws made] as it is made."""
    drawn, size = made[1], _FIRST_DRAWS // 2
    while True:
        size = min(2 * size, _MOST_DRAWS)
        counters = np.arange(drawn + 1, drawn + size + 1, dtype=np.uint64)
        draws = counter_draws(np.uint64(seed), counters).tolist()
        made[:] = block, drawn = iter(draws), drawn + size
        yield block


class RandomStream:
    """Uniform [0, 1) stream with a recorded seed, which must be an integer
    (a bool is not) in [0, 2^64): draw k (k = 1, 2, ...) is
    ``counter_draws(seed, k)``, made in blocks of ``_FIRST_DRAWS`` doubling
    to ``_MOST_DRAWS``, and the state is (seed, draws taken). ``random()``
    is the primitive every sampler in this package consumes; draws never
    equal 1.0."""

    __slots__ = ("seed_value", "_made", "_next")

    def __init__(self, seed: int):
        self.seed_value = _require_u64(seed, "seed")
        self._restart(0)

    def _restart(self, drawn: int) -> None:
        """Draw next from draw ``drawn`` + 1 on."""
        self._made = made = [iter(()), drawn]
        self._next = itertools.chain.from_iterable(_draw_blocks(self.seed_value, made)).__next__

    #: The next draw's maker, read once by a hot loop; a subclass's own
    #: ``random()`` takes its place.
    random = property(operator.attrgetter("_next"))

    def getstate(self) -> tuple[int, int]:
        """The stream's seed and the draws it has taken."""
        block, drawn = self._made
        return self.seed_value, drawn - operator.length_hint(block)

    def _claim(self, count: int) -> int:
        """Move past the next ``count`` draws, returning the seed b whose
        draws ``counter_draws(b, 1..count)`` they are: b = seed + d *
        0x9E3779B97F4A7C15 mod 2^64, d the draws taken before."""
        seed, drawn = self.getstate()
        self._restart(drawn + count)
        return (seed + drawn * _GOLDEN) & _MASK64

    def spawn(self, index: int) -> RandomStream:
        """The index-th child stream, deterministic in (seed, index) and
        independent of this stream's position."""
        return RandomStream(derive_stream_seed(self.seed_value, index))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed_value})"
