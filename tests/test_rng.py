import re

import numpy as np
import pytest

import bnras
from bnras.rng import _splitmix64


def test_same_seed_same_sequence():
    a = bnras.RandomStream(12345)
    b = bnras.RandomStream(12345)
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_different_seeds_differ():
    a = bnras.RandomStream(1)
    b = bnras.RandomStream(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_draws_in_unit_interval():
    rng = bnras.RandomStream(7)
    for _ in range(10000):
        u = rng.random()
        assert 0.0 <= u < 1.0


def test_spawn_deterministic_and_distinct():
    rng = bnras.RandomStream(42)
    kids = [rng.spawn(i) for i in range(8)]
    again = [bnras.RandomStream(42).spawn(i) for i in range(8)]
    seeds = [k.seed_value for k in kids]
    assert seeds == [k.seed_value for k in again]
    assert len(set(seeds)) == 8
    assert kids[0].random() == again[0].random()


def test_spawn_independent_of_parent_state():
    rng = bnras.RandomStream(42)
    rng.random()
    rng.random()
    assert rng.spawn(3).seed_value == bnras.RandomStream(42).spawn(3).seed_value


def test_derive_stream_seed_matches_spawn():
    master = bnras.RandomStream(99)
    assert master.spawn(5).seed_value == bnras.derive_stream_seed(99, 5)


def test_splitmix_mixes_against_reference():
    # independent transcription of the SplitMix64 finalizer
    def finalizer(x):
        mask = (1 << 64) - 1
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return (x ^ (x >> 31)) & mask

    for value in (0, 1, 2**32, 2**63 + 17):
        assert _splitmix64(value) == finalizer(value)


def test_random_stream_refuses_a_seed_outside_the_streams():
    # -1 would give 2^64 - 1's draws, 2^70 + 123 123's, True 1's
    for seed in (-1, 2**64, (1 << 70) + 123, True, False, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"seed {re.escape(repr(seed))} is not an "
                                             r"integer in \[0, 2\^64\)"):
            bnras.RandomStream(seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
        assert bnras.RandomStream(seed).seed_value == int(seed)


def test_spawn_refuses_an_index_outside_the_streams():
    # each index in [0, 2^64) has its own stream; 2^64 would give index 0's,
    # True index 1's
    rng = bnras.RandomStream(7)
    for index in (-1, 2**64, 2**70 + 1, True, False, 1.5, 1.0, "1", None):
        for refuse in (rng.spawn, lambda j: bnras.derive_stream_seed(7, j)):
            with pytest.raises(ValueError, match=f"stream index {re.escape(repr(index))} "):
                refuse(index)
    for index in (0, 1, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
        assert rng.spawn(index).seed_value == bnras.derive_stream_seed(7, int(index))
    assert rng.spawn(2**64 - 1).seed_value != rng.spawn(0).seed_value


def test_derive_stream_seed_refuses_a_master_seed_outside_the_streams():
    # -1 would give 2^64 - 1's streams, True 1's
    for seed in (-1, 2**64, True, False, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"master seed {re.escape(repr(seed))} is not an "
                                             r"integer in \[0, 2\^64\)"):
            bnras.derive_stream_seed(seed, 0)
    for seed in (0, 1, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
        assert bnras.derive_stream_seed(seed, 5) == bnras.RandomStream(int(seed)).spawn(5).seed_value
    assert bnras.derive_stream_seed(2**64 - 1, 0) != bnras.derive_stream_seed(0, 0)
