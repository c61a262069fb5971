"""The lock-step walkers against the scalar trial loop, bit for bit.

``bnras_estimate`` must tally exactly what ``next_trial`` gives on the
spawned streams, trial by trial, whichever free nodes the blanket-table cap
tabulates and which it leaves gathered, and whatever the block size.
``bnras_estimates``, whose blocks may hold the trials of several streams,
must give each stream what ``bnras_estimate`` gives it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import bnras
from bnras import Evidence, RandomStream, chain
from bnras.rng import counter_draws, derive_stream_seeds

from conftest import evidence_sets, positive_networks, star_network

MASK = (1 << 64) - 1
SEEDS = (0, 7, 2**63 + 11)


def splitmix64_sequence(seed, count):
    """Independent transcription of SplitMix64: advance the state by the
    golden gamma, then mix; returns the first `count` outputs in [0, 1)."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z ^= z >> 31
        out.append((z >> 11) / 2**53)
    return out


def scalar_estimate(net, ev, trials, t, seed, stride=0):
    """Tallies and checkpoints of the per-trial loop over spawned streams."""
    free = [i for i, nd in enumerate(net.nodes) if nd.name not in ev]
    tally = [[0] * len(net.nodes[i].outcomes) for i in free]
    checkpoints = []
    mark, cum = stride, 0
    for j in range(trials):
        state = bnras.next_trial(net, ev, t, RandomStream(seed).spawn(j))
        for row, i in zip(tally, free):
            row[state[i]] += 1
        if stride > 0 and t > 0:
            cum += t
            while mark <= cum:
                probs = tuple(tuple(c / (j + 1) for c in row) for row in tally)
                checkpoints.append(bnras.Checkpoint(mark, j + 1, probs))
                mark += stride
    return tuple(tuple(row) for row in tally), tuple(checkpoints)


def assert_matches_scalar(net, ev, trials, t, seed, stride=0):
    est = bnras.bnras_estimate(net, ev, trials, t, RandomStream(seed), checkpoint_stride=stride)
    assert (est.tallies, est.checkpoints) == scalar_estimate(net, ev, trials, t, seed, stride)
    return est


def test_counter_draws_match_splitmix64_sequence():
    # draws cross the stream's block edges (after 256, 768, ..., 7936 draws)
    for seed in (0, 1, 12345, 2**63 + 11, MASK - 2, MASK):
        expected = splitmix64_sequence(seed, 9000)
        counters = np.arange(1, 9001, dtype=np.uint64)
        assert counter_draws(np.array([seed], dtype=np.uint64), counters).tolist() == expected
        assert counter_draws(np.uint64(seed), counters).tolist() == expected
        stream = RandomStream(seed)
        assert [stream.random() for _ in range(9000)] == expected


def test_spawned_stream_is_the_counter_sequence():
    # a spawned stream is a RandomStream, whose count of draws taken runs
    # on across its first block's edge (after 256 draws)
    master = RandomStream(2**64 - 5)
    for j in (0, 1, 4095, 10**6):
        seed = bnras.derive_stream_seed(master.seed_value, j)
        stream = master.spawn(j)
        assert type(stream) is RandomStream
        assert stream.seed_value == seed
        assert stream.getstate() == (seed, 0)
        assert [stream.random() for _ in range(300)] == splitmix64_sequence(seed, 300)
        assert stream.getstate() == (seed, 300)
    seeds = derive_stream_seeds(master.seed_value, 4090, 4100).tolist()
    assert seeds == [bnras.derive_stream_seed(master.seed_value, j) for j in range(4090, 4100)]


@pytest.mark.parametrize("seed", SEEDS)
def test_builtins_match_scalar_loop(nets, seed):
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_matches_scalar(net, ev, 120, 25, seed, stride=70)
            assert_matches_scalar(net, ev, 60, 0, seed, stride=5)


def assert_walks_match_trials(net, ev, t, seed, trials):
    """``_trial_blocks``' one block of values against ``_trial`` on each
    spawned stream."""
    tab, free, template = chain._prepare(net, ev)
    [(_, _, values)] = chain._trial_blocks(net, tab, free, template, t, [(seed, trials)])
    assert values.shape == (trials, len(free))
    for j, row in enumerate(values.tolist()):
        state = chain._trial(tab, free, template, t, RandomStream(seed).spawn(j).random)
        assert row == [state[i] for i in free]


@pytest.mark.parametrize("t", [0, 1, 2, 50])
def test_walk_rows_match_trials(nets, copy_net, empty, t):
    # copy_net's ternary nodes: a value can change by 2. PATH2 with B=t
    # leaves A free alone, with no free blanket, so no row ever changes.
    # MINIALARM's blankets differ in size, so most neighbour lists are padded
    path2_b = (nets["PATH2"], bnras.parse_evidence("B=t", nets["PATH2"]))
    for net, ev in ((copy_net, empty), path2_b, (nets["MINIALARM"], empty)):
        assert_walks_match_trials(net, ev, t, 2**63 + 11, 300)


@pytest.mark.parametrize("evidence", ["", "ALARM=t"])
def test_walk_memory(minialarm, evidence):
    # a block of 4096 walkers holds its values, its blanket rows and one
    # member column of them while it makes the rows: the tracemalloc peak
    # stays at most 1.1 MB, one (4096, 7) intp array above the 0.85 MB of
    # walkers that kept no rows (ALARM=t; 0.96 MB with 8 free nodes)
    tab, free, template = chain._prepare(minialarm, bnras.parse_evidence(evidence, minialarm))
    tables = chain._blanket_tables(tab, free, template)
    seeds = derive_stream_seeds(2**63 + 11, 0, 4096)
    tables.walk(1, seeds)  # makes what the walk keeps on the tables
    tracemalloc.start()
    try:
        tables.walk(100, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_100_000


def test_just_past_one_block(minialarm, empty):
    assert_matches_scalar(minialarm, empty, chain._BLOCK + 1, 2, 3, stride=4097)
    assert_matches_scalar(minialarm, empty, chain._BLOCK + 50, 1, 4)


@pytest.mark.parametrize("setting", [
    pytest.param({}, id="default"),
    pytest.param({"_BLANKET_CAP": 1}, id="cap-1"),  # every node gathered but one-row tables
    pytest.param({"_BLANKET_CAP": 8}, id="cap-8"),  # MINIALARM's nodes of 4 and 8 rows tabulated
    pytest.param({"_BLOCK": 7}, id="block-7"),  # the last block of 3
    pytest.param({"_BLOCK": 64}, id="block-64"),
])
def test_selection_and_block_size_do_not_change_bits(monkeypatch, nets, setting):
    for name, value in setting.items():
        monkeypatch.setattr(chain, name, value)
    for name in ("CHAIN5", "MINIALARM"):
        net = nets[name]
        for ev in evidence_sets(net):
            assert_matches_scalar(net, ev, 150, 12, 2**63 + 11, stride=100)


def test_zero_weights_that_never_conflict(monkeypatch, copy_net, empty):
    # tabulated, then gathered: C, binary among ternary nodes, reads a
    # padded third outcome that must weigh 0
    for cap in (chain._BLANKET_CAP, 1):
        monkeypatch.setattr(chain, "_BLANKET_CAP", cap)
        for ev in (empty, Evidence({"C": 1}), Evidence({"B": 2})):
            for seed in SEEDS:
                est = assert_matches_scalar(copy_net, ev, 300, 9, seed, stride=500)
                assert sum(est.tallies[0]) == 300
        assert_matches_scalar(copy_net, empty, 5, 30, 1)


def test_conflict_names_lowest_trial_and_node(monkeypatch, and_gate, empty):
    for seed in SEEDS:
        expected = None
        for j in range(200):
            try:
                bnras.next_trial(and_gate, empty, 10, RandomStream(seed).spawn(j))
            except bnras.DeterministicConflictError as exc:
                expected = (exc.node, f"in trial {j} of seed {seed};")
                break
        assert expected is not None
        for cap in (chain._BLANKET_CAP, 1):  # A and C gathered, then B too
            monkeypatch.setattr(chain, "_BLANKET_CAP", cap)
            with pytest.raises(bnras.DeterministicConflictError) as info:
                bnras.bnras_estimate(and_gate, empty, 200, 10, RandomStream(seed))
            assert info.value.node == expected[0]
            name = and_gate.nodes[expected[0]].name
            assert str(info.value).startswith(
                f"all conditional weights of node {name} are zero {expected[1]}")


def test_no_free_nodes(ab):
    clamped = Evidence({"A": 0, "B": 1})
    assert bnras.bnras_estimate(ab, clamped, 3, 0, RandomStream(1)).tallies == ()
    with pytest.raises(ValueError, match="no free nodes"):
        bnras.bnras_estimate(ab, clamped, 3, 2, RandomStream(1))
    with pytest.raises(ValueError, match="no free nodes"):
        bnras.next_trial(ab, clamped, 2, RandomStream(1))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_positive_networks_match_scalar_loop(case):
    net, ev = case
    assert_matches_scalar(net, ev, 60, 6, 2**63 + 11, stride=50)


@pytest.mark.parametrize("cap", [1, 10**9])  # every node gathered, then tabulated
def test_past_64_free_nodes(monkeypatch, layered300, empty, cap):
    monkeypatch.setattr(chain, "_BLANKET_CAP", cap)
    tab, free, template = chain._prepare(layered300, empty)
    assert (chain._blanket_tables(tab, free, template).gathered is None) == (cap > 1)
    assert_matches_scalar(layered300, empty, 60, 40, 2**63 + 11, stride=1000)


def assert_batch_matches_single(net, ev, trials, t, seeds, stride=0):
    """``bnras_estimates`` on the seeds' streams against ``bnras_estimate``
    on each, stream by stream, and the first stream against the per-trial
    loop."""
    batch = bnras.bnras_estimates(net, ev, trials, t, [RandomStream(s) for s in seeds],
                                  checkpoint_stride=stride)
    assert len(batch) == len(seeds)
    for seed, est in zip(seeds, batch):
        one = bnras.bnras_estimate(net, ev, trials, t, RandomStream(seed), checkpoint_stride=stride)
        assert (est.tallies, est.probs, est.checkpoints, est.trials, est.total_transitions) == \
            (one.tallies, one.probs, one.checkpoints, one.trials, one.total_transitions)
    assert (batch[0].tallies, batch[0].checkpoints) == \
        scalar_estimate(net, ev, trials, t, seeds[0], stride)
    return batch


BATCH_SEEDS = (2**63 + 11, 0, 7, 0, 5)  # a seed twice: its runs are equal


@pytest.mark.parametrize("setting", [
    {},  # 20 trials a stream: one block, alone and together (100 walkers)
    {"_BLOCK": 7},  # 3 trials a stream: a block holds pieces of three runs
    {"_BLOCK": 64},  # 20 trials a stream: pieces of four runs
    {"_BLANKET_CAP": 8},  # MINIALARM's nodes of 4 and 8 rows tabulated, the others gathered
    {"_BLOCK": 7, "_BLANKET_CAP": 1},  # as the last, in pieces of three runs
    {"_BLANKET_CAP": 1},  # every node gathered but one-row tables
])
def test_batches_match_single_streams(monkeypatch, nets, setting):
    for name, value in setting.items():
        monkeypatch.setattr(chain, name, value)
    for net in nets.values():
        for ev in evidence_sets(net):
            # marks at 7, 14, ... transitions fall inside blocks that straddle runs
            for trials, t, stride in ((3, 4, 7), (20, 3, 7), (20, 0, 5), (60, 1, 13)):
                assert_batch_matches_single(net, ev, trials, t, BATCH_SEEDS, stride)
            assert_batch_matches_single(net, ev, 9, 2, BATCH_SEEDS[:1], stride=3)


@pytest.mark.parametrize("setting", [
    {},
    {"_BLOCK": 7},  # a block holds pieces of several runs
    {"_BLANKET_CAP": 1},  # every node gathered but one-row tables
])
def test_one_trial_crosses_several_marks(monkeypatch, nets, setting):
    # a stride below t: one trial crosses two or more checkpoint marks
    for name, value in setting.items():
        monkeypatch.setattr(chain, name, value)
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_matches_scalar(net, ev, 60, 25, 2**63 + 11, stride=7)
            assert_batch_matches_single(net, ev, 20, 9, BATCH_SEEDS, stride=4)


def test_batch_of_one_and_of_none(minialarm, empty):
    seed = 2**63 + 11
    trials = chain._BLOCK + 50
    assert_batch_matches_single(minialarm, empty, trials, 2, (seed,), stride=4097)
    assert bnras.bnras_estimates(minialarm, empty, 10, 2, []) == []


def test_straight_batch_of_none(minialarm, empty):
    assert bnras.straight_estimates(minialarm, empty, 10, []) == []


def test_batch_timing_is_shared(minialarm, empty):
    batch = bnras.bnras_estimates(minialarm, empty, 100, 5, [RandomStream(s) for s in range(4)])
    assert len({(est.cpu_seconds, est.wall_seconds) for est in batch}) == 1


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_positive_networks_batches_match_single_streams(case):
    net, ev = case
    assert_batch_matches_single(net, ev, 20, 6, BATCH_SEEDS, stride=50)


@pytest.mark.parametrize("setting", [
    {}, {"_BLANKET_CAP": 1}, {"_BLOCK": 1}, {"_BLOCK": 7},
])
def test_batch_conflict_names_first_stream_in_order(monkeypatch, and_gate, empty, setting):
    # three trials of two transitions: seeds 4 and 6 never conflict, 8, 5 and
    # 1 do; the batch names seed 8, the first in stream order, not the least
    for name, value in setting.items():
        monkeypatch.setattr(chain, name, value)
    seeds = (4, 6, 8, 5, 1)
    expected = None
    for seed in seeds:
        try:
            bnras.bnras_estimate(and_gate, empty, 3, 2, RandomStream(seed))
        except bnras.DeterministicConflictError as exc:
            expected = str(exc)
            break
    assert expected is not None and "in trial 2 of seed 8;" in expected
    with pytest.raises(bnras.DeterministicConflictError) as info:
        bnras.bnras_estimates(and_gate, empty, 3, 2, [RandomStream(s) for s in seeds])
    assert str(info.value) == expected


def test_mixed_tables_match_scalar_loop(monkeypatch, minialarm):
    # at a cap of 8 rows MINIALARM's nodes of 4 and 8 rows are tabulated and
    # those of 16 and 32 gathered, so one lock step reads both kinds
    monkeypatch.setattr(chain, "_BLANKET_CAP", 8)
    tab, free, template = chain._prepare(minialarm, Evidence.empty())
    assert (chain._blanket_tables(tab, free, template).gathered[0] >= 0).sum() == 4
    for ev in evidence_sets(minialarm):
        assert_walks_match_trials(minialarm, ev, 60, 2**63 + 11, 200)
        assert_matches_scalar(minialarm, ev, 150, 30, 5, stride=100)
        assert_batch_matches_single(minialarm, ev, 20, 9, BATCH_SEEDS, stride=4)


def test_wide_hub_matches_scalar_loop(hub13, empty):
    # 13 parents of one hub: with no evidence every blanket table would have
    # 8192 rows, past the cap, so every node is gathered and draws from the
    # hub's table; clamping the hub or a parent leaves tables of 4096
    hub = hub13
    tab, free, template = chain._prepare(hub, empty)
    assert (chain._blanket_tables(tab, free, template).gathered[0] >= 0).all()
    for ev in (empty, Evidence({"H": 1}), Evidence({"P3": 0})):
        assert_walks_match_trials(hub, ev, 40, 2**63 + 11, 60)
        assert_matches_scalar(hub, ev, 40, 30, 7, stride=100)


def test_wide_star_matches_scalar_loop(empty):
    # a root of 70 children: its blanket would have 2^70 rows, so it is
    # gathered, and each child, of two rows, tabulated
    star = star_network(70)
    tab, free, template = chain._prepare(star, empty)
    assert (chain._blanket_tables(tab, free, template).gathered[0] >= 0).sum() == 1
    for ev in (empty, Evidence({"C5": 1})):
        assert_walks_match_trials(star, ev, 40, 2**63 + 11, 200)
        assert_matches_scalar(star, ev, 40, 30, 7, stride=100)


def test_samplers_reach_no_scalar_step(monkeypatch, nets, and_gate, hub13, empty):
    # both samplers run every trial and chain in lock step: on tabulated
    # nodes, on gathered ones (the hub), and on dead rows (the AND gate)
    def scalar(*args):
        raise AssertionError("a scalar step ran")

    monkeypatch.setattr(chain, "_trial", scalar)
    monkeypatch.setattr(chain, "_resample", scalar)
    for net in (*nets.values(), hub13, and_gate):
        for ev in evidence_sets(net):
            streams = [RandomStream(s) for s in (3, 4)]
            for run in (lambda: bnras.bnras_estimates(net, ev, 30, 20, streams),
                        lambda: bnras.straight_estimates(net, ev, 300, streams)):
                try:
                    run()
                except bnras.DeterministicConflictError:
                    assert net is and_gate
