"""Straight simulation across seeds in lock step, against the scalar cyclic
scan, bit for bit.

``straight_estimates`` must give each seed exactly the tallies and
checkpoints of a chain stepped one transition at a time by ``straight_step``
on that seed's stream, and leave each stream where that chain leaves it,
whichever free nodes the blanket-table cap tabulates and which it leaves
gathered, and however its steps are chunked and cut into blocks.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import bnras
from bnras import Evidence, RandomStream, chain
from bnras.rng import counter_draws

from conftest import evidence_sets, layered_network, positive_networks, star_network

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
PANEL = (3, 0, 2**63 + 11, 17, 2**32, 5)


def scalar_chain(net, ev, total, seed, stride=0):
    """Tallies, checkpoints and final stream state of one chain stepped by
    the public single-step API, on ``RandomStream(seed)`` or on ``seed``
    itself if it is a stream."""
    rng = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    cs = bnras.init_random_state(net, ev, rng)
    tally = [[0] * len(net.nodes[i].outcomes) for i in cs.free]
    checkpoints = []
    for step in range(1, total + 1):
        bnras.straight_step(net, cs, rng)
        for row, i in zip(tally, cs.free):
            row[cs.state[i]] += 1
        if stride > 0 and step % stride == 0:
            probs = tuple(tuple(c / step for c in row) for row in tally)
            checkpoints.append(bnras.Checkpoint(step, step, probs))
    return tuple(tuple(row) for row in tally), tuple(checkpoints), rng.getstate()


def assert_matches_scalar(net, ev, total, seeds, stride=0):
    rngs = [RandomStream(s) for s in seeds]
    ests = bnras.straight_estimates(net, ev, total, rngs, checkpoint_stride=stride)
    got = [(e.tallies, e.checkpoints, r.getstate()) for e, r in zip(ests, rngs)]
    assert got == [scalar_chain(net, ev, total, s, stride) for s in seeds]
    for est in ests:
        assert est.trials == total and est.total_transitions == total
    return ests


class Scans(list):
    """Each chunk the lock step moves, in order, and ``lock_steps``, the
    steps of every scan since the last ``clear()``."""

    lock_steps = 0

    def clear(self):
        super().clear()
        self.lock_steps = 0


@pytest.fixture
def scans(monkeypatch):
    """Each chunk the lock step moves, in order: (lb, the columns of each
    scan, whether it kept its blocks) for a chunk moved in blocks of lb
    steps, (None, [chains], None) for a chunk moved by one scan; and the
    lock steps of all scans."""
    chunks, inside = Scans(), []
    scan, scan_blocks = chain._BlanketTables.scan, chain._BlanketTables.scan_blocks

    def spy_scan(self, outcomes, first, draws):
        chunks.lock_steps += len(draws)
        if inside:
            inside[-1].append(outcomes.shape[1])
        else:
            chunks.append((None, [outcomes.shape[1]], None))
        return scan(self, outcomes, first, draws)

    def spy_scan_blocks(self, outcomes, first, draws, lb):
        columns = []
        inside.append(columns)
        try:
            kept = scan_blocks(self, outcomes, first, draws, lb)
        finally:
            inside.pop()
        chunks.append((lb, columns, kept))
        return kept

    monkeypatch.setattr(chain._BlanketTables, "scan", spy_scan)
    monkeypatch.setattr(chain._BlanketTables, "scan_blocks", spy_scan_blocks)
    return chunks


def test_streams_yield_counter_draws():
    # one sequence, made two ways: a RandomStream's blocks (the first 256
    # draws, then doubling), and one call
    for seed in SEEDS:
        stream = RandomStream(seed)
        draws = [stream.random() for _ in range(2125)]
        assert draws == counter_draws(np.uint64(seed), np.arange(1, 2126, dtype=np.uint64)).tolist()
        assert stream.getstate() == (seed, 2125)


def advanced(seed, draws):
    """``RandomStream(seed)`` after ``draws`` draws."""
    stream = RandomStream(seed)
    for _ in range(draws):
        stream.random()
    return stream


def test_claims_from_different_positions():
    # stream k has taken 97 k draws: none, some of its first block or some
    # of its second. The first is claimed twice, its second claim starting
    # where its first ends, and each stream moves past its claims
    streams = [advanced(s, 97 * k) for k, s in enumerate(SEEDS)]
    copies = [advanced(s, 97 * k) for k, s in enumerate(SEEDS)]
    starts = np.array([s._claim(300) for s in [streams[0], *streams]], dtype=np.uint64)
    draws = counter_draws(starts[:, None], np.arange(1, 301, dtype=np.uint64))
    expected = [[copy.random() for _ in range(300)] for copy in [copies[0], *copies]]
    assert draws.tolist() == expected
    assert [s.getstate() for s in streams] == [c.getstate() for c in copies]
    assert [s.random() for s in streams] == [c.random() for c in copies]


def test_streams_at_different_positions(monkeypatch, nets, empty):
    # each chain claims its draws from where its stream stands, so such a
    # batch runs in lock step, each chain as the scalar chain runs it
    net = nets["MINIALARM"]
    streams = [advanced(seed, k) for k, seed in enumerate(PANEL)]
    copies = [advanced(seed, k) for k, seed in enumerate(PANEL)]

    def alone(*args):
        raise AssertionError("a chain ran on its own")

    with monkeypatch.context() as patch:
        patch.setattr(chain, "_resample", alone)
        ests = bnras.straight_estimates(net, empty, 300, streams, checkpoint_stride=70)
    got = [(e.tallies, e.checkpoints, s.getstate()) for e, s in zip(ests, streams)]
    assert got == [scalar_chain(net, empty, 300, copy, 70) for copy in copies]


def test_spawned_streams_move_in_lock_step(monkeypatch, nets, empty):
    # child streams are RandomStreams, whose draws a batch claims: they
    # move together, each as the scalar chain moves it
    def alone(*args):
        raise AssertionError("a chain ran on its own")

    for net in (nets["AB"], nets["MINIALARM"]):
        streams = [RandomStream(1).spawn(j) for j in range(3)]
        with monkeypatch.context() as patch:
            patch.setattr(chain, "_resample", alone)
            ests = bnras.straight_estimates(net, empty, 300, streams, checkpoint_stride=70)
        got = [(e.tallies, e.checkpoints, s.getstate()) for e, s in zip(ests, streams)]
        assert got == [scalar_chain(net, empty, 300, RandomStream(1).spawn(j), 70) for j in range(3)]


class Half(RandomStream):
    """A stream whose class overrides random()."""

    def random(self):
        return 0.25


def test_streams_that_override_random(nets, empty):
    # the chains draw their streams' counters, not their random(), so such
    # a stream is refused before any stream is claimed
    streams = [RandomStream(1), Half(2)]
    with pytest.raises(ValueError, match="a Half overrides random"):
        bnras.straight_estimates(nets["AB"], empty, 10, streams)
    with pytest.raises(ValueError, match="a Half overrides random"):
        bnras.straight_estimate(nets["AB"], empty, 10, Half(1))
    assert [s.getstate() for s in streams] == [(1, 0), (2, 0)]


def test_stream_given_twice(nets, empty, scans):
    # its second chain claims the draws after its first chain's, where the
    # calls one by one run it, so the batch runs in one lock step
    net = nets["MINIALARM"]
    shared, alone = RandomStream(5), RandomStream(5)
    ests = bnras.straight_estimates(net, empty, 300, [shared, RandomStream(6), shared],
                                    checkpoint_stride=70)
    expected = [scalar_chain(net, empty, 300, rng, 70)
                for rng in (alone, RandomStream(6), alone)]
    assert [(e.tallies, e.checkpoints) for e in ests] == [run[:2] for run in expected]
    assert shared.getstate() == alone.getstate() == (5, 2 * (8 + 300))
    # 300 steps of 8 free nodes: a warm-up, two blocks of 64 steps of the
    # three chains and one scan of the last 44
    assert scans == [(64, [6] * 3 + [3], True)]


@pytest.mark.parametrize("seeds", [PANEL, PANEL[:1]])
def test_builtins_match_scalar_chain(nets, seeds):
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_matches_scalar(net, ev, 400, seeds, stride=70)  # stride not dividing
            assert_matches_scalar(net, ev, 300, seeds, stride=5000)  # stride past the total


@pytest.mark.parametrize("setting", [
    pytest.param({"_BLOCK_SWEEPS": 1}, id="sweeps-1"),  # blocks of one sweep
    pytest.param({"_CHUNK": 1}, id="chunk-1"),  # one step per chunk
    pytest.param({"_CHUNK": 100}, id="chunk-100"),
    pytest.param({"_BLANKET_CAP": 1}, id="cap-1"),  # every node gathered but one-row tables
    pytest.param({"_BLANKET_CAP": 8}, id="cap-8"),  # MINIALARM's nodes of 4 and 8 rows tabulated
    # a chunk's steps one fewer than, equal to and one more than the free
    # nodes, so that its outcome buffer's head is carried across chunks
    pytest.param({"_CHUNK": lambda nfree: len(PANEL) * (nfree - 1)}, id="chunk-below-nfree"),
    pytest.param({"_CHUNK": lambda nfree: len(PANEL) * nfree}, id="chunk-nfree"),
    pytest.param({"_CHUNK": lambda nfree: len(PANEL) * (nfree + 1)}, id="chunk-above-nfree"),
    pytest.param({"_BLOCK_SWEEPS": 10**9}, id="sweeps-huge"),  # every chunk in one scan
    # every node gathered but one-row tables, the buffer's head carried across chunks
    pytest.param({"_BLANKET_CAP": 1, "_CHUNK": lambda nfree: len(PANEL) * (nfree - 1)},
                 id="cap-1-chunk-below-nfree"),
    pytest.param({"_BLANKET_CAP": 1, "_CHUNK": lambda nfree: len(PANEL) * (nfree + 1)},
                 id="cap-1-chunk-above-nfree"),
])
def test_selection_and_chunks_do_not_change_bits(monkeypatch, nets, setting):
    for name in ("PATH2", "MINIALARM", "CHAIN5"):
        net = nets[name]
        for ev in evidence_sets(net):
            nfree = len(net.nodes) - len(ev)
            for attr, value in setting.items():
                monkeypatch.setattr(chain, attr, value(nfree) if callable(value) else value)
            assert_matches_scalar(net, ev, 250, PANEL, stride=40)


def test_batch_shares_its_time(nets, empty):
    ests = bnras.straight_estimates(nets["CHAIN5"], empty, 2000, [RandomStream(s) for s in PANEL])
    assert len({(e.cpu_seconds, e.wall_seconds) for e in ests}) == 1


def test_blanket_tables_filled_once(monkeypatch, nets):
    net = nets["CHAIN5"]
    ev = Evidence({"C5": 1})
    fills = []
    fill = chain._BlanketTables.fill.__func__
    monkeypatch.setattr(chain._BlanketTables, "fill",
                        classmethod(lambda cls, *args: fills.append(1) or fill(cls, *args)))
    net.tables.blankets = None
    for seed in range(3):
        bnras.bnras_estimate(net, ev, 100, 5, RandomStream(seed))
        bnras.straight_estimates(net, ev, 50, [RandomStream(s) for s in PANEL])
    assert len(fills) == 1
    for ev in (Evidence({"C5": 0}), Evidence.empty()):  # same free nodes, then more
        assert_matches_scalar(net, ev, 50, PANEL)
    assert len(fills) == 3


def test_zero_weights_never_met(monkeypatch, and_gate, empty, scans):
    # chains that start consistent with B = A and C never meet a zero row.
    # A and C, whose tables have such rows, are gathered, so every chunk
    # runs in one lock-step scan, none in blocks, and no chain steps alone
    fine = []
    for seed in range(40):
        try:
            bnras.straight_estimate(and_gate, empty, 30, RandomStream(seed))
            fine.append(seed)
        except bnras.DeterministicConflictError:
            pass
    assert len(fine) >= 2
    scans.clear()
    with monkeypatch.context() as patch:
        patch.setattr(chain, "_resample", lambda *args: pytest.fail("a chain stepped alone"))
        bnras.straight_estimates(and_gate, empty, 3000, [RandomStream(s) for s in fine])
    assert scans and all(lb is None for lb, _, _ in scans)
    assert_matches_scalar(and_gate, empty, 30, fine, stride=7)
    assert_matches_scalar(and_gate, empty, 3000, fine)
    assert_matches_scalar(and_gate, empty, 3000, fine[:1])


def test_tables_only_without_dead_rows(monkeypatch, and_gate, copy_net, empty, scans):
    # A's and C's tables on the AND gate have rows whose weights are all
    # zero with no evidence and with B = t, and none with B = f, so A and C
    # are gathered in the first two and B is tabulated; B copying A through
    # 0/1 rows zeroes entries but no row. Every chain runs in lock step
    for ev, gathered in ((empty, [True, True, False]), (Evidence({"B": 0}), [True, True]),
                         (Evidence({"B": 1}), None)):
        tab, free, template = chain._prepare(and_gate, ev)
        tables = chain._blanket_tables(tab, free, template)
        assert (tables.gathered and (tables.gathered[0] >= 0).tolist()) == gathered
        scans.clear()
        with monkeypatch.context() as patch:
            patch.setattr(chain, "_resample", lambda *args: pytest.fail("a chain stepped alone"))
            try:
                bnras.straight_estimates(and_gate, ev, 30, [RandomStream(s) for s in PANEL])
            except bnras.DeterministicConflictError:
                assert gathered
        assert scans
    tab, free, template = chain._prepare(copy_net, empty)
    assert chain._blanket_tables(tab, free, template).gathered is None
    walks = []
    walk = chain._BlanketTables.walk
    monkeypatch.setattr(chain._BlanketTables, "walk",
                        lambda self, *args: walks.append(1) or walk(self, *args))
    bnras.bnras_estimate(copy_net, empty, 100, 5, RandomStream(1))
    assert walks
    assert_matches_scalar(copy_net, empty, 400, PANEL, stride=70)
    assert scans


def test_conflict_names_first_conflicting_seed(and_gate, empty):
    seeds = list(range(4, 12))
    expected = None
    for seed in seeds:  # the calls one seed at a time, in order
        try:
            bnras.straight_estimate(and_gate, empty, 30, RandomStream(seed))
        except bnras.DeterministicConflictError as exc:
            expected = (exc.node, str(exc))
            break
    assert expected is not None and f"of seed {seeds[0]};" not in expected[1]
    rng = RandomStream(seed)  # the same chain stepped by the public single step
    cs = bnras.init_random_state(and_gate, empty, rng)
    with pytest.raises(bnras.DeterministicConflictError) as info:
        for step in range(1, 31):
            bnras.straight_step(and_gate, cs, rng)
    assert info.value.node == expected[0] and f"at step {step} of seed {seed};" in expected[1]
    with pytest.raises(bnras.DeterministicConflictError) as info:
        bnras.straight_estimates(and_gate, empty, 30, [RandomStream(s) for s in seeds])
    assert (info.value.node, str(info.value)) == expected


def test_conflict_named_at_its_first_step(and_gate):
    # with B = t, a chain that starts at A = C = f meets a zero row at every
    # redraw, and one that starts at A = f, C = t never does: the batch
    # names the first stuck chain at its first step, as the single step does
    ev = bnras.parse_evidence("B=t", and_gate)
    starts = {s: bnras.init_random_state(and_gate, ev, RandomStream(s)).state[:2] for s in range(40)}
    seeds = [s for s in starts if starts[s] == [1, 0]][:2] + [s for s in starts if starts[s] == [1, 1]][:2]
    rng = RandomStream(seeds[2])
    cs = bnras.init_random_state(and_gate, ev, rng)
    with pytest.raises(bnras.DeterministicConflictError) as one:
        bnras.straight_step(and_gate, cs, rng)  # its first step
    with pytest.raises(bnras.DeterministicConflictError) as info:
        bnras.straight_estimates(and_gate, ev, 50, [RandomStream(s) for s in seeds])
    assert info.value.node == one.value.node
    assert str(info.value) == str(one.value).replace("in a cyclic-scan step", "at step 1")


def coupled(p, q):
    """A -> B, B copying A with probability p = 1 - q: two runs on the same
    draws from different states meet only at a draw below q or at or above
    p."""
    return bnras.parse_network(
        "network COUPLED\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        f"node B {{ outcomes: t, f }}\nparents B: A\ncpt B:\n {p} {q}\n {q} {p}\n"
    )


@pytest.mark.parametrize("way", ["blocks", "scan", "gathered"])
def test_marks_inside_chunks(monkeypatch, nets, scans, way):
    # chunks of 4 lb steps (lb = 8 nfree, and no net here has a multiple of
    # 3 free nodes), checkpoints every 3 steps: each chunk holds several
    # marks, chunk 3 ends on one, and chunk 1 or 2 starts on one; the last
    # two steps make a fourth chunk, in one scan. With every node gathered,
    # every chunk runs in one scan.
    for name in ("PATH2", "MINIALARM", "CHAIN5"):
        net = nets[name]
        for ev in evidence_sets(net):
            size = 4 * chain._BLOCK_SWEEPS * (len(net.nodes) - len(ev))
            total = 3 * size + 2
            assert {mark % size for mark in range(3, total + 1, 3)} >= {0, 1}
            with monkeypatch.context() as patch:
                patch.setattr(chain, "_CHUNK", len(PANEL) * size)
                if way == "scan":
                    patch.setattr(chain, "_BLOCK_SWEEPS", 10**9)
                elif way == "gathered":  # every node, even one with no free blanket
                    patch.setattr(chain, "_BLANKET_CAP", 0)
                scans.clear()
                assert_matches_scalar(net, ev, total, PANEL, stride=3)
            if way == "blocks":
                assert scans[0][0] == size // 4 and scans[-1] == (None, [6], None)
            else:
                assert scans == [(None, [6], None)] * 4


@pytest.mark.parametrize("name, evidence, total, chains, stride", [
    ("PATH2", "", 10_000, 30, 0),
    ("MINIALARM", "ALARM=t", 40_000, 8, 2000),
    ("LAYERED12", "X11=t", 5000, 16, 1000),  # SYNMIX's shape
])
def test_batch_memory(nets, name, evidence, total, chains, stride):
    # a chunk holds its outcomes and its runs as float32 and its draws as
    # doubles, once each, and makes its draws in slices: the tracemalloc
    # peak of a batch stays at most 1.5 MB. With chunks of 2^16 outcomes the
    # three batches peak at 1.20, 1.21 and 1.14 MB; with chunks of 2^15
    # holding doubles, at 0.88, 0.96 and 0.88 MB (0.65 and 0.78 MB for the
    # first two with chunks of 2^13; 2.7 MB for PATH2 when chunks of 2^15 in
    # blocks copied their draws twice)
    net = nets.get(name) or layered_network(12, seed=1)
    ev = bnras.parse_evidence(evidence, net)
    bnras.straight_estimates(net, ev, 10, [RandomStream(0)])  # fills the tables
    rngs = [RandomStream(s) for s in range(chains)]
    tracemalloc.start()
    try:
        bnras.straight_estimates(net, ev, total, rngs, checkpoint_stride=stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_500_000


def test_lock_steps_of_benchmark_batches(nets, scans):
    # the straight batches of the benchmark's sessions, on fixed seeds: the
    # lock steps of all their scans. Chunks of 2^16 outcomes hold twice the
    # steps of chunks of 2^15 and pay one warm-up each, so they take about
    # half the lock steps: with chunks of 2^15 the batches took 1808, 1752,
    # 2896 and 864
    minialarm, synmix = nets["MINIALARM"], layered_network(12, seed=1)
    batches = [
        (minialarm, "ALARM=t", 40_000, 8, 2000, 968),
        (minialarm, "ALARM=f", 40_000, 8, 2000, 912),
        (nets["PATH2"], "", 10_000, 30, 0, 1600),
        (synmix, "X11=t", 5000, 16, 1000, 600),
    ]
    for net, evidence, total, chains, stride, lock_steps in batches:
        scans.clear()
        bnras.straight_estimates(net, bnras.parse_evidence(evidence, net), total,
                                 [RandomStream(s) for s in range(chains)], checkpoint_stride=stride)
        assert scans.lock_steps == lock_steps


def test_blocks_over_several_chunks(monkeypatch, nets, scans):
    # 71 lb + 30 steps in chunks of 12 lb, each a warm-up of two blocks and
    # ten blocks of six chains (60 columns: the warm-up's two goes and the
    # first pass); the stride, 7 lb + 3, cuts no chunk
    for net in nets.values():
        for ev in evidence_sets(net):
            lb = chain._BLOCK_SWEEPS * (len(net.nodes) - len(ev))
            monkeypatch.setattr(chain, "_CHUNK", len(PANEL) * 12 * lb)
            scans.clear()
            assert_matches_scalar(net, ev, 10 * (7 * lb + 3) + lb, PANEL, stride=7 * lb + 3)
            first_pass = [len(PANEL) * 10] * 3
            if net.name == "PATH2" and not ev:
                # PATH2's runs meet slowly: some warm-ups have not met the
                # chain and their blocks run again, and the first chunk's
                # five passes take more than half its steps, so it gives its
                # blocks up and one scan runs its other steps; each later
                # chunk, the last one's 14 steps too, runs in one scan
                assert scans == [(lb, first_pass + [3, 1, 1, 1, 6], False)] + [
                    (None, [6], None)] * 6
            elif lb < 30:
                # six chunks, then 30 - lb steps, too few for blocks
                assert scans == [(lb, first_pass, True)] * 6 + [(None, [6], None)]
            else:
                # five chunks, then 11 lb + 30 steps: a warm-up, nine blocks
                # (54 columns) and one scan of the last 30 steps
                assert scans == [(lb, first_pass, True)] * 5 + [(lb, [54] * 3 + [6], True)]


def test_first_chunk_in_blocks_needs_four(nets, empty, scans):
    # a chunk moves in blocks when it holds four: CHAIN5's are 40 steps, so
    # 160 steps make a warm-up and two blocks, moved by the warm-up's two
    # scans and the first pass
    assert_matches_scalar(nets["CHAIN5"], empty, 160, PANEL[:1])
    assert scans == [(40, [2] * 3, True)]
    scans.clear()
    assert_matches_scalar(nets["CHAIN5"], empty, 159, PANEL[:1])
    assert scans == [(None, [1], None)]


def test_path2_gives_up_its_blocks(nets, empty, scans):
    # runs of PATH2 from different states meet in about 50 steps, so some
    # warm-ups of 32 steps have not met the chain, and many re-runs of 16
    # steps do not meet the run they replace. 30 chains' chunks hold 2176
    # steps (2^16 // 30 = 2184 outcomes, cut to whole blocks of 16): the
    # first is a warm-up and 134 blocks (4020 columns), and keeps them after
    # 18 passes (giving them up would take 67). The last 320 steps make a
    # warm-up and 18 blocks (540 columns): after nine passes the passes
    # have taken more lock steps than half of them, so the chunk gives its
    # blocks up and one scan runs its last steps. One chain's chunk of 3000
    # steps, a warm-up and 185 blocks, keeps its blocks through six passes,
    # and one scan runs the last eight steps.
    assert_matches_scalar(nets["PATH2"], empty, 2496, range(30))
    assert scans == [
        (16, [4020] * 3 + [281, 189, 141, 106, 67, 47, 31, 24, 17, 12, 8, 3, 1, 1, 1, 1, 1], True),
        (16, [540] * 3 + [29, 20, 17, 11, 8, 5, 4, 4, 30], False)]
    scans.clear()
    assert_matches_scalar(nets["PATH2"], empty, 3000, PANEL[:1])
    assert scans == [(16, [185] * 3 + [20, 14, 8, 5, 3, 1], True)]


def runs_of(columns):
    """A chunk's scan widths as (columns, scans in a row) pairs."""
    return [(c, len(list(same))) for c, same in itertools.groupby(columns)]


def test_blocks_that_rarely_meet(scans):
    # after a chain flips, no later block of its chunk meets the true run
    # until the runs meet again: the pass after the flip's block finds one
    # wrong start, its re-run the next, and so on. One chain's 20000 steps
    # are one chunk, a warm-up and 1248 blocks of 16, with four flips: its
    # passes re-run four blocks, then three, two and one as each flip's
    # run reaches the next, 418 passes in all, fewer than the 624 that
    # would take the passes' lock steps past half its steps, so it keeps
    # its blocks. 30 chains' first chunk of 2176 steps (134 blocks each)
    # still has wrong starts in four chains after 67 passes, the fewest
    # whose lock steps pass half its steps, so it gives its blocks up, one
    # scan running its last steps, and the second chunk runs in one scan
    net = coupled("0.9999", "0.0001")
    assert_matches_scalar(net, Evidence.empty(), 20000, [0])
    assert [(lb, runs_of(columns), kept) for lb, columns, kept in scans] == [
        (16, [(1248, 3), (4, 61), (3, 63), (2, 46), (1, 247)], True)]
    scans.clear()
    assert_matches_scalar(net, Evidence.empty(), 3000, range(30))
    assert [(lb, runs_of(columns), kept) for lb, columns, kept in scans] == [
        (16, [(4020, 3), (8, 16), (7, 1), (6, 4), (5, 13), (4, 32), (30, 1)], False),
        (None, [(30, 1)], None)]


def test_total_not_a_multiple_of_the_block(nets, empty, scans):
    # CHAIN5's blocks of 40 steps: 997 steps make a warm-up of 80 and 22
    # whole blocks, and one scan runs the last 37 steps
    assert_matches_scalar(nets["CHAIN5"], empty, 997, PANEL[:2])
    assert scans == [(40, [44] * 3 + [2], True)]
    # a lone chain's 8193 steps are one chunk: a warm-up of 128, 126 blocks
    # of 64, and one scan of the last step
    scans.clear()
    assert_matches_scalar(nets["MINIALARM"], empty, 8193, PANEL[:1])
    assert scans == [(64, [126] * 3 + [1], True)]


def test_numpy_random_never_imported():
    # importing numpy.random costs about 6 MB of resident memory, and
    # numpy.ma (which np.unique imports) 0.5 MB. Every node is gathered, so
    # that both samplers' gathered picks run too
    code = (
        "import os, sys, bnras.chain, bnras.cli\n"
        "bnras.chain._BLANKET_CAP = 1\n"
        "bnras.cli.main(['compare', '--network', 'MINIALARM', '--total', '200',"
        " '--seeds', '0:6', '--out', os.devnull])\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_positive_networks_match_scalar_chain(case):
    net, ev = case
    assert_matches_scalar(net, ev, 60, PANEL, stride=25)


@pytest.mark.parametrize("cap", [chain._BLANKET_CAP, 1], ids=["tabulated", "gathered"])
def test_past_64_free_nodes(monkeypatch, layered300, empty, cap):
    monkeypatch.setattr(chain, "_BLANKET_CAP", cap)
    tab, free, template = chain._prepare(layered300, empty)
    assert (chain._blanket_tables(tab, free, template).gathered is None) == (cap > 1)
    assert_matches_scalar(layered300, empty, 700, PANEL[:3], stride=250)


def test_mixed_tables_match_scalar_chain(monkeypatch, minialarm, scans):
    # at a cap of 8 rows MINIALARM's nodes of 4 and 8 rows are tabulated and
    # those of 16 and 32 gathered, so one scan reads both kinds, and no
    # chunk moves in blocks
    monkeypatch.setattr(chain, "_BLANKET_CAP", 8)
    for ev in evidence_sets(minialarm):
        assert_matches_scalar(minialarm, ev, 1000, PANEL, stride=70)
        assert_matches_scalar(minialarm, ev, 300, PANEL[:1])
    assert scans and all(lb is None for lb, _, _ in scans)


def test_wide_hub_matches_scalar_chain(hub13, empty):
    # with no evidence every blanket table would have 8192 rows, so every
    # node is gathered; clamping the hub or a parent leaves tables of 4096
    for ev in (empty, Evidence({"H": 1}), Evidence({"P3": 0})):
        assert_matches_scalar(hub13, ev, 300, PANEL[:4], stride=70)


def test_wide_star_matches_scalar_chain(empty):
    # a root of 70 children is gathered, each child tabulated
    for ev in (empty, Evidence({"C5": 1})):
        assert_matches_scalar(star_network(70), ev, 500, PANEL[:4], stride=70)
