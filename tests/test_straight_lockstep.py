"""Straight simulation across seeds in lock step, against the scalar cyclic
scan, bit for bit.

``straight_estimates`` must give each seed exactly the tallies and
checkpoints of a chain stepped one transition at a time by ``straight_step``
on that seed's stream, and leave each stream where that chain leaves it,
whichever side of the chain-count selection and of the blanket-table cap it
runs on, and however its steps are chunked.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import bnras
from bnras import Evidence, RandomStream, chain, estimate
from bnras.rng import twister_draws

from conftest import evidence_sets, positive_networks

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1)
PANEL = (3, 0, 2**63 + 11, 17, 2**32, 5)


def python_draws(seed, count):
    stream = RandomStream(seed)
    return [stream.random() for _ in range(count)]


def scalar_chain(net, ev, total, seed, stride=0):
    """Tallies, checkpoints and final stream state of one chain stepped by
    the public single-step API."""
    rng = RandomStream(seed)
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


def test_twister_draws_match_python_draws():
    # a twist makes 312 draws: the second call ends on the first twist's last
    # word, the fourth starts a twist and ends past another, 2125 draws take 7
    expected = [python_draws(s, 2125) for s in SEEDS]
    streams = [RandomStream(s) for s in SEEDS]
    draws = np.concatenate([twister_draws(streams, n) for n in (1, 311, 0, 313, 1500)], axis=1)
    assert draws.tolist() == expected
    for seed, stream in zip(SEEDS, streams):
        ahead = RandomStream(seed)
        for _ in range(2125):
            ahead.random()
        assert stream.getstate() == ahead.getstate()


def test_twister_draws_from_different_positions():
    streams = [RandomStream(s) for s in SEEDS]
    # stream k has read 195 + k words: from an odd position a draw takes
    # words 623 and 0 of two twists, from an even one a twist starts a draw
    for k, stream in enumerate(streams):
        stream.getrandbits(32 * (k + 1))
        for _ in range(97):
            stream.random()
    expected, copies = [], []
    for stream in streams:
        copy = RandomStream(0)
        copy.setstate(stream.getstate())
        expected.append([copy.random() for _ in range(1000)])
        copies.append(copy)
    draws = [twister_draws(streams, n) for n in (7, 207, 1, 785)]
    assert np.concatenate(draws, axis=1).tolist() == expected
    assert [s.getstate() for s in streams] == [c.getstate() for c in copies]


def test_streams_at_different_positions(monkeypatch, nets, empty):
    # each stream makes its own draws from where it stands, so such a batch
    # runs in lock step
    net = nets["MINIALARM"]
    streams, copies = [], []
    for k, seed in enumerate(PANEL):
        stream = RandomStream(seed)
        for _ in range(k):
            stream.random()
        copy = RandomStream(0)
        copy.setstate(stream.getstate())
        streams.append(stream)
        copies.append(copy)

    def alone(*args):
        raise AssertionError("a chain ran on its own")

    with monkeypatch.context() as patch:
        patch.setattr(estimate, "_cyclic_chain", alone)
        ests = bnras.straight_estimates(net, empty, 300, streams, checkpoint_stride=70)
    for est, stream, copy in zip(ests, streams, copies):
        assert est == replace(bnras.straight_estimate(net, empty, 300, copy, 70),
                              cpu_seconds=est.cpu_seconds, wall_seconds=est.wall_seconds)
        assert stream.getstate() == copy.getstate()


def test_streams_other_than_random_random(nets, empty):
    # counter-based child streams have no getrandbits: a batch of them runs
    # chain by chain
    for net in (nets["AB"], nets["MINIALARM"]):
        streams = [RandomStream(1).spawn(j) for j in range(3)]
        ests = bnras.straight_estimates(net, empty, 300, streams, checkpoint_stride=70)
        expected = [bnras.straight_estimate(net, empty, 300, RandomStream(1).spawn(j), 70)
                    for j in range(3)]
        assert [e.tallies for e in ests] == [e.tallies for e in expected]
        assert [e.checkpoints for e in ests] == [e.checkpoints for e in expected]


class Half(RandomStream):
    """A stream whose random() is not made from its getrandbits words."""

    def random(self):
        return 0.25


def test_streams_that_override_random(nets, empty):
    # lock step would draw from their words, not their random(), so such a
    # batch runs chain by chain
    ests = bnras.straight_estimates(nets["AB"], empty, 10, [Half(1), Half(2)])
    expected = [bnras.straight_estimate(nets["AB"], empty, 10, Half(s)) for s in (1, 2)]
    assert [e.tallies for e in ests] == [e.tallies for e in expected]
    assert [e.tallies for e in ests] == [((10, 0), (10, 0))] * 2


def test_stream_given_twice(nets, empty):
    # its second chain runs on from where the first leaves the stream, as
    # the calls one by one run it, so such a batch runs chain by chain
    net = nets["MINIALARM"]
    shared, alone = RandomStream(5), RandomStream(5)
    ests = bnras.straight_estimates(net, empty, 300, [shared, RandomStream(6), shared],
                                    checkpoint_stride=70)
    expected = [bnras.straight_estimate(net, empty, 300, rng, 70)
                for rng in (alone, RandomStream(6), alone)]
    assert [e.tallies for e in ests] == [e.tallies for e in expected]
    assert [e.checkpoints for e in ests] == [e.checkpoints for e in expected]
    assert shared.getstate() == alone.getstate()


@pytest.mark.parametrize("seeds", [PANEL, PANEL[:1]])
def test_builtins_match_scalar_chain(nets, seeds):
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_matches_scalar(net, ev, 400, seeds, stride=70)  # stride not dividing
            assert_matches_scalar(net, ev, 300, seeds, stride=5000)  # stride past the total


@pytest.mark.parametrize("module, setting", [
    (estimate, {"_STRAIGHT_MIN": 1}),  # every batch in lock step
    (estimate, {"_STRAIGHT_MIN": 10**9}),  # every chain on its own
    (estimate, {"_CHUNK": 1}),  # one step per chunk
    (estimate, {"_CHUNK": 100}),
    (chain, {"_BLANKET_CAP": 1}),  # every table over the cap
    # a chunk's steps one fewer than, equal to and one more than the free
    # nodes, so that its outcome buffer's head is carried across chunks
    (estimate, {"_CHUNK": lambda nfree: len(PANEL) * (nfree - 1)}),
    (estimate, {"_CHUNK": lambda nfree: len(PANEL) * nfree}),
    (estimate, {"_CHUNK": lambda nfree: len(PANEL) * (nfree + 1)}),
])
def test_selection_and_chunks_do_not_change_bits(monkeypatch, nets, module, setting):
    for name in ("PATH2", "MINIALARM", "CHAIN5"):
        net = nets[name]
        for ev in evidence_sets(net):
            nfree = len(net.nodes) - len(ev)
            for attr, value in setting.items():
                monkeypatch.setattr(module, attr, value(nfree) if callable(value) else value)
            assert_matches_scalar(net, ev, 250, PANEL, stride=40)


def test_batch_shares_its_time(nets, empty):
    ests = bnras.straight_estimates(nets["CHAIN5"], empty, 2000, [RandomStream(s) for s in PANEL])
    assert len({(e.cpu_seconds, e.wall_seconds) for e in ests}) == 1


@pytest.mark.parametrize("stream", [RandomStream, Half])
def test_chain_by_chain_batch_shares_its_time(monkeypatch, nets, empty, stream):
    # chains run one by one, whether lock step is not chosen or refused,
    # report one equal share of the batch's time too
    if stream is RandomStream:
        monkeypatch.setattr(estimate, "_STRAIGHT_MIN", 10**9)
    streams = [stream(s) for s in PANEL]
    ests = bnras.straight_estimates(nets["CHAIN5"], empty, 2000, streams)
    assert len({(e.cpu_seconds, e.wall_seconds) for e in ests}) == 1
    assert ests[0].wall_seconds > 0.0


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


def test_zero_weights_never_met(and_gate, empty):
    # chains that start consistent with B = A and C never meet a zero row
    fine = []
    for seed in range(40):
        try:
            bnras.straight_estimate(and_gate, empty, 30, RandomStream(seed))
            fine.append(seed)
        except bnras.DeterministicConflictError:
            pass
    assert len(fine) >= estimate._STRAIGHT_MIN
    assert_matches_scalar(and_gate, empty, 30, fine, stride=7)


def test_conflict_names_first_conflicting_seed(monkeypatch, and_gate, empty):
    seeds = list(range(4, 12))
    monkeypatch.setattr(estimate, "_STRAIGHT_MIN", 10**9)
    expected = None
    for seed in seeds:  # the calls one seed at a time, in order
        try:
            bnras.straight_estimate(and_gate, empty, 30, RandomStream(seed))
        except bnras.DeterministicConflictError as exc:
            expected = (exc.node, str(exc))
            break
    assert expected is not None and f"of seed {seeds[0]};" not in expected[1]
    for least in (1, 4, 10**9):
        monkeypatch.setattr(estimate, "_STRAIGHT_MIN", least)
        with pytest.raises(bnras.DeterministicConflictError) as info:
            bnras.straight_estimates(and_gate, empty, 30, [RandomStream(s) for s in seeds])
        assert (info.value.node, str(info.value)) == expected


def test_numpy_random_never_imported():
    # importing numpy.random costs about 6 MB of resident memory
    code = (
        "import os, sys, bnras.cli\n"
        "bnras.cli.main(['compare', '--network', 'MINIALARM', '--total', '200',"
        " '--seeds', '0:6', '--out', os.devnull])\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_positive_networks_match_scalar_chain(case):
    net, ev = case
    assert_matches_scalar(net, ev, 60, PANEL, stride=25)


@pytest.mark.parametrize("least", [1, 10**9])  # lock step, then chain by chain
def test_past_64_free_nodes(monkeypatch, layered300, empty, least):
    tab, free, template = chain._prepare(layered300, empty)
    assert chain._blanket_tables(tab, free, template) is not None
    monkeypatch.setattr(estimate, "_STRAIGHT_MIN", least)
    assert_matches_scalar(layered300, empty, 700, PANEL[:3], stride=250)
