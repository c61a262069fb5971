"""End-to-end posterior estimation and scoring.

``bnras_estimate`` runs N independent trials (random restart, t lazy
transitions each) and tallies the final state of every free node, so the
estimate for a node outcome is the exact rational tally/N. Trial j draws
from the counter-based stream ``rng.spawn(j)`` (see :mod:`bnras.rng`), so
its final state is ``next_trial(net, ev, t, rng.spawn(j))`` whatever runs
it, and the caller's stream state is unused. ``straight_estimate`` runs
one cyclic-scan chain without restarts and scores the full state after
every transition.

``bnras_estimates`` and ``straight_estimates`` run many streams at once.
:mod:`bnras.chain` moves them, handing over pieces of each run:
blocks of final states of trials (:func:`bnras.chain._trial_blocks`), or
chunks of the chains' sequences of outcomes
(:func:`bnras.chain._cyclic_chunks`), which checkpoints do not cut. This
module only tallies each run's pieces and takes the checkpoints, in one
loop (:func:`_estimates`) for both samplers, each supplying what a stretch
of a piece adds to its runs' tallies. The tallies, checkpoints and final
stream states are those of the runs one by one, bit for bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import _cyclic_chunks, _prepare, _require_count, _require_free, _trial_blocks
from .exact import PosteriorTable
from .network import BeliefNetwork, Evidence
from .rng import RandomStream


@dataclass(frozen=True)
class Checkpoint:
    """Running estimate snapshot after a given number of transitions."""

    transitions: int
    scored: int
    probs: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class PosteriorEstimate:
    nodes: tuple[str, ...]
    outcome_labels: tuple[tuple[str, ...], ...]
    probs: tuple[tuple[float, ...], ...]
    tallies: tuple[tuple[int, ...], ...]
    trials: int
    transitions_per_trial: int | None
    total_transitions: int
    cpu_seconds: float
    wall_seconds: float
    checkpoints: tuple[Checkpoint, ...] = ()

    def marginal(self, node: str) -> tuple[float, ...]:
        return self.probs[self.nodes.index(node)]


@dataclass(frozen=True)
class ErrorReport:
    avg_error: float
    max_error: float
    worst_node: str


def _snapshot(tally, scored):
    return tuple(tuple([c / scored for c in row]) for row in tally)


def _edges(tab, free: tuple[int, ...]) -> np.ndarray:
    """Where each free node's outcome columns start in a flat tally row,
    and the row's width last."""
    return np.array([0, *itertools.accumulate(tab.k[i] for i in free)])


def _rows(flat: list[int], edges: np.ndarray) -> list[list[int]]:
    """A flat tally row cut into one row per free node."""
    return [flat[a:b] for a, b in zip(edges, edges[1:])]


def _estimates(net: BeliefNetwork, free: tuple[int, ...], edges: np.ndarray, trials: int,
               transitions: int | None, runs: int, pieces, stride: int) -> list[PosteriorEstimate]:
    """An estimate of ``trials`` scored positions for each of ``runs`` runs,
    a position being a trial of ``transitions`` transitions, or a step of
    a straight chain (``transitions`` None), tallied off ``pieces``: (first
    run, runs, positions before, positions, count), count(a, b) giving what
    the piece's positions a + 1, ..., b add to each of its runs' flat
    tallies (columns ``edges``). Position p ends at transition p * per, per
    being ``transitions`` or 1; each mark m, a multiple of ``stride`` in
    (before * per, (before + positions) * per], is taken after position
    ceil(m / per), for every run of the piece. Each run reports an equal
    share of the processor and wall seconds the batch took."""
    start = time.process_time(), time.perf_counter()
    per = 1 if transitions is None else transitions
    counts = np.zeros((runs, edges[-1]), dtype=np.int64)  # each run's flat tally
    checkpoints: list[list[Checkpoint]] = [[] for _ in range(runs)]
    for first, many, before, positions, count in pieces:
        piece = counts[first : first + many]  # a view: the piece's runs' tallies
        at = 0  # the piece's positions tallied
        marks = range((before * per // stride + 1) * stride, (before + positions) * per + 1,
                      stride) if stride else ()
        for mark in marks:
            scored = -(-mark // per)  # the position that crosses the mark
            piece += count(at, scored - before)
            at = scored - before
            for run, flat in enumerate(piece.tolist(), first):
                tally = _rows(flat, edges)
                checkpoints[run].append(Checkpoint(mark, scored, _snapshot(tally, scored)))
        if at < positions:
            piece += count(at, positions)
        del count  # and the codes it reads, before the next piece is made
    names = tuple(net.nodes[i].name for i in free)
    labels = tuple(net.nodes[i].outcomes for i in free)
    shares = max(runs, 1)
    cpu = (time.process_time() - start[0]) / shares
    wall = (time.perf_counter() - start[1]) / shares
    return [
        PosteriorEstimate(
            nodes=names,
            outcome_labels=labels,
            probs=_snapshot(tally, trials),
            tallies=tuple(tuple(row) for row in tally),
            trials=trials,
            transitions_per_trial=transitions,
            total_transitions=trials * per,
            cpu_seconds=cpu,
            wall_seconds=wall,
            checkpoints=tuple(points),
        )
        for tally, points in zip((_rows(flat, edges) for flat in counts.tolist()), checkpoints)
    ]


def bnras_estimates(
    net: BeliefNetwork,
    ev: Evidence,
    trials: int,
    transitions: int,
    rngs: Sequence[RandomStream],
    checkpoint_stride: int = 0,
) -> list[PosteriorEstimate]:
    """``bnras_estimate`` on each stream of ``rngs``, in order.

    The trials of all streams move through one sequence of blocks, handed
    over as each stream's pieces (:func:`bnras.chain._trial_blocks`), so the
    streams share lock steps and no array holds more than one block; a
    piece's count is a ``bincount`` of its rows. Each estimate's
    ``cpu_seconds`` and ``wall_seconds`` are an equal share of the batch's.
    A conflict raises for the first conflicting trial in stream order,
    named by its stream's seed.
    """
    _require_count("trials", trials, 1)
    _require_count("transitions", transitions, 0)
    _require_count("checkpoint_stride", checkpoint_stride, 0)
    tab, free, template = _prepare(net, ev)
    edges = _edges(tab, free)

    def piece(run: int, lo: int, codes: np.ndarray):
        codes += edges[:-1]  # each value's column in the flat tally, made in place

        def count(a: int, b: int) -> np.ndarray:
            return np.bincount(codes[a:b].ravel(), minlength=edges[-1])

        return run, 1, lo, len(codes), count

    blocks = _trial_blocks(net, tab, free, template, transitions,
                           [(rng.seed_value, trials) for rng in rngs])
    return _estimates(net, free, edges, trials, transitions, len(rngs),
                      (piece(*block) for block in blocks), checkpoint_stride)


def bnras_estimate(
    net: BeliefNetwork,
    ev: Evidence,
    trials: int,
    transitions: int,
    rng: RandomStream,
    checkpoint_stride: int = 0,
) -> PosteriorEstimate:
    """Randomized-restart estimate from `trials` trials of `transitions`
    lazy transitions each.

    With checkpoint_stride > 0, a running snapshot is recorded each time the
    cumulative transition count crosses a multiple of the stride.
    """
    return bnras_estimates(net, ev, trials, transitions, [rng], checkpoint_stride)[0]


def _window_counts(codes: np.ndarray, steps: int, nfree: int, size: int) -> np.ndarray:
    """What steps 1, ..., ``steps`` add to the flat tallies (``size``
    counts) of chains held as ``codes`` ((rows, chains), each outcome's
    column in the flat tallies), whose first nfree rows are the last
    outcomes before step 1: after step s the chains' values are rows s,
    ..., s + nfree - 1, so a row counts once for each step after which it
    is still among the last nfree. Rows nfree, ..., steps count nfree
    times, by one plain ``bincount``; the fewer rows at either end, by one
    weighted."""
    ends = np.r_[0:nfree, max(steps + 1, nfree) : steps + nfree]
    live = np.minimum(ends, steps) - np.maximum(ends - nfree, 0)
    middle = np.bincount(codes[nfree : steps + 1].ravel(), minlength=size)
    weighted = np.bincount(codes[ends].ravel(), np.repeat(live, codes.shape[1]), size)
    return nfree * middle + weighted.astype(np.int64)


def straight_estimates(
    net: BeliefNetwork,
    ev: Evidence,
    total_transitions: int,
    rngs: Sequence[RandomStream],
    checkpoint_stride: int = 0,
) -> list[PosteriorEstimate]:
    """``straight_estimate`` of one chain on each stream of ``rngs``, in
    order, each stream moved as that call moves it.

    The chains, however few, move together in lock step, handed over a
    chunk at a time (:func:`bnras.chain._cyclic_chunks`); streams may stand
    at different positions, and each is claimed to its chain's end before
    the first step. A stream whose class overrides ``random`` is refused.
    A chunk's count is :func:`_window_counts` of its rows. A conflict
    raises for the first conflicting chain, as the calls one by one would.
    Each estimate's ``cpu_seconds`` and ``wall_seconds`` are an equal share
    of the batch's.
    """
    _require_count("total_transitions", total_transitions, 1)
    _require_count("checkpoint_stride", checkpoint_stride, 0)
    tab, free, template = _prepare(net, ev)
    _require_free(free)
    for rng in rngs:
        if type(rng).random is not RandomStream.random:
            raise ValueError(f"a {type(rng).__name__} overrides random(), which the chains bypass")
    if not rngs:
        return []
    edges = _edges(tab, free)
    nfree, width = len(free), edges[-1]

    def piece(done: int, chunk: np.ndarray):
        codes = chunk.astype(np.intp)  # each outcome's column in the flat tallies
        codes += edges.take((done + np.arange(len(chunk))) % nfree)[:, None]
        chains = chunk.shape[1]
        codes += width * np.arange(chains)  # each chain's first column

        def count(a: int, b: int) -> np.ndarray:
            return _window_counts(codes[a:], b - a, nfree, chains * width).reshape(chains, width)

        return 0, chains, done, len(chunk) - nfree, count

    chunks = _cyclic_chunks(net, tab, free, template, total_transitions, rngs)
    return _estimates(net, free, edges, total_transitions, None, len(rngs),
                      (piece(*chunk) for chunk in chunks), checkpoint_stride)


def straight_estimate(
    net: BeliefNetwork,
    ev: Evidence,
    total_transitions: int,
    rng: RandomStream,
    checkpoint_stride: int = 0,
) -> PosteriorEstimate:
    """Single-chain cyclic-scan estimate over `total_transitions` steps.

    One uniform random initialization, never re-initialized; the full state
    is scored after every step.
    """
    return straight_estimates(net, ev, total_transitions, [rng], checkpoint_stride)[0]


def error_metrics(est: PosteriorEstimate, oracle: PosteriorTable) -> ErrorReport:
    """Average and maximum absolute deviation from the exact posteriors,
    taken over every free (node, outcome) pair."""
    if est.nodes != oracle.nodes:
        raise ValueError(
            f"estimate covers nodes {est.nodes}, oracle covers {oracle.nodes}"
        )
    return _row_errors(est.nodes, est.probs, oracle.probs)


def _row_errors(nodes: Sequence[str], probs, exact) -> ErrorReport:
    """:func:`error_metrics` of rows of probabilities ``probs``, one per
    node of ``nodes``, against the oracle's rows ``exact``; a checkpoint's
    rows are scored by it directly."""
    total = 0.0
    count = 0
    max_err = -1.0
    worst = nodes[0] if nodes else ""
    for name, est_row, exact_row in zip(nodes, probs, exact):
        if len(est_row) != len(exact_row):
            raise ValueError(f"node {name}: estimate and oracle row widths differ")
        for a, b in zip(est_row, exact_row):
            d = abs(a - b)
            total += d
            count += 1
            if d > max_err:
                max_err = d
                worst = name
    if count == 0:
        return ErrorReport(0.0, 0.0, worst)
    return ErrorReport(total / count, max_err, worst)
