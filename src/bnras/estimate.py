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
loop (:func:`_estimates`) for both samplers. Each piece is asked once
what its positions add up to every checkpoint mark it holds and up to its
end, and the loop keeps the flat tallies of every run at every mark in
one integer array (:class:`_Tallies`). The estimates and their
checkpoints are made from that array, one conversion to Python numbers
per batch, and the CLI scores its rows straight off it
(:func:`_row_errors`). The tallies, checkpoints and final stream states
are those of the runs one by one, bit for bit.
"""

from __future__ import annotations

import itertools
import math
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


@dataclass(frozen=True, eq=False)
class _Tallies:
    """The runs of one batch as arrays. ``counts[run, j]`` is the run's flat
    tally (node i's columns ``edges[i]:edges[i + 1]``) at checkpoint mark
    ``marks[j]``, after ``scored[j]`` positions; its last row, past the
    marks, is the tally after all ``trials`` positions. Every run of a
    batch has the same marks, and reports an equal share of the batch's
    processor and wall seconds."""

    nodes: tuple[str, ...]
    outcome_labels: tuple[tuple[str, ...], ...]
    edges: np.ndarray
    trials: int
    transitions: int | None
    marks: np.ndarray
    scored: np.ndarray
    counts: np.ndarray  # (runs, marks + 1, width), int64
    cpu_seconds: float
    wall_seconds: float

    @property
    def total_transitions(self) -> int:
        return self.trials * (1 if self.transitions is None else self.transitions)

    @property
    def probs(self) -> np.ndarray:
        """``counts`` over the positions each row scores: as float64 each is
        the correctly rounded quotient that Python's ``c / scored`` is."""
        return self.counts / np.append(self.scored, self.trials)[:, None]


def _edges(tab, free: tuple[int, ...]) -> np.ndarray:
    """Where each free node's outcome columns start in a flat tally row,
    and the row's width last."""
    return np.array([0, *itertools.accumulate(tab.k[i] for i in free)])


def _estimates(net: BeliefNetwork, free: tuple[int, ...], edges: np.ndarray, trials: int,
               transitions: int | None, runs: int, pieces, stride: int) -> _Tallies:
    """The tallies of ``trials`` scored positions for each of ``runs`` runs,
    a position being a trial of ``transitions`` transitions, or a step of
    a straight chain (``transitions`` None), tallied off ``pieces``: (first
    run, runs, positions before, positions, count). Position p ends at
    transition p * per, per being ``transitions`` or 1, and each mark m, a
    multiple of ``stride`` up to trials * per, is taken after position
    ceil(m / per). A piece is asked once for all the marks it holds:
    count(ends), ends being the piece's positions that cross its marks
    (ascending, repeated where one position crosses several) and then its
    last, gives what the piece's positions 1, ..., e add to each of its
    runs' flat tallies (columns ``edges``) for each e of ends, shaped
    (runs, ends, width). Each run reports an equal share of the processor
    and wall seconds the batch took."""
    start = time.process_time(), time.perf_counter()
    per = 1 if transitions is None else transitions
    marks = np.arange(stride, trials * per + 1, stride) if stride and per else np.zeros(0, np.int64)
    scored = -(-marks // per)  # the position that crosses each mark
    counts = np.zeros((runs, len(marks) + 1, edges[-1]), dtype=np.int64)
    tally = counts[:, -1]  # a view: each run's flat tally so far
    for first, many, before, positions, count in pieces:
        piece = slice(first, first + many)
        lo = hi = 0
        if len(marks):  # the piece holds marks lo, ..., hi - 1
            lo, hi = before * per // stride, (before + positions) * per // stride
        if lo == hi:  # no mark in the piece
            tally[piece] += count(np.array([positions]))[:, 0]
        else:
            added = count(np.append(scored[lo:hi] - before, positions))
            counts[piece, lo:hi] = added[:, :-1] + tally[piece, None]
            tally[piece] += added[:, -1]
            del added
        del count  # and the codes it reads, before the next piece is made
    shares = max(runs, 1)
    return _Tallies(
        nodes=tuple(net.nodes[i].name for i in free),
        outcome_labels=tuple(net.nodes[i].outcomes for i in free),
        edges=edges,
        trials=trials,
        transitions=transitions,
        marks=marks,
        scored=scored,
        counts=counts,
        cpu_seconds=(time.process_time() - start[0]) / shares,
        wall_seconds=(time.perf_counter() - start[1]) / shares,
    )


def _posteriors(batch: _Tallies) -> list[PosteriorEstimate]:
    """The estimate of each run of ``batch``, its numbers Python ints and
    floats."""
    edges = batch.edges.tolist()

    def cut(flat: list) -> tuple[tuple, ...]:
        return tuple(tuple(flat[a:b]) for a, b in zip(edges, edges[1:]))

    marks, scored = batch.marks.tolist(), batch.scored.tolist()
    return [
        PosteriorEstimate(
            nodes=batch.nodes,
            outcome_labels=batch.outcome_labels,
            probs=cut(rows[-1]),
            tallies=cut(tally),
            trials=batch.trials,
            transitions_per_trial=batch.transitions,
            total_transitions=batch.total_transitions,
            cpu_seconds=batch.cpu_seconds,
            wall_seconds=batch.wall_seconds,
            checkpoints=tuple(Checkpoint(m, s, cut(row)) for m, s, row in zip(marks, scored, rows)),
        )
        for tally, rows in zip(batch.counts[:, -1].tolist(), batch.probs.tolist())
    ]


def _stretch_counts(codes: np.ndarray, ends: np.ndarray, size: int) -> np.ndarray:
    """The counts of the values (below ``size``) of the rows of ``codes``
    before each of ``ends``, one row each, the last end being all the rows:
    one ``bincount``, each row moved to the stretch between ends it falls
    in, and a ``cumsum`` over the stretches. It moves ``codes`` in place."""
    if len(ends) == 1:
        return np.bincount(codes.ravel(), minlength=size)[None]
    codes += np.repeat(size * np.arange(len(ends)), np.diff(ends, prepend=0))[:, None]
    stretches = np.bincount(codes.ravel(), minlength=len(ends) * size)
    return stretches.reshape(len(ends), size).cumsum(axis=0)


def _bnras_tallies(net: BeliefNetwork, ev: Evidence, trials: int, transitions: int,
                   rngs: Sequence[RandomStream], checkpoint_stride: int) -> _Tallies:
    """:func:`bnras_estimates` as arrays."""
    _require_count("trials", trials, 1)
    _require_count("transitions", transitions, 0)
    _require_count("checkpoint_stride", checkpoint_stride, 0)
    tab, free, template = _prepare(net, ev)
    edges = _edges(tab, free)
    width = edges[-1]

    def piece(run: int, lo: int, codes: np.ndarray):
        codes += edges[:-1]  # each value's column in the flat tally, made in place

        def count(ends: np.ndarray) -> np.ndarray:
            return _stretch_counts(codes, ends, width)[None]

        return run, 1, lo, len(codes), count

    blocks = _trial_blocks(net, tab, free, template, transitions,
                           [(rng.seed_value, trials) for rng in rngs])
    return _estimates(net, free, edges, trials, transitions, len(rngs),
                      (piece(*block) for block in blocks), checkpoint_stride)


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
    piece's counts up to each of its marks are one ``bincount`` of its
    rows, each row moved to the stretch between marks it ends, and a
    ``cumsum`` over the stretches. Each estimate's ``cpu_seconds`` and
    ``wall_seconds`` are an equal share of the batch's. A conflict raises
    for the first conflicting trial in stream order, named by its stream's
    seed.
    """
    return _posteriors(_bnras_tallies(net, ev, trials, transitions, rngs, checkpoint_stride))


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


def _window_counts(codes: np.ndarray, ends: np.ndarray, nfree: int, size: int) -> np.ndarray:
    """What steps 1, ..., e add to the flat tallies (``size`` counts) of
    chains held as ``codes`` ((rows, chains), each outcome's column in the
    flat tallies), one row for each e of ``ends`` (ascending, the last the
    chunk's steps). The first nfree rows are the last outcomes before step
    1: after step s the chains' values are rows s, ..., s + nfree - 1, so
    up to step e row r counts min(r, e) - max(r - nfree, 0) times. Rows
    nfree, ..., e count nfree times (:func:`_stretch_counts`); the fewer
    rows at either end, rows 0, ..., nfree - 1 and those past e, by one
    weighted ``bincount`` for all of ends. It moves ``codes`` in place."""
    k, head = len(ends), np.arange(nfree)
    past = ends[:, None] + head[1:]  # rows e + 1, ..., e + nfree - 1; e + i counts nfree - i times
    rows = np.hstack([np.broadcast_to(head, (k, nfree)), past])
    # a row past e but below nfree is counted among rows 0, ..., nfree - 1
    live = np.hstack([np.minimum(head, ends[:, None]), (past >= nfree) * (nfree - head[1:])])
    picked = codes[rows] + (size * np.arange(k))[:, None, None]  # (ends, rows, chains)
    weighted = np.bincount(picked.ravel(), np.repeat(live.ravel(), codes.shape[1]), k * size)
    middle = _stretch_counts(codes[nfree : ends[-1] + 1], np.maximum(ends - nfree + 1, 0), size)
    return nfree * middle + weighted.reshape(k, size).astype(np.int64)


def _straight_tallies(net: BeliefNetwork, ev: Evidence, total_transitions: int,
                      rngs: Sequence[RandomStream], checkpoint_stride: int) -> _Tallies:
    """:func:`straight_estimates` as arrays."""
    _require_count("total_transitions", total_transitions, 1)
    _require_count("checkpoint_stride", checkpoint_stride, 0)
    tab, free, template = _prepare(net, ev)
    _require_free(free)
    for rng in rngs:
        if type(rng).random is not RandomStream.random:
            raise ValueError(f"a {type(rng).__name__} overrides random(), which the chains bypass")
    edges = _edges(tab, free)
    nfree, width = len(free), edges[-1]

    def piece(done: int, chunk: np.ndarray):
        codes = chunk.astype(np.intp)  # each outcome's column in the flat tallies
        codes += edges.take((done + np.arange(len(chunk))) % nfree)[:, None]
        chains = chunk.shape[1]
        codes += width * np.arange(chains)  # each chain's first column

        def count(ends: np.ndarray) -> np.ndarray:
            counts = _window_counts(codes, ends, nfree, chains * width)
            return counts.reshape(len(ends), chains, width).swapaxes(0, 1)

        return 0, chains, done, len(chunk) - nfree, count

    chunks = _cyclic_chunks(net, tab, free, template, total_transitions, rngs) if rngs else ()
    return _estimates(net, free, edges, total_transitions, None, len(rngs),
                      (piece(*chunk) for chunk in chunks), checkpoint_stride)


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
    A chunk's counts up to each of its marks are :func:`_window_counts` of
    its rows. A conflict raises for the first conflicting chain, as the
    calls one by one would. Each estimate's ``cpu_seconds`` and
    ``wall_seconds`` are an equal share of the batch's.
    """
    return _posteriors(_straight_tallies(net, ev, total_transitions, rngs, checkpoint_stride))


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
    for name, est_row, exact_row in zip(est.nodes, est.probs, oracle.probs):
        if len(est_row) != len(exact_row):
            raise ValueError(f"node {name}: estimate and oracle row widths differ")
    edges = np.array([0, *itertools.accumulate(map(len, est.probs))])
    flat = np.array([[p for row in rows for p in row] for rows in (est.probs, oracle.probs)],
                    dtype=np.float64)
    (avg,), (worst_error,), (worst,) = _row_errors(est.nodes, edges, flat[:1], flat[1])
    return ErrorReport(avg, worst_error, worst)


def _row_errors(nodes: Sequence[str], edges: np.ndarray, probs: np.ndarray,
                exact: np.ndarray) -> tuple[list[float], list[float], list[str]]:
    """:func:`error_metrics` of each row of ``probs`` (flat estimates along
    the last axis, node ``nodes[i]`` in columns ``edges[i]:edges[i + 1]``)
    against the oracle's flat row ``exact``: the avg_error, max_error and
    worst_node of each row, in the order of the rows, as three lists. Each
    is what a loop over the row's columns in order gives: ``cumsum`` adds
    the deviations one after another, as the loop does (numpy's ``sum``
    adds them pairwise), and the first column of the largest deviation
    names the worst node."""
    width = probs.shape[-1]
    if width == 0:  # no free node, so nothing deviates
        rows = math.prod(probs.shape[:-1])
        return [0.0] * rows, [0.0] * rows, [""] * rows
    deviations = np.abs(probs - exact)
    worst = np.searchsorted(edges, deviations.argmax(axis=-1).ravel(), side="right") - 1
    return ((deviations.cumsum(axis=-1)[..., -1] / width).ravel().tolist(),
            deviations.max(axis=-1).ravel().tolist(), [nodes[i] for i in worst.tolist()])
