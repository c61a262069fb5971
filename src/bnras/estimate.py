"""End-to-end posterior estimation and scoring.

``bnras_estimate`` runs N independent trials (random restart, t lazy
transitions each) and tallies the final state of every free node, so the
estimate for a node outcome is the exact rational tally/N. Trial j draws
from the counter-based stream ``rng.spawn(j)`` (see :mod:`bnras.rng`), so
its final state is ``next_trial(net, ev, t, rng.spawn(j))`` whatever runs
it, and the caller's stream state is unused. ``bnras_estimates`` runs the
trials of many streams together through :func:`bnras.chain._trial_blocks`,
which says how they are cut into blocks and moved, and ``bnras_estimate``
is its one-stream case. This module only tallies each run's pieces and
takes the checkpoints.

``straight_estimate`` runs one cyclic-scan chain without restarts and
scores the full state after every transition. ``straight_estimates`` runs
one such chain on each of many streams (:func:`_cyclic_runs`), in chunks
of steps that checkpoints do not cut, tallied by ``bincount`` up to each
checkpoint inside a chunk and up to its end. Chains move in lock step
where they can, on draws each claims from its own stream and one call
makes for all of them a chunk at a time, and in blocks of steps side by
side (:meth:`bnras.chain._BlanketTables.scan_blocks`); the others step
alone. The tallies, checkpoints and final stream states are those of the
chains run one by one, step by step, bit for bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    _blanket_tables,
    _located,
    _prepare,
    _require_count,
    _require_free,
    _resample,
    _trial_blocks,
    _uniform_state,
)
from .errors import DeterministicConflictError
from .exact import PosteriorTable
from .network import BeliefNetwork, Evidence
from .rng import RandomStream, counter_draws

#: Most outcomes (steps x chains) a chunk of straight simulation holds.
#: At its peak a chunk holds three doubles an outcome: the outcome, its
#: draw, and one more, a copy of the draw's word while the draws are made
#: or the outcome's place in the runs of a chunk moved in blocks.
#: A batch of 30 PATH2 or 8 MINIALARM chains peaks at about 1 MB
#: (tracemalloc; ``tests/test_straight_lockstep.py`` holds it to 1.5 MB).
_CHUNK = 1 << 15

#: Sweeps (nfree steps each) in a block of a straight-simulation chunk
#: moved in blocks (:meth:`bnras.chain._BlanketTables.scan_blocks`), whose
#: warm-up is two blocks. Of the runs of MINIALARM and SYNMIX that start
#: apart, 1 in 1000 has not met the other after 9 to 15 sweeps, so a
#: warm-up of 16 leaves almost every block's start right, and a chunk's
#: lock steps hardly depend on the evidence or the seeds (timings in
#: CHANGES.md).
_BLOCK_SWEEPS = 8


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


def _estimates(net: BeliefNetwork, free: tuple[int, ...], trials: int, transitions: int | None,
               runs, start: tuple[float, float]) -> list[PosteriorEstimate]:
    """An estimate of ``trials`` scored states for each (tally, checkpoints)
    of ``runs``, made of ``transitions`` per trial, or of one for a straight
    chain (``transitions`` None). ``start`` holds the processor and wall
    clocks when the batch began; each run reports an equal share of the
    seconds since."""
    names = tuple(net.nodes[i].name for i in free)
    labels = tuple(net.nodes[i].outcomes for i in free)
    total = trials if transitions is None else trials * transitions
    shares = max(len(runs), 1)
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
            total_transitions=total,
            cpu_seconds=cpu,
            wall_seconds=wall,
            checkpoints=tuple(points),
        )
        for tally, points in runs
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
    streams share lock steps and no array holds more than one block. Each
    piece comes with lo, its stream's trials before it. A piece of trials
    lo + 1 to hi takes each mark m in (lo * transitions, hi * transitions]
    after trial ceil(m / transitions). Each
    estimate's ``cpu_seconds`` and ``wall_seconds`` are an equal share of
    the batch's. A conflict raises for the first conflicting trial in stream
    order, named by its stream's seed.
    """
    _require_count("trials", trials, 1)
    _require_count("transitions", transitions, 0)
    _require_count("checkpoint_stride", checkpoint_stride, 0)
    tab, free, template = _prepare(net, ev)
    edges = _edges(tab, free)
    width = edges[-1]
    counts = np.zeros((len(rngs), width), dtype=np.int64)  # each run's flat tally
    checkpoints: list[list[Checkpoint]] = [[] for _ in rngs]
    start = time.process_time(), time.perf_counter()
    runs = [(rng.seed_value, trials) for rng in rngs]
    for run, lo, codes in _trial_blocks(net, tab, free, template, transitions, runs):
        codes += edges[:-1]  # each value's column in the flat tally, made in place
        hi, at = lo + len(codes), 0  # the run's trials to the piece's end, its rows tallied
        marks = range((lo * transitions // checkpoint_stride + 1) * checkpoint_stride,
                      hi * transitions + 1, checkpoint_stride) if checkpoint_stride else ()
        for mark in marks:
            scored = -(-mark // transitions)  # the trial that crosses the mark
            counts[run] += np.bincount(codes[at : scored - lo].ravel(), minlength=width)
            at = scored - lo
            tally = _rows(counts[run].tolist(), edges)
            checkpoints[run].append(Checkpoint(mark, scored, _snapshot(tally, scored)))
        counts[run] += np.bincount(codes[at:].ravel(), minlength=width)
    return _estimates(net, free, trials, transitions,
                      [(_rows(flat, edges), points)
                       for flat, points in zip(counts.tolist(), checkpoints)], start)


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


def _cyclic_runs(net: BeliefNetwork, tab, free, template, total: int,
                 rngs: Sequence[RandomStream], stride: int):
    """Each chain on ``rngs``: its tally and checkpoints, its stream moved
    as the chain run step by step moves it.

    The chains move together, by ``_BlanketTables.scan`` on draws made by
    :func:`counter_draws`, if :func:`_blanket_tables` gives tables (it does
    not for a table over the cap or with a row whose weights are all zero)
    and every stream's type keeps :class:`RandomStream`'s own ``random``,
    as a spawned stream's does. Each chain claims the nfree + total draws
    it takes from its stream (a stream given twice, its two chains' draws
    one after the other), and a chunk's draws for every chain are made in
    one call, row i holding the chunk's step i. Otherwise the batch runs
    as one-chain batches, in order; one that cannot move in lock step
    moves alone, by :func:`_resample` on its own ``random``, read once (a
    plain stream's is the C-level ``__next__`` over its blocks), from
    :func:`_uniform_state`, and raises for its first conflict.

    The steps run in one loop of chunks of at most ``_CHUNK`` outcomes,
    cut to whole blocks where a chunk can move in blocks; a checkpoint
    does not cut a chunk. A chunk's outcome buffer starts with the last
    nfree outcomes, the chains' current values, and its last nfree rows
    start the next chunk's. Each outcome's column in the flat tallies is
    tallied by :func:`_window_counts`, up to each checkpoint inside the
    chunk and then up to its end, as :func:`bnras_estimates` tallies a
    piece up to each mark inside it.

    Chains moved together move a chunk in blocks of ``_BLOCK_SWEEPS``
    sweeps when it holds at least four blocks' steps, until some chunk
    gives its blocks up, its passes having cost more than half its steps:
    30 chains of PATH2, whose runs meet slowly, keep them through 13 to
    20 passes of their chunks of 1088 steps (seeds 0-29, 10,000 steps),
    giving them up only in a short last chunk; one chain's chunk of 3000
    steps keeps them through six.
    """
    tables = _blanket_tables(tab, free, template)
    together = tables is not None and all(type(rng).random is RandomStream.random for rng in rngs)
    if len(rngs) > 1 and not together:
        return [run for rng in rngs
                for run in _cyclic_runs(net, tab, free, template, total, [rng], stride)]
    chains, nfree = len(rngs), len(free)
    lb = _BLOCK_SWEEPS * nfree
    most = max(1, _CHUNK // chains)
    if most >= 4 * lb:
        most -= most % lb  # whole blocks
    outcomes = np.empty((nfree + most, chains))  # floats, for BLAS's dot
    if together:
        starts = np.array([rng._claim(nfree + total) for rng in rngs], dtype=np.uint64)

        def draws(first: int, count: int) -> np.ndarray:  # (count, chains)
            counters = np.arange(first + 1, first + count + 1, dtype=np.uint64)
            return counter_draws(starts, counters[:, None])

        outcomes[:nfree] = (draws(0, nfree) * tables.outcomes[:, None]).astype(np.intp)
    else:
        (rng,) = rngs
        rand = rng.random
        state = _uniform_state(tab, free, template, rand)
        outcomes[:nfree, 0] = [state[i] for i in free]
    edges = _edges(tab, free)
    width = edges[-1]
    bases = width * np.arange(chains)  # each chain's first code
    counts = np.zeros(chains * width, dtype=np.int64)
    checkpoints: list[list[Checkpoint]] = [[] for _ in rngs]

    def tallies():
        return [_rows(row, edges) for row in counts.reshape(chains, width).tolist()]

    blocked = True  # whether chunks still move in blocks
    done = 0
    while done < total:
        steps = min(total - done, most)
        chunk = outcomes[: nfree + steps]
        if not together:
            made = []
            try:
                for step in range(done, done + steps):
                    i = free[step % nfree]
                    _resample(tab, state, i, rand)
                    made.append(state[i])
            except DeterministicConflictError as exc:
                raise _located(net, exc.node,
                               f"at step {step + 1} of seed {rng.seed_value}") from None
            chunk[nfree:, 0] = made
        elif blocked and steps >= 4 * lb:
            blocked = tables.scan_blocks(chunk, done, draws(nfree + done, steps), lb)
        else:
            tables.scan(chunk, done, draws(nfree + done, steps))
        codes = chunk.astype(np.intp)  # each outcome's column in the flat tallies
        codes += edges.take((done + np.arange(nfree + steps)) % nfree)[:, None]
        codes += bases
        at = 0  # the chunk's steps tallied
        marks = range((done // stride + 1) * stride, done + steps + 1, stride) if stride else ()
        for mark in marks:
            counts += _window_counts(codes[at:], mark - done - at, nfree, len(counts))
            at = mark - done
            for tally, points in zip(tallies(), checkpoints):
                points.append(Checkpoint(mark, mark, _snapshot(tally, mark)))
        if at < steps:
            counts += _window_counts(codes[at:], steps - at, nfree, len(counts))
        del codes  # before the next chunk's draws are made
        chunk[:nfree] = chunk[steps:]
        done += steps
    return list(zip(tallies(), checkpoints))


def straight_estimates(
    net: BeliefNetwork,
    ev: Evidence,
    total_transitions: int,
    rngs: Sequence[RandomStream],
    checkpoint_stride: int = 0,
) -> list[PosteriorEstimate]:
    """``straight_estimate`` of one chain on each stream of ``rngs``, in
    order, each stream moved as that call moves it.

    The chains, however few, move together in lock step where they can,
    and chain by chain where they cannot (see :func:`_cyclic_runs`);
    streams may stand at different positions. A conflict raises for the
    first conflicting chain, as the calls one by one would. Each estimate's
    ``cpu_seconds`` and ``wall_seconds`` are an equal share of the
    batch's.
    """
    _require_count("total_transitions", total_transitions, 1)
    _require_count("checkpoint_stride", checkpoint_stride, 0)
    tab, free, template = _prepare(net, ev)
    _require_free(free)
    if not rngs:
        return []
    start = time.process_time(), time.perf_counter()
    runs = _cyclic_runs(net, tab, free, template, total_transitions, rngs, checkpoint_stride)
    return _estimates(net, free, total_transitions, None, runs, start)


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
