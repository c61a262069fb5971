"""Markov-chain trial generation over a belief network.

Two kernels share the same single-node resampling primitive:

* the lazy random-scan kernel (:func:`do_transition`): with probability 1/2
  hold the state (guarantees aperiodicity), otherwise pick one free node
  uniformly at random and redraw it from its full conditional;
* the cyclic-scan kernel (:func:`straight_step`): resample the free nodes in
  fixed rotation, one per step, with no holding and no restarts.

Draw discipline (relied on by deterministic tests): a lazy hold consumes
exactly one uniform draw; a resampling transition consumes three, in order
(hold coin, node choice, outcome threshold); a cyclic step consumes one.
Outcomes are selected by inverse CDF over the unnormalized conditional
weights in outcome-declaration order.

Node i's conditional weights are its own table entry times each child's, in
``_Tables.children`` order: :func:`_conditional_weights` makes the products
at one state, :func:`_conditional` at every state of i's free Markov blanket
at once, for the blanket tables below and :mod:`bnras.exact`'s moves and p0.

Trials run one at a time (:func:`_trial`) or as lock-step walkers
(:func:`_trial_blocks`, :meth:`_BlanketTables.walk`), each on its own
counter-based stream (see :mod:`bnras.rng`). Cyclic-scan chains on many
streams move in lock step too, handed over a chunk of their outcomes at a
time (:func:`_cyclic_chunks`, :meth:`_BlanketTables.scan`); where no chain
can conflict, a stretch of steps moves as blocks side by side
(:meth:`_BlanketTables.scan_blocks`), as in the parareal scheme of Lions,
Maday & Turinici (2001). Each gives the states of the scalar steps, bit for
bit, for :mod:`bnras.estimate` to tally.

A free node whose blanket table fits ``_BLANKET_CAP`` rows and has no row
whose weights are all zero is tabulated: the kernels choose its outcome
through exact draw cutoffs (:func:`_draw_cutoffs`), found once per row by
bisection over the doubles. Every other free node is gathered: the kernels
make its weights at each column's state and pick by :func:`_resample`'s own
arithmetic. A column whose weights are all zero, as where 0/1 entries rule
a state out, records its first conflict and keeps its value; the batch
then raises for the trial or chain that :func:`_resample`, run one by one,
would have raised for first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DeterministicConflictError
from .network import (
    BeliefNetwork,
    Evidence,
    JointState,
    check_evidence,
    check_state,
    _index_of,
    _is_index,
    _Tables,
)
from .rng import _GOLDEN, _MASK64, RandomStream, counter_draws, derive_stream_seeds

#: Trials per block of lock-step walkers.
_BLOCK = 4096

#: Most outcomes (steps x chains) a chunk of straight simulation holds.
#: At its peak a chunk holds three doubles an outcome: the outcome, its
#: draw, and one more, a copy of the draw's word while the draws are made
#: or the outcome's place in the runs of a chunk moved in blocks.
#: A batch of 30 PATH2 or 8 MINIALARM chains peaks at about 1 MB
#: (tracemalloc; ``tests/test_straight_lockstep.py`` holds it to 1.5 MB).
_CHUNK = 1 << 15

#: Sweeps (nfree steps each) in a block of a straight-simulation chunk
#: moved in blocks (:meth:`_BlanketTables.scan_blocks`), whose warm-up is
#: two blocks. Of the runs of MINIALARM and SYNMIX that start apart, 1 in
#: 1000 has not met the other after 9 to 15 sweeps, so a warm-up of 16
#: leaves almost every block's start right, and a chunk's lock steps
#: hardly depend on the evidence or the seeds (timings in CHANGES.md).
_BLOCK_SWEEPS = 8

#: Most rows a node's blanket table may have; past it the node is gathered.
_BLANKET_CAP = 4096


@dataclass
class ChainState:
    """One walker: a full joint assignment plus its free nodes and scan
    cursor.

    Owned by a single worker; the transition functions mutate ``state`` in
    place. ``cursor`` is only advanced by the cyclic-scan kernel.
    """

    state: list[int]
    free: tuple[int, ...]
    cursor: int = 0


def _prepare(net: BeliefNetwork, ev: Evidence) -> tuple[_Tables, tuple[int, ...], list[int]]:
    """Compile lookups and build the clamped state template (free nodes 0)."""
    check_evidence(net, ev)
    tab = net.tables
    template = [0] * tab.n
    free = []
    for i, nd in enumerate(net.nodes):
        v = ev.get(nd.name)
        if v is None:
            free.append(i)
        else:
            template[i] = v
    return tab, tuple(free), template


def _require_free(free: tuple[int, ...]) -> None:
    if not free:
        raise ValueError("no free nodes: every node is clamped by evidence")


def _require_walker(net: BeliefNetwork, cs: ChainState, scan: bool) -> None:
    """Refuse a walker that does not fit ``net`` before any draw: no free
    nodes, a state :func:`check_state` refuses, a free index that is not a
    node's or that repeats, and, for the cyclic scan (``scan``), a cursor
    that is not a position in ``cs.free``."""
    _require_free(cs.free)
    check_state(net, cs.state)
    for i in cs.free:
        if not _is_index(i) or not 0 <= i < len(net.nodes):
            raise ValueError(f"free index {i!r} is not a node of network {net.name}")
    if len(set(cs.free)) < len(cs.free):
        i = next(i for at, i in enumerate(cs.free) if i in cs.free[:at])
        raise ValueError(f"free index {i} repeats among the free nodes")
    if scan and not (_is_index(cs.cursor) and 0 <= cs.cursor < len(cs.free)):
        raise ValueError(f"cursor {cs.cursor!r} is not a position among {len(cs.free)} free nodes")


def _require_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (a bool is not) or is below least."""
    if not _is_index(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _uniform_state(tab: _Tables, free: tuple[int, ...], template: list[int], rand) -> list[int]:
    """The template with each free node drawn uniformly over its outcomes,
    one draw per free node in declaration order."""
    state = template.copy()
    for i in free:
        state[i] = int(rand() * tab.k[i])
    return state


def _conditional_weights(tab: _Tables, state: JointState, i: int) -> tuple[list[float], float]:
    """Unnormalized full-conditional weights of node i given the rest.

    weight(v) = P(i=v | parents) * prod over children c of P(c's value | c's
    parents with i=v); only the Markov blanket of i is ever read.
    """
    k = tab.k[i]
    row = 0
    for p, s in zip(tab.parents[i], tab.strides[i]):
        row += state[p] * s
    base = row * k
    weights = tab.flat[i][base : base + k]
    for c, flat_c, step, others in tab.child_lookups[i]:
        idx = state[c]
        for p, m in others:
            idx += state[p] * m
        for v in range(k):
            weights[v] *= flat_c[idx]
            idx += step
    total = 0.0
    for w in weights:
        total += w
    return weights, total


def _factor(tab: _Tables, j: int, axes: tuple[int, ...], template: list[int]) -> np.ndarray:
    """Node j's table entries as an array over the free nodes ``axes``
    (ascending) that broadcasts over them: the members of j's family not in
    ``axes`` are read at their ``template`` values, and the axes j does not
    read have size 1."""
    family = tab.parents[j] + (j,)
    table = np.array(tab.flat[j]).reshape([tab.k[a] for a in family])
    table = np.asarray(table[tuple(slice(None) if a in axes else template[a] for a in family)])
    kept = [a for a in family if a in axes]
    # a Python sort, not np.argsort, whose first call alone pages in
    # 256 kB of numpy and so raises a small session's peak RSS
    order = sorted(range(len(kept)), key=kept.__getitem__)
    return table.transpose(order).reshape([tab.k[a] if a in kept else 1 for a in axes])


def _conditional(tab: _Tables, free: Container[int], template: list[int], i: int):
    """Node i and its free blanket members, ascending, and i's conditional
    weights at each of their states, multiplied as :func:`_conditional_weights`
    multiplies them; nodes not in ``free`` are read at their ``template``
    values. The array has an axis per blanket member, not per free node."""
    axes = tuple(sorted((i, *(m for m in tab.blanket(i) if m in free))))
    cond = _factor(tab, i, axes, template)
    for c in tab.children[i]:
        cond = cond * _factor(tab, c, axes, template)
    return axes, cond


def _resample(tab: _Tables, state: list[int], i: int, rand) -> None:
    """Redraw node i from its full conditional using one uniform draw. If
    all its weights are zero, raise a DeterministicConflictError that
    carries only the node's index; every caller holds the network and
    raises :func:`_located` in its place."""
    weights, total = _conditional_weights(tab, state, i)
    if total <= 0.0:
        raise DeterministicConflictError(f"node index {i}", node=i)
    r = rand() * total
    acc = 0.0
    chosen = -1
    for v, w in enumerate(weights):
        if w > 0.0:
            acc += w
            chosen = v
            if r < acc:
                break
    state[i] = chosen


def _located(net: BeliefNetwork, i: int, where: str) -> DeterministicConflictError:
    """The refusal of node i, all of whose conditional weights are zero,
    named by the node and by ``where`` it happened ("in the given state",
    "in trial j of seed s", ...). If no table in i's family has a zero
    entry, the weights' products underflowed, and the message says so."""
    if all(net.nodes[j].cpt.min_entry > 0.0 for j in (i, *net.tables.children[i])):
        cause = "their products of strictly positive table entries underflowed to 0.0"
    else:
        cause = "the 0/1 table entries conflict with the current state"
    return DeterministicConflictError(
        f"all conditional weights of node {net.nodes[i].name} are zero {where}; {cause}", node=i
    )


def _run_lazy(tab: _Tables, free: tuple[int, ...], state: list[int], steps: int, rand) -> None:
    nfree = len(free)
    for _ in range(steps):
        if rand() <= 0.5:
            continue
        _resample(tab, state, free[int(rand() * nfree)], rand)


def full_conditional(net: BeliefNetwork, state: JointState, node: str) -> list[float]:
    """Normalized distribution of one node given all the others.

    Proportional to the node's own table entry times each child's entry,
    evaluated with the candidate value substituted; depends only on the
    node's Markov blanket.
    """
    check_state(net, state)
    i = _index_of(net, node)
    weights, total = _conditional_weights(net.tables, state, i)
    if total <= 0.0:
        raise _located(net, i, "in the given state")
    return [w / total for w in weights]


def init_random_state(net: BeliefNetwork, ev: Evidence, rng: RandomStream) -> ChainState:
    """Fresh walker: evidence clamped, each free node independently uniform
    over its outcomes (one draw per free node, in declaration order)."""
    tab, free, template = _prepare(net, ev)
    return ChainState(state=_uniform_state(tab, free, template, rng.random), free=free)


def do_transition(net: BeliefNetwork, cs: ChainState, rng: RandomStream) -> ChainState:
    """One lazy random-scan transition, mutating and returning ``cs``.
    Refuses a walker whose state or free indices do not fit ``net``."""
    _require_walker(net, cs, scan=False)
    try:
        _run_lazy(net.tables, cs.free, cs.state, 1, rng.random)
    except DeterministicConflictError as exc:
        raise _located(net, exc.node, f"in a lazy transition of seed {rng.seed_value}") from None
    return cs


def next_trial(net: BeliefNetwork, ev: Evidence, t: int, rng: RandomStream) -> tuple[int, ...]:
    """One trial: initialize uniformly at random, run t lazy transitions,
    return the resulting joint state."""
    _require_count("t", t, 0)
    tab, free, template = _prepare(net, ev)
    if t:
        _require_free(free)
    try:
        return tuple(_trial(tab, free, template, t, rng.random))
    except DeterministicConflictError as exc:
        raise _located(net, exc.node, f"in a trial of seed {rng.seed_value}") from None


def _trial(tab: _Tables, free: tuple[int, ...], template: list[int], t: int, rand) -> list[int]:
    state = _uniform_state(tab, free, template, rand)
    if t:
        _run_lazy(tab, free, state, t, rand)
    return state


#: Bits of the double 1.0; non-negative doubles order as their bits do.
_ONE_BITS = int(np.float64(1.0).view(np.int64))


def _draw_cutoffs(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The draw cutoffs of rows of conditional weights ((rows, width),
    zero-padded), and the mask of dead rows, whose total is not positive.

    Row r's threshold v is the running sum of its weights to v, as
    :func:`_resample` adds them, and +inf from its last positive weight on;
    its cutoff v is the least double ``u >= 0`` with ``fl(u * total) >=
    threshold``. ``fl(u * total)`` never decreases as u grows, so ``u *
    total < threshold[v]`` exactly when ``u < cutoff[v]``, and the outcome
    ``_resample`` picks with draw u is the count of cutoffs ``<= u``. Dead
    rows' cutoffs are +inf.
    """
    running = np.cumsum(weights, axis=1)
    totals = running[:, -1:]
    dead = totals[:, 0] <= 0.0
    width = weights.shape[1]
    last = width - 1 - (weights > 0.0)[:, ::-1].argmax(axis=1)  # the last positive weight
    finite = (np.arange(width) < last[:, None]) & ~dead[:, None]
    th = running[finite]
    total = np.broadcast_to(totals, weights.shape)[finite]

    def reaches(bits, at=slice(None)):
        return bits.view(np.float64) * total[at] >= th[at]

    # Bisect over the bits between lo, which does not reach (-1 stands
    # below 0.0), and hi, which does. Two doubles above th / total exceed
    # it, so they reach; two below need not fail when the total is
    # subnormal, and fl(u * total) coarse.
    guess = (th / total).view(np.int64)
    hi = np.minimum(guess + 2, _ONE_BITS)
    lo = guess - 2
    lo[(lo < 0) | reaches(np.maximum(lo, 0))] = -1
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = lo[todo] + (hi[todo] - lo[todo]) // 2
        up = reaches(mid, todo)
        hi[todo[up]] = mid[up]
        lo[todo[~up]] = mid[~up]
        todo = todo[hi[todo] - lo[todo] > 1]
    cutoffs = np.full(weights.shape, np.inf)
    cutoffs[finite] = hi.view(np.float64)
    return cutoffs, dead


def _finite_columns(cutoffs: np.ndarray) -> np.ndarray:
    """A copy of the columns of ``cutoffs`` that can be finite, the first
    ones in every row; one column as a vector."""
    columns = max(1, np.isfinite(cutoffs).any(axis=0).sum())
    return cutoffs[:, 0].copy() if columns == 1 else cutoffs[:, :columns].copy()


def _factors(tab: _Tables, free: tuple[int, ...], template: list[int], gathered: list[int]) -> tuple:
    """What :meth:`_BlanketTables._gathered_weights` reads of the slots
    ``gathered``: each slot's rank among them (-1 if not gathered); for
    each gathered node, by rank, and each of its factors, the slots of the
    factor's free family members, their multipliers, padded to the widest
    such family with slot 0 and multiplier 0, and the offset of each
    outcome's entry; and the entries, every node's table end to end, then
    1.0, which padding factors read, and 0.0, which padding outcomes read,
    clipped. Factor 0 is the node's own table, factor c + 1 its child c's,
    indexed as :func:`_conditional_weights` indexes them, with members
    clamped by evidence added to the offsets."""
    slot = {i: s for s, i in enumerate(free)}
    starts = list(itertools.accumulate(map(len, tab.flat), initial=0))
    outcome = np.arange(max(tab.k[free[s]] for s in gathered))
    nodes = []  # each gathered node's factors: (offsets, [(member slot, multiplier)])
    for s in gathered:
        i = free[s]
        own = (i, [*zip(tab.parents[i], (m * tab.k[i] for m in tab.strides[i]))], 1)
        children = ((c, [(c, 1), *others], step) for c, _, step, others in tab.child_lookups[i])
        nodes.append([(starts[j] + step * outcome + sum(template[m] * w for m, w in fam if m not in slot),
                       [(slot[m], w) for m, w in fam if m in slot]) for j, fam, step in (own, *children)])
        nodes[-1][0][0][tab.k[i] :] = starts[-1] + 1
    rank = np.full(len(free), -1, dtype=np.intp)
    rank[gathered] = range(len(gathered))
    shape = (len(gathered), max(map(len, nodes)), max(len(kept) for node in nodes for _, kept in node))
    members, multipliers = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    offsets = np.full((*shape[:2], len(outcome)), starts[-1])
    for r, node in enumerate(nodes):
        for f, (at, kept) in enumerate(node):
            offsets[r, f] = at
            members[r, f, : len(kept)], multipliers[r, f, : len(kept)] = zip(*kept) if kept else ((), ())
    return rank, members, multipliers, offsets, np.array([*itertools.chain(*tab.flat), 1.0, 0.0])


@dataclass(frozen=True)
class _BlanketTables:
    """Every free node's outcome choice, tabulated over the configurations
    of the free members of its Markov blanket (evidence is fixed), or
    gathered.

    Tabulated free node ``s`` (its slot in ``free``) with free-node values
    ``x`` reads row ``offsets[s] + sum(x[members[s]] * multipliers[s])``;
    ``members`` and ``multipliers`` are padded to the widest tabulated
    blanket with slot 0 and multiplier 0. The row holds the draw cutoffs of
    the node's conditional weights (:func:`_draw_cutoffs`): a row ascends
    and ends in +inf, and the outcome :func:`_resample` chooses with draw u
    is the first v with ``u < cutoffs[row, v]``, which is the count of
    cutoffs ``<= u``. A row is linear in the values, so a change d in the
    value of slot m moves the row of each node whose blanket holds m by d
    times that node's multiplier for m; the blanket relation is symmetric,
    so those nodes are m's own blanket members. A gathered node's
    multipliers are 0, so it reads row 0, whose pick :meth:`_gathered_pick`
    replaces; ``gathered`` holds :func:`_factors`, None if none is gathered.
    """

    outcomes: np.ndarray  # outcome count of each free node
    members: np.ndarray
    multipliers: np.ndarray
    offsets: np.ndarray
    cutoffs: np.ndarray
    gathered: tuple | None = None

    @classmethod
    def fill(cls, tab: _Tables, free: tuple[int, ...], template: list[int]) -> _BlanketTables:
        """The tables of the free nodes whose table has at most
        ``_BLANKET_CAP`` rows and no row whose weights are all zero, each
        node's rows read off :func:`_conditional` with the node's own axis
        last, or one row of +inf if there are none; the others are gathered."""
        slot = {i: s for s, i in enumerate(free)}
        blankets = [[m for m in tab.blanket(i) if m in slot] for i in free]
        nfree, width = len(free), max(tab.k[i] for i in free)
        blocks = {}  # each fitting node's rows, zero-padded to the widest node
        for s, (i, members) in enumerate(zip(free, blankets)):
            if math.prod(tab.k[m] for m in members) <= _BLANKET_CAP:
                axes, cond = _conditional(tab, slot, template, i)
                rows = np.moveaxis(cond, axes.index(i), -1).reshape(-1, tab.k[i])
                blocks[s] = np.zeros((len(rows), width))
                blocks[s][:, : tab.k[i]] = rows
        cutoffs, dead = _draw_cutoffs(np.concatenate([np.zeros((0, width)), *blocks.values()]))
        ends = np.cumsum([0, *map(len, blocks.values())])
        live = [not dead[a:b].any() for a, b in zip(ends, ends[1:])]
        blocks = {s: block for (s, block), ok in zip(blocks.items(), live) if ok}  # tabulated
        cutoffs = cutoffs[np.repeat(live, np.diff(ends))] if blocks else np.full((1, width), np.inf)
        widest = max((len(blankets[s]) for s in blocks), default=0)
        member_slots = np.zeros((nfree, widest), dtype=np.intp)
        multipliers = np.zeros_like(member_slots)
        offsets = np.zeros(nfree, dtype=np.intp)
        offsets[list(blocks)] = np.cumsum([0, *map(len, blocks.values())])[:-1]
        for s in blocks:
            members, step = blankets[s], 1
            for b in reversed(range(len(members))):  # last member varies fastest
                member_slots[s, b], multipliers[s, b] = slot[members[b]], step
                step *= tab.k[members[b]]
        gathered = [s for s in range(nfree) if s not in blocks]
        outcomes = np.array([tab.k[i] for i in free])
        return cls(outcomes, member_slots, multipliers, offsets, cutoffs,
                   _factors(tab, free, template, gathered) if gathered else None)

    def walk(self, t: int, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Final free-node values of the trials on the streams seeded
        ``seeds``, all moved together, draw for draw as :func:`_trial`
        moves each, and the slot of each walker's first conflict, -1 if it
        met none (None if no node is gathered).

        Each walker keeps, beside its values, the row each free node would
        read now (``rows``, made from the restart one member column at a
        time), and its stream as one key: after d draws of the stream
        seeded s, ``key = s + d * 0x9E3779B97F4A7C15 mod 2^64``, and its
        next draws are ``counter_draws(key, c)`` for c = 1, 2, ..., as in
        :meth:`bnras.rng.RandomStream._claim`. A lock step draws every
        walker's coin at counter 1 and each mover's node and outcome at 2
        and 3, and moves the keys on by one draw or three. A mover reads its
        node's row with one flat gather and counts the row's cutoffs at or
        below its draw, over the columns that can be finite, or picks by
        :meth:`_gathered_pick` if its node is gathered. Only the walkers
        whose value changed then move their neighbours' rows, by the change
        times each neighbour's multiplier (:attr:`_walk_slots`); the
        nonzero changes are each node's value changes, step by step. The
        arrays are slot-major, so every whole-array step runs along the
        walkers; the values come back as a (walkers, nfree) view."""
        nfree, walkers = len(self.outcomes), len(seeds)
        neighbours, weights, cutoffs = self._walk_slots
        rank, member_at = (self.gathered[0], self.gathered[1] * walkers) if self.gathered else (None,) * 2
        met = None if rank is None else np.full(walkers, -1, dtype=np.intp)
        # slot-major: values[s, w] and rows[s, w] are walker w's at slot s
        restart = counter_draws(seeds, np.arange(1, nfree + 1, dtype=np.uint64)[:, None])
        restart *= self.outcomes[:, None]
        values = restart.astype(np.intp)
        del restart
        rows = np.empty_like(values)
        rows[:] = self.offsets[:, None]
        for members, multipliers in zip(self.members.T, self.multipliers.T):
            column = values[members]
            column *= multipliers[:, None]
            rows += column
            del column
        key = seeds + np.uint64(nfree * _GOLDEN & _MASK64)
        one, two_three = np.uint64(1), np.array([[2], [3]], dtype=np.uint64)
        golden, two_golden = np.uint64(_GOLDEN), np.uint64(2 * _GOLDEN & _MASK64)
        flat_values, flat_rows = values.reshape(-1), rows.reshape(-1)
        for _ in range(t):
            move = np.flatnonzero(counter_draws(key, one) > 0.5)
            u = counter_draws(key.take(move), two_three)  # (2, movers): node, outcome
            key += golden
            key[move] += two_golden
            node = (u[0] * nfree).astype(np.intp)
            at = node * walkers + move
            picked = cutoffs.take(flat_rows.take(at), axis=0)
            if cutoffs.ndim == 1:
                chosen = (u[1] >= picked).astype(np.intp)
            else:
                chosen = (picked <= u[1, :, None]).sum(axis=1)
            if rank is not None and (g := np.flatnonzero((r := rank.take(node)) >= 0)).size:
                r, w = r.take(g), move.take(g)
                found = flat_values.take(member_at.take(r, axis=0) + w[:, None, None])
                chosen[g], dead = self._gathered_pick(r, found, u[1].take(g), flat_values.take(at.take(g)))
                met[w] = np.where(dead & (met.take(w) < 0), node.take(g), met.take(w))
            delta = chosen - flat_values.take(at)
            changed = np.flatnonzero(delta)
            if not changed.size:
                continue
            flat_values[at.take(changed)] = chosen.take(changed)
            node = node.take(changed)
            neighbour_rows = neighbours.take(node, axis=0) * walkers + move.take(changed)[:, None]
            flat_rows[neighbour_rows] += delta.take(changed)[:, None] * weights.take(node, axis=0)
        return values.T, met

    def _gathered_weights(self, r, values: np.ndarray) -> np.ndarray:
        """Each column's weights of the gathered node of rank ``r`` (one, or
        one per column), whose factors' members hold ``values`` ((columns,
        factors, members)): the factors' entries multiplied in order, as
        :func:`_conditional_weights` multiplies them, 0 past its outcomes."""
        _, _, multipliers, offsets, entries = self.gathered
        at = (values[..., None, :] @ multipliers.take(r, axis=0)[..., None])[..., 0]
        return np.multiply.reduce(entries.take(at + offsets.take(r, axis=0), mode="clip"), axis=-2)

    def _gathered_pick(self, r, values: np.ndarray, u: np.ndarray, current: np.ndarray):
        """The outcomes :func:`_resample` picks with draws ``u`` from these
        :meth:`_gathered_weights`: the count of running sums ``<= u * total``,
        capped at the last positive weight; and the dead columns, whose
        weights are all zero, which keep ``current``."""
        weights = self._gathered_weights(r, values)
        running = weights.cumsum(axis=-1)
        total = running[:, -1]
        chosen = (running <= (u * total)[:, None]).sum(axis=-1)
        last = running.shape[1] - 1 - (weights[:, ::-1] > 0.0).argmax(axis=-1)
        dead = total <= 0.0
        return np.where(dead, current, np.minimum(chosen, last)), dead

    @cached_property
    def _walk_slots(self) -> tuple:
        """What :meth:`walk` reads for each slot s: its neighbours, the
        tabulated free members of its blanket, whose rows read s (the
        blanket relation is symmetric); the multiplier each of those rows
        gives s; the cutoff columns that can be finite (one column as a
        vector). The neighbours are padded with s itself and multiplier 0: s
        is not in its own blanket, so a padded index in the fancy ``+=``
        writes back only the row it read."""
        nfree = len(self.outcomes)
        widest = np.bincount(self.members[self.multipliers > 0], minlength=nfree).max()  # most readers
        neighbours = np.repeat(np.arange(nfree)[:, None], widest, axis=1)
        weights = np.zeros((nfree, widest), dtype=np.intp)
        count = [0] * nfree
        for n, (members, multipliers) in enumerate(zip(self.members, self.multipliers)):
            for m, w in zip(members.tolist(), multipliers.tolist()):
                if w:  # m is in n's blanket, so n is in m's
                    neighbours[m, count[m]], weights[m, count[m]] = n, w
                    count[m] += 1
        return neighbours, weights, _finite_columns(self.cutoffs)

    @cached_property
    def _scan_slots(self) -> list[tuple]:
        """What :meth:`scan` reads for each slot s. For a tabulated node:
        the rows lo, ..., hi - 1, counted from a step's first row, that hold
        its members among the last nfree outcomes; the multipliers of those
        rows; the cutoff columns that can be finite (one column as a
        vector). For a gathered node: its rank, the rows that hold its
        factors' members, None, None."""
        nfree = len(self.outcomes)
        slots = []
        for s, (members, multipliers, start) in enumerate(
                zip(self.members, self.multipliers, self.offsets)):
            if self.gathered and (r := self.gathered[0][s]) >= 0:
                slots.append((r, (self.gathered[1][r] - s) % nfree, None, None))
                continue
            width = (multipliers > 0).sum()
            at = (members[:width] - s) % nfree
            lo, hi = (at.min(), at.max() + 1) if width else (0, 0)
            window = np.zeros(hi - lo)
            window[at - lo] = multipliers[:width]
            stop = start + math.prod(self.outcomes[members[:width]].tolist())
            slots.append((lo, hi, window, _finite_columns(self.cutoffs[start:stop])))
        return slots

    def scan(self, outcomes: np.ndarray, first: int, draws: np.ndarray) -> np.ndarray:
        """Cyclic-scan steps first + 1, ..., first + L of columns of chains,
        on their sequence of outcomes. The first nfree rows of ``outcomes``
        ((nfree + L, columns), floats) hold the columns' last nfree
        outcomes, which are their current values: row j holds slot (first +
        j) mod nfree. Step first + i + 1 redraws slot (first + i) mod nfree
        with the columns' draws ``draws[i]``, as :func:`_resample` redraws
        it, and writes row nfree + i. ``draws[i]`` may be any view that
        holds one draw per column in C order, such as a plain chunk's
        (chains,) or a chunk in blocks' (blocks, chains), so the draws are
        read where :func:`bnras.rng.counter_draws` made them. A tabulated
        node's blanket row is one dot of rows i, ..., i + nfree - 1 with its
        multipliers placed where its members stand among them; the
        outcomes are floats so that BLAS makes the dot, exact on such small
        whole numbers. A gathered node picks by :meth:`_gathered_pick`.
        Returns the step i of each column's first conflict, -1 if none
        (None if no node is gathered)."""
        nfree = len(self.outcomes)
        slots = self._scan_slots
        shape = draws.shape[1:]
        written = outcomes[nfree:].reshape(draws.shape)
        met = np.full(written[0].size, -1) if self.gathered else None
        for i, u in enumerate(draws):
            lo, hi, window, cutoffs = slots[(first + i) % nfree]
            if window is None:  # gathered: lo is its rank, hi its factors' members' rows
                found = outcomes[i + hi].astype(np.intp).transpose(2, 0, 1)
                chosen, dead = self._gathered_pick(lo, found, u.ravel(), outcomes[i])
                written[i] = chosen.reshape(shape)
                met[dead & (met < 0)] = i
                continue
            rows = window.dot(outcomes[i + lo : i + hi]).astype(np.intp)
            if cutoffs.ndim == 1:
                written[i] = u >= cutoffs.take(rows).reshape(shape)
            else:
                picked = cutoffs.take(rows, axis=0).reshape(*shape, -1)
                written[i] = (picked <= u[..., None]).sum(axis=-1)
        return met

    def scan_blocks(self, outcomes: np.ndarray, first: int, draws: np.ndarray, lb: int) -> bool:
        """What :meth:`scan` writes, on tables with no gathered node, so
        that no column conflicts, with the L >= 4 lb steps of ``draws``
        ((L, chains), as :meth:`scan` reads them) moved as blocks of lb
        side by side, each after a warm-up of 2 lb steps; False if the
        blocks were given up, the rest of the steps then run in one scan.

        lb is a multiple of nfree, so every run starts at slot first mod
        nfree and one slot schedule serves all. With w = 2 lb, L holds
        blocks = (L - w) // lb whole blocks after the warm-up. Block b of
        chain c is column b * chains + c: steps w + b lb + 1, ..., w + (b +
        1) lb, after a warm-up on the w draws before them, so step i of its
        run reads ``draws[b * lb + i, c]``; at each step one strided view
        of ``draws`` gives every column's draw, each block's chains
        adjacent. Block 0's warm-up is steps 1, ..., w, kept as it runs: a
        run holds its start window and lb steps, the warm-up passing
        through them in two goes. The first pass runs every column from its
        chain's start window, which is block 0's true start; runs on the
        same draws agree from the first step at which their windows agree
        (Propp & Wilson's coupling), so a warm-up that has met the chain
        leaves its block's start right. A start is right if it is the end
        of the block before. Each later pass runs again, in one scan and
        without the warm-up, every block whose start differs from that end,
        from that end, until no start differs: pass k leaves blocks 0, ...,
        k - 1 exact. After four passes, once the passes have taken more
        lock steps than half of L, the blocks are given up: those before
        the first block still wrong in some chain are kept. One scan runs
        the steps after the blocks kept. A window's first row is the slot
        that its block redraws first, which no step reads, so starts are
        compared on the other rows."""
        nfree = len(self.outcomes)
        steps, chains = draws.shape
        warm = 2 * lb
        blocks = (steps - warm) // lb
        # u[i, b, c]: step i of column (b, c)'s run, a view of draws
        u = sliding_window_view(draws, warm + lb, axis=0)[: blocks * lb : lb].transpose(2, 0, 1)
        runs = np.empty((nfree + lb, blocks * chains), dtype=outcomes.dtype)
        by_block = runs.reshape(nfree + lb, blocks, chains)
        by_block[:nfree] = outcomes[:nfree, None]
        for at in (0, lb):
            self.scan(runs, first, u[at : at + lb])
            outcomes[nfree + at : nfree + at + lb] = runs[nfree:, :chains]
            runs[:nfree] = runs[lb:]
        self.scan(runs, first, u[warm:])
        wrong = np.zeros((blocks, chains), dtype=bool)  # block 0's start is never wrong
        passes = 1
        while True:
            wrong[1:] = (by_block[1:nfree, 1:] != by_block[lb + 1:, :-1]).any(axis=0)
            again = np.flatnonzero(wrong)
            # the blocks before block right are exact in every chain
            right = int(wrong.any(axis=1).argmax()) if again.size else blocks
            if not again.size or passes >= 4 and 2 * (warm + passes * lb) > steps:
                break
            passes += 1
            rerun = runs[:, again]
            rerun[:nfree] = runs[lb:, again - chains]
            self.scan(rerun, first, u[warm:, again // chains, again % chains])
            runs[:, again] = rerun
        kept = outcomes[nfree + warm : nfree + warm + right * lb]
        kept.reshape(right, lb, chains)[...] = by_block[nfree:, :right].transpose(1, 0, 2)
        rest = warm + right * lb
        if rest < steps:
            self.scan(outcomes[rest:], first + rest, draws[rest:])
        return right == blocks


def _blanket_tables(tab: _Tables, free: tuple[int, ...], template: list[int]) -> _BlanketTables:
    """``_BlanketTables.fill(tab, free, template)``, kept on ``tab`` for the
    last evidence asked for, so that runs over one network and evidence fill
    the tables once. The key holds the cap, which decides the nodes
    tabulated."""
    key = (free, tuple(template), _BLANKET_CAP)
    kept = tab.blankets  # read once: another thread may replace it
    if kept is None or kept[0] != key:
        kept = tab.blankets = (key, _BlanketTables.fill(tab, free, template))
    return kept[1]


def _trial_blocks(net: BeliefNetwork, tab: _Tables, free: tuple[int, ...], template: list[int],
                  t: int, runs: Sequence[tuple[int, int]]
                  ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Final free-node values of the trials of ``runs``, (seed, trials)
    pairs: trials 0, 1, ..., trials - 1 of each run in turn, trial j of a
    run being ``next_trial(net, ev, t, RandomStream(seed).spawn(j))``. The
    trials of all runs are laid end to end and cut into blocks of
    ``_BLOCK``, so a block may hold pieces of several runs. Each block
    derives the stream seeds of the trials it holds, walks them
    (:meth:`_BlanketTables.walk`) and yields each run's piece, in order, as
    (run index, the run's trials before the piece, a view of the piece's
    rows of shape (trials, free nodes)), or raises for its first walker
    that met a conflict, named by its run ("in trial j of seed s").
    """
    if t:
        _require_free(free)
    elif not free:
        return
    starts = list(itertools.accumulate((trials for _, trials in runs), initial=0))
    for first in range(0, starts[-1], _BLOCK):
        stop = min(first + _BLOCK, starts[-1])
        pieces = [(run, seed, max(first - start, 0), min(stop - start, trials))  # (run, seed, lo, hi)
                  for run, ((seed, trials), start) in enumerate(zip(runs, starts))
                  if start < stop and first < start + trials]
        seeds = [derive_stream_seeds(seed, lo, hi) for _, seed, lo, hi in pieces]
        seeds = seeds[0] if len(seeds) == 1 else np.concatenate(seeds)  # no copy for one run
        values, met = _blanket_tables(tab, free, template).walk(t, seeds)
        if met is not None and met.max() >= 0:
            b = int((met >= 0).argmax())
            seed, j = [(seed, j) for _, seed, lo, hi in pieces for j in range(lo, hi)][b]
            raise _located(net, free[met[b]], f"in trial {j} of seed {seed}")
        at = 0
        for run, _, lo, hi in pieces:
            yield run, lo, values[at : at + hi - lo]
            at += hi - lo


def _cyclic_chunks(net: BeliefNetwork, tab: _Tables, free: tuple[int, ...], template: list[int],
                   total: int, rngs: Sequence[RandomStream]) -> Iterator[tuple[int, np.ndarray]]:
    """The outcomes of ``total`` cyclic-scan steps of one chain on each of
    ``rngs``, each stream moved as the chain run step by step moves it, in
    chunks of at most ``_CHUNK`` outcomes, cut to whole blocks where a
    chunk can move in blocks. Each chunk is yielded as (the steps before
    it, its rows): a view, valid until the next chunk, of floats of shape
    (nfree + steps, chains), whose first nfree rows are the last outcomes
    before it, the chains' values then, and whose row j holds slot (steps
    before + j) mod nfree.

    Each chain claims the nfree + total draws it takes from its stream up
    front (a stream given twice, its two chains' draws one after the
    other), and a chunk's draws for every chain are made in one call, row
    i holding the chunk's step i. A chain that meets a conflict keeps its
    value; after the last chunk the first such chain in order raises,
    named by its first conflicting step ("at step k of seed s").

    Where every free node is tabulated, so that no chain can conflict, a
    chunk that holds at least four blocks' steps moves in blocks of
    ``_BLOCK_SWEEPS`` sweeps, until some chunk gives its blocks up, its
    passes having cost more than half its steps (PATH2's chains, whose runs
    meet slowly, give them up only in a short last chunk).
    """
    tables = _blanket_tables(tab, free, template)
    chains, nfree = len(rngs), len(free)
    lb = _BLOCK_SWEEPS * nfree
    most = max(1, _CHUNK // chains)
    if most >= 4 * lb:
        most -= most % lb  # whole blocks
    outcomes = np.empty((nfree + most, chains))  # floats, for BLAS's dot
    starts = np.array([rng._claim(nfree + total) for rng in rngs], dtype=np.uint64)

    def draws(first: int, count: int) -> np.ndarray:  # (count, chains)
        counters = np.arange(first + 1, first + count + 1, dtype=np.uint64)
        return counter_draws(starts, counters[:, None])

    outcomes[:nfree] = (draws(0, nfree) * tables.outcomes[:, None]).astype(np.intp)
    blocked = tables.gathered is None  # whether chunks still move in blocks
    met = np.zeros(chains, dtype=np.int64)  # each chain's first conflicting step, 0 if none
    done = 0
    while done < total:
        steps = min(total - done, most)
        chunk = outcomes[: nfree + steps]
        if blocked and steps >= 4 * lb:
            blocked = tables.scan_blocks(chunk, done, draws(nfree + done, steps), lb)
        elif (stopped := tables.scan(chunk, done, draws(nfree + done, steps))) is not None:
            met = np.where((met == 0) & (stopped >= 0), done + 1 + stopped, met)
        yield done, chunk
        chunk[:nfree] = chunk[steps:]
        done += steps
    if met.any():  # the first chain to conflict, at its first conflict
        c = np.flatnonzero(met)[0]
        raise _located(net, free[(met[c] - 1) % nfree], f"at step {met[c]} of seed {rngs[c].seed_value}")


def straight_step(net: BeliefNetwork, cs: ChainState, rng: RandomStream) -> ChainState:
    """One cyclic-scan step: resample the cursor's node from its full
    conditional and advance the cursor over the free nodes. Refuses a
    walker whose state, free indices or cursor do not fit ``net``."""
    _require_walker(net, cs, scan=True)
    try:
        _resample(net.tables, cs.state, cs.free[cs.cursor], rng.random)
    except DeterministicConflictError as exc:
        raise _located(net, exc.node, f"in a cyclic-scan step of seed {rng.seed_value}") from None
    cs.cursor = (cs.cursor + 1) % len(cs.free)
    return cs
