"""Brute-force gold standard: exact posteriors by enumeration, the explicit
one-step transition matrix of the lazy random-scan chain, and the mixing
quantities (minimum stationary probability, minimum transition probability,
relative pointwise distance) computed from it.

The posteriors, Pi and the matrix's stationary vector read one joint-weight
tensor with an axis per free node, in declaration order, so that its C order
is the enumeration order (last free node fastest). It starts at ones and
multiplies in each node's table as a ``chain._factor`` array over the free
axes: the same sequence of products as :func:`bnras.network.joint_probability`
takes of ``conditional_probability`` entries, in node order. Every total
is a sequential ``cumsum`` in enumeration order, the same additions as a
running ``+=``, never numpy's pairwise ``sum``, so results are reproducible
to the bit. Each factor is scaled up by a power of two, which changes no
ratio's bits, so evidence whose probability is below every double keeps its
posteriors; its P(e) reads 0.0.

The lazy chain's moves (:func:`_moves`) are read off each node's
``chain._conditional`` array, over its free blanket only. One (M, K) table
holds them (:func:`_chain`): row x is P at the K columns a move from state x
reaches, the state itself and the states one free node apart
(:func:`_neighbours`), in the enumeration order of the states. p0 is their
least positive value; it alone needs no joint, so it runs past the
enumeration cap. The matrix places the table, 0 elsewhere, and every mixing
quantity reads the table. The lazy chain is reversible with respect to the
stationary vector pi, so P^t / pi (column j divided by pi[j]) is symmetric
and P^(2s) / pi is the Gram matrix of the rows of B_s = P^s / sqrt(pi);
since the lazy kernel's eigenvalues lie in [0, 1], P^(2s+1) / pi - 1 is a
Gram matrix too. The relative pointwise distance at several t builds each
B_s from the bits of s, highest first: a symmetric square done in place in
row blocks (BLAS ``syrk`` and ``gemm``) doubles s, and a step of P summed
from the move table adds 1. It reads each t off a diagonal, where
Cauchy-Schwarz puts the largest deviation from 1: even t = 2s off B_s
alone, odd t = 2s + 1 off B_s and the rows of B_(s+1) = P @ B_s, summed from
the move table one row block at a time. t = 0 and 1 read I and the table.
Row x of B_a is nonzero only at the states at most a free nodes away from
x, so while those are at most half of the states, B_a is walked from the
moves on those columns alone and then placed: each B_s's walk starts at
its furthest point that is so sparse. No M-by-M matrix of P is made, so
the rpd holds at most two M-by-M arrays for any t, and one at t = 2^j and
2^j + 1.

Everything here is exact up to 64-bit float rounding; the caps below are
refusals, not truncations. At the enumeration cap the tensor takes 32 MB.
The transition matrix, p0 and the bounds built on them refuse tables with
0/1 entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, ImpossibleEvidenceError, MixingOverflowError, PositivityError
from .network import BeliefNetwork, Evidence, _Tables
from .chain import _conditional, _factor, _prepare, _require_count, _require_free

#: Largest number of free joint states enumerate_posteriors will visit.
DEFAULT_ENUM_CAP = 1 << 22

#: Largest state count for which the explicit transition matrix is built.
DEFAULT_MATRIX_CAP = 4096

#: Elements per block of the relative pointwise distance's scans, of the
#: steps of P walked on each row's reachable columns and of the rows of
#: P @ B read off the moves.
_RPD_BLOCK = 1 << 16

#: Row blocks per in-place square of an M-by-M half power: each holds one
#: block's product, M^2 / _SQUARE_PARTS entries, beside the square. More
#: blocks hold less and make more, smaller BLAS calls.
_SQUARE_PARTS = 8


@dataclass(frozen=True)
class PosteriorTable:
    """Exact per-node posterior rows plus the evidence probability."""

    nodes: tuple[str, ...]
    outcome_labels: tuple[tuple[str, ...], ...]
    probs: tuple[tuple[float, ...], ...]
    evidence_probability: float

    def marginal(self, node: str) -> tuple[float, ...]:
        return self.probs[self.nodes.index(node)]


@dataclass(eq=False)
class TransitionMatrix:
    """Explicit one-step matrix of the lazy random-scan chain over the
    evidence-consistent joint states of the free nodes.

    As :func:`build_transition_matrix` returns it, the chain is reversible
    with respect to ``stationary`` (stationary[i] matrix[i, j] =
    stationary[j] matrix[j, i]) and lazy (every diagonal entry is at least
    1/2, so its eigenvalues lie in [0, 1]). Row i is nonzero only at state i
    and the states one free node apart, and ``states`` are in enumeration
    order, last free node fastest. :func:`relative_pointwise_distance`
    relies on all four: it reads the move table back off ``matrix`` at the
    :func:`_neighbours` columns, as :func:`_chain` lays it out."""

    free_nodes: tuple[str, ...]
    states: tuple[tuple[int, ...], ...]  # free-node assignments, enumeration order
    matrix: np.ndarray  # (M, M) row-stochastic
    stationary: np.ndarray  # exact posterior over states
    p0: float  # least positive off-diagonal entry, read off the same moves


@dataclass(frozen=True)
class MixingReport:
    pi_min: float
    p0: float
    rpd: dict[int, float]  # transition count -> relative pointwise distance


class _Joint:
    """The evidence-consistent joint states as one weight tensor, whose axis
    ``slot`` is free node ``free[slot]``; refuses the evidence, then more
    than ``cap`` states.

    Each node's factor is scaled up by a power of two that puts its largest
    entry in [0.5, 1] (a table's entries are at most 1), and ``exponent``
    sums the powers taken out, so evidence whose probability is below every
    double keeps weights in range. Powers of two scale exactly: every ratio
    of weights and totals has the bits of the unscaled product wherever
    that did not underflow, and exact zeros stay zero."""

    def __init__(self, net: BeliefNetwork, ev: Evidence, cap: int, what: str):
        self.tab, self.free, self.template = _prepare(net, ev)
        self.dims = tuple(self.tab.k[i] for i in self.free)
        if math.prod(self.dims) > cap:
            raise CapacityError(f"{math.prod(self.dims)} free joint states exceed the {what} cap {cap}")
        self.weights = np.ones(self.dims)
        self.exponent = 0
        for j in range(self.tab.n):
            factor = _factor(self.tab, j, self.free, self.template)
            exponent = min(0, int(np.frexp(factor.max())[1]))
            self.weights *= np.ldexp(factor, -exponent)
            self.exponent += exponent

    def normalizer(self) -> float:
        """The weights' total, scaled as they are; P(e) is
        ``math.ldexp(total, self.exponent)``."""
        total = _sequential_sum(self.weights)
        if total <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        return total


def _moves(net: BeliefNetwork, tab: _Tables, free: tuple[int, ...], template: list[int]):
    """Per free node i, the axes of its ``chain._conditional`` array cond
    and the probability ``(0.5 / n) * cond / total`` of a move of i to each
    value; i's axis is the candidate value, not the current one. A cond of
    more than ``DEFAULT_ENUM_CAP`` entries is refused before it is made. A
    total of 0.0, which tables strictly inside (0, 1) reach only by
    underflow, raises :class:`MixingOverflowError` before the division."""
    half_over_n = 0.5 / len(free)
    members = set(free)
    for i in free:
        size = math.prod(tab.k[m] for m in (i, *tab.blanket(i)) if m in members)
        if size > DEFAULT_ENUM_CAP:
            raise CapacityError(f"the conditional of node {net.nodes[i].name} has {size} "
                                f"entries, over the enumeration cap {DEFAULT_ENUM_CAP}")
        axes, cond = _conditional(tab, members, template, i)
        at = axes.index(i)
        total = np.cumsum(cond, axis=at).take([-1], axis=at)
        if not total.all():
            raise MixingOverflowError(f"the full conditional of node {net.nodes[i].name} in network "
                                      f"{net.name} underflows to 0.0: the table entries of its "
                                      "blanket multiply to below every double")
        yield axes, half_over_n * (cond / total)


def _sequential_sum(a: np.ndarray) -> float:
    """Sum in C order with one running total, as a ``+=`` loop adds."""
    return float(np.cumsum(a)[-1])


def _require_positive(net: BeliefNetwork) -> None:
    if not all(nd.cpt.positive for nd in net.nodes):
        raise PositivityError(
            "the mixing analysis requires every table entry strictly inside "
            "(0, 1); 0/1 entries (deterministic relationships) void it"
        )


def enumerate_posteriors(
    net: BeliefNetwork, ev: Evidence, cap: int = DEFAULT_ENUM_CAP
) -> PosteriorTable:
    """Exact posterior of every free node outcome given the evidence, by
    summation over all evidence-consistent joint states; also returns the
    evidence probability."""
    joint = _Joint(net, ev, cap, "enumeration")
    sums = [
        [_sequential_sum(np.take(joint.weights, v, axis=slot)) for v in range(k)]
        for slot, k in enumerate(joint.dims)
    ]
    total = joint.normalizer()
    names = tuple(net.nodes[i].name for i in joint.free)
    labels = tuple(net.nodes[i].outcomes for i in joint.free)
    probs = tuple(tuple(s / total for s in row) for row in sums)
    return PosteriorTable(names, labels, probs, math.ldexp(total, joint.exponent))


def min_joint_posterior(net: BeliefNetwork, ev: Evidence, cap: int = DEFAULT_ENUM_CAP) -> float:
    """The smallest posterior probability of any evidence-consistent joint
    state of the free nodes."""
    joint = _Joint(net, ev, cap, "enumeration")
    return float(joint.weights.min()) / joint.normalizer()


def _chain(net: BeliefNetwork, ev: Evidence) -> tuple[_Joint, np.ndarray, float]:
    """The joint, the move table and p0 of the lazy random-scan chain.

    The table is (M, K), K = 1 + sum(k - 1): row x holds P's entries at the
    :func:`_neighbours` columns of state x, in their order. Column 0 is the
    diagonal, 0.5 plus each free node's move to its own value, added in node
    order; then, free axis by free axis, come the moves that shift that
    axis's value by 1 .. k - 1 (mod k). A move of free node i is
    (1/(2n)) q_i(new value | state) for n free nodes and q the full
    conditional (:func:`_moves`), and p0 is the least positive one. Like the
    bounds, it refuses tables with 0/1 entries, whose chains may be
    reducible, and more than ``DEFAULT_MATRIX_CAP`` states."""
    _require_positive(net)
    joint = _Joint(net, ev, DEFAULT_MATRIX_CAP, "matrix")
    _require_free(joint.free)
    dims = joint.dims
    table = np.empty((math.prod(dims), 1 + sum(k - 1 for k in dims)))
    cells = table.reshape(*dims, -1)  # a view: the row of each state at its free values
    cells[..., 0] = 0.5
    p0, column = math.inf, 1
    for slot, (axes, q) in enumerate(_moves(net, joint.tab, joint.free, joint.template)):
        p0 = min(p0, float(q.min(initial=math.inf, where=q > 0.0)))
        q = q.reshape([k if i in axes else 1 for i, k in zip(joint.free, dims)])
        cells[..., 0] += q
        for shift in range(1, dims[slot]):
            cells[..., column] = np.roll(q, -shift, axis=slot)
            column += 1
    return joint, table, p0


def _placed(table: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """P as an M-by-M matrix: the move table at its :func:`_neighbours`
    columns, 0 elsewhere."""
    m = len(table)
    matrix = np.zeros((m, m))
    np.put_along_axis(matrix, _neighbours(np.arange(m), dims), table, axis=1)
    return matrix


def build_transition_matrix(net: BeliefNetwork, ev: Evidence) -> TransitionMatrix:
    """The lazy random-scan kernel written out as an M-by-M matrix.

    Off-diagonal mass only connects states differing at exactly one free
    node; the diagonal keeps the remaining mass, which is at least 1/2. The
    matrix is the move table of :func:`_chain` placed at its columns. The
    stationary vector is the exact posterior over states, taken from the
    same joint sums as :func:`enumerate_posteriors`; ``p0`` is the least
    positive move, as :func:`min_transition_probability` finds it. Like the
    bounds, it refuses tables with 0/1 entries, whose chains may be
    reducible, and it refuses more than ``DEFAULT_MATRIX_CAP`` states.
    """
    joint, table, p0 = _chain(net, ev)
    return TransitionMatrix(
        free_nodes=tuple(net.nodes[i].name for i in joint.free),
        states=tuple(itertools.product(*map(range, joint.dims))),
        matrix=_placed(table, joint.dims),
        stationary=joint.weights.ravel() / joint.normalizer(),
        p0=p0,
    )


def min_transition_probability(net: BeliefNetwork, ev: Evidence) -> float:
    """p0, the smallest positive off-diagonal one-step probability: the least
    positive move of :func:`_moves` (each node has two outcomes or more), with
    no joint and no matrix. Refuses tables with 0/1 entries, as the matrix does."""
    _require_positive(net)
    tab, free, template = _prepare(net, ev)
    _require_free(free)
    moves = _moves(net, tab, free, template)
    return min(float(q.min(initial=math.inf, where=q > 0.0)) for _, q in moves)


def _transition_counts(t_values: Iterable[int]) -> list[int]:
    """Each t as a Python int, refusing negative and non-integral ones."""
    counts = list(t_values)
    for t in counts:
        _require_count("transition count", t, 0)
    return [int(t) for t in counts]


def _neighbours(states: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """The columns where a row of P may be nonzero, as an (R, K) array for R
    state indices ``states``, K = 1 + sum(k - 1): the state itself, then,
    free axis by free axis, the states whose value on that axis is shifted
    by 1 .. k - 1 (mod k). A move changes one free node, so every other
    entry of the row is 0. ``dims`` holds the free nodes' outcome counts,
    and a state's index is its C-order position, as
    :func:`build_transition_matrix` enumerates states."""
    found = [states[:, None]]
    stride = math.prod(dims)
    for value, k in zip(np.unravel_index(states, dims), dims):
        stride //= k
        value = value[:, None]
        found.append(states[:, None] + ((value + np.arange(1, k)) % k - value) * stride)
    return np.concatenate(found, axis=-1)


def _shifted(states, codes, dims: tuple[int, ...]) -> np.ndarray:
    """The states that ``states`` reach by the shift vectors ``codes``,
    broadcast against each other. A shift vector moves each free axis's
    value by its own amount (mod k) and is written as the index of the state
    whose values it holds, so code 0 stays put. The sums are ``int32``,
    whose divisions cost a third of 64-bit ones; a flat position in an
    M-by-M array fits, M being at most ``DEFAULT_MATRIX_CAP``."""
    states, codes = np.asarray(states, np.int32), np.asarray(codes, np.int32)
    found = np.zeros(np.broadcast(states, codes).shape, dtype=np.int32)
    stride = math.prod(dims)
    for k in dims:
        stride //= k
        found += (states // stride + codes // stride) % k * stride
    return found


def _walked(table: np.ndarray, cols: np.ndarray, root: np.ndarray,
            dims: tuple[int, ...], s: int, out: np.ndarray) -> np.ndarray:
    """B_s = P^s / sqrt(pi), s >= 1, written into the M-by-M array ``out``
    by s steps of P on the columns each row reaches, for the P whose move
    table is ``table`` at the :func:`_neighbours` columns ``cols``.

    Row x of B_r is nonzero only at the states x + d that a shift vector d
    with at most r nonzero axes reaches (:func:`_shifted`); call that set
    D_r. B_r is held in that layout, shift-major, as a (|D_r|, M) array
    whose entry (d, x) is B_r[x, x + d]: B_0 = I / sqrt(pi) is the one row
    1 / sqrt(pi), and the move table is B_1 * sqrt(pi) in it. A step is
    B_(r+1)[x, x + d] = sum over c of table[x, c] * B_r[y, y + e] for the
    state y = x + d_c that move c reaches and e = d - d_c: it takes column
    y of the layout for every row e at once and adds the products into the
    rows d = e + d_c, in c order, so every multiply-add runs along a row,
    and an entry's bits do not depend on the column blocks, of at most
    ``_RPD_BLOCK`` entries, that it is made in. The last step writes each
    block into ``out`` as it is made, 0 elsewhere, so no whole layout of B_s
    is made beside ``out``. A block is the states that share their values
    on the leading axes, so a move on one of those takes one run of columns,
    and the block's places in ``out`` are those of the block at 0, moved by
    one shift per d."""
    m = len(root)
    axes = [-1] + [axis for axis, k in enumerate(dims) for _ in range(1, k)]  # each move's axis
    codes, power = np.zeros(1, dtype=np.intp), 1.0 / root[None]  # B_0 = I / sqrt(pi)
    for r in range(1, s + 1):
        reach = _neighbours(codes, dims)  # e + d_c for each e of the last layout
        codes = np.flatnonzero(np.bincount(reach.ravel()))  # sorted, each once
        targets = np.searchsorted(codes, reach)
        lo = len(dims)  # a block's states share their values on the axes before lo
        while lo and math.prod(dims[lo - 1:]) * len(codes) <= _RPD_BLOCK:
            lo -= 1
        rows = math.prod(dims[lo:])
        starts = np.arange(0, m, rows)
        if r < s:
            after = np.empty((len(codes), m))
        else:  # flat positions in out: the first block's, and each block's shift
            after = out
            first = _shifted((codes % rows)[:, None], np.arange(rows), dims[lo:]) + np.arange(rows) * m
            shifts = _shifted(starts[:, None], codes - codes % rows, dims) + starts[:, None] * m
        for b, start in enumerate(starts):
            stop = start + rows
            block = np.zeros((len(codes), rows))
            for c, axis in enumerate(axes):
                if axis < lo:  # the move keeps a block's trailing values: one run of columns
                    term = power[:, cols[start, c]:cols[start, c] + rows] * table[start:stop, c]
                else:
                    term = power.take(cols[start:stop, c], axis=1)
                    term *= table[start:stop, c]
                block[targets[:, c]] += term
            if r < s:
                after[:, start:stop] = block
            else:
                out[start:stop] = 0.0
                np.put(out, first + shifts[b, :, None], block)
        power = after
    return out


def _square_in_place(z: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Overwrite z = B_s with B_(2s) = (z @ z.T) * root, holding one row
    block's product beside z: for a reversible P with stationary pi,
    B_s @ B_s.T = P^(2s) / pi.

    z is taken in ``_SQUARE_PARTS`` row blocks. Row block I of z @ z.T is
    taken from rows of z not yet overwritten: ``syrk`` gives its diagonal
    block and ``gemm`` the strip to its right, so the multiply-adds are
    M^3 / 2, as for one ``syrk``. The strip to its left is the transpose of
    the rows above, already written, since z @ z.T is symmetric; it is
    copied 64 columns at a time, which keeps the rows it reads in cache.
    The columns are multiplied by ``root`` once at the end."""
    m = len(z)
    rows = -(-m // _SQUARE_PARTS)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        top = z[start:stop]
        diagonal = top @ top.T
        z[start:stop, stop:] = top @ z[stop:].T
        for left in range(0, start, 64):
            right = min(left + 64, start)
            z[start:stop, left:right] = z[left:right, start:stop].T
        z[start:stop, start:stop] = diagonal
    z *= root
    return z


def _moved(table: np.ndarray, cols: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of P @ b, written into ``out``, for the rows whose moves are
    ``table`` at the :func:`_neighbours` columns ``cols``: the sum over k of
    table[x, k] * b[cols[x, k]], added in k order, in row blocks of at most
    ``_RPD_BLOCK`` entries, so its bits do not depend on the block. For
    b = B_s it is B_(s+1), with no dense P."""
    rows = max(1, _RPD_BLOCK // b.shape[1])
    for start in range(0, len(out), rows):
        block, moves, far = out[start:start + rows], table[start:start + rows], cols[start:start + rows]
        np.multiply(moves[:, :1], b[far[:, 0]], out=block)
        for k in range(1, moves.shape[1]):
            block += moves[:, k:k + 1] * b[far[:, k]]
    return out


def _half_powers(table: np.ndarray, cols: np.ndarray, root: np.ndarray,
                 dims: tuple[int, ...], halves: set[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (h, B_h) for each h >= 1 in ``halves``, in increasing order,
    where B_h = P^h / sqrt(pi) (column j of P^h divided by sqrt(pi[j])) for
    the P whose move table is ``table``, at the :func:`_neighbours` columns
    ``cols`` of states of outcome counts ``dims``. A B_h may be overwritten
    once the next is asked for.

    Each B_h is built from the bits of h, highest first (the left-to-right
    binary method): B_c becomes B_(2c) by a square in place
    (:func:`_square_in_place`), and B_(2c) becomes B_(2c+1) = P @ B_(2c),
    read off the table into one new array (:func:`_moved`). The walk starts
    at its furthest point a whose rows reach at most half of the M states
    (|D_a| <= M / 2 for the shift vectors D_a of :func:`_walked`, at most a
    free nodes away), or at B_1 when no point is that sparse (few free nodes
    with many outcomes). That B_a is made by a steps of P on the columns
    each row reaches (:func:`_walked`), which costs far less than the
    squares it replaces. The next h goes on from the last array when that
    lies on its walk, past its start, which the last h's walk then began at
    too, and starts again, in the same array, otherwise, so each B_h's bits
    depend on h alone, and at most two M-by-M arrays are alive, the second
    only while a step of P is taken.
    """
    m = len(root)
    sizes = [1]
    for k in dims:  # sizes[r]: the states exactly r free axes away from one
        sizes = np.convolve(sizes, [1, k - 1])
    sparse = int(np.count_nonzero(2 * np.cumsum(sizes) <= m)) - 1  # the last r with |D_r| <= M / 2
    z, at = None, 0
    for h in sorted(halves):
        # h's walk passes its leading bits, and those less a low 1 before
        # that 1 is added; it starts at the furthest of them that is sparse,
        # and B_at lies on it if at is one of them, not before the start
        start = max((a for j in range(h.bit_length()) for a in (h >> j, h >> j & -2) if 0 < a <= sparse),
                    default=1)
        if at < start or h >> (h.bit_length() - at.bit_length()) not in (at, at | 1):
            z = _walked(table, cols, root, dims, start, np.empty((m, m)) if z is None else z)
            at = start
        while at != h:
            if h >> (h.bit_length() - at.bit_length()) == at:
                z, at = _square_in_place(z, root), 2 * at
            else:
                z, at = _moved(table, cols, z, np.empty((m, m))), at + 1
        yield h, z


def _rpd_by_count(table: np.ndarray, pi: np.ndarray, dims: tuple[int, ...],
                  counts: list[int]) -> dict[int, float]:
    """max over (i, j) of |P^t[i, j] / pi[j] - 1| for each t, in the order
    of ``counts``, for the reversible lazy chain whose move table is
    ``table`` (as :func:`_chain` lays it out), whose stationary vector is
    ``pi`` and whose states are in enumeration order over outcome counts
    ``dims``.

    t = 0 and 1 read I and the table, P at the :func:`_neighbours` columns;
    every other entry is 0, and its term |0 - pi[j]| / pi[j] is exactly
    1.0, so the values have the bits of the dense scan. Above, with the
    half powers B_s = P^s / sqrt(pi) of :func:`_half_powers`, each begun
    from the moves on the columns its rows reach while those are at most
    half of the states (:func:`_walked`), and C_s = B_s - sqrt(pi) in each
    row, P^t / pi - 1 is C_s @ C_s.T for t = 2s and C_s @ C_(s+1).T for
    t = 2s + 1. There C_(s+1) = C_s @ S, with
    S = sqrt(pi)[:, None] * P / sqrt(pi) the symmetric kernel of the lazy
    chain, whose eigenvalues lie in [0, 1], so
    C_s @ C_(s+1).T = C_s @ S @ C_s.T. Both are Gram matrices, so by
    Cauchy-Schwarz their largest entry lies on the diagonal:
    max_i <C_s[i], C_s[i]> or max_i <C_s[i], C_(s+1)[i]>, read with no
    cancellation, in row blocks written into two buffers made once per half
    power and freed before the next half power is made. A block's rows of
    B_(s+1) = P @ B_s are summed off the table (:func:`_moved`), so neither
    P nor B_(s+1) is ever whole and no full-size temporary is made. At most
    two M-by-M arrays are alive for any t, and one at t = 2^j and 2^j + 1.
    """
    m, root = len(pi), np.sqrt(pi)
    width = table.shape[1]
    cols = _neighbours(np.arange(m), dims)

    def peak(block_of, size: int) -> float:
        rows = max(1, _RPD_BLOCK // size)
        return float(max(block_of(start, min(start + rows, m)).max() for start in range(0, m, rows)))

    def near(t: int, i: int, j: int) -> np.ndarray:
        value = table[i:j] if t else np.eye(1, width)
        return np.abs(value - pi[cols[i:j]]) / pi[cols[i:j]]

    def diagonal(bs: np.ndarray, odd: int, i: int, j: int) -> np.ndarray:
        # <C_s[x], C_s[x]> or <C_s[x], C_(s+1)[x]> for rows i..j, in the buffers
        c = np.subtract(bs[i:j], root, out=work[0, :j - i])
        if not odd:
            return np.square(c, out=c).sum(axis=1)
        after = _moved(table[i:j], cols[i:j], bs, work[1, :j - i])
        return np.multiply(c, np.subtract(after, root, out=after), out=c).sum(axis=1)

    found = {}
    for t in {0, 1}.intersection(counts):
        top = peak(lambda i, j: near(t, i, j), width)
        found[t] = max(top, 1.0) if width < m else top  # 1.0: the rows' zero entries
    for s, bs in _half_powers(table, cols, root, dims, {t // 2 for t in counts if t >= 2}):
        work = np.empty((2, min(max(1, _RPD_BLOCK // m), m), m))
        for t in {2 * s, 2 * s + 1}.intersection(counts):
            found[t] = peak(lambda i, j: diagonal(bs, t & 1, i, j), m)
        del bs, work  # else they are held while the next half power is made
    return {t: found[t] for t in counts}


def relative_pointwise_distance(tm: TransitionMatrix, t: int) -> float:
    """max over (i, j) of |P^t[i, j] - pi[j]| / pi[j].

    The move table is read off ``tm.matrix`` at the columns a move reaches,
    and every product is made from that table, as :func:`mixing_report`
    makes it, so the value has the bits of :func:`mixing_report`'s and
    ``tm`` is left as it was. t = 0 and 1 are read off I and that table,
    with the bits of the dense scan. Above, P^t / pi is taken as a Gram
    product of half powers. Both need the reversible lazy chain, its
    stationary vector pi and its states in enumeration order, as
    :func:`build_transition_matrix` returns them (the outcome counts are
    read off the last state, the all-max one); the value is within
    rounding of ``np.linalg.matrix_power``'s, and its bits do not depend on
    the other t asked for."""
    (count,) = _transition_counts((t,))
    dims = tuple(v + 1 for v in tm.states[-1])
    m = len(tm.matrix)
    table = np.take_along_axis(tm.matrix, _neighbours(np.arange(m), dims), axis=1)
    return _rpd_by_count(table, tm.stationary, dims, [count])[count]


def mixing_report(
    net: BeliefNetwork, ev: Evidence, t_values: tuple[int, ...] = ()
) -> MixingReport:
    """Bundle the exactly computed mixing quantities for small chains: pi_min,
    p0 and the rpd of :func:`relative_pointwise_distance` on the reversible
    lazy chain, whose keys are the transition counts in the order of
    ``t_values``. pi_min comes off the joint of :func:`_chain`, p0 and the
    rpd off its move table, each with the bits that
    :func:`build_transition_matrix` and :func:`relative_pointwise_distance`
    give. No M-by-M matrix of P is made, each squaring is done in place and
    each step of P makes one new array, so at most two M-by-M arrays are
    alive for any t, and one at t = 1, 4, 16 and at t = 3, 5, 17."""
    counts = _transition_counts(t_values)
    joint, table, p0 = _chain(net, ev)
    pi = joint.weights.ravel() / joint.normalizer()
    rpd = _rpd_by_count(table, pi, joint.dims, counts)
    return MixingReport(pi_min=float(pi.min()), p0=p0, rpd=rpd)
