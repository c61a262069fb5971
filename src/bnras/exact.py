"""Brute-force gold standard: exact posteriors by enumeration, the explicit
one-step transition matrix of the lazy random-scan chain, and the mixing
quantities (minimum stationary probability, minimum transition probability,
relative pointwise distance) computed from it.

The posteriors, Pi and the matrix's stationary vector read one joint-weight
tensor with an axis per free node, in declaration order, so that its C order
is the enumeration order (last free node fastest). It starts at ones and
multiplies in each node's table as a ``chain._factor`` array over the free
axes: the same sequence of products as ``_Tables.joint_weight``. Every total
is a sequential ``cumsum`` in enumeration order, the same additions as a
running ``+=``, never numpy's pairwise ``sum``, so results are reproducible
to the bit.

The lazy chain's moves (:func:`_moves`) are read off each node's
``chain._conditional`` array, over its free blanket only. The matrix places
them; p0, their least positive value, needs no joint, so it runs past the
enumeration cap. The relative pointwise distance at several t takes every
P^t from one chain of squarings, making the products
``np.linalg.matrix_power`` makes.

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

from .errors import CapacityError, ImpossibleEvidenceError, PositivityError
from .network import BeliefNetwork, Evidence, _Tables
from .chain import _conditional, _factor, _prepare, _require_count, _require_free

#: Largest number of free joint states enumerate_posteriors will visit.
DEFAULT_ENUM_CAP = 1 << 22

#: Largest state count for which the explicit transition matrix is built.
DEFAULT_MATRIX_CAP = 4096

#: Elements per row block when reducing |P^t - pi| / pi over a matrix power.
_RPD_BLOCK = 1 << 16


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
    evidence-consistent joint states of the free nodes."""

    free_nodes: tuple[str, ...]
    states: tuple[tuple[int, ...], ...]  # free-node assignments, enumeration order
    matrix: np.ndarray  # (M, M) row-stochastic
    stationary: np.ndarray  # exact posterior over states


@dataclass(frozen=True)
class MixingReport:
    pi_min: float
    p0: float
    rpd: dict[int, float]  # transition count -> relative pointwise distance


class _Joint:
    """The evidence-consistent joint states as one weight tensor, whose axis
    ``slot`` is free node ``free[slot]``; refuses the evidence, then more
    than ``cap`` states."""

    def __init__(self, net: BeliefNetwork, ev: Evidence, cap: int, what: str):
        self.tab, self.free, self.template = _prepare(net, ev)
        self.dims = tuple(self.tab.k[i] for i in self.free)
        if math.prod(self.dims) > cap:
            raise CapacityError(f"{math.prod(self.dims)} free joint states exceed the {what} cap {cap}")
        self.weights = np.ones(self.dims)
        for j in range(self.tab.n):
            self.weights *= _factor(self.tab, j, self.free, self.template)

    def normalizer(self) -> float:
        total = _sequential_sum(self.weights)
        if total <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        return total


def _moves(net: BeliefNetwork, tab: _Tables, free: tuple[int, ...], template: list[int]):
    """Per free node i, the axes of its ``chain._conditional`` array cond
    and the probability ``(0.5 / n) * cond / total`` of a move of i to each
    value; i's axis is the candidate value, not the current one. A cond of
    more than ``DEFAULT_ENUM_CAP`` entries is refused before it is made."""
    half_over_n = 0.5 / len(free)
    members = set(free)
    for i in free:
        size = math.prod(tab.k[m] for m in (i, *tab.blanket(i)) if m in members)
        if size > DEFAULT_ENUM_CAP:
            raise CapacityError(f"the conditional of node {net.nodes[i].name} has {size} "
                                f"entries, over the enumeration cap {DEFAULT_ENUM_CAP}")
        axes, cond = _conditional(tab, members, template, i)
        at = axes.index(i)
        yield axes, half_over_n * (cond / np.cumsum(cond, axis=at).take([-1], axis=at))


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
    return PosteriorTable(names, labels, probs, total)


def min_joint_posterior(net: BeliefNetwork, ev: Evidence, cap: int = DEFAULT_ENUM_CAP) -> float:
    """The smallest posterior probability of any evidence-consistent joint
    state of the free nodes."""
    joint = _Joint(net, ev, cap, "enumeration")
    return float(joint.weights.min()) / joint.normalizer()


def build_transition_matrix(net: BeliefNetwork, ev: Evidence) -> TransitionMatrix:
    """The lazy random-scan kernel written out as an M-by-M matrix.

    Off-diagonal mass only connects states differing at exactly one free
    node i, with value (1/(2n)) q_i(new value | state) for n free nodes and
    q the full conditional (:func:`_moves`); the diagonal keeps the
    remaining mass, which is at least 1/2. The stationary vector is the
    exact posterior over states, taken from the same joint sums as
    :func:`enumerate_posteriors`. Like the bounds, it refuses tables with
    0/1 entries, whose chains may be reducible, and it refuses more than
    ``DEFAULT_MATRIX_CAP`` states.
    """
    _require_positive(net)
    joint = _Joint(net, ev, DEFAULT_MATRIX_CAP, "matrix")
    _require_free(joint.free)
    dims, m = joint.dims, joint.weights.size
    index = np.arange(m).reshape(dims)
    matrix = np.zeros((m, m))
    diagonal = np.full(dims, 0.5)
    for slot, (axes, q) in enumerate(_moves(net, joint.tab, joint.free, joint.template)):
        q = q.reshape([k if i in axes else 1 for i, k in zip(joint.free, dims)])
        diagonal += q
        rows, values = np.moveaxis(index, slot, 0), np.moveaxis(q, slot, 0)
        for cur, v in itertools.permutations(range(dims[slot]), 2):
            matrix[rows[cur], rows[v]] = values[v]
    np.fill_diagonal(matrix, diagonal)
    return TransitionMatrix(
        free_nodes=tuple(net.nodes[i].name for i in joint.free),
        states=tuple(itertools.product(*map(range, dims))),
        matrix=matrix,
        stationary=joint.weights.ravel() / joint.normalizer(),
    )


def min_transition_probability(net: BeliefNetwork, ev: Evidence) -> float:
    """p0, the smallest positive off-diagonal one-step probability: the least
    positive move of :func:`_moves` (each node has two outcomes or more), with
    no joint and no matrix. Refuses tables with 0/1 entries, as the matrix does."""
    _require_positive(net)
    tab, free, template = _prepare(net, ev)
    _require_free(free)
    moves = _moves(net, tab, free, template)
    least = min(float(q.min(initial=math.inf, where=q > 0.0)) for _, q in moves)
    if least == math.inf:
        raise ValueError("chain has no positive off-diagonal transitions")
    return least


def _transition_counts(t_values: Iterable[int]) -> list[int]:
    """Each t as a Python int, refusing negative and non-integral ones."""
    counts = list(t_values)
    for t in counts:
        _require_count("transition count", t, 0)
    return [int(t) for t in counts]


def _powers(a: np.ndarray, counts: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, a^t) for each distinct t, from one chain of squarings
    z_j = a^(2^j).

    The products are those of ``np.linalg.matrix_power``, so each a^t has
    its bits: a^2 = a @ a, a^3 = (a @ a) @ a, and above 3 the z_j of t's set
    bits are multiplied in from the lowest bit up. A square is dropped once
    no larger t needs it.
    """
    wanted = sorted(set(counts))
    if 0 in wanted:
        yield 0, np.eye(len(a))
    if 1 in wanted:
        yield 1, a
    partial = {t: (a if t & 1 else None) for t in wanted if t >= 4}
    if not (partial or 2 in wanted or 3 in wanted):
        return
    z = a @ a
    if 2 in wanted:
        yield 2, z
    if 3 in wanted:
        yield 3, z @ a
    bit = 1
    while partial:
        if bit > 1:
            z = z @ z
        for t in list(partial):
            if t >> bit & 1:
                partial[t] = z if partial[t] is None else partial[t] @ z
            if t >> (bit + 1) == 0:
                yield t, partial.pop(t)
        bit += 1


def _rpd_by_count(tm: TransitionMatrix, counts: list[int]) -> dict[int, float]:
    """max over (i, j) of |P^t[i, j] - pi[j]| / pi[j] for each t, in the
    order of ``counts``, reduced in row blocks so that no full-size
    temporary is made."""
    pi = tm.stationary
    rows = max(1, _RPD_BLOCK // len(pi))
    found = {}
    for t, pt in _powers(tm.matrix, counts):
        peaks = []
        for start in range(0, len(pt), rows):
            block = pt[start : start + rows] - pi
            np.abs(block, out=block)
            block /= pi
            peaks.append(block.max())
        found[t] = float(np.max(peaks))
        del pt  # else it outlives the next squaring
    return {t: found[t] for t in counts}


def relative_pointwise_distance(tm: TransitionMatrix, t: int) -> float:
    """max over (i, j) of |P^t[i, j] - pi[j]| / pi[j]."""
    (count,) = _transition_counts((t,))
    return _rpd_by_count(tm, [count])[count]


def mixing_report(
    net: BeliefNetwork, ev: Evidence, t_values: tuple[int, ...] = ()
) -> MixingReport:
    """Bundle the exactly computed mixing quantities for small chains; the
    rpd keys are the transition counts in the order of ``t_values``."""
    counts = _transition_counts(t_values)
    tm = build_transition_matrix(net, ev)
    p0 = min_transition_probability(net, ev)
    return MixingReport(pi_min=float(tm.stationary.min()), p0=p0, rpd=_rpd_by_count(tm, counts))
