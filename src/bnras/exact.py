"""Brute-force gold standard: exact posteriors by enumeration, the explicit
one-step transition matrix of the lazy random-scan chain, and the mixing
quantities (minimum stationary probability, minimum transition probability,
relative pointwise distance) computed from it.

The posteriors, the mixing minima and the matrix read one joint-weight
tensor with an axis per free node, in declaration order, so that its C order
is the enumeration order (last free node fastest). Each node's table becomes
an array over the free axes with the evidence axes sliced out, and the tensor
starts at ones and multiplies them in node by node: the same sequence of
products as ``_Tables.joint_weight``. Every total is a sequential ``cumsum``
in enumeration order, the same additions as a running ``+=``, never numpy's
pairwise ``sum``. So the posteriors and the matrix's stationary vector share
one normalizer, and results are reproducible to the bit.

The lazy chain's moves are computed once, one free axis at a time, in
``_Joint.moves``: node i's conditional weights are its own table times its
children's, in ``_Tables.children`` order, as ``chain._conditional_weights``
multiplies them. The matrix places the moves; p0, their least positive
value, needs no matrix. The relative pointwise distance at several t takes
every P^t from one chain of squarings, making the products
``np.linalg.matrix_power`` makes, so each P^t has its bits.

Everything here is exact up to 64-bit float rounding and is only meant for
networks small enough to enumerate; the caps below are refusals, not
truncations. At the enumeration cap the tensor takes 32 MB. The transition
matrix, p0 and the bounds built on them refuse tables with 0/1 entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, ImpossibleEvidenceError, PositivityError
from .network import BeliefNetwork, Evidence
from .chain import _prepare, _require_count, _require_free

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

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class MixingReport:
    pi_min: float
    p0: float
    rpd: dict[int, float]  # transition count -> relative pointwise distance


class _Joint:
    """The evidence-consistent joint states as one weight tensor.

    Checks the evidence and the state count against the cap once, then
    builds ``weights``, whose axis ``slot`` is free node ``free[slot]``.
    """

    def __init__(self, net: BeliefNetwork, ev: Evidence, cap: int, what: str):
        self.tab, self.free, self.template = _prepare(net, ev)
        self.dims = tuple(self.tab.k[i] for i in self.free)
        self.size = math.prod(self.dims)
        if self.size > cap:
            raise CapacityError(f"{self.size} free joint states exceed the {what} cap {cap}")
        self._slot = {i: slot for slot, i in enumerate(self.free)}
        self.weights = np.ones(self.dims)
        for j in range(self.tab.n):
            self.weights *= self.factor(j)

    def factor(self, j: int) -> np.ndarray:
        """Node j's table entries as an array that broadcasts over the free
        axes: evidence axes sliced out, size 1 on axes j does not read."""
        tab, slot = self.tab, self._slot
        axes = tab.parents[j] + (j,)
        table = np.array(tab.flat[j]).reshape([tab.k[a] for a in axes])
        clamp = tuple(slice(None) if a in slot else self.template[a] for a in axes)
        table = np.asarray(table[clamp])
        kept = [slot[a] for a in axes if a in slot]
        shape = [1] * len(self.free)
        for s in kept:
            shape[s] = tab.k[self.free[s]]
        # a Python sort, not np.argsort, whose first call alone pages in
        # 256 kB of numpy and so raises a small session's peak RSS
        order = sorted(range(len(kept)), key=kept.__getitem__)
        return table.transpose(order).reshape(shape)

    def normalizer(self) -> float:
        total = _sequential_sum(self.weights)
        if total <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        return total

    def least_posterior(self) -> float:
        """Pi, the least entry of the stationary vector."""
        return float(self.weights.min()) / self.normalizer()

    def moves(self) -> Iterator[np.ndarray]:
        """Per free axis ``slot``, the probability of a move of node
        ``free[slot]`` to each value, broadcasting over the free axes; axis
        ``slot`` is the candidate value, not the current one."""
        half_over_n = 0.5 / len(self.free)
        for slot, i in enumerate(self.free):
            cond = self.factor(i)
            for c in self.tab.children[i]:
                cond = cond * self.factor(c)
            total = np.cumsum(cond, axis=slot).take([-1], axis=slot)
            yield half_over_n * (cond / total)

    def least_move(self) -> float:
        """p0, the least positive off-diagonal matrix entry: every node has
        two outcomes or more, so each value of a move lies off the diagonal."""
        least = min(float(q.min(initial=math.inf, where=q > 0.0)) for q in self.moves())
        if least == math.inf:
            raise ValueError("chain has no positive off-diagonal transitions")
        return least


def _sequential_sum(a: np.ndarray) -> float:
    """Sum in C order with one running total, as a ``+=`` loop adds."""
    return float(np.cumsum(a)[-1])


def _require_positive(net: BeliefNetwork) -> None:
    if not all(nd.cpt.positive for nd in net.nodes):
        raise PositivityError(
            "the mixing analysis requires every table entry strictly inside "
            "(0, 1); 0/1 entries (deterministic relationships) void it"
        )


def _chain_joint(net: BeliefNetwork, ev: Evidence, cap: int, what: str) -> _Joint:
    """Refuse 0/1 tables, then the evidence and the cap, then no free nodes."""
    _require_positive(net)
    joint = _Joint(net, ev, cap, what)
    _require_free(joint.free)
    return joint


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
    return _Joint(net, ev, cap, "enumeration").least_posterior()


def build_transition_matrix(
    net: BeliefNetwork, ev: Evidence, cap: int = DEFAULT_MATRIX_CAP
) -> TransitionMatrix:
    """The lazy random-scan kernel written out as an M-by-M matrix.

    Off-diagonal mass only connects states differing at exactly one free
    node i, with value (1/(2n)) q_i(new value | state) for n free nodes and
    q the full conditional (``_Joint.moves``); the diagonal keeps the
    remaining mass, which is at least 1/2. The stationary vector is the
    exact posterior over states, taken from the same joint sums as
    :func:`enumerate_posteriors`. Like the bounds, it refuses tables with
    0/1 entries, whose chains may be reducible.
    """
    joint = _chain_joint(net, ev, cap, "matrix")
    dims, m = joint.dims, joint.size
    index = np.arange(m).reshape(dims)
    matrix = np.zeros((m, m))
    diagonal = np.full(dims, 0.5)
    for slot, q in enumerate(joint.moves()):
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


def min_transition_probability(net: BeliefNetwork, ev: Evidence,
                               cap: int = DEFAULT_ENUM_CAP) -> float:
    """p0, the smallest positive off-diagonal one-step probability, off the
    joint with no matrix. Refuses tables with 0/1 entries, as the matrix does."""
    return _chain_joint(net, ev, cap, "enumeration").least_move()


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
    net: BeliefNetwork,
    ev: Evidence,
    t_values: tuple[int, ...] = (),
    cap: int = DEFAULT_MATRIX_CAP,
) -> MixingReport:
    """Bundle the exactly computed mixing quantities for small chains; the
    rpd keys are the transition counts in the order of ``t_values``."""
    counts = _transition_counts(t_values)
    tm = build_transition_matrix(net, ev, cap=cap)
    p0 = min_transition_probability(net, ev, cap=cap)
    return MixingReport(pi_min=float(tm.stationary.min()), p0=p0, rpd=_rpd_by_count(tm, counts))
