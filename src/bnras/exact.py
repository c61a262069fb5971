"""Brute-force gold standard: exact posteriors by enumeration, the explicit
one-step transition matrix of the lazy random-scan chain, and the mixing
quantities (minimum stationary probability, minimum transition probability,
relative pointwise distance) computed from it.

The posteriors, the least joint posterior and the matrix each walk one
enumeration of the evidence-consistent joint states. It checks the evidence
and the cap once, visits free-node assignments with the last free node
varying fastest, weighs each with the network's joint product, and sums the
weights with ``+=`` in that order. So the posteriors and the matrix's
stationary vector share one normalizer, and results are reproducible to the
bit.

Everything here is exact up to 64-bit float rounding and is only meant for
networks small enough to enumerate; the caps below are refusals, not
truncations. The transition matrix, like the bounds built on it, refuses
tables with 0/1 entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ImpossibleEvidenceError, PositivityError
from .network import BeliefNetwork, Evidence
from .chain import _conditional_weights, _prepare, _require_free

#: Largest number of free joint states enumerate_posteriors will visit.
DEFAULT_ENUM_CAP = 1 << 22

#: Largest state count for which the explicit transition matrix is built.
DEFAULT_MATRIX_CAP = 4096


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
    """One enumeration of the evidence-consistent joint states.

    Checks the evidence and the state count against the cap once, then
    iterates (free assignment, joint weight) with the last free node varying
    fastest, holding one state buffer. ``normalizer()`` is the sequential
    sum of the weights the last iteration yielded.
    """

    def __init__(self, net: BeliefNetwork, ev: Evidence, cap: int, what: str):
        self.tab, self.free, self.template = _prepare(net, ev)
        self.size = math.prod(self.tab.k[i] for i in self.free)
        if self.size > cap:
            raise CapacityError(f"{self.size} free joint states exceed the {what} cap {cap}")
        self._total = 0.0

    def __iter__(self):
        free, weight = self.free, self.tab.joint_weight
        state = self.template.copy()
        total = 0.0
        for assignment in itertools.product(*(range(self.tab.k[i]) for i in free)):
            for slot, i in enumerate(free):
                state[i] = assignment[slot]
            p = weight(state)
            total += p
            yield assignment, p
        self._total = total

    def normalizer(self) -> float:
        if self._total <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        return self._total


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
    free = joint.free
    sums = [[0.0] * joint.tab.k[i] for i in free]
    for assignment, p in joint:
        for slot, v in enumerate(assignment):
            sums[slot][v] += p
    total = joint.normalizer()
    names = tuple(net.nodes[i].name for i in free)
    labels = tuple(net.nodes[i].outcomes for i in free)
    probs = tuple(tuple(s / total for s in row) for row in sums)
    return PosteriorTable(names, labels, probs, total)


def min_joint_posterior(
    net: BeliefNetwork, ev: Evidence, cap: int = DEFAULT_ENUM_CAP
) -> float:
    """The smallest posterior probability of any evidence-consistent joint
    state of the free nodes."""
    joint = _Joint(net, ev, cap, "enumeration")
    smallest = min(p for _, p in joint)
    return smallest / joint.normalizer()


def build_transition_matrix(
    net: BeliefNetwork, ev: Evidence, cap: int = DEFAULT_MATRIX_CAP
) -> TransitionMatrix:
    """The lazy random-scan kernel written out as an M-by-M matrix.

    Off-diagonal mass only connects states differing at exactly one free
    node i, with value (1/(2n)) q_i(new value | state) for n free nodes and
    q the full conditional; the diagonal keeps the remaining mass, which is
    at least 1/2. The stationary vector is the exact posterior over states,
    taken from the same joint sums as :func:`enumerate_posteriors`. Like the
    bounds, it refuses tables with 0/1 entries, whose chains may be
    reducible.
    """
    _require_positive(net)
    joint = _Joint(net, ev, cap, "matrix")
    tab, free = joint.tab, joint.free
    _require_free(free)

    # mixed-radix strides of each free slot in the enumeration order
    place = [0] * len(free)
    acc = 1
    for slot in range(len(free) - 1, -1, -1):
        place[slot] = acc
        acc *= tab.k[free[slot]]

    m = joint.size
    half_over_n = 0.5 / len(free)
    states = []
    weights = np.empty(m)
    matrix = np.zeros((m, m))
    state = joint.template.copy()
    for idx, (assignment, p) in enumerate(joint):
        states.append(assignment)
        weights[idx] = p
        for slot, i in enumerate(free):
            state[i] = assignment[slot]
        diagonal = 0.5
        for slot, i in enumerate(free):
            cond, ctotal = _conditional_weights(tab, state, i)
            cur = assignment[slot]
            base = idx - cur * place[slot]
            for v, w in enumerate(cond):
                q = w / ctotal
                if v == cur:
                    diagonal += half_over_n * q
                else:
                    matrix[idx, base + v * place[slot]] = half_over_n * q
        matrix[idx, idx] = diagonal
    return TransitionMatrix(
        free_nodes=tuple(net.nodes[i].name for i in free),
        states=tuple(states),
        matrix=matrix,
        stationary=weights / joint.normalizer(),
    )


def min_transition_probability(tm: TransitionMatrix) -> float:
    """Smallest strictly positive off-diagonal one-step probability."""
    off = tm.matrix.copy()
    np.fill_diagonal(off, 0.0)
    positive = off[off > 0.0]
    if positive.size == 0:
        raise ValueError("chain has no positive off-diagonal transitions")
    return float(positive.min())


def relative_pointwise_distance(tm: TransitionMatrix, t: int) -> float:
    """max over (i, j) of |P^t[i, j] - pi[j]| / pi[j]."""
    if t < 0:
        raise ValueError("transition count must be >= 0")
    pt = np.linalg.matrix_power(tm.matrix, t)
    pi = tm.stationary
    return float(np.max(np.abs(pt - pi[None, :]) / pi[None, :]))


def mixing_report(
    net: BeliefNetwork,
    ev: Evidence,
    t_values: tuple[int, ...] = (),
    cap: int = DEFAULT_MATRIX_CAP,
) -> MixingReport:
    """Bundle the exactly computed mixing quantities for small chains."""
    tm = build_transition_matrix(net, ev, cap=cap)
    return MixingReport(
        pi_min=float(tm.stationary.min()),
        p0=min_transition_probability(tm),
        rpd={t: relative_pointwise_distance(tm, t) for t in t_values},
    )
