"""Discrete belief-network model.

A :class:`BeliefNetwork` is a DAG of discrete nodes, each carrying a
conditional probability table (CPT) over its outcomes given its parents'
outcomes. Table rows are ordered with the *last* declared parent varying
fastest, which fixes a bit-exact file layout.

Construction is permissive: a structurally broken network can be built and
then inspected with :func:`validate_network`, which reports problems instead
of raising. :func:`validate_network` is the one definition of a valid
network; :attr:`BeliefNetwork.tables`, which every sampler, the oracle and
the bounds compile through, raises :class:`NetworkValidationError` with its
issues unless the report says ``ok``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import CycleError, NetworkValidationError

#: CPT rows whose sum deviates from 1 by more than this are invalid.
ROW_SUM_TOL = 1e-9

#: Deviations at or below this are attributed to float round-off and left
#: untouched by :func:`normalize_rows`; renormalizing them would make the
#: operation non-idempotent.
_ROUNDOFF_TOL = 1e-13

JointState = Sequence[int]


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table: one row per parent-outcome combination,
    rows ordered with the last declared parent varying fastest."""

    rows: tuple[tuple[float, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "Cpt":
        return cls(tuple(tuple(float(p) for p in row) for row in rows))

    @property
    def positive(self) -> bool:
        """True iff every entry lies strictly inside (0, 1)."""
        return all(0.0 < p < 1.0 for row in self.rows for p in row)

    @property
    def min_entry(self) -> float:
        return min(p for row in self.rows for p in row)

    @property
    def max_entry(self) -> float:
        return max(p for row in self.rows for p in row)


@dataclass(frozen=True)
class Node:
    name: str
    outcomes: tuple[str, ...]
    parents: tuple[str, ...]
    cpt: Cpt

    def outcome_index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise KeyError(f"node {self.name} has no outcome {label!r}") from None


def _is_index(value) -> bool:
    """Whether value can be an outcome index: an integer of any type,
    numpy's included, but not a bool. A Python int, the common case, is
    answered without the slower abstract-class check."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Evidence:
    """Partial assignment clamping observed nodes to outcome indices.

    Integer indices of any type (numpy's included) are stored as Python
    ints; booleans and other values are kept for :func:`check_evidence` to
    reject.
    """

    assignments: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {name: int(v) if _is_index(v) else v for name, v in self.assignments.items()}
        object.__setattr__(self, "assignments", clean)

    def __hash__(self) -> int:
        return hash(frozenset(self.assignments.items()))

    @classmethod
    def empty(cls) -> "Evidence":
        return cls({})

    def __contains__(self, name: str) -> bool:
        return name in self.assignments

    def __len__(self) -> int:
        return len(self.assignments)

    def get(self, name: str) -> int | None:
        return self.assignments.get(name)

    def items(self):
        return self.assignments.items()


class _Tables:
    """Index-based lookup structure compiled once per network.

    Everything the samplers and the enumeration oracle touch per step lives
    here as flat Python lists, keyed by node index. Built only for networks
    that :func:`validate_network` accepts.
    """

    __slots__ = ("n", "k", "parents", "strides", "flat", "children", "child_lookups", "blankets")

    def __init__(self, net: "BeliefNetwork"):
        index = net.node_index
        nodes = net.nodes
        self.n = len(nodes)
        self.k = [len(nd.outcomes) for nd in nodes]
        self.parents: list[tuple[int, ...]] = []
        self.strides: list[tuple[int, ...]] = []
        self.flat: list[list[float]] = []
        for nd in nodes:
            pix = tuple(index[p] for p in nd.parents)
            strides = [0] * len(pix)
            acc = 1
            for j in range(len(pix) - 1, -1, -1):  # last parent varies fastest
                strides[j] = acc
                acc *= self.k[pix[j]]
            self.parents.append(pix)
            self.strides.append(tuple(strides))
            self.flat.append([p for row in nd.cpt.rows for p in row])
        # child_lookups[i]: per child c of i, in declaration order, where c's
        # entry sits in flat[c] as i's value varies: (c, flat[c], step,
        # others), the entry for i = v being flat[c][state[c] + step * v +
        # sum(state[p] * m for p, m in others)] over c's other parents.
        lookups: list[list[tuple]] = [[] for _ in nodes]
        for c, nd in enumerate(nodes):
            kc = self.k[c]
            for p, stride in zip(self.parents[c], self.strides[c]):
                others = tuple((q, s * kc) for q, s in zip(self.parents[c], self.strides[c])
                               if q != p)
                lookups[p].append((c, self.flat[c], stride * kc, others))
        self.child_lookups = [tuple(ls) for ls in lookups]
        self.children = [tuple(c for c, *_ in ls) for ls in lookups]
        # the samplers' blanket tables for the evidence they last ran on,
        # with its key (see chain._blanket_tables)
        self.blankets: tuple | None = None

    def blanket(self, i: int) -> tuple[int, ...]:
        """Node i's Markov blanket, ascending: its parents, its children and
        their other parents."""
        members = {*self.parents[i], *self.children[i]}
        for c in self.children[i]:
            members.update(self.parents[c])
        members.discard(i)
        return tuple(sorted(members))


@dataclass(frozen=True)
class BeliefNetwork:
    name: str
    nodes: tuple[Node, ...]

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {nd.name: i for i, nd in enumerate(self.nodes)}

    def node(self, name: str) -> Node:
        """The node named ``name``; ValueError if the network has none."""
        return self.nodes[_index_of(self, name)]

    @cached_property
    def tables(self) -> _Tables:
        """Compiled lookup tables; raises NetworkValidationError with the
        issues of :func:`validate_network` unless its report is ``ok``."""
        issues = validate_network(self).issues
        if issues:
            raise NetworkValidationError(f"network {self.name} is invalid: " + "; ".join(issues))
        return _Tables(self)

    def __repr__(self) -> str:
        return f"BeliefNetwork({self.name!r}, {len(self.nodes)} nodes)"


@dataclass(frozen=True)
class ValidationReport:
    """Findings of :func:`validate_network`.

    ``issues`` holds one line per problem, in the order checked. A problem
    with one node starts with the block of a network document that states
    it: ``node X: ...`` (name and outcomes), ``parents X: ...`` (parent
    list) or ``cpt X: ...`` (table rows). Network-wide problems, such as a
    cycle, name no block.
    """

    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True iff the network is usable downstream. Positivity is not
        required; zero/one entries only void the bounds analysis."""
        return not self.issues


def normalize_rows(rows: Iterable[Iterable[float]]) -> tuple[tuple[float, ...], ...]:
    """Return rows rescaled to unit sum, for use when loading tables.

    Rows whose sum is within float round-off of 1 are returned unchanged,
    which makes the operation idempotent and keeps serialize/parse round
    trips bit-exact. A row off by more than ``ROW_SUM_TOL`` raises ValueError.
    """
    out = []
    for r, row in enumerate(rows):
        row = tuple(float(p) for p in row)
        s = math.fsum(row)
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"row {r} sums to {s!r}, beyond the {ROW_SUM_TOL} tolerance")
        if abs(s - 1.0) > _ROUNDOFF_TOL:
            row = tuple(p / s for p in row)
        out.append(row)
    return tuple(out)


def validate_network(net: BeliefNetwork) -> ValidationReport:
    """Check structure and tables; failures are reported, never raised."""
    issues: list[str] = []

    seen: set[str] = set()
    for nd in net.nodes:
        if nd.name in seen:
            issues.append(f"node {nd.name}: duplicate node name")
        seen.add(nd.name)

    for nd in net.nodes:
        k = len(nd.outcomes)
        if k < 2:
            issues.append(f"node {nd.name}: fewer than 2 outcomes")
        if len(set(nd.outcomes)) != k:
            issues.append(f"node {nd.name}: duplicate outcome labels")
        unknown = [p for p in nd.parents if p not in net.node_index]
        for p in unknown:
            issues.append(f"parents {nd.name}: unknown parent {p}")
        if len(set(nd.parents)) != len(nd.parents):
            issues.append(f"parents {nd.name}: repeated parent reference")
        if not unknown:
            rows = math.prod(len(net.node(p).outcomes) for p in nd.parents)
            if len(nd.cpt.rows) != rows:
                n = sum(map(len, nd.cpt.rows))
                issues.append(f"cpt {nd.name}: {n} probabilities, expected {rows} rows of {k}")
        for r, row in enumerate(nd.cpt.rows):
            if len(row) != k:
                issues.append(f"cpt {nd.name}: row {r} has {len(row)} entries, expected {k}")
                continue
            if any(not (0.0 <= p <= 1.0) for p in row):
                issues.append(f"cpt {nd.name}: row {r} has entries outside [0, 1]")
            s = math.fsum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                issues.append(f"cpt {nd.name}: row {r} sums to {s:.12g}")

    try:
        topological_order(net)
    except CycleError:
        issues.append("parent relation contains a cycle")
    return ValidationReport(tuple(issues))


def topological_order(net: BeliefNetwork) -> tuple[str, ...]:
    """Node names ordered so every node follows all its parents.

    Deterministic: among ready nodes, declaration order wins.
    """
    index = net.node_index
    remaining = list(range(len(net.nodes)))
    placed: set[int] = set()
    order: list[str] = []
    while remaining:
        progressed = False
        for i in list(remaining):
            nd = net.nodes[i]
            if all(index[p] in placed for p in nd.parents if p in index):
                # unknown parents are ignored here; validate_network reports them
                order.append(nd.name)
                placed.add(i)
                remaining.remove(i)
                progressed = True
                break
        if not progressed:
            names = ", ".join(net.nodes[i].name for i in remaining)
            raise CycleError(f"parent relation contains a cycle among: {names}")
    return tuple(order)


def _index_of(net: BeliefNetwork, node: str) -> int:
    """The index of the node named ``node``; ValueError if the network has
    none."""
    i = net.node_index.get(node)
    if i is None:
        raise ValueError(f"network {net.name} has no node {node!r}")
    return i


def _entry(tab: _Tables, i: int, value: int, state: JointState) -> float:
    """Node i's table entry for value, at its parents' values in state."""
    row = sum(state[p] * s for p, s in zip(tab.parents[i], tab.strides[i]))
    return tab.flat[i][row * tab.k[i] + value]


def conditional_probability(
    net: BeliefNetwork, node: str, value: int, state: JointState
) -> float:
    """P(node = value | parents as assigned in state), a plain table lookup.

    Raises ValueError unless ``node`` names a node of the network, ``value``
    is one of its outcome indices and ``state`` passes :func:`check_state`.
    """
    tab = net.tables
    i = _index_of(net, node)
    if not _is_index(value) or not 0 <= value < tab.k[i]:
        raise ValueError(f"outcome index {value!r} invalid for node {node}")
    check_state(net, state)
    return _entry(tab, i, value, state)


def joint_probability(net: BeliefNetwork, state: JointState) -> float:
    """Product over all nodes, in declaration order, of their conditional
    probability in state; raises ValueError unless ``state`` passes
    :func:`check_state`."""
    tab = net.tables
    check_state(net, state)
    return math.prod((_entry(tab, i, state[i], state) for i in range(tab.n)), start=1.0)


def markov_blanket(net: BeliefNetwork, node: str) -> set[str]:
    """Parents, children, and children's other parents of the node."""
    return {net.nodes[j].name for j in net.tables.blanket(_index_of(net, node))}


def free_nodes(net: BeliefNetwork, ev: Evidence) -> tuple[str, ...]:
    """Names of the nodes not clamped by evidence, in declaration order;
    raises ValueError unless ``ev`` passes :func:`check_evidence`."""
    check_evidence(net, ev)
    return tuple(nd.name for nd in net.nodes if nd.name not in ev)


def check_evidence(net: BeliefNetwork, ev: Evidence) -> None:
    """Raise ValueError unless every evidence entry names a real node and a
    valid outcome index for it."""
    for name, value in ev.items():
        if name not in net.node_index:
            raise ValueError(f"evidence names unknown node {name!r}")
        k = len(net.node(name).outcomes)
        if type(value) is not int or not 0 <= value < k:
            raise ValueError(f"evidence for node {name}: outcome index {value!r} invalid")


def check_state(net: BeliefNetwork, state: JointState) -> None:
    """Raise ValueError unless state assigns a valid outcome to every node:
    an integer index (numpy's too, booleans not) within its outcomes."""
    if len(state) != len(net.nodes):
        raise ValueError(f"state has {len(state)} entries for {len(net.nodes)} nodes")
    for i, nd in enumerate(net.nodes):
        value = state[i]
        if not _is_index(value) or not 0 <= value < len(nd.outcomes):
            raise ValueError(f"state[{i}] = {value!r} invalid for node {nd.name}")
