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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeterministicConflictError
from .network import (
    BeliefNetwork,
    Evidence,
    JointState,
    check_evidence,
    check_state,
    _Tables,
)
from .rng import RandomStream


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
    for c, stride_i in zip(tab.children[i], tab.child_strides[i]):
        kc = tab.k[c]
        rowc = 0
        for p, s in zip(tab.parents[c], tab.strides[c]):
            if p != i:
                rowc += state[p] * s
        flat_c = tab.flat[c]
        idx = rowc * kc + state[c]
        step = stride_i * kc
        for v in range(k):
            weights[v] *= flat_c[idx]
            idx += step
    total = 0.0
    for w in weights:
        total += w
    return weights, total


def _zero_weights(i: int) -> DeterministicConflictError:
    """The refusal of node i when all its conditional weights are zero;
    callers that hold the network restate it with :func:`_located`."""
    return DeterministicConflictError(
        f"all conditional weights of node index {i} are zero; "
        "the 0/1 table entries conflict with the current state",
        node=i,
    )


def _resample(tab: _Tables, state: list[int], i: int, rand) -> None:
    """Redraw node i from its full conditional using one uniform draw."""
    weights, total = _conditional_weights(tab, state, i)
    if total <= 0.0:
        raise _zero_weights(i)
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


def _located(net: BeliefNetwork, exc: DeterministicConflictError, where: str):
    """Restate a :func:`_zero_weights` refusal with the node's name and
    where it happened."""
    return DeterministicConflictError(
        f"all conditional weights of node {net.nodes[exc.node].name} are zero "
        f"{where}; the 0/1 table entries conflict with the current state",
        node=exc.node,
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
    i = net.node_index[node]
    weights, total = _conditional_weights(net.tables, state, i)
    if total <= 0.0:
        raise _located(net, _zero_weights(i), "in the given state")
    return [w / total for w in weights]


def init_random_state(net: BeliefNetwork, ev: Evidence, rng: RandomStream) -> ChainState:
    """Fresh walker: evidence clamped, each free node independently uniform
    over its outcomes (one draw per free node, in declaration order)."""
    tab, free, template = _prepare(net, ev)
    return ChainState(state=_uniform_state(tab, free, template, rng.random), free=free)


def do_transition(net: BeliefNetwork, cs: ChainState, rng: RandomStream) -> ChainState:
    """One lazy random-scan transition, mutating and returning ``cs``."""
    _require_free(cs.free)
    try:
        _run_lazy(net.tables, cs.free, cs.state, 1, rng.random)
    except DeterministicConflictError as exc:
        raise _located(net, exc, f"in a lazy transition of seed {rng.seed_value}") from None
    return cs


def next_trial(net: BeliefNetwork, ev: Evidence, t: int, rng: RandomStream) -> tuple[int, ...]:
    """One trial: initialize uniformly at random, run t lazy transitions,
    return the resulting joint state."""
    if t < 0:
        raise ValueError("transition count must be >= 0")
    tab, free, template = _prepare(net, ev)
    try:
        return tuple(_trial(tab, free, template, t, rng))
    except DeterministicConflictError as exc:
        raise _located(net, exc, f"in a trial of seed {rng.seed_value}") from None


def _trial(tab: _Tables, free: tuple[int, ...], template: list[int], t: int, rng) -> list[int]:
    rand = rng.random
    state = _uniform_state(tab, free, template, rand)
    if t:
        _run_lazy(tab, free, state, t, rand)
    return state


def straight_step(net: BeliefNetwork, cs: ChainState, rng: RandomStream) -> ChainState:
    """One cyclic-scan step: resample the cursor's node from its full
    conditional and advance the cursor over the free nodes."""
    _require_free(cs.free)
    try:
        _resample(net.tables, cs.state, cs.free[cs.cursor], rng.random)
    except DeterministicConflictError as exc:
        raise _located(net, exc, f"in a cyclic-scan step of seed {rng.seed_value}") from None
    cs.cursor = (cs.cursor + 1) % len(cs.free)
    return cs
