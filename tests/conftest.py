import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import strategies as st

import bnras


@pytest.fixture(scope="session")
def nets():
    return bnras.builtin_networks()


@pytest.fixture(scope="session")
def ab(nets):
    return nets["AB"]


@pytest.fixture(scope="session")
def path2(nets):
    return nets["PATH2"]


@pytest.fixture(scope="session")
def chain5(nets):
    return nets["CHAIN5"]


@pytest.fixture(scope="session")
def minialarm(nets):
    return nets["MINIALARM"]


@pytest.fixture(scope="session")
def uninode():
    """Single free binary node with a uniform table: the smallest chain."""
    node = bnras.Node("X", ("t", "f"), (), bnras.Cpt.from_rows([(0.5, 0.5)]))
    return bnras.BeliefNetwork("UNI", (node,))


@pytest.fixture
def empty():
    return bnras.Evidence.empty()


@pytest.fixture(scope="session")
def and_gate():
    """A and C uniform, B = A and C as 0/1 rows: a valid network whose
    uniform restarts can land on states of probability zero."""
    return bnras.parse_network(
        "network AND\n"
        "node A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node C { outcomes: t, f }\ncpt C:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A, C\n"
        "cpt B:\n 1 0\n 0 1\n 0 1\n 0 1\n"
    )


@pytest.fixture(scope="session")
def copy_net():
    """B copies A through 0/1 rows: zero weights that never conflict."""
    return bnras.parse_network(
        "network COPY\n"
        "node A { outcomes: t, f, u }\ncpt A:\n 0.2 0.3 0.5\n"
        "node B { outcomes: t, f, u }\nparents B: A\n"
        "cpt B:\n 1 0 0\n 0 1 0\n 0 0 1\n"
        "node C { outcomes: t, f }\nparents C: B\ncpt C:\n 0.9 0.1\n 0.4 0.6\n 0.5 0.5\n"
    )


@pytest.fixture(scope="session")
def tiny_joint():
    """Positive tables whose least joint state, 1e-200 * 1e-200, is below
    every double: the exact Pi underflows to 0.0."""
    return bnras.parse_network(
        "network TINY\n"
        "node A { outcomes: a, b, c }\ncpt A:\n 1e-200 0.5 0.5\n"
        "node B { outcomes: a, b, c }\nparents B: A\n"
        "cpt B:\n 1e-200 0.5 0.5\n 0.2 0.3 0.5\n 0.2 0.3 0.5\n"
    )


@pytest.fixture(scope="session")
def tiny_conditional():
    """Positive tables where A's three children, each clamped to an
    outcome of probability 1e-110, make A's full conditional 1e-330 times
    a half: both of its entries, and so their total, underflow to 0.0."""
    child = "node {0} {{ outcomes: x, y, z }}\nparents {0}: A\ncpt {0}:\n" + " 1e-110 0.5 0.5\n" * 2
    net = bnras.parse_network("network UNDER\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
                              + "".join(child.format(name) for name in "BCD"))
    return net, bnras.parse_evidence("B=x,C=x,D=x", net)


def layered_network(size, seed=0):
    """A binary network of `size` nodes X0, X1, ..., where node i has
    parents i-3, i-2 and i-1 (those that exist): multiply connected, with
    Markov blankets of at most six nodes however many nodes there are. Each
    table row's first entry is drawn from [0.2, 0.8] by random.Random(seed),
    so every table is strictly positive."""
    rng = random.Random(seed)
    nodes = []
    for i in range(size):
        parents = tuple(f"X{i - d}" for d in (3, 2, 1) if i >= d)
        rows = [(p, 1.0 - p) for p in (rng.uniform(0.2, 0.8) for _ in range(2 ** len(parents)))]
        nodes.append(bnras.Node(f"X{i}", ("t", "f"), parents, bnras.Cpt.from_rows(rows)))
    return bnras.BeliefNetwork(f"LAYERED{size}", tuple(nodes))


def hub_network(k, seed=0):
    """Binary parents P0, ..., P(k-1) of one binary hub H, whose table has
    2^k rows: the hub's free blanket, and each parent's (the hub and the
    other parents), has 2^k states. Each row's first entry is drawn from
    [0.05, 0.95] by random.Random(seed), so every table is strictly
    positive."""
    rng = random.Random(seed)

    def cpt(count):
        return bnras.Cpt.from_rows([(p, 1.0 - p) for p in (rng.uniform(0.05, 0.95) for _ in range(count))])

    parents = tuple(f"P{j}" for j in range(k))
    nodes = [bnras.Node(name, ("t", "f"), (), cpt(1)) for name in parents]
    nodes.append(bnras.Node("H", ("t", "f"), parents, cpt(2**k)))
    return bnras.BeliefNetwork(f"HUB{k}", tuple(nodes))


def star_network(k, seed=0):
    """One binary root R with k binary children C0, ..., C(k-1), each
    reading only the root: the root's free blanket has 2^k states, each
    child's two. Each row's first entry is drawn from [0.05, 0.95] by
    random.Random(seed), so every table is strictly positive."""
    rng = random.Random(seed)

    def cpt(count):
        return bnras.Cpt.from_rows([(p, 1.0 - p) for p in (rng.uniform(0.05, 0.95) for _ in range(count))])

    children = [bnras.Node(f"C{j}", ("t", "f"), ("R",), cpt(2)) for j in range(k)]
    return bnras.BeliefNetwork(f"STAR{k}", (bnras.Node("R", ("t", "f"), (), cpt(1)), *children))


@pytest.fixture(scope="session")
def hub13():
    """A hub with 13 parents: with no evidence every blanket table would
    have 8192 rows."""
    return hub_network(13)


@pytest.fixture(scope="session")
def layered300():
    """300 free nodes: far past the enumeration cap, and past numpy's 64
    axes for any array with an axis per free node."""
    return layered_network(300)


def evidence_sets(net):
    """Empty evidence plus one single-node clamp per network."""
    last = net.nodes[-1].name
    return [bnras.Evidence.empty(), bnras.Evidence({last: 0})]


def scalar_row_errors(nodes, probs, exact):
    """Test-side twin of the scorer: (avg_error, max_error, worst_node) of
    rows of probabilities ``probs``, one per node of ``nodes``, against the
    oracle's rows ``exact``, by a loop over every (node, outcome) pair in
    order. The deviations are added one after another, and the first
    largest names the worst node; with no pair, both errors are 0.0."""
    total = 0.0
    count = 0
    max_err = -1.0
    worst = nodes[0] if nodes else ""
    for name, est_row, exact_row in zip(nodes, probs, exact):
        assert len(est_row) == len(exact_row)
        for a, b in zip(est_row, exact_row):
            d = abs(a - b)
            total += d
            count += 1
            if d > max_err:
                max_err = d
                worst = name
    if count == 0:
        return 0.0, 0.0, worst
    return total / count, max_err, worst


def _joint_weight(net, assignment):
    """Product of raw table entries at a full joint assignment {name: index},
    with row indices accumulated Horner-style over the parent list."""
    p = 1.0
    for nd in net.nodes:
        row = 0
        for parent in nd.parents:
            row = row * len(net.node(parent).outcomes) + assignment[parent]
        p *= nd.cpt.rows[row][assignment[nd.name]]
    return p


def brute_posteriors(net, ev):
    """Test-side oracle, written independently of the package internals.

    Sums the product of raw table entries over every full joint assignment
    (including evidence nodes, skipping inconsistent ones). Returns
    ({node: [posterior per outcome]}, evidence probability).
    """
    names = [nd.name for nd in net.nodes]
    domains = [range(len(nd.outcomes)) for nd in net.nodes]
    free = [nd.name for nd in net.nodes if nd.name not in ev]
    sums = {name: [0.0] * len(net.node(name).outcomes) for name in free}
    total = 0.0
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        if any(assignment[name] != v for name, v in ev.items()):
            continue
        p = _joint_weight(net, assignment)
        total += p
        for name in free:
            sums[name][assignment[name]] += p
    return {name: [s / total for s in sums[name]] for name in free}, total


def scalar_transition_matrix(net, ev):
    """Test-side twin of the lazy random-scan matrix, entry by entry from the
    public full_conditional.

    States enumerate the free nodes' outcomes with the last free node
    fastest. A change of free node i to v gets (0.5/n) q_i(v); the diagonal
    starts at 0.5 and adds (0.5/n) q_i(current value) for each free node in
    declaration order. Returns (states, matrix).
    """
    free = [nd for nd in net.nodes if nd.name not in ev]
    states = list(itertools.product(*(range(len(nd.outcomes)) for nd in free)))
    index = {s: j for j, s in enumerate(states)}
    half_over_n = 0.5 / len(free)
    matrix = np.zeros((len(states), len(states)))
    for j, s in enumerate(states):
        values = dict(zip((nd.name for nd in free), s))
        full = [ev.get(nd.name) if nd.name in ev else values[nd.name] for nd in net.nodes]
        diagonal = 0.5
        for slot, nd in enumerate(free):
            for v, q in enumerate(bnras.full_conditional(net, full, nd.name)):
                if v == s[slot]:
                    diagonal += half_over_n * q
                else:
                    matrix[j, index[s[:slot] + (v,) + s[slot + 1:]]] = half_over_n * q
        matrix[j, j] = diagonal
    return states, matrix


@st.composite
def positive_networks(draw):
    """A small random network with every table entry inside (0, 1), and
    evidence clamping some but not all of its nodes.

    2-6 nodes of 2 or 3 outcomes; each node takes up to three parents among
    the nodes drawn before it, and the nodes are then declared in a random
    order, so declaration order need not be topological.
    """
    n = draw(st.integers(2, 6))
    arity = [draw(st.integers(2, 3)) for _ in range(n)]
    parents = [
        draw(st.lists(st.integers(0, i - 1), unique=True, max_size=3)) if i else []
        for i in range(n)
    ]
    nodes = []
    for i in range(n):
        rows = []
        for _ in range(int(np.prod([arity[p] for p in parents[i]]))):
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=arity[i], max_size=arity[i]))
            rows.append([w / sum(raw) for w in raw])
        nodes.append(bnras.Node(
            f"N{i}",
            tuple(f"o{v}" for v in range(arity[i])),
            tuple(f"N{p}" for p in parents[i]),
            bnras.Cpt.from_rows(rows),
        ))
    order = draw(st.permutations(range(n)))
    net = bnras.BeliefNetwork("RANDOM", tuple(nodes[i] for i in order))
    clamped = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    ev = bnras.Evidence({f"N{i}": draw(st.integers(0, arity[i] - 1)) for i in clamped})
    return net, ev


def _cyclic_scan_kernels(net, ev):
    """Explicit one-step matrices of cyclic-scan Gibbs sampling.

    Returns (states, free, kernels, weights): the joint assignments
    consistent with the evidence (tuples in declaration order), the
    positions of the free nodes in scan order, for each free node the matrix
    that redraws it from its full conditional (the ratio of joint weights)
    while every other node keeps its value, and each state's joint weight.
    """
    names = [nd.name for nd in net.nodes]
    domains = [
        (ev.get(nd.name),) if nd.name in ev else range(len(nd.outcomes))
        for nd in net.nodes
    ]
    states = list(itertools.product(*domains))
    index = {s: j for j, s in enumerate(states)}
    weight = [_joint_weight(net, dict(zip(names, s))) for s in states]
    free = [pos for pos, nd in enumerate(net.nodes) if nd.name not in ev]
    kernels = []
    for pos in free:
        k = np.zeros((len(states), len(states)))
        for j, s in enumerate(states):
            targets = [index[s[:pos] + (v,) + s[pos + 1:]] for v in domains[pos]]
            total = sum(weight[t] for t in targets)
            for t in targets:
                k[j, t] = weight[t] / total
        kernels.append(k)
    return states, free, kernels, np.array(weight)


def cyclic_scan_average_pmfs(net, ev, n):
    """Exact law of each free node's time average under cyclic scan.

    The chain starts with every free node independently uniform, redraws
    the free nodes one per step in declaration order, and scores the state
    after each of its n steps, as straight simulation does. Returns
    {node: pmf} where pmf[c] is the probability that exactly c of the n
    scored states give the node its first outcome. Computed by dynamic
    programming over (joint state, count), so it is exact up to float
    rounding and costs O(n^2 * states^2).
    """
    states, free, kernels, _ = _cyclic_scan_kernels(net, ev)
    start = np.full(len(states), 1.0 / len(states))
    pmfs = {}
    for pos in free:
        hit = np.array([s[pos] == 0 for s in states])
        prob = np.zeros((len(states), n + 1))
        prob[:, 0] = start
        for step in range(n):
            live = prob[:, : step + 2]  # counts above step are still zero
            live[:] = kernels[step % len(free)].T @ live
            live[hit, 1:] = live[hit, :-1]
            live[hit, 0] = 0.0
        pmfs[net.nodes[pos].name] = prob.sum(axis=0)
    return pmfs


def cyclic_scan_flip_probability(net, ev):
    """Per free node, the probability that one full cyclic sweep started at
    the posterior changes the node's value."""
    states, free, kernels, weight = _cyclic_scan_kernels(net, ev)
    pi = weight / weight.sum()
    sweep = functools.reduce(np.matmul, kernels)
    flips = {}
    for pos in free:
        value = np.array([s[pos] for s in states])
        changed = value[:, None] != value[None, :]
        flips[net.nodes[pos].name] = float(pi @ (sweep * changed).sum(axis=1))
    return flips
