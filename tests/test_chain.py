import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

import bnras
from bnras import Evidence, RandomStream, chain

from conftest import (
    cyclic_scan_average_pmfs,
    cyclic_scan_flip_probability,
    evidence_sets,
    positive_networks,
    star_network,
)


class ScriptedStream(RandomStream):
    """Returns preset draws and counts how many were consumed."""

    def __init__(self, values):
        super().__init__(0)
        self.values = list(values)
        self.consumed = 0

    def random(self):
        self.consumed += 1
        return self.values.pop(0)


class RecordingStream(RandomStream):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def random(self):
        u = super().random()
        self.draws.append(u)
        return u


def manual_conditional(net, state, node):
    """Slow reference: normalized products of plain table lookups."""
    i = net.node_index[node]
    k = len(net.node(node).outcomes)
    weights = []
    for v in range(k):
        trial_state = list(state)
        trial_state[i] = v
        w = bnras.conditional_probability(net, node, v, trial_state)
        for nd in net.nodes:
            if node in nd.parents:
                w *= bnras.conditional_probability(
                    net, nd.name, trial_state[net.node_index[nd.name]], trial_state
                )
        weights.append(w)
    total = sum(weights)
    return [w / total for w in weights]


def test_full_conditional_ab_given_b(ab):
    probs = bnras.full_conditional(ab, [0, 0], "A")
    assert probs[0] == pytest.approx(9 / 11, abs=1e-12)
    assert probs[1] == pytest.approx(2 / 11, abs=1e-12)


def test_full_conditional_ab_given_not_b(ab):
    probs = bnras.full_conditional(ab, [0, 1], "A")
    assert probs[0] == pytest.approx(1 / 9, abs=1e-12)
    assert probs[1] == pytest.approx(8 / 9, abs=1e-12)


def test_full_conditional_leaf_equals_cpt_row(ab):
    probs = bnras.full_conditional(ab, [0, 0], "B")
    assert probs == pytest.approx([0.9, 0.1], abs=1e-15)


def test_full_conditional_normalized_and_matches_reference(nets):
    for net in nets.values():
        state = [0] * len(net.nodes)
        for i, nd in enumerate(net.nodes):
            state[i] = i % len(nd.outcomes)
        for nd in net.nodes:
            probs = bnras.full_conditional(net, state, nd.name)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
            expected = manual_conditional(net, state, nd.name)
            assert probs == pytest.approx(expected, abs=1e-13)


def test_full_conditional_depends_only_on_blanket(chain5, minialarm):
    for net, node in ((chain5, "C3"), (minialarm, "VOLUME")):
        blanket = bnras.markov_blanket(net, node)
        state = [0] * len(net.nodes)
        base = bnras.full_conditional(net, state, node)
        for i, nd in enumerate(net.nodes):
            if nd.name == node or nd.name in blanket:
                continue
            perturbed = list(state)
            perturbed[i] = 1
            assert bnras.full_conditional(net, perturbed, node) == base


def test_full_conditional_zero_weights_raise():
    doc = (
        "network DET\n"
        "node A { outcomes: t, f }\ncpt A:\n 1 0\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 1 0\n 0 1\n"
    )
    net = bnras.parse_network(doc)
    # in state (A=t, B=f) every candidate value of A has weight zero:
    # A=t forces B=t, and A=f has prior probability 0
    with pytest.raises(bnras.DeterministicConflictError):
        bnras.full_conditional(net, [0, 1], "A")


def test_underflow_named_apart_from_conflict():
    # each child at its value less likely under both root values: R's
    # weights are products of 1001 entries below 0.5 and reach 0.0,
    # though every table is strictly positive
    net = star_network(1000)
    state = [0] + [
        next((v for v in (0, 1) if max(nd.cpt.rows[0][v], nd.cpt.rows[1][v]) < 0.5), 0)
        for nd in net.nodes[1:]
    ]
    with pytest.raises(bnras.DeterministicConflictError) as info:
        bnras.full_conditional(net, state, "R")
    assert str(info.value) == (
        "all conditional weights of node R are zero in the given state; "
        "their products of strictly positive table entries underflowed to 0.0"
    )
    # a zero entry in the family keeps the conflict's wording
    det = bnras.parse_network(
        "network DET\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 1 0\n 1 0\n"
    )
    with pytest.raises(bnras.DeterministicConflictError, match="0/1 table entries conflict"):
        bnras.full_conditional(det, [0, 1], "A")


def test_lazy_hold_consumes_one_draw(ab, empty):
    cs = bnras.init_random_state(ab, empty, RandomStream(3))
    before = list(cs.state)
    rng = ScriptedStream([0.3])
    bnras.do_transition(ab, cs, rng)
    assert cs.state == before
    assert rng.consumed == 1


def test_forced_node_and_outcome_draws(ab):
    ev = bnras.parse_evidence("B=t", ab)
    cs = bnras.init_random_state(ab, ev, RandomStream(3))
    cs.state[0] = 1  # start from A=f
    # non-lazy (0.9), choose node index 0 of the free list (0.0), then any
    # threshold below 9/11 must select A=t
    rng = ScriptedStream([0.9, 0.0, 0.5])
    bnras.do_transition(ab, cs, rng)
    assert cs.state[0] == 0
    assert rng.consumed == 3


def test_outcome_threshold_boundary(ab):
    ev = bnras.parse_evidence("B=t", ab)
    cs = bnras.init_random_state(ab, ev, RandomStream(3))
    # threshold just above 9/11 lands on the second outcome
    rng = ScriptedStream([0.9, 0.0, 9 / 11 + 1e-9])
    bnras.do_transition(ab, cs, rng)
    assert cs.state[0] == 1


def test_do_transition_requires_free_node(ab):
    ev = bnras.parse_evidence("A=t,B=t", ab)
    cs = bnras.init_random_state(ab, ev, RandomStream(0))
    with pytest.raises(ValueError, match="no free nodes"):
        bnras.do_transition(ab, cs, RandomStream(1))


@pytest.mark.parametrize("step", [bnras.do_transition, bnras.straight_step])
@pytest.mark.parametrize("state, free, message", [
    ([0, -1], (0, 1), r"state\[1\] = -1 invalid for node B"),  # -1 would wrap to the last entry
    ([0, 2], (0, 1), r"state\[1\] = 2 invalid for node B"),
    ([0], (0,), "state has 1 entries for 2 nodes"),
    ([0, 0], (0, 7), "free index 7 is not a node of network AB"),
    ([0, 0], (-1,), "free index -1 is not a node of network AB"),
    ([0, 0], (True,), "free index True is not a node of network AB"),
    ([0, 0], (0, 0), "free index 0 repeats among the free nodes"),  # B would never be redrawn
])
def test_single_steps_refuse_a_walker_that_does_not_fit(ab, step, state, free, message):
    cs = chain.ChainState(list(state), free)
    rng = ScriptedStream([0.9, 0.9, 0.9])
    with pytest.raises(ValueError, match=message):
        step(ab, cs, rng)
    assert rng.consumed == 0
    assert cs.state == state and cs.cursor == 0


@pytest.mark.parametrize("cursor", [5, 2, -1, 1.0])
def test_straight_step_refuses_a_cursor_off_the_free_nodes(ab, cursor):
    cs = chain.ChainState([0, 0], (0, 1), cursor)
    rng = ScriptedStream([0.9])
    with pytest.raises(ValueError, match=f"cursor {cursor!r} is not a position among 2 free nodes"):
        bnras.straight_step(ab, cs, rng)
    assert rng.consumed == 0
    # the lazy kernel never reads the cursor
    bnras.do_transition(ab, cs, ScriptedStream([0.3]))


def test_node_choice_uniform_between_free_nodes(ab, empty):
    # replay the recorded draws to classify each transition's node pick
    rng = RecordingStream(0)
    cs = bnras.init_random_state(ab, empty, rng)
    rng.draws.clear()
    steps = 100_000
    for _ in range(steps):
        bnras.do_transition(ab, cs, rng)
    picks = [0, 0]
    i = 0
    draws = rng.draws
    while i < len(draws):
        if draws[i] <= 0.5:
            i += 1
        else:
            picks[int(draws[i + 1] * 2)] += 1
            i += 3
    total = sum(picks)
    assert total > steps * 0.45
    assert abs(picks[0] / total - 0.5) <= 0.01


def test_init_random_state_clamps_and_uniformizes(ab):
    ev = bnras.parse_evidence("B=t", ab)
    rng = RandomStream(0)
    hits = 0
    n = 100_000
    for _ in range(n):
        cs = bnras.init_random_state(ab, ev, rng)
        assert cs.state[1] == 0  # B stays clamped
        hits += cs.state[0] == 0
    assert abs(hits / n - 0.5) <= 0.01


def test_init_fully_clamped_uses_no_draws(ab):
    ev = bnras.parse_evidence("A=t,B=f", ab)
    rng = ScriptedStream([])
    cs = bnras.init_random_state(ab, ev, rng)
    assert rng.consumed == 0
    assert cs.state == [0, 1]
    assert cs.free == ()


def test_init_chi_square_over_joint_states(ab, empty):
    rng = RandomStream(0)
    counts = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    n = 100_000
    for _ in range(n):
        cs = bnras.init_random_state(ab, empty, rng)
        counts[tuple(cs.state)] += 1
    expected = n / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 30  # df=3; this is far beyond any plausible quantile


def test_next_trial_zero_transitions_is_uniform(ab, empty):
    rng = RandomStream(1)
    counts = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
    n = 20_000
    for _ in range(n):
        counts[bnras.next_trial(ab, empty, 0, rng)] += 1
    for c in counts.values():
        assert abs(c / n - 0.25) <= 0.015


def test_next_trial_converges_to_posterior(ab):
    ev = bnras.parse_evidence("B=t", ab)
    rng = RandomStream(2)
    n = 10_000
    hits = sum(bnras.next_trial(ab, ev, 200, rng)[0] == 0 for _ in range(n))
    assert abs(hits / n - 9 / 11) <= 0.02


def test_next_trial_uniform_node_stays_near_half(uninode, empty):
    rng = RandomStream(3)
    n = 20_000
    hits = sum(bnras.next_trial(uninode, empty, 3, rng)[0] == 0 for _ in range(n))
    # the uniform restart is already stationary; deviation is sampling noise,
    # well inside the analytic ceiling of 0.0625 for three transitions
    assert abs(hits / n - 0.5) <= 0.0625


def test_one_step_frequencies_match_matrix_row(ab, empty):
    tm = bnras.build_transition_matrix(ab, empty)
    start = (0, 0)
    row = tm.matrix[tm.states.index(start)]
    rng = RandomStream(0)
    counts = {s: 0 for s in tm.states}
    n = 1_000_000
    cs = bnras.init_random_state(ab, empty, rng)
    for _ in range(n):
        cs.state[0], cs.state[1] = start
        bnras.do_transition(ab, cs, rng)
        counts[tuple(cs.state)] += 1
    tv = 0.5 * sum(abs(counts[s] / n - row[i]) for i, s in enumerate(tm.states))
    assert tv <= 0.01


def test_evidence_never_changes(chain5):
    ev = bnras.parse_evidence("C2=f,C5=t", chain5)
    rng = RandomStream(9)
    cs = bnras.init_random_state(chain5, ev, rng)
    i2 = chain5.node_index["C2"]
    i5 = chain5.node_index["C5"]
    for _ in range(2000):
        bnras.do_transition(chain5, cs, rng)
        assert cs.state[i2] == 1 and cs.state[i5] == 0
    for _ in range(2000):
        bnras.straight_step(chain5, cs, rng)
        assert cs.state[i2] == 1 and cs.state[i5] == 0


def test_trajectory_determinism(chain5, empty):
    def trajectory(seed):
        rng = RandomStream(seed)
        cs = bnras.init_random_state(chain5, empty, rng)
        return [tuple(bnras.do_transition(chain5, cs, rng).state) for _ in range(500)]

    assert trajectory(77) == trajectory(77)
    assert trajectory(77) != trajectory(78)


def test_next_trial_matches_spawned_streams(ab):
    ev = bnras.parse_evidence("B=t", ab)
    master = RandomStream(5)
    first = bnras.next_trial(ab, ev, 10, master.spawn(0))
    again = bnras.next_trial(ab, ev, 10, RandomStream(5).spawn(0))
    assert first == again


def test_straight_step_cursor_advance_and_wrap(ab, empty):
    rng = RandomStream(0)
    cs = bnras.init_random_state(ab, empty, rng)
    assert cs.cursor == 0
    bnras.straight_step(ab, cs, rng)
    assert cs.cursor == 1
    bnras.straight_step(ab, cs, rng)
    assert cs.cursor == 0  # wrapped past the last free node


def test_straight_step_consumes_one_draw(ab, empty):
    cs = bnras.init_random_state(ab, empty, RandomStream(1))
    rng = ScriptedStream([0.99])
    bnras.straight_step(ab, cs, rng)
    assert rng.consumed == 1


def test_straight_sweep_survival_path2(path2):
    # starting from (t, t), the chance a full cyclic sweep changes nothing is
    # q_A(t | B=t) * q_B(t | A=t)
    q_a = bnras.full_conditional(path2, [0, 0], "A")[0]
    q_b = bnras.full_conditional(path2, [0, 0], "B")[0]
    survival = q_a * q_b
    assert survival == pytest.approx(0.9801, abs=1e-12)
    assert survival > 0.97


def test_cyclic_scan_law_hand_computed_path2(path2, empty):
    # The exact cyclic-scan law behind acceptance 08, against hand-worked
    # cases from the uniform start. Step 1 redraws A given B, so
    # P(A=t) = (0.99 + 0.01) / 2 while B keeps its start value; step 2 redraws
    # B given that A, so both scored B values are t with probability
    # (0.99^2 + 0.01^2) / 2 = 0.4901 and A's count is 0 or 2.
    one = cyclic_scan_average_pmfs(path2, empty, 1)
    two = cyclic_scan_average_pmfs(path2, empty, 2)
    assert list(one["A"]) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert list(one["B"]) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert list(two["A"]) == pytest.approx([0.5, 0.0, 0.5], abs=1e-15)
    assert list(two["B"]) == pytest.approx([0.4901, 0.0198, 0.4901], abs=1e-15)
    long = cyclic_scan_average_pmfs(path2, empty, 1000)
    for pmf in (*one.values(), *two.values(), *long.values()):
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert pmf.min() >= 0.0
    # started at the posterior, A's redraw is a fresh draw from the same
    # 0.99/0.01 conditional that A came from, so it differs with probability
    # 2 * 0.99 * 0.01; B likewise
    flips = cyclic_scan_flip_probability(path2, empty)
    assert flips == pytest.approx({"A": 0.0198, "B": 0.0198}, abs=1e-15)


def assert_conditional_rows_match_scalar(net, ev):
    """Each free node's blanket, read off the node declarations, is
    ``_Tables.blanket``; ``_conditional``'s axes are the node and its free
    blanket members; and each of its rows is the scalar reference's weights
    at that row's blanket state."""
    tab, free, template = chain._prepare(net, ev)
    for i in free:
        name = net.nodes[i].name
        children = [nd for nd in net.nodes if name in nd.parents]
        blanket = {*net.nodes[i].parents, *(c.name for c in children),
                   *(p for c in children for p in c.parents)} - {name}
        assert tab.blanket(i) == tuple(sorted(net.node_index[b] for b in blanket))
        axes, cond = chain._conditional(tab, set(free), template, i)
        assert axes == tuple(sorted({i, *(net.node_index[b] for b in blanket if b not in ev)}))
        members = [a for a in axes if a != i]
        rows = np.moveaxis(cond, axes.index(i), -1)
        for values in itertools.product(*(range(tab.k[m]) for m in members)):
            state = template.copy()
            for m, v in zip(members, values):
                state[m] = v
            assert rows[values].tolist() == chain._conditional_weights(tab, state, i)[0]


def test_conditional_rows_match_scalar_reference(nets, and_gate):
    # the AND gate's rows where B's value rules out every outcome are zero
    for net in [*nets.values(), and_gate]:
        for ev in evidence_sets(net):
            assert_conditional_rows_match_scalar(net, ev)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_conditional_rows_on_random_networks(case):
    assert_conditional_rows_match_scalar(*case)
