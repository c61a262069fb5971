import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

import bnras
from bnras import Cpt, Evidence, Node

from conftest import _joint_weight, positive_networks


def build(name, specs):
    """specs: list of (name, outcomes, parents, rows)."""
    nodes = tuple(
        Node(n, tuple(o), tuple(p), Cpt.from_rows(rows)) for n, o, p, rows in specs
    )
    return bnras.BeliefNetwork(name, nodes)


def test_ab_validates_positive(ab):
    report = bnras.validate_network(ab)
    assert report.ok
    assert report.issues == ()
    assert all(nd.cpt.positive for nd in ab.nodes)


def test_two_cycle_fails_acyclicity():
    net = build(
        "LOOP",
        [
            ("A", "tf", ["B"], [(0.5, 0.5), (0.5, 0.5)]),
            ("B", "tf", ["A"], [(0.5, 0.5), (0.5, 0.5)]),
        ],
    )
    report = bnras.validate_network(net)
    assert not report.ok
    assert report.issues == ("parent relation contains a cycle",)


def test_bad_row_sum_reported():
    net = build("BAD", [("A", "tf", [], [(0.6, 0.5)])])
    report = bnras.validate_network(net)
    assert not report.ok
    assert report.issues == ("cpt A: row 0 sums to 1.1",)


def test_unknown_parent_reported():
    net = build("MISS", [("A", "tf", ["Q"], [(0.5, 0.5), (0.5, 0.5)])])
    report = bnras.validate_network(net)
    assert not report.ok
    assert report.issues == ("parents A: unknown parent Q",)


def test_wrong_row_count_reported():
    net = build(
        "ROWS",
        [
            ("A", "tf", [], [(0.5, 0.5)]),
            ("B", "tf", ["A"], [(0.5, 0.5)]),  # needs 2 rows
        ],
    )
    report = bnras.validate_network(net)
    assert not report.ok


def test_row_count_reported_as_the_parser_words_it():
    net = build(
        "ROWS",
        [
            ("A", "tf", [], [(0.5, 0.5)]),
            ("B", "tf", ["A"], [(0.5, 0.5)] * 3),  # needs 2 rows
        ],
    )
    assert bnras.validate_network(net).issues == ("cpt B: 6 probabilities, expected 2 rows of 2",)


def test_repeated_parent_reported():
    net = build(
        "DUP",
        [
            ("A", "tf", [], [(0.5, 0.5)]),
            ("B", "tf", ["A", "A"], [(0.5, 0.5)] * 4),
        ],
    )
    report = bnras.validate_network(net)
    assert not report.ok
    assert any("repeated parent" in issue for issue in report.issues)


@pytest.mark.parametrize(
    "specs, issue",
    [
        (
            [
                ("A", "tf", ["B"], [(0.5, 0.5), (0.5, 0.5)]),
                ("B", "tf", ["A"], [(0.5, 0.5), (0.5, 0.5)]),
            ],
            "parent relation contains a cycle",
        ),
        ([("A", "tf", [], [(0.6, 0.5)])], "cpt A: row 0 sums to 1.1"),
        ([("A", "tf", [], [(0.2, 0.3, 0.5)])], "cpt A: row 0 has 3 entries, expected 2"),
    ],
)
def test_invalid_network_refused_at_compile(specs, issue):
    net = build("BROKEN", specs)
    assert not bnras.validate_network(net).ok
    empty = Evidence.empty()
    calls = [
        lambda: bnras.bnras_estimate(net, empty, 10, 5, bnras.RandomStream(0)),
        lambda: bnras.straight_estimate(net, empty, 10, bnras.RandomStream(0)),
        lambda: bnras.enumerate_posteriors(net, empty),
        lambda: bnras.factored_lower_bounds(net, empty),
    ]
    for call in calls:
        with pytest.raises(bnras.NetworkValidationError, match=f"BROKEN is invalid: .*{issue}"):
            call()


def test_zero_one_entries_flagged_not_failed():
    net = build("DET", [("A", "tf", [], [(1.0, 0.0)])])
    report = bnras.validate_network(net)
    assert report.ok and report.issues == ()
    assert not net.nodes[0].cpt.positive


def test_topological_order_ab(ab):
    assert bnras.topological_order(ab) == ("A", "B")


def test_topological_order_declaration_ties():
    net = build(
        "TRIO",
        [
            ("X", "tf", [], [(0.5, 0.5)]),
            ("Y", "tf", [], [(0.5, 0.5)]),
            ("Z", "tf", [], [(0.5, 0.5)]),
        ],
    )
    assert bnras.topological_order(net) == ("X", "Y", "Z")


def test_topological_order_chain(chain5):
    assert bnras.topological_order(chain5) == ("C1", "C2", "C3", "C4", "C5")


def test_topological_order_raises_on_cycle():
    net = build(
        "LOOP",
        [
            ("A", "tf", ["B"], [(0.5, 0.5), (0.5, 0.5)]),
            ("B", "tf", ["A"], [(0.5, 0.5), (0.5, 0.5)]),
        ],
    )
    with pytest.raises(bnras.CycleError):
        bnras.topological_order(net)


def test_conditional_probability_ab(ab):
    # B given A=t; state indices: outcome 0 is t
    assert bnras.conditional_probability(ab, "B", 0, [0, 0]) == 0.9
    assert bnras.conditional_probability(ab, "B", 0, [1, 0]) == 0.2
    # root node: any state
    assert bnras.conditional_probability(ab, "A", 0, [1, 1]) == 0.5


def test_conditional_probability_uniform():
    net = build("U3", [("X", ("a", "b", "c"), [], [(1 / 3, 1 / 3, 1 / 3)])])
    for v in range(3):
        assert bnras.conditional_probability(net, "X", v, [0]) == pytest.approx(1 / 3)


def test_joint_probability_ab(ab):
    assert bnras.joint_probability(ab, [0, 0]) == pytest.approx(0.45, abs=1e-15)
    assert bnras.joint_probability(ab, [1, 0]) == pytest.approx(0.10, abs=1e-15)


def test_joint_probability_uniform_is_two_to_minus_n():
    specs = [(f"N{i}", "tf", [], [(0.5, 0.5)]) for i in range(5)]
    net = build("U5", specs)
    for state in itertools.product((0, 1), repeat=5):
        assert bnras.joint_probability(net, state) == pytest.approx(2**-5, abs=1e-18)


def assert_joint_is_independent_product(net):
    # the same entries multiplied in the same node order: equal to the bit
    names = [nd.name for nd in net.nodes]
    for state in itertools.product(*(range(len(nd.outcomes)) for nd in net.nodes)):
        assert bnras.joint_probability(net, state) == _joint_weight(net, dict(zip(names, state)))


def test_joint_probability_on_builtins(nets):
    for net in nets.values():
        assert_joint_is_independent_product(net)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_joint_probability_on_random_networks(case):
    assert_joint_is_independent_product(case[0])


@pytest.mark.parametrize("state", [(0, 2), (1, -1), (True, 0), (0, 0.0), (0,), (0, 0, 0)])
def test_table_lookups_refuse_invalid_states(ab, state):
    with pytest.raises(ValueError, match="state"):
        bnras.joint_probability(ab, state)
    with pytest.raises(ValueError, match="state"):
        bnras.conditional_probability(ab, "A", 0, state)


@pytest.mark.parametrize("value", [2, -1, True, 0.0])
def test_conditional_probability_refuses_invalid_outcomes(ab, value):
    with pytest.raises(ValueError, match=f"outcome index {value!r} invalid for node B"):
        bnras.conditional_probability(ab, "B", value, (0, 0))


def test_table_lookups_refuse_unknown_nodes(ab):
    with pytest.raises(ValueError, match="network AB has no node 'Z'"):
        bnras.conditional_probability(ab, "Z", 0, (0, 0))
    with pytest.raises(ValueError, match="network AB has no node 'Z'"):
        bnras.markov_blanket(ab, "Z")


def test_table_lookups_take_numpy_indices(ab):
    state = np.array([1, 0])
    assert bnras.joint_probability(ab, state) == bnras.joint_probability(ab, [1, 0])
    assert bnras.conditional_probability(ab, "B", np.int64(0), state) == 0.2


def test_markov_blanket_ab(ab):
    assert bnras.markov_blanket(ab, "A") == {"B"}
    assert bnras.markov_blanket(ab, "B") == {"A"}


def test_markov_blanket_v_structure():
    net = build(
        "V",
        [
            ("A", "tf", [], [(0.5, 0.5)]),
            ("B", "tf", [], [(0.5, 0.5)]),
            ("C", "tf", ["A", "B"], [(0.5, 0.5)] * 4),
        ],
    )
    assert bnras.markov_blanket(net, "A") == {"C", "B"}
    assert bnras.markov_blanket(net, "C") == {"A", "B"}


def test_free_nodes_cases(ab):
    assert bnras.free_nodes(ab, bnras.parse_evidence("B=t", ab)) == ("A",)
    assert bnras.free_nodes(ab, Evidence.empty()) == ("A", "B")
    assert bnras.free_nodes(ab, bnras.parse_evidence("A=t,B=t", ab)) == ()


@pytest.mark.parametrize("assignments, message", [
    ({"Z": 0}, "evidence names unknown node 'Z'$"),
    ({"A": 7}, "evidence for node A: outcome index 7 invalid$"),
    ({"B": True}, "evidence for node B: outcome index True invalid$"),
])
def test_free_nodes_refuses_bad_evidence(ab, assignments, message):
    # as every sampler refuses it, rather than naming the nodes it leaves out
    with pytest.raises(ValueError, match=message):
        bnras.free_nodes(ab, Evidence(assignments))


def test_unknown_node_refused_alike(ab):
    # node() refuses a name as the functions that take one do: one type, one message
    for lookup in (ab.node, lambda name: bnras.markov_blanket(ab, name),
                   lambda name: bnras.conditional_probability(ab, name, 0, [0, 0]),
                   lambda name: bnras.full_conditional(ab, [0, 0], name)):
        with pytest.raises(ValueError, match="^network AB has no node 'Z'$"):
            lookup("Z")
    assert ab.node("B").parents == ("A",)


def test_conditional_rows_sum_to_one(nets):
    for net in nets.values():
        for nd in net.nodes:
            parent_domains = [range(len(net.node(p).outcomes)) for p in nd.parents]
            for combo in itertools.product(*parent_domains):
                state = [0] * len(net.nodes)
                for p, v in zip(nd.parents, combo):
                    state[net.node_index[p]] = v
                total = math.fsum(
                    bnras.conditional_probability(net, nd.name, v, state)
                    for v in range(len(nd.outcomes))
                )
                assert abs(total - 1.0) <= 1e-9


def test_joint_sums_to_one(nets):
    for net in nets.values():
        domains = [range(len(nd.outcomes)) for nd in net.nodes]
        total = math.fsum(
            bnras.joint_probability(net, state) for state in itertools.product(*domains)
        )
        assert abs(total - 1.0) <= 1e-9


def test_topological_order_is_edge_respecting_permutation(nets):
    for net in nets.values():
        order = bnras.topological_order(net)
        assert sorted(order) == sorted(nd.name for nd in net.nodes)
        position = {name: i for i, name in enumerate(order)}
        for nd in net.nodes:
            for p in nd.parents:
                assert position[p] < position[nd.name]


def test_markov_blanket_symmetry(nets):
    for net in nets.values():
        for a in net.nodes:
            for b in net.nodes:
                if a.name == b.name:
                    continue
                in_a = b.name in bnras.markov_blanket(net, a.name)
                in_b = a.name in bnras.markov_blanket(net, b.name)
                assert in_a == in_b


def test_check_evidence_rejects_bad_entries(ab):
    with pytest.raises(ValueError):
        bnras.check_evidence(ab, Evidence({"Q": 0}))
    with pytest.raises(ValueError):
        bnras.check_evidence(ab, Evidence({"A": 2}))
    with pytest.raises(ValueError, match="outcome index True"):
        bnras.check_evidence(ab, Evidence({"A": True}))
    bnras.check_evidence(ab, Evidence({"A": 1}))
    bnras.check_evidence(ab, Evidence({"A": np.int64(1)}))


def test_evidence_is_hashable_and_stores_python_ints():
    ev = Evidence({"A": np.int64(0)})
    assert type(ev.get("A")) is int
    assert ev == Evidence({"A": 0})
    assert hash(ev) == hash(Evidence({"A": 0}))
    assert len({ev, Evidence({"A": 0}), Evidence({"A": 1})}) == 2


def test_check_state(ab):
    with pytest.raises(ValueError):
        bnras.check_state(ab, [0])
    with pytest.raises(ValueError):
        bnras.check_state(ab, [0, 5])
    bnras.check_state(ab, [1, 0])


def test_check_state_takes_integer_indices_only(ab):
    # the rule of Evidence: integers of any type, numpy's too, but no bool
    for state, node in (([0.0, 1], "A"), ([True, 0], "A"), ([0, np.float64(1.0)], "B"),
                        ([1, None], "B"), ([0, np.True_], "B")):
        with pytest.raises(ValueError, match=f"invalid for node {node}$"):
            bnras.check_state(ab, state)
    with pytest.raises(ValueError, match="invalid for node A$"):  # not a TypeError from slicing
        bnras.full_conditional(ab, [0.0, 1], "B")
    with pytest.raises(ValueError, match="network AB has no node 'Z'$"):  # not a bare KeyError
        bnras.full_conditional(ab, [0, 1], "Z")
    bnras.check_state(ab, [np.int64(1), np.int8(0)])
    assert bnras.full_conditional(ab, [np.int64(1), np.uint8(0)], "B") == \
        bnras.full_conditional(ab, [1, 0], "B")


def test_normalize_rows_renormalizes_within_tolerance():
    rows = bnras.normalize_rows([(0.5, 0.5000000001)])
    assert math.fsum(rows[0]) == pytest.approx(1.0, abs=1e-15)
    # idempotent: a renormalized row is left alone
    assert bnras.normalize_rows(rows) == rows


def test_normalize_rows_rejects_beyond_tolerance():
    with pytest.raises(ValueError, match="row 0 sums"):
        bnras.normalize_rows([(0.6, 0.5)])


def test_normalize_rows_keeps_exact_rows_untouched():
    rows = ((0.25, 0.75),)
    assert bnras.normalize_rows(rows) == rows


def test_cpt_positivity_and_extremes():
    cpt = Cpt.from_rows([(0.2, 0.8), (0.05, 0.95)])
    assert cpt.positive
    assert cpt.min_entry == 0.05
    assert cpt.max_entry == 0.95
    assert not Cpt.from_rows([(1.0, 0.0)]).positive
