import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import bnras
from bnras import Evidence, chain

from conftest import (brute_posteriors, evidence_sets, layered_network, positive_networks,
                      scalar_transition_matrix)


def test_ab_posterior_given_b(ab):
    ev = bnras.parse_evidence("B=t", ab)
    table = bnras.enumerate_posteriors(ab, ev)
    assert table.nodes == ("A",)
    assert table.marginal("A")[0] == pytest.approx(9 / 11, abs=1e-12)
    assert table.evidence_probability == pytest.approx(0.55, abs=1e-12)


def test_ab_prior_marginal(ab, empty):
    table = bnras.enumerate_posteriors(ab, empty)
    assert table.marginal("B")[0] == pytest.approx(0.55, abs=1e-12)
    assert table.evidence_probability == pytest.approx(1.0, abs=1e-12)


def test_path2_symmetry(path2, empty):
    table = bnras.enumerate_posteriors(path2, empty)
    assert table.marginal("B")[0] == pytest.approx(0.5, abs=1e-12)
    assert table.marginal("A")[0] == pytest.approx(0.5, abs=1e-12)


def test_chain5_marginals_all_point_six(chain5, empty):
    # 0.6 is the fixed point of p -> 0.3 + 0.5 p, so every node sits at it
    table = bnras.enumerate_posteriors(chain5, empty)
    for name in table.nodes:
        assert table.marginal(name)[0] == pytest.approx(0.6, abs=1e-12)


def test_posteriors_match_independent_brute_force(nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            table = bnras.enumerate_posteriors(net, ev)
            expected, p_e = brute_posteriors(net, ev)
            assert table.evidence_probability == pytest.approx(p_e, abs=1e-12)
            for name in table.nodes:
                for a, b in zip(table.marginal(name), expected[name]):
                    assert a == pytest.approx(b, abs=1e-12)


def test_min_joint_posterior_values(ab, empty, uninode):
    assert bnras.min_joint_posterior(ab, empty) == pytest.approx(0.05, abs=1e-12)
    ev = bnras.parse_evidence("B=t", ab)
    assert bnras.min_joint_posterior(ab, ev) == pytest.approx(2 / 11, abs=1e-12)
    assert bnras.min_joint_posterior(uninode, empty) == pytest.approx(0.5, abs=1e-15)


def test_enumeration_cap_enforced(minialarm, empty):
    with pytest.raises(bnras.CapacityError):
        bnras.enumerate_posteriors(minialarm, empty, cap=100)


def test_impossible_evidence():
    doc = (
        "network DET\n"
        "node A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 1 0\n 1 0\n"
    )
    net = bnras.parse_network(doc)
    ev = bnras.parse_evidence("B=f", net)
    with pytest.raises(bnras.ImpossibleEvidenceError):
        bnras.enumerate_posteriors(net, ev)
    with pytest.raises(bnras.ImpossibleEvidenceError):
        bnras.min_joint_posterior(net, ev)


def test_transition_matrix_ab(ab, empty):
    tm = bnras.build_transition_matrix(ab, empty)
    assert len(tm.states) == 4
    # states enumerate (A, B) with B varying fastest: tt, tf, ft, ff
    assert tm.states == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tm.matrix[0, 2] == pytest.approx(1 / 22, abs=1e-15)
    np.testing.assert_allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(tm.stationary, [0.45, 0.05, 0.10, 0.40], atol=1e-12)


def test_transition_matrix_single_uniform_node(uninode, empty):
    tm = bnras.build_transition_matrix(uninode, empty)
    np.testing.assert_allclose(tm.matrix, [[0.75, 0.25], [0.25, 0.75]], atol=0)


def test_matrix_cap_and_no_free_nodes(monkeypatch, minialarm, ab):
    monkeypatch.setattr(bnras.exact, "DEFAULT_MATRIX_CAP", 16)
    with pytest.raises(bnras.CapacityError, match="exceed the matrix cap 16"):
        bnras.build_transition_matrix(minialarm, Evidence.empty())
    with pytest.raises(ValueError, match="no free nodes"):
        bnras.build_transition_matrix(ab, Evidence({"A": 0, "B": 0}))


def test_min_transition_probability(ab, uninode, empty):
    assert bnras.min_transition_probability(ab, empty) == pytest.approx(0.025, abs=1e-15)
    assert bnras.min_transition_probability(uninode, empty) == pytest.approx(0.25, abs=0)


def test_min_transition_probability_at_most_half(nets, empty):
    for net in nets.values():
        assert bnras.min_transition_probability(net, empty) <= 0.5


def assert_rpd_near(got, expected):
    # rpd against matrix_power: 1e-12 relative, or 16 ulps of 1.0. The
    # entries of P^t / pi are numbers near 1 known to a few ulps, and rpd is
    # their largest distance from 1, so when rpd is small no double
    # computation pins it closer: on AB with B clamped, matrix_power's rpd
    # at t = 16 is 2e-12 relative off its exact value 4.5 * 2^-16
    assert abs(got - expected) <= 1e-12 * expected + 16 * np.finfo(float).eps


def matrix_power_rpd(tm, t):
    pi = tm.stationary
    return float(np.max(np.abs(np.linalg.matrix_power(tm.matrix, t) - pi) / pi))


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
def test_min_transition_probability_blocks_match_whole_matrix(monkeypatch, nets, block):
    # p0 comes off the moves, not the matrix: whatever the row blocks of the
    # rpd scan (one row, a few, the whole matrix), the mixing report's p0 is
    # that of the whole matrix and its rpd near that of P @ P
    monkeypatch.setattr(bnras.exact, "_RPD_BLOCK", block)
    for net in nets.values():
        for ev in evidence_sets(net):
            _, matrix = scalar_transition_matrix(net, ev)
            off = matrix[~np.eye(len(matrix), dtype=bool)]
            expected = float(off[off > 0.0].min())
            assert bnras.min_transition_probability(net, ev) == expected
            report = bnras.mixing_report(net, ev, t_values=SPREAD)
            assert report.p0 == expected
            tm = bnras.build_transition_matrix(net, ev)
            assert tm.p0 == expected
            assert_report_matches_matrix(report, tm)
            assert_rpd_near(report.rpd[2], matrix_power_rpd(tm, 2))


#: transition counts of every path: t = 0 and 1 off the table, B_1, the first
#: square, products of squares, and odd t
SPREAD = (0, 1, 2, 3, 4, 5, 7, 16, 17, 33)


def assert_report_matches_matrix(report, tm):
    # mixing_report reads the move table and places P only for products;
    # relative_pointwise_distance reads the table off the matrix: one core
    assert list(report.rpd) == list(SPREAD)
    for t in SPREAD:
        assert report.rpd[t] == bnras.relative_pointwise_distance(tm, t)
    assert report.pi_min == tm.stationary.min()


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(case=positive_networks())
def test_mixing_report_matches_the_matrix_on_random_networks(block, case):
    net, ev = case
    with mock.patch.object(bnras.exact, "_RPD_BLOCK", block):
        report = bnras.mixing_report(net, ev, t_values=SPREAD)
        assert_report_matches_matrix(report, bnras.build_transition_matrix(net, ev))
    assert report.p0 == bnras.min_transition_probability(net, ev)


def test_mixing_report_never_builds_the_matrix(monkeypatch, nets):
    def refuse(net, ev):
        raise AssertionError("mixing_report built the transition matrix")

    monkeypatch.setattr(bnras.exact, "build_transition_matrix", refuse)
    for net in nets.values():
        for ev in evidence_sets(net):
            assert list(bnras.mixing_report(net, ev, SPREAD).rpd) == list(SPREAD)


@pytest.mark.parametrize("t_values, arrays", [
    ((1, 4, 16), 1.3), ((3, 5, 17), 1.3), ((2, 3), 1.3), ((6, 7, 13), 2.2),
    ((15,), 2.2), ((12, 20), 2.2)])
def test_mixing_report_peaks_at_one_dense_array(t_values, arrays):
    # a 2048-state chain (K = 12): t = 1 reads the move table, B_1 to B_5
    # are walked from the moves, each into the last one's array, B_6, B_8
    # and B_10 are squared in place, and odd t reads the rows of P @ B_s off
    # the moves, so one M-by-M array is alive at once, beside one row block
    # of temporaries or the layout of a walk's last step. B_7 = P @ B_6
    # takes a step of P into a second array, and the first is freed once it
    # is made
    net = layered_network(12, seed=1)
    ev = Evidence({"X11": 0})
    m = 2048
    tracemalloc.start()
    try:
        report = bnras.mixing_report(net, ev, t_values=t_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(report.rpd) == list(t_values)
    assert peak <= arrays * m * m * 8


def test_rpd_leaves_the_matrix_as_it_was(nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            matrix, stationary = tm.matrix.copy(), tm.stationary.copy()
            for t in SPREAD:
                bnras.relative_pointwise_distance(tm, t)
                assert np.array_equal(tm.matrix, matrix)
                assert np.array_equal(tm.stationary, stationary)


@pytest.mark.parametrize("name, walks", [("CHAIN5", [1, 2, 2]), ("MINIALARM", [1, 2, 3, 2])],
                         ids=["CHAIN5", "MINIALARM"])
def test_p_placed_only_as_b1(monkeypatch, nets, empty, name, walks):
    # P is never placed: each half power's walk starts at its furthest point
    # whose rows reach at most half of the states, B_s walked from the
    # moves. For h = 1, 2, 3, 6, 8: B_1, B_2; on CHAIN5 (16 of 32 states
    # two nodes away, 26 three) B_3 is a step of P from B_2 and B_6 its
    # square; on MINIALARM (93 of 256 three away) B_3 is walked. Both walk
    # B_2 again for B_8. P @ B_s, for odd t and for B_3, comes off the moves
    made = []
    placed = bnras.exact._placed
    monkeypatch.setattr(bnras.exact, "_placed", lambda *a: made.append(1) or placed(*a))
    walks_made = spy_walks(monkeypatch)
    ts = (3, 5, 7, 13, 17)
    report = bnras.mixing_report(nets[name], empty, t_values=ts)
    assert not made
    assert walks_made == walks
    tm = bnras.build_transition_matrix(nets[name], empty)
    for t in ts:
        assert_rpd_near(report.rpd[t], matrix_power_rpd(tm, t))


def test_rpd_at_zero(ab, empty):
    tm = bnras.build_transition_matrix(ab, empty)
    pi = tm.stationary
    expected = float(np.max((1.0 - pi) / pi))
    assert bnras.relative_pointwise_distance(tm, 0) == pytest.approx(expected, abs=1e-9)


def test_rpd_uniform_node_is_half_power_t(uninode, empty):
    tm = bnras.build_transition_matrix(uninode, empty)
    assert bnras.relative_pointwise_distance(tm, 3) == pytest.approx(0.125, abs=1e-12)
    for t in range(1, 10):
        assert bnras.relative_pointwise_distance(tm, t) == pytest.approx(
            0.5**t, abs=1e-12
        )


def test_rpd_dominated_by_mixing_bound(uninode, empty):
    tm = bnras.build_transition_matrix(uninode, empty)
    t_mix = bnras.mixing_bound(0.1, 0.5, 0.25)
    assert bnras.relative_pointwise_distance(tm, t_mix) <= 0.1


def test_stationarity_and_detailed_balance(nets):
    for name in ("AB", "PATH2", "CHAIN5"):
        net = nets[name]
        for ev in evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            pi = tm.stationary
            assert np.max(np.abs(pi @ tm.matrix - pi)) <= 1e-12
            flux = pi[:, None] * tm.matrix
            assert np.max(np.abs(flux - flux.T)) <= 1e-12


def test_detailed_balance_worked_ab_value(ab, empty):
    tm = bnras.build_transition_matrix(ab, empty)
    tt = tm.states.index((0, 0))
    ft = tm.states.index((1, 0))
    forward = tm.stationary[tt] * tm.matrix[tt, ft]
    backward = tm.stationary[ft] * tm.matrix[ft, tt]
    assert forward == pytest.approx(0.45 / 22, abs=1e-12)
    assert backward == pytest.approx(0.10 * 9 / 44, abs=1e-12)
    assert forward == pytest.approx(backward, abs=1e-15)


def test_diagonal_at_least_half(nets, empty):
    for net in nets.values():
        tm = bnras.build_transition_matrix(net, empty)
        assert np.all(np.diag(tm.matrix) >= 0.5)


def test_irreducibility_on_positive_networks(nets, empty):
    # any two states differing at exactly one free node must connect directly
    for name in ("AB", "PATH2", "CHAIN5"):
        tm = bnras.build_transition_matrix(nets[name], empty)
        for i, si in enumerate(tm.states):
            for j, sj in enumerate(tm.states):
                if i == j:
                    continue
                diff = sum(a != b for a, b in zip(si, sj))
                if diff == 1:
                    assert tm.matrix[i, j] > 0.0


def test_rpd_non_increasing(nets, empty):
    for name in ("AB", "PATH2", "CHAIN5"):
        tm = bnras.build_transition_matrix(nets[name], empty)
        values = [bnras.relative_pointwise_distance(tm, t) for t in (1, 2, 3, 5, 8, 13, 21, 55, 144)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12


def test_stationary_marginals_match_enumeration(nets, empty):
    for net in nets.values():
        tm = bnras.build_transition_matrix(net, empty)
        table = bnras.enumerate_posteriors(net, empty)
        for slot, name in enumerate(tm.free_nodes):
            k = len(net.node(name).outcomes)
            sums = [0.0] * k
            for idx, state in enumerate(tm.states):
                sums[state[slot]] += tm.stationary[idx]
            for a, b in zip(sums, table.marginal(name)):
                assert a == pytest.approx(b, abs=1e-12)


def test_mixing_report(ab, empty):
    report = bnras.mixing_report(ab, empty, t_values=(0, 10))
    assert report.pi_min == pytest.approx(0.05, abs=1e-12)
    assert report.p0 == pytest.approx(0.025, abs=1e-15)
    assert 0 < report.pi_min <= 1 / 4
    assert 0 < report.p0 <= 0.5
    assert set(report.rpd) == {0, 10}
    assert report.rpd[10] <= report.rpd[0]


def test_enumeration_with_all_nodes_clamped(ab):
    ev = bnras.parse_evidence("A=t,B=t", ab)
    table = bnras.enumerate_posteriors(ab, ev)
    assert table.nodes == ()
    assert table.evidence_probability == pytest.approx(0.45, abs=1e-12)


def test_matrix_equals_scalar_twin(nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            states, matrix = scalar_transition_matrix(net, ev)
            assert tm.states == tuple(states)
            assert np.array_equal(tm.matrix, matrix)


def assert_table_places_the_matrix(net, ev):
    """Row x of the move table, at x's _neighbours columns, is row x of the
    scalar twin's matrix, and the twin is 0 at every other column."""
    joint, table, _ = bnras.exact._chain(net, ev)
    _, matrix = scalar_transition_matrix(net, ev)
    m = len(matrix)
    assert table.shape == (m, 1 + sum(k - 1 for k in joint.dims))
    cols = bnras.exact._neighbours(np.arange(m), joint.dims)
    rest = matrix.copy()
    for x in range(m):
        assert np.array_equal(matrix[x, cols[x]], table[x])
        rest[x, cols[x]] = 0.0
    assert not rest.any()


def test_move_table_places_the_matrix(nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_table_places_the_matrix(net, ev)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_move_table_on_random_networks(case):
    assert_table_places_the_matrix(*case)


@pytest.mark.parametrize("name", ["CHAIN5", "MINIALARM"])
def test_rpd_matches_matrix_power(monkeypatch, nets, empty, name):
    # t = 0 and 1 have matrix_power's bits; above, the Gram products are
    # near it. Each value has the same bits whether t is asked alone or
    # with others, and whatever the row blocks of the scan
    ts = (0, 1, 2, 3, 4, 5, 13, 16, 23, 24)  # B_11 has three set bits; B_12 starts again
    report = bnras.mixing_report(nets[name], empty, t_values=ts)
    tm = bnras.build_transition_matrix(nets[name], empty)
    for t in ts:
        expected = matrix_power_rpd(tm, t)
        if t <= 1:
            assert report.rpd[t] == expected
        else:
            assert_rpd_near(report.rpd[t], expected)
    for block in (1, 5, 1 << 16):
        monkeypatch.setattr(bnras.exact, "_RPD_BLOCK", block)
        assert bnras.mixing_report(nets[name], empty, t_values=ts).rpd == report.rpd
        for t in ts:
            assert bnras.relative_pointwise_distance(tm, t) == report.rpd[t]


def test_mixing_report_refuses_negative_t_before_the_matrix(monkeypatch, minialarm, ab, empty):
    # a cap of 1 refuses the matrix; the bad t must be reported first
    monkeypatch.setattr(bnras.exact, "DEFAULT_MATRIX_CAP", 1)
    with pytest.raises(ValueError, match="transition count"):
        bnras.mixing_report(minialarm, empty, t_values=(4, -1))
    with pytest.raises(bnras.CapacityError, match="exceed the matrix cap 1"):
        bnras.mixing_report(minialarm, empty, t_values=(4,))
    monkeypatch.undo()
    report = bnras.mixing_report(ab, empty, t_values=(16, 0, 4, 1))
    assert list(report.rpd) == [16, 0, 4, 1]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_rpd_on_random_networks(case):
    net, ev = case
    ts = (2, 3, 4, 5, 13, 16)
    report = bnras.mixing_report(net, ev, t_values=ts)
    tm = bnras.build_transition_matrix(net, ev)
    for t in ts:
        assert_rpd_near(report.rpd[t], matrix_power_rpd(tm, t))


def test_rpd_peaks_on_the_diagonal(nets):
    # P^t / pi - 1 is a Gram matrix: C_s C_s.T for t = 2s, and C_s S C_s.T
    # for t = 2s + 1, with C_s = P^s / sqrt(pi) - sqrt(pi) and S the lazy
    # chain's symmetrized kernel, whose eigenvalues lie in [0, 1]. By
    # Cauchy-Schwarz its largest entry lies on its diagonal
    for net in nets.values():
        for ev in evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            for t in (2, 3, 4, 5, 8, 13, 16):
                gap = np.abs(np.linalg.matrix_power(tm.matrix, t) / tm.stationary - 1.0)
                assert_rpd_near(float(gap.diagonal().max()), float(gap.max()))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_tensor_and_matrix_on_random_networks(case):
    net, ev = case
    table = bnras.enumerate_posteriors(net, ev)
    expected, p_e = brute_posteriors(net, ev)
    assert table.evidence_probability == pytest.approx(p_e, abs=1e-12)
    for name in table.nodes:
        assert table.marginal(name) == pytest.approx(expected[name], abs=1e-12)
    tm = bnras.build_transition_matrix(net, ev)
    states, matrix = scalar_transition_matrix(net, ev)
    assert tm.states == tuple(states)
    assert np.array_equal(tm.matrix, matrix)
    off = matrix[~np.eye(len(matrix), dtype=bool)]
    assert bnras.min_transition_probability(net, ev) == float(off[off > 0.0].min())
    assert bnras.min_joint_posterior(net, ev) == tm.stationary.min()


def star_network():
    """A binary hub H with 12 binary children C0..C11, each child with its
    own extra parent P0..P11, declared last: H's blanket holds the 24 other
    nodes, so its conditional has 2^25 entries, past the enumeration cap;
    every other node's blanket has two."""
    half = bnras.Cpt.from_rows([(0.5, 0.5)])
    extra = [bnras.Node(f"P{j}", ("t", "f"), (), half) for j in range(12)]
    rows = bnras.Cpt.from_rows([(0.9, 0.1), (0.4, 0.6), (0.3, 0.7), (0.2, 0.8)])
    children = [bnras.Node(f"C{j}", ("t", "f"), ("H", f"P{j}"), rows) for j in range(12)]
    hub = bnras.Node("H", ("t", "f"), (), bnras.Cpt.from_rows([(0.3, 0.7)]))
    return bnras.BeliefNetwork("STAR", (*extra, *children, hub))


def test_p0_refuses_an_oversized_blanket(monkeypatch, empty):
    net = star_network()
    made = []
    conditional = bnras.exact._conditional
    monkeypatch.setattr(bnras.exact, "_conditional",
                        lambda tab, free, template, i: made.append(i) or
                        conditional(tab, free, template, i))
    with pytest.raises(bnras.CapacityError,
                       match="node H has 33554432 entries, over the enumeration cap 4194304"):
        bnras.min_transition_probability(net, empty)
    assert made == list(range(24))  # the hub's conditional was never made
    # with its children's extra parents clamped, the hub's has 2^13 entries
    clamped = Evidence({f"P{j}": 0 for j in range(12)})
    assert 0.0 < bnras.min_transition_probability(net, clamped) <= 0.5


def test_p0_past_the_enumeration_cap(layered300, empty):
    # 2^300 joint states: p0 reads the 300 blanket conditionals only, and
    # is the least positive move of the scalar reference over their rows
    p0 = bnras.min_transition_probability(layered300, empty)
    tab, free, template = chain._prepare(layered300, empty)
    least = math.inf
    for i in free:
        members = tab.blanket(i)
        for values in itertools.product(*(range(tab.k[m]) for m in members)):
            state = template.copy()
            for m, v in zip(members, values):
                state[m] = v
            weights, total = chain._conditional_weights(tab, state, i)
            least = min(least, *(0.5 / len(free) * (w / total) for w in weights if w > 0.0))
    assert 0.0 < p0 <= 0.5
    assert p0 == least


def outcome_counts(tm):
    return tuple(v + 1 for v in tm.states[-1])


def gram_square(b, root):
    """B_(2s) = (B_s @ B_s.T) * sqrt(pi) out of place, from b = B_s: for a
    reversible P with stationary pi, B_s @ B_s.T = P^(2s) / pi."""
    product = b @ b.T
    product *= root
    return product


def assert_moves_path(tm):
    """The neighbour columns are each row's nonzeros; rpd(0) and rpd(1)
    have the bits of the dense scan; B_2 walked from the moves is near the
    dense square of B_1, entry by entry, and 0 where it is."""
    pi, m = tm.stationary, len(tm.stationary)
    cols = bnras.exact._neighbours(np.arange(m), outcome_counts(tm))
    assert np.array_equal(cols[:, 0], np.arange(m))
    for i in range(m):
        assert np.array_equal(np.sort(cols[i]), np.nonzero(tm.matrix[i])[0])
    for t, dense in ((0, np.eye(m)), (1, tm.matrix)):
        assert bnras.relative_pointwise_distance(tm, t) == float(np.max(np.abs(dense - pi) / pi))
    root = np.sqrt(pi)
    b1 = tm.matrix / root
    table = np.take_along_axis(tm.matrix, cols, axis=1)
    square = bnras.exact._walked(table, cols, root, outcome_counts(tm), 2, np.empty((m, m)))
    expected = gram_square(b1, root)
    # both sum at most K nonnegative products, each with a few roundings,
    # and detailed balance holds to a few ulps: 64 ulps relative is ample
    assert np.all(np.abs(square - expected) <= 64 * np.finfo(float).eps * expected)


@pytest.mark.parametrize("parts", [1, 3, 8, 1 << 16])
def test_squares_in_place_near_the_gram(monkeypatch, nets, parts):
    # whatever the row blocks (one whole syrk, a few, the default, one row
    # each), B_1 squared in place is near the out-of-place square: both sum
    # M nonnegative products in BLAS's order, so 64 ulps relative is ample,
    # as for the walk from the moves
    monkeypatch.setattr(bnras.exact, "_SQUARE_PARTS", parts)
    eps = np.finfo(float).eps
    for net in nets.values():
        for ev in evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            root = np.sqrt(tm.stationary)
            b1 = tm.matrix / root
            expected = gram_square(b1, root)
            square = bnras.exact._square_in_place(b1.copy(), root)
            assert np.all(np.abs(square - expected) <= 64 * eps * expected)


def test_moves_path_on_builtins(nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_moves_path(bnras.build_transition_matrix(net, ev))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_moves_path_on_random_networks(case):
    assert_moves_path(bnras.build_transition_matrix(*case))


def test_square_of_the_moves_ignores_row_blocks(monkeypatch, nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            _, table, _ = bnras.exact._chain(net, ev)
            tm = bnras.build_transition_matrix(net, ev)
            m = len(table)
            args = (table, bnras.exact._neighbours(np.arange(m), outcome_counts(tm)),
                    np.sqrt(tm.stationary), outcome_counts(tm), 2)
            squares = []
            for block in (1, 5, 1000, 1 << 16):
                monkeypatch.setattr(bnras.exact, "_RPD_BLOCK", block)
                squares.append(bnras.exact._walked(*args, np.empty((m, m))))
            for square in squares[1:]:
                assert np.array_equal(square, squares[0])


def spy_walks(monkeypatch):
    """The s of every _walked call, in order."""
    walks = []
    walked = bnras.exact._walked
    monkeypatch.setattr(bnras.exact, "_walked", lambda *a: walks.append(a[4]) or walked(*a))
    return walks


@pytest.mark.parametrize("name, walks", [("PATH2", [1]), ("CHAIN5", [2]), ("MINIALARM", [2])],
                         ids=["PATH2", "CHAIN5", "MINIALARM"])
def test_first_square_read_off_the_moves_when_rows_are_sparse(monkeypatch, nets, empty, name, walks):
    # B_2's rows reach the states at most two free nodes away: 16 of 32 on
    # CHAIN5 and 37 of 256 on MINIALARM, so B_2 is walked from the moves and
    # squared into B_4 and B_8; on PATH2 B_1's rows already reach 3 of its 4
    # states, so B_2 is the square of B_1
    walks_made = spy_walks(monkeypatch)
    report = bnras.mixing_report(nets[name], empty, t_values=(4, 16))
    assert walks_made == walks
    tm = bnras.build_transition_matrix(nets[name], empty)
    for t in (4, 16):
        assert_rpd_near(report.rpd[t], matrix_power_rpd(tm, t))


@pytest.mark.parametrize("case, t_values, walks, squares", [
    # 2048 states, 11 binary free nodes: B_4's rows reach 562 states, at
    # most half, so t = 4 reads B_2 and t = 16 reads B_4 walked from the
    # moves and squared once (B_2 squared twice before)
    ("benchmark", (1, 4, 16), [2, 4], 1),
    # CHAIN5: B_2's rows reach 16 of 32 states, B_3's 26, so B_3's walk
    # starts at B_2, where its low bit is added, and takes a step of P
    # rather than squaring B_1
    ("CHAIN5", (7,), [2], 0),
], ids=["benchmark", "CHAIN5"])
def test_walks_start_at_their_furthest_sparse_point(monkeypatch, nets, case, t_values, walks, squares):
    net, ev = ((layered_network(12, seed=1), Evidence({"X11": 0})) if case == "benchmark"
               else (nets[case], Evidence.empty()))
    walks_made = spy_walks(monkeypatch)
    made = []
    square = bnras.exact._square_in_place
    monkeypatch.setattr(bnras.exact, "_square_in_place", lambda *a: made.append(1) or square(*a))
    report = bnras.mixing_report(net, ev, t_values=t_values)
    assert walks_made == walks
    assert len(made) == squares
    assert list(report.rpd) == list(t_values)


def reachable(dims, s):
    """The pairs of states, in enumeration order over outcome counts dims,
    that differ at s or fewer free nodes."""
    states = np.array(list(itertools.product(*map(range, dims))))
    apart = np.zeros((len(states), len(states)), dtype=np.int8)
    for values in states.T:
        apart += values[:, None] != values[None, :]
    return apart <= s


def assert_walks_near_the_powers(tm, blocks=(1, 5, 1000, 1 << 16), every_block_from=1):
    """Every B_s that _half_powers walks from the moves (s from 1 up to the
    last whose rows reach at most half of the states) is 0 off the states
    at most s free nodes away, within 64 ulps relative of
    matrix_power(P, s) / sqrt(pi) (both sum nonnegative products of P's
    entries, a few roundings each), and has the same bits whatever the
    blocks of _RPD_BLOCK entries it is made in, from s = every_block_from
    up."""
    dims, m = outcome_counts(tm), len(tm.matrix)
    root = np.sqrt(tm.stationary)
    cols = bnras.exact._neighbours(np.arange(m), dims)
    table = np.take_along_axis(tm.matrix, cols, axis=1)
    eps = np.finfo(float).eps
    s = 1
    while True:
        near = reachable(dims, s)
        walked = []
        for block in blocks if s >= every_block_from else blocks[-1:]:
            with mock.patch.object(bnras.exact, "_RPD_BLOCK", block):
                walked.append(bnras.exact._walked(table, cols, root, dims, s, np.full((m, m), np.nan)))
        for other in walked[1:]:
            assert np.array_equal(other, walked[0])
        expected = np.linalg.matrix_power(tm.matrix, s) / root
        assert not walked[0][~near].any()
        assert np.all(np.abs(walked[0] - expected) <= 64 * eps * expected)
        if 2 * reachable(dims, s + 1)[0].sum() > m:
            return s
        s += 1


def test_walks_near_the_powers_on_builtins(nets):
    for net in nets.values():
        for ev in evidence_sets(net):
            assert_walks_near_the_powers(bnras.build_transition_matrix(net, ev))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_walks_near_the_powers_on_random_networks(case):
    assert_walks_near_the_powers(bnras.build_transition_matrix(*case))


def ternary_network(size, seed=0):
    """`size` nodes of three outcomes, node i with parents i-2 and i-1 (those
    that exist); each table row is drawn from random.Random(seed) and kept
    inside (0, 1)."""
    rng = random.Random(seed)
    nodes = []
    for i in range(size):
        parents = tuple(f"T{i - d}" for d in (2, 1) if i >= d)
        rows = []
        for _ in range(3 ** len(parents)):
            raw = [rng.uniform(0.2, 1.0) for _ in range(3)]
            rows.append([w / sum(raw) for w in raw])
        nodes.append(bnras.Node(f"T{i}", ("a", "b", "c"), parents, bnras.Cpt.from_rows(rows)))
    return bnras.BeliefNetwork(f"TERNARY{size}", tuple(nodes))


def test_walks_near_the_powers_with_three_outcomes(empty):
    # 3^7 = 2187 states: B_4's rows reach 939 of them, at most half, so the
    # walk steps past B_2 with shifts by 1 and 2 (mod 3). Blocks of 1 and 5
    # entries take seconds a walk here, so the block sizes are all checked
    # on the last walk only, whose steps before the last are made in the
    # same blocks
    tm = bnras.build_transition_matrix(ternary_network(7), empty)
    assert len(tm.states) == 2187
    assert assert_walks_near_the_powers(tm, every_block_from=4) == 4


def test_rpd_counts_the_entries_no_move_reaches():
    # a symmetric, not lazy walk on two binary nodes: it stays or flips one
    # node, each with 1/3, and never reaches the opposite corner in one
    # step, so that zero entry's term, 1.0, is the largest at t = 1
    third = 1.0 / 3.0
    matrix = np.array([[third, third, third, 0.0], [third, third, 0.0, third],
                       [third, 0.0, third, third], [0.0, third, third, third]])
    tm = bnras.TransitionMatrix(("A", "B"), ((0, 0), (0, 1), (1, 0), (1, 1)), matrix,
                                np.full(4, 0.25), third)
    assert bnras.relative_pointwise_distance(tm, 1) == 1.0
    assert bnras.relative_pointwise_distance(tm, 0) == 3.0


def test_underflowing_conditional_refused(tiny_conditional):
    net, ev = tiny_conditional
    message = "full conditional of node A in network UNDER underflows to 0.0"
    with np.errstate(divide="raise", invalid="raise"):  # refused before any division
        for call in (bnras.min_transition_probability, bnras.build_transition_matrix,
                     lambda net, ev: bnras.mixing_report(net, ev, (1,)),
                     lambda net, ev: bnras.report_bounds(net, ev, bnras.ErrorTolerances(0.1, 0.1, 0.1))):
            with pytest.raises(bnras.MixingOverflowError, match=message):
                call(net, ev)


@pytest.mark.parametrize("rows", [
    " 1e-107 0.5 0.5\n" * 2,  # A's whole conditional subnormal, its total too
    " 1e-107 0.5 0.5\n 0.5 0.25 0.25\n",  # A = t's weight subnormal, A = f's not
])
def test_least_move_finite_just_above_underflow(rows):
    # tiny_conditional's network with entries 1e-107 in place of 1e-110: A's
    # full conditional total is 0.5 * (1e-107)^3 or more, not 0.0, so at
    # every blanket state A's largest move is at least 0.5 / (n k) and the
    # least positive move is finite
    child = "node {0} {{ outcomes: x, y, z }}\nparents {0}: A\ncpt {0}:\n" + rows
    net = bnras.parse_network("network EDGE\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
                              + "".join(child.format(name) for name in "BCD"))
    ev = bnras.parse_evidence("B=x,C=x,D=x", net)
    p0 = bnras.min_transition_probability(net, ev)
    assert 0.0 < p0 < math.inf
    assert p0 == bnras.build_transition_matrix(net, ev).p0 == bnras.mixing_report(net, ev).p0
