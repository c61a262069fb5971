import math
import sys

import pytest
from hypothesis import given, settings

import bnras
from bnras import ErrorTolerances, Evidence

from bnras.cli import main

from conftest import evidence_sets, layered_network, positive_networks


def test_trials_bound_frozen_values():
    # independent evaluation: 1/(4*0.1*0.01) = 250, 1/(4*0.05*0.0025) = 2000
    assert bnras.trials_bound(0.1, 0.1) == 250
    assert bnras.trials_bound(0.05, 0.05) == 2000
    assert bnras.trials_bound(0.1, 0.25) == 100


def test_trials_bound_alpha_scaling():
    # halving alpha quadruples the requirement at fixed delta
    assert bnras.trials_bound(0.05, 0.1) == 4 * bnras.trials_bound(0.1, 0.1)
    assert bnras.trials_bound(0.025, 0.1) == 4 * bnras.trials_bound(0.05, 0.1)


def test_trials_bound_monotone_and_limit():
    assert bnras.trials_bound(0.1, 0.2) < bnras.trials_bound(0.1, 0.1)
    assert bnras.trials_bound(0.2, 0.1) < bnras.trials_bound(0.1, 0.1)
    # delta -> 1 pushes N down toward ceil(1/(4 alpha^2)) = 25
    assert bnras.trials_bound(0.1, 0.9999) == 26


def test_trials_bound_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            bnras.trials_bound(bad, 0.1)
        with pytest.raises(ValueError):
            bnras.trials_bound(0.1, bad)


def test_mixing_bound_frozen_values():
    # (ln 0.1 + ln 0.5) / ln(1 - 0.25^2/8) = 381.95..., ceiled
    assert bnras.mixing_bound(0.1, 0.5, 0.25) == 382
    # (ln 0.1 + ln 0.001) / ln(1 - 0.1^2/8) = 7363.66..., ceiled
    assert bnras.mixing_bound(0.1, 0.001, 0.1) == 7364


def test_mixing_bound_monotone_in_p0():
    previous = bnras.mixing_bound(0.1, 0.5, 0.25)
    for p0 in (0.2, 0.1, 0.05, 0.01):
        current = bnras.mixing_bound(0.1, 0.5, p0)
        assert current > previous
        previous = current


def test_mixing_bound_monotone_in_pi_and_gamma():
    assert bnras.mixing_bound(0.1, 0.25, 0.25) > bnras.mixing_bound(0.1, 0.5, 0.25)
    assert bnras.mixing_bound(0.05, 0.5, 0.25) > bnras.mixing_bound(0.1, 0.5, 0.25)


def test_mixing_bound_overflow_reported():
    # p0^2/8 below one ulp of 1: the denominator would be log(1) = 0
    with pytest.raises(bnras.MixingOverflowError):
        bnras.mixing_bound(0.1, 0.5, 1e-9)


@pytest.mark.parametrize("alpha, delta", [
    (1e-200, 0.1),  # alpha^2 underflows to 0.0: the formula would divide by zero
    (1e-160, 0.1),  # 4 delta alpha^2 is a subnormal whose reciprocal overflows
    (1e-155, 0.1),
    (0.1, 1e-320),
])
def test_trials_past_doubles_reported(alpha, delta):
    with pytest.raises(bnras.MixingOverflowError, match=f"alpha = {alpha!r}, delta = {delta!r}"):
        bnras.trials_bound(alpha, delta)


@pytest.mark.parametrize("alpha", [
    1e-152,  # the first factor is finite, the product with the ratio overflows
    1e-154,  # first * second is an int past every double
    1e-200,  # 3 alpha^2 underflows to 0.0
])
def test_transitions_per_trial_past_doubles_reported(alpha):
    tol = ErrorTolerances(alpha, 0.1, 0.1)
    with pytest.raises(bnras.MixingOverflowError,
                       match=f"alpha = {alpha!r}, delta = 0.1, gamma = 0.1: the transitions per"):
        bnras.transitions_per_trial(tol, 0.5, 0.25)


def test_finite_requirements_near_the_edge_kept():
    # the largest counts still finite keep the bits of the formulas
    assert bnras.trials_bound(1e-152, 0.1) == math.ceil(1.0 / (4.0 * 0.1 * 1e-152 * 1e-152))
    assert bnras.trials_bound(1e-152, 0.1) > 10**303
    tol = ErrorTolerances(1e-150, 0.1, 0.1)
    first = math.ceil(4.0 * 1.1**3 / (3.0 * 1e-150 * 1e-150))
    ratio = (math.log(0.1) + math.log(0.5)) / math.log(1.0 - 0.25**2 / 8.0)
    assert bnras.transitions_per_trial(tol, 0.5, 0.25) == math.ceil(first * 37 * ratio)


def test_mixing_bound_domain():
    with pytest.raises(ValueError):
        bnras.mixing_bound(0.0, 0.5, 0.25)
    with pytest.raises(ValueError):
        bnras.mixing_bound(0.1, 1.0, 0.25)
    with pytest.raises(ValueError):
        bnras.mixing_bound(0.1, 0.5, 0.0)


def test_transitions_per_trial_factors_and_value():
    # first factor: ceil(4 * 1.1^3 / 0.03) = ceil(177.466...) = 178
    assert math.ceil(4.0 * 1.1**3 / (3.0 * 0.01)) == 178
    # second factor at delta=0.1: 12 * ceil(2.302...) + 1 = 37
    assert 12 * math.ceil(-math.log(0.1)) + 1 == 37
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    value = bnras.transitions_per_trial(tol, 0.5, 0.25)
    # frozen after recomputation: ceil(178 * 37 * 381.953906875154)
    assert value == 2_515_549
    ratio = (math.log(0.1) + math.log(0.5)) / math.log(1.0 - 0.25**2 / 8.0)
    assert value == math.ceil(178 * 37 * ratio)


def test_transitions_per_trial_monotone_in_pi():
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    assert bnras.transitions_per_trial(tol, 0.25, 0.25) > bnras.transitions_per_trial(
        tol, 0.5, 0.25
    )
    assert bnras.transitions_per_trial(tol, 0.9, 0.25) < bnras.transitions_per_trial(
        tol, 0.5, 0.25
    )


def test_transitions_per_trial_monotone_in_tolerances():
    base = bnras.transitions_per_trial(ErrorTolerances(0.1, 0.1, 0.1), 0.5, 0.25)
    tighter_alpha = bnras.transitions_per_trial(ErrorTolerances(0.05, 0.1, 0.1), 0.5, 0.25)
    tighter_delta = bnras.transitions_per_trial(ErrorTolerances(0.1, 0.01, 0.1), 0.5, 0.25)
    tighter_gamma = bnras.transitions_per_trial(ErrorTolerances(0.1, 0.1, 0.05), 0.5, 0.25)
    assert tighter_alpha > base
    assert tighter_delta > base
    assert tighter_gamma > base


def test_error_tolerances_domain():
    with pytest.raises(ValueError):
        ErrorTolerances(alpha=0.0, delta=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        ErrorTolerances(alpha=0.1, delta=1.0, gamma=0.1)
    ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)


def test_factored_lower_bounds_ab(ab, empty):
    pi_lb, p0_lb = bnras.factored_lower_bounds(ab, empty)
    assert pi_lb == pytest.approx(0.05, abs=1e-15)  # 0.5 * 0.1
    # per node m/(k M): A: 0.05/(2*0.45), B: 0.1/(2*0.9); both 1/18,
    # then the 1/(2n) selection factor with n=2
    assert p0_lb == pytest.approx(1 / 72, abs=1e-15)
    # certified: never above the exact quantities
    assert pi_lb <= bnras.min_joint_posterior(ab, empty) + 1e-15
    exact_p0 = bnras.min_transition_probability(ab, empty)
    assert p0_lb <= exact_p0 + 1e-15


def test_factored_lower_bounds_uniform_network():
    nodes = tuple(
        bnras.Node(f"N{i}", ("t", "f"), (), bnras.Cpt.from_rows([(0.5, 0.5)]))
        for i in range(4)
    )
    net = bnras.BeliefNetwork("U4", nodes)
    pi_lb, _ = bnras.factored_lower_bounds(net, Evidence.empty())
    assert pi_lb == pytest.approx(2**-4, abs=1e-18)
    assert pi_lb == pytest.approx(bnras.min_joint_posterior(net, Evidence.empty()), abs=1e-15)


def test_factored_never_exceeds_exact(nets):
    for net in nets.values():
        pi_lb, p0_lb = bnras.factored_lower_bounds(net, Evidence.empty())
        pi_exact = bnras.min_joint_posterior(net, Evidence.empty())
        p0_exact = bnras.min_transition_probability(net, Evidence.empty())
        assert pi_lb <= pi_exact + 1e-15
        assert p0_lb <= p0_exact + 1e-15


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_factored_never_exceeds_exact_on_random_networks(case):
    # up to float rounding: on five unlinked nodes of arities 2, 2, 2, 2, 3
    # pi_lb = 0.020833333333333332 is one rounding above Pi = 0.02083333333333332
    net, ev = case
    pi_lb, p0_lb = bnras.factored_lower_bounds(net, ev)
    assert pi_lb <= bnras.min_joint_posterior(net, ev) * (1 + 1e-12)
    assert p0_lb <= bnras.min_transition_probability(net, ev) * (1 + 1e-12)
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    factored = bnras.report_bounds(net, ev, tol, mode="factored")
    exact = bnras.report_bounds(net, ev, tol, mode="exact")
    assert factored.t_mix >= exact.t_mix
    assert factored.t_per_trial >= exact.t_per_trial


def test_factored_requires_positivity():
    net = bnras.parse_network(
        "network D\nnode A { outcomes: t, f }\ncpt A:\n 1 0\n"
    )
    with pytest.raises(bnras.PositivityError):
        bnras.factored_lower_bounds(net, Evidence.empty())


def test_factored_requires_free_node(ab):
    with pytest.raises(ValueError, match="no free nodes"):
        bnras.factored_lower_bounds(ab, Evidence({"A": 0, "B": 0}))


def test_factored_pi_underflow_refused(empty):
    # the least table entries multiply to a subnormal (about 5e-319) at 500
    # nodes and to 0.0 at 600
    with pytest.raises(bnras.MixingOverflowError, match="LAYERED600 underflows to 0.0"):
        bnras.factored_lower_bounds(layered_network(600), empty)
    net = layered_network(500)
    pi_lb, p0_lb = bnras.factored_lower_bounds(net, empty)
    assert 0.0 < pi_lb < sys.float_info.min
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    report = bnras.report_bounds(net, empty, tol, mode="factored")
    assert (report.pi_min, report.p0) == (pi_lb, p0_lb)
    assert report.t_mix == bnras.mixing_bound(0.1, pi_lb, p0_lb)


def test_exact_pi_underflow_refused(tiny_joint, empty):
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    with pytest.raises(bnras.MixingOverflowError, match="exact Pi of network TINY underflows"):
        bnras.report_bounds(tiny_joint, empty, tol, mode="exact")
    with pytest.raises(bnras.MixingOverflowError, match="factored Pi of network TINY underflows"):
        bnras.report_bounds(tiny_joint, empty, tol, mode="factored")


def test_report_bounds_ab_exact(ab, empty):
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    report = bnras.report_bounds(ab, empty, tol, mode="exact")
    assert report.trials == 250
    assert report.pi_min == pytest.approx(0.05, abs=1e-12)
    assert report.p0 == pytest.approx(0.025, abs=1e-15)
    # (ln 0.1 + ln 0.05) / ln(1 - 0.025^2/8) = 67815.8..., ceiled
    assert report.t_mix == 67_816
    assert report.mode == "exact"
    assert report.t_per_trial >= report.t_mix


def test_report_bounds_factored_dominates_exact(nets):
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    for net in nets.values():
        exact = bnras.report_bounds(net, Evidence.empty(), tol, mode="exact")
        factored = bnras.report_bounds(net, Evidence.empty(), tol, mode="factored")
        assert factored.t_mix >= exact.t_mix
        assert factored.t_per_trial >= exact.t_per_trial
        assert factored.trials == exact.trials
        assert factored.mode == "factored"
        # Pi and p0 of exact mode are the oracle functions', bit for bit
        for ev in evidence_sets(net):
            exact = bnras.report_bounds(net, ev, tol, mode="exact")
            tm = bnras.build_transition_matrix(net, ev)
            assert exact.pi_min == bnras.min_joint_posterior(net, ev) == tm.stationary.min()
            assert exact.p0 == bnras.min_transition_probability(net, ev)


def test_exact_bounds_past_the_matrix_cap(tmp_path, capsys, monkeypatch):
    # 13 free binary nodes with no edges: 8192 states, twice the matrix cap,
    # where each move's probability is (0.5/13) times the entry moved to
    rows = [(0.05 + 0.03 * i, 0.95 - 0.03 * i) for i in range(13)]
    doc = "network WIDE13\n" + "".join(
        f"node N{i} {{ outcomes: t, f }}\ncpt N{i}:\n {p} {q}\n" for i, (p, q) in enumerate(rows)
    )
    net = bnras.parse_network(doc)
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    exact = bnras.report_bounds(net, Evidence.empty(), tol, mode="exact")
    assert exact.p0 == pytest.approx(0.5 / 13 * 0.05, abs=1e-15)
    factored = bnras.report_bounds(net, Evidence.empty(), tol, mode="factored")
    assert factored.t_mix >= exact.t_mix
    assert factored.t_per_trial >= exact.t_per_trial
    assert factored.trials == exact.trials
    path = tmp_path / "wide13.bn"
    path.write_text(doc)
    assert main(["bounds", "--network", str(path), "--mode", "exact"]) == 0
    monkeypatch.setenv("BNRAS_ENUM_CAP", "4096")
    capsys.readouterr()
    assert main(["bounds", "--network", str(path), "--mode", "exact"]) == 3
    assert "exceed the enumeration cap 4096" in capsys.readouterr().err


def test_report_bounds_rejects_zero_entries(and_gate):
    doc = (
        "network D\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 1 0\n 0 1\n"
    )
    net = bnras.parse_network(doc)
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    for mode in ("exact", "factored"):
        with pytest.raises(bnras.PositivityError, match="deterministic"):
            bnras.report_bounds(net, Evidence.empty(), tol, mode=mode)
    # the matrix and the mixing report refuse the same tables
    for refused in (net, and_gate):
        with pytest.raises(bnras.PositivityError, match="deterministic"):
            bnras.build_transition_matrix(refused, Evidence.empty())
        with pytest.raises(bnras.PositivityError, match="deterministic"):
            bnras.mixing_report(refused, Evidence.empty(), t_values=(1,))


def test_report_bounds_bad_mode(ab, empty):
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        bnras.report_bounds(ab, empty, tol, mode="both")


def test_smaller_inputs_never_decrease_transitions():
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    for pi, p0 in ((0.5, 0.25), (0.3, 0.2), (0.1, 0.05)):
        smaller = bnras.transitions_per_trial(tol, pi / 2, p0 / 2)
        assert smaller >= bnras.transitions_per_trial(tol, pi, p0)


def test_mixing_ratio_base_invariance():
    # computing the ratio in any base changes nothing: log_b x / log_b y is
    # base-free; spot-check against base-10 arithmetic
    gamma, pi, p0 = 0.1, 0.05, 0.025
    natural = (math.log(gamma) + math.log(pi)) / math.log(1 - p0 * p0 / 8)
    base10 = (math.log10(gamma) + math.log10(pi)) / math.log10(1 - p0 * p0 / 8)
    assert natural == pytest.approx(base10, rel=1e-12)
    assert bnras.mixing_bound(gamma, pi, p0) == math.ceil(natural)


def test_exact_bounds_refuse_past_the_enumeration_cap(layered300, empty):
    # p0 needs no joint, but Pi still comes off one enumeration
    tol = ErrorTolerances(alpha=0.1, delta=0.1, gamma=0.1)
    with pytest.raises(bnras.CapacityError, match="exceed the enumeration cap 4194304"):
        bnras.report_bounds(layered300, empty, tol, mode="exact")
