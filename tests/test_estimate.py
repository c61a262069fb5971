import statistics

import numpy as np
import pytest

import bnras
from bnras import Evidence, RandomStream, estimate

from conftest import evidence_sets, scalar_row_errors, scalar_transition_matrix


def test_single_trial_zero_transitions_is_indicator(ab, empty):
    est = bnras.bnras_estimate(ab, empty, trials=1, transitions=0, rng=RandomStream(4))
    for row in est.probs:
        assert sorted(row) == [0.0, 1.0]
    assert est.trials == 1
    assert est.total_transitions == 0


def test_single_transition_straight_is_indicator(ab, empty):
    est = bnras.straight_estimate(ab, empty, 1, RandomStream(4))
    for row in est.probs:
        assert sorted(row) == [0.0, 1.0]


def test_tally_conservation_and_exact_rationals(chain5, empty):
    est = bnras.bnras_estimate(chain5, empty, trials=777, transitions=3, rng=RandomStream(0))
    for tallies, probs in zip(est.tallies, est.probs):
        assert sum(tallies) == 777
        assert probs == tuple(c / 777 for c in tallies)
    straight = bnras.straight_estimate(chain5, empty, 999, RandomStream(0))
    for tallies in straight.tallies:
        assert sum(tallies) == 999


def test_seed_determinism(chain5, empty):
    a = bnras.bnras_estimate(chain5, empty, 200, 20, RandomStream(11), checkpoint_stride=500)
    b = bnras.bnras_estimate(chain5, empty, 200, 20, RandomStream(11), checkpoint_stride=500)
    assert a.probs == b.probs
    assert a.tallies == b.tallies
    assert a.checkpoints == b.checkpoints
    c = bnras.bnras_estimate(chain5, empty, 200, 20, RandomStream(12))
    assert a.probs != c.probs


def test_estimate_consistent_with_public_trials(ab):
    # the estimator must tally exactly what per-trial spawned streams produce
    ev = bnras.parse_evidence("B=t", ab)
    master = RandomStream(31)
    est = bnras.bnras_estimate(ab, ev, 50, 7, master)
    counts = [0, 0]
    for j in range(50):
        state = bnras.next_trial(ab, ev, 7, RandomStream(31).spawn(j))
        counts[state[0]] += 1
    assert est.tallies[0] == tuple(counts)


def test_estimator_ignores_master_stream_position(ab):
    ev = bnras.parse_evidence("B=t", ab)
    rng = RandomStream(31)
    rng.random()  # advance the master; derivation only reads the seed
    moved = bnras.bnras_estimate(ab, ev, 50, 7, rng)
    fresh = bnras.bnras_estimate(ab, ev, 50, 7, RandomStream(31))
    assert moved.probs == fresh.probs


def test_ab_estimate_close_to_posterior_panel(ab):
    ev = bnras.parse_evidence("B=t", ab)
    hits = 0
    for seed in range(10):
        est = bnras.bnras_estimate(ab, ev, 2000, 50, RandomStream(seed))
        hits += abs(est.marginal("A")[0] - 9 / 11) <= 0.02
    assert hits >= 9


def _path2_run_counts(path2, trials, transitions):
    """Exact law of one run's counts of outcome t: counts[a, b] = P(A=t in a
    trials and B=t in b). A trial ends in a state drawn from u P^t, u the
    uniform restart and P the test-side lazy matrix, so the counts are a
    multinomial convolution over the four states."""
    states, matrix = scalar_transition_matrix(path2, Evidence.empty())
    end = np.full(len(states), 1.0 / len(states)) @ np.linalg.matrix_power(matrix, transitions)
    counts = np.zeros((trials + 1, trials + 1))
    counts[0, 0] = 1.0
    for _ in range(trials):
        step = np.zeros_like(counts)
        for (a, b), p in zip(states, end):
            da, db = int(a == 0), int(b == 0)
            step[da:, db:] += p * counts[: trials + 1 - da, : trials + 1 - db]
        counts = step
    return counts


def _panel_law(per_run, panel_size):
    law = per_run
    for _ in range(panel_size - 1):
        law = np.convolve(law, per_run)
    return law


def _path2_panel_sum_law(counts, oracle, trials, panel_size, shift=0.0):
    """Exact law of the panel's summed max_error, on the grid of 1/trials:
    pmf[s] = P(sum of the panel's max_error = s / trials). Each count's
    error is taken with error_metrics' float arithmetic, after moving the
    estimated first outcome by `shift` away from the oracle (0 for the
    sampler itself)."""
    c = np.arange(trials + 1)
    node_errors = []
    for exact in oracle.probs:
        sign = np.where(c / trials >= exact[0], 1.0, -1.0)
        first = c / trials + sign * shift
        node_errors.append(np.maximum(np.abs(first - exact[0]), np.abs(1.0 - first - exact[1])))
    grid = np.rint(np.maximum.outer(*node_errors) * trials).astype(int)
    return _panel_law(np.bincount(grid.ravel(), weights=counts.ravel()), panel_size)


def _band(law, false_alarm):
    """The narrowest index band [lo, hi] leaving at most false_alarm / 2 of
    the law's mass on either side, and the mass it leaves."""
    cdf = np.cumsum(law)
    lo, hi = np.searchsorted(cdf, [false_alarm / 2, 1.0 - false_alarm / 2])
    return lo, hi, (cdf[lo - 1] if lo else 0.0) + (1.0 - cdf[hi])


def test_path2_estimate_panel(path2, empty):
    # Two statistics must fall in bands fixed beforehand from their exact
    # laws: the panel's summed max_error, and each node's count of outcome t
    # pooled over the panel's 2000 trials. A count of runs within 0.05
    # cannot serve: a correct sampler meets 0.05 with probability 0.797 per
    # run, so nine of ten pass with probability 0.367.
    trials, transitions = 200, 500
    panel = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10)
    oracle = bnras.enumerate_posteriors(path2, empty)
    counts = _path2_run_counts(path2, trials, transitions)
    lo, hi, false_alarm = _band(_path2_panel_sum_law(counts, oracle, trials, len(panel)), 5e-6)
    pooled = [np.cumsum(_panel_law(counts.sum(axis=1 - node), len(panel))) for node in (0, 1)]
    count_bands = [_band(np.diff(cdf, prepend=0.0), 2.5e-6) for cdf in pooled]
    false_alarm += sum(band[2] for band in count_bands)
    assert false_alarm <= 1e-5
    # edges half a grid step outside, so float rounding cannot cross them
    lower, upper = (lo - 0.5) / trials, (hi + 0.5) / trials
    estimates = [bnras.bnras_estimate(path2, empty, trials, transitions, RandomStream(seed))
                 for seed in panel]
    errors = [bnras.error_metrics(est, oracle).max_error for est in estimates]
    assert lower <= sum(errors) <= upper, (sum(errors), lower, upper)
    for node, (count_lo, count_hi, _) in enumerate(count_bands):
        pooled_count = sum(est.tallies[node][0] for est in estimates)
        assert count_lo <= pooled_count <= count_hi, (node, pooled_count, count_lo, count_hi)

    # Marginals shifted by a fixed amount pass a node's count band with the
    # probabilities below: 2000 trials at this false-alarm rate cannot
    # resolve a 0.05 shift (it passes with probability 0.597), while a 0.08
    # shift passes with probability 0.007.
    def shifted_pass(cdf, band, shift):
        moved = round(shift * trials * len(panel))
        return cdf[band[1] - moved] - cdf[band[0] - 1 - moved]

    for cdf, band in zip(pooled, count_bands):
        assert shifted_pass(cdf, band, 0.05) < 0.6
        assert shifted_pass(cdf, band, -0.05) < 0.6
        assert shifted_pass(cdf, band, 0.08) < 0.01
    # the summed band rejects estimates moved 0.05 away from the oracle (they
    # pass with probability 0.018) and the oracle itself (summed error 0)
    doctored = np.cumsum(_path2_panel_sum_law(counts, oracle, trials, len(panel), shift=0.05))
    assert doctored[hi] - doctored[lo - 1] < 0.02
    assert not lower <= sum(e + 0.05 for e in errors) <= upper
    assert lower > 0.0


def test_straight_estimate_ab_converges(ab):
    ev = bnras.parse_evidence("B=t", ab)
    oracle = bnras.enumerate_posteriors(ab, ev)
    hits = 0
    for est in bnras.straight_estimates(ab, ev, 100_000, [RandomStream(s) for s in range(10)]):
        hits += abs(est.marginal("A")[0] - 9 / 11) <= 0.02
    assert hits >= 9
    assert bnras.error_metrics(est, oracle).max_error <= 0.05


def test_straight_path2_seed1_frozen():
    # Deterministic regression values for the cyclic-scan sampler on the
    # sticky two-node network. Note the run is long enough (1e4 steps,
    # roughly 100 basin flips) that the time average is already near the
    # posterior: A's average, 0.4454, lies 0.0546 from 1/2, and under the
    # exact law of the cyclic-scan chain (conftest.cyclic_scan_average_pmfs)
    # it lies as far or farther with probability 0.273. The early-run
    # stickiness shows up in the checkpoint test below, and acceptance 08
    # checks a 30-seed panel of such runs against that law.
    nets = bnras.builtin_networks()
    path2 = nets["PATH2"]
    oracle = bnras.enumerate_posteriors(path2, Evidence.empty())
    est = bnras.straight_estimate(path2, Evidence.empty(), 10_000, RandomStream(1))
    report = bnras.error_metrics(est, oracle)
    assert report.avg_error == pytest.approx(0.05435, abs=1e-9)
    assert report.max_error == pytest.approx(0.0546, abs=1e-9)
    assert report.worst_node == "A"


def test_straight_path2_early_checkpoint_stuck():
    # after only 100 transitions the running estimate usually still sits in
    # the starting basin, far from the 0.5/0.5 posterior
    nets = bnras.builtin_networks()
    path2 = nets["PATH2"]
    stuck = 0
    for seed in range(30):
        est = bnras.straight_estimate(
            path2, Evidence.empty(), 1000, RandomStream(seed), checkpoint_stride=100
        )
        p = est.checkpoints[0].probs[0][0]
        stuck += p < 0.4 or p > 0.6
    assert stuck >= 21  # deterministic panel; 21 of 30 on these seeds


def test_quality_dominates_with_evidence():
    # matched budget of 2e4 transitions: few long trials beat many one-step
    # trials once evidence pushes the posterior away from the uniform
    # restart distribution (without evidence this network is symmetric and
    # restarts are unbiased, so the comparison would be degenerate)
    nets = bnras.builtin_networks()
    path2 = nets["PATH2"]
    ev = bnras.parse_evidence("B=t", path2)
    oracle = bnras.enumerate_posteriors(path2, ev)
    deep = [
        bnras.error_metrics(
            bnras.bnras_estimate(path2, ev, 50, 400, RandomStream(s)), oracle
        ).avg_error
        for s in range(10)
    ]
    shallow = [
        bnras.error_metrics(
            bnras.bnras_estimate(path2, ev, 20_000, 1, RandomStream(100 + s)), oracle
        ).avg_error
        for s in range(10)
    ]
    assert statistics.median(deep) * 2 < statistics.median(shallow)


def test_checkpoint_alignment_bnras(chain5, empty):
    est = bnras.bnras_estimate(chain5, empty, trials=6, transitions=10, rng=RandomStream(0),
                               checkpoint_stride=20)
    assert [c.transitions for c in est.checkpoints] == [20, 40, 60]
    assert [c.scored for c in est.checkpoints] == [2, 4, 6]
    assert est.checkpoints[-1].probs == est.probs


def test_checkpoint_alignment_straight(chain5, empty):
    est = bnras.straight_estimate(chain5, empty, 100, RandomStream(0), checkpoint_stride=30)
    assert [c.transitions for c in est.checkpoints] == [30, 60, 90]
    assert [c.scored for c in est.checkpoints] == [30, 60, 90]


def test_input_validation(ab, empty):
    with pytest.raises(ValueError):
        bnras.bnras_estimate(ab, empty, 0, 10, RandomStream(0))
    with pytest.raises(ValueError):
        bnras.bnras_estimate(ab, empty, 10, -1, RandomStream(0))
    with pytest.raises(ValueError):
        bnras.straight_estimate(ab, empty, 0, RandomStream(0))
    with pytest.raises(ValueError, match="no free nodes"):
        bnras.straight_estimate(ab, Evidence({"A": 0, "B": 0}), 10, RandomStream(0))


_TWO = (RandomStream(1), RandomStream(2))


@pytest.mark.parametrize("name, call", [
    pytest.param("trials", lambda net, ev: bnras.bnras_estimate(net, ev, True, 10, RandomStream(1)),
                 id="bnras_estimate-trials"),
    pytest.param("transitions", lambda net, ev: bnras.bnras_estimate(
        net, ev, 10, 2.5, RandomStream(1)), id="bnras_estimate-transitions"),
    pytest.param("checkpoint_stride", lambda net, ev: bnras.bnras_estimate(
        net, ev, 10, 2, RandomStream(1), checkpoint_stride=5.0), id="bnras_estimate-stride"),
    pytest.param("total_transitions", lambda net, ev: bnras.straight_estimates(net, ev, 10.5, _TWO),
                 id="straight_estimates-total"),
    pytest.param("checkpoint_stride", lambda net, ev: bnras.straight_estimates(
        net, ev, 10, _TWO, checkpoint_stride=None), id="straight_estimates-stride"),
    pytest.param("total_transitions", lambda net, ev: bnras.straight_estimate(
        net, ev, True, RandomStream(1)), id="straight_estimate-total"),
    pytest.param("t", lambda net, ev: bnras.next_trial(net, ev, 3.0, RandomStream(1)),
                 id="next_trial-t"),
])
def test_counts_must_be_integers(ab, empty, name, call):
    # the rule of check_state: integers of any type, numpy's too, but no bool
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(ab, empty)


def _pair():
    return [RandomStream(1), RandomStream(2)]


@pytest.mark.parametrize("call", [
    lambda net, ev, stride: bnras.bnras_estimate(net, ev, 10, 5, RandomStream(1), stride),
    lambda net, ev, stride: bnras.bnras_estimates(net, ev, 10, 5, _pair(), stride),
    lambda net, ev, stride: bnras.straight_estimate(net, ev, 10, RandomStream(1), stride),
    lambda net, ev, stride: bnras.straight_estimates(net, ev, 10, _pair(), stride),
], ids=["bnras_estimate", "bnras_estimates", "straight_estimate", "straight_estimates"])
def test_negative_checkpoint_stride_refused(ab, empty, call):
    for stride in (-3, -1):
        with pytest.raises(ValueError, match="^checkpoint_stride must be >= 0$"):
            call(ab, empty, stride)
    assert call(ab, empty, 0)  # no checkpoints, as before


def test_deterministic_conflict_names_node_and_position(and_gate, empty):
    with pytest.raises(bnras.DeterministicConflictError,
                       match=r"node [AC] are zero in trial \d+ of seed 7;"):
        bnras.bnras_estimate(and_gate, empty, 100, 10, RandomStream(7))
    # cyclic scan conflicts only from some restart states; find one
    failed = []
    for seed in range(20):
        try:
            bnras.straight_estimate(and_gate, empty, 10, RandomStream(seed))
        except bnras.DeterministicConflictError as exc:
            assert exc.node in (0, 1)
            assert str(exc).startswith(
                f"all conditional weights of node {and_gate.nodes[exc.node].name} "
                f"are zero at step 1 of seed {seed};"
            )
            failed.append(seed)
    assert failed
    # so does the single-step API
    failed = []
    for seed in range(20):
        try:
            bnras.next_trial(and_gate, empty, 10, RandomStream(seed))
        except bnras.DeterministicConflictError as exc:
            assert str(exc).startswith(
                f"all conditional weights of node {and_gate.nodes[exc.node].name} "
                f"are zero in a trial of seed {seed};"
            )
            failed.append(seed)
    assert failed


def test_error_metrics_zero_for_oracle_itself(ab, empty):
    oracle = bnras.enumerate_posteriors(ab, empty)
    est = bnras.PosteriorEstimate(
        nodes=oracle.nodes,
        outcome_labels=oracle.outcome_labels,
        probs=oracle.probs,
        tallies=tuple((0,) * len(row) for row in oracle.probs),
        trials=0,
        transitions_per_trial=0,
        total_transitions=0,
        cpu_seconds=0.0,
        wall_seconds=0.0,
    )
    report = bnras.error_metrics(est, oracle)
    assert report.avg_error == 0.0 and report.max_error == 0.0


def test_error_metrics_worked_value(ab):
    ev = bnras.parse_evidence("B=t", ab)
    oracle = bnras.enumerate_posteriors(ab, ev)
    est = bnras.PosteriorEstimate(
        nodes=("A",),
        outcome_labels=(("t", "f"),),
        probs=((0.80, 0.20),),
        tallies=((80, 20),),
        trials=100,
        transitions_per_trial=10,
        total_transitions=1000,
        cpu_seconds=0.0,
        wall_seconds=0.0,
    )
    report = bnras.error_metrics(est, oracle)
    assert report.max_error == pytest.approx(9 / 11 - 0.80, abs=1e-12)
    assert report.avg_error <= report.max_error
    assert report.worst_node == "A"


def test_error_metrics_avg_at_most_max(chain5, empty):
    oracle = bnras.enumerate_posteriors(chain5, empty)
    for seed in range(5):
        est = bnras.bnras_estimate(chain5, empty, 100, 10, RandomStream(seed))
        report = bnras.error_metrics(est, oracle)
        assert 0.0 <= report.avg_error <= report.max_error <= 1.0


def test_error_metrics_shape_mismatch(ab, chain5, empty):
    oracle = bnras.enumerate_posteriors(chain5, empty)
    est = bnras.bnras_estimate(ab, empty, 10, 1, RandomStream(0))
    with pytest.raises(ValueError):
        bnras.error_metrics(est, oracle)


def test_estimate_rows_sum_to_one(chain5, empty):
    est = bnras.bnras_estimate(chain5, empty, 321, 5, RandomStream(5))
    for row in est.probs:
        assert abs(sum(row) - 1.0) <= 1e-9


@pytest.mark.parametrize("sampler", ["bnras", "straight"])
def test_scorer_matches_scalar_loop(nets, uninode, sampler):
    # each checkpoint row and summary row of a batch, scored at once off its
    # arrays as the CLI scores them, and each summary scored by
    # error_metrics, is what the scalar loop gives, to the bit; AB with B=t
    # and UNI leave one free node
    cases = [(net, ev) for net in nets.values() for ev in evidence_sets(net)]
    for net, ev in [*cases, (uninode, Evidence.empty())]:
        oracle = bnras.enumerate_posteriors(net, ev)
        exact = np.array([p for row in oracle.probs for p in row])
        rngs = [RandomStream(s) for s in (0, 7, 2**63 + 11)]
        if sampler == "bnras":  # 50 trials of 7: marks every 40 transitions cut trials
            batch = estimate._bnras_tallies(net, ev, 50, 7, rngs, 40)
        else:
            batch = estimate._straight_tallies(net, ev, 300, rngs, 70)
        scored = list(zip(*estimate._row_errors(batch.nodes, batch.edges, batch.probs, exact)))
        expected = []
        for est in estimate._posteriors(batch):
            assert len(est.checkpoints) > 3
            expected += [scalar_row_errors(est.nodes, ck.probs, oracle.probs)
                         for ck in est.checkpoints]
            expected.append(scalar_row_errors(est.nodes, est.probs, oracle.probs))
            report = bnras.error_metrics(est, oracle)
            assert (report.avg_error, report.max_error, report.worst_node) == expected[-1]
        assert scored == expected


def test_scorer_ties_go_to_the_first():
    # planted ties of the largest deviation (all dyadic, so exact): within
    # X, within Y, and across X and Y; the first column holding it names
    # the worst node, as in the scalar loop
    nodes, labels = ("X", "Y"), (("a", "b", "c"), ("a", "b"))
    exact = ((0.5, 0.25, 0.25), (0.5, 0.5))
    rows = [
        ((0.75, 0.25, 0.0), (0.5, 0.5)),  # X's first and third columns
        ((0.5, 0.25, 0.25), (0.75, 0.25)),  # both of Y's columns, X exact
        ((0.75, 0.0, 0.25), (0.75, 0.25)),  # X's first two and both of Y's
        ((0.5, 0.5, 0.0), (0.25, 0.75)),  # X's last two and both of Y's
        exact,  # no deviation at all
    ]
    flat = np.array([[p for row in probs for p in row] for probs in rows])
    scored = list(zip(*estimate._row_errors(nodes, np.array([0, 3, 5]), flat, flat[-1])))
    assert scored == [scalar_row_errors(nodes, probs, exact) for probs in rows]
    assert [worst for _, _, worst in scored] == ["X", "Y", "X", "X", "X"]
    assert [worst_error for _, worst_error, _ in scored] == [0.25] * 4 + [0.0]
    oracle = bnras.PosteriorTable(nodes, labels, exact, 1.0)
    for probs, expected in zip(rows, scored):
        est = bnras.PosteriorEstimate(nodes, labels, probs, ((0,) * 3, (0,) * 2), 1, 0, 0, 0.0, 0.0)
        report = bnras.error_metrics(est, oracle)
        assert (report.avg_error, report.max_error, report.worst_node) == expected


def test_scorer_with_no_free_node(ab):
    # every node clamped: an empty row, which argmax would refuse, scores
    # 0.0 and 0.0 with no worst node, as in the scalar loop
    ev = bnras.parse_evidence("A=t,B=t", ab)
    oracle = bnras.enumerate_posteriors(ab, ev)
    batch = estimate._bnras_tallies(ab, ev, 3, 0, [RandomStream(0), RandomStream(1)], 1)
    assert batch.probs.shape == (2, 1, 0)
    scored = list(zip(*estimate._row_errors(batch.nodes, batch.edges, batch.probs, np.zeros(0))))
    assert scored == [scalar_row_errors((), (), ())] * 2 == [(0.0, 0.0, "")] * 2
    for est in estimate._posteriors(batch):
        report = bnras.error_metrics(est, oracle)
        assert (report.avg_error, report.max_error, report.worst_node) == (0.0, 0.0, "")


@pytest.mark.parametrize("sampler", ["bnras", "straight"])
def test_estimates_hold_python_numbers(nets, sampler):
    # the estimates are made from the batch's arrays by one conversion, and
    # keep Python's types: no numpy scalar, which numpy 2 prints as np.float64(...)
    for name, evidence in (("MINIALARM", ""), ("AB", "B=t")):
        net = nets[name]
        ev = bnras.parse_evidence(evidence, net)
        rngs = [RandomStream(s) for s in (3, 4)]
        if sampler == "bnras":
            ests = bnras.bnras_estimates(net, ev, 50, 7, rngs, checkpoint_stride=40)
        else:
            ests = bnras.straight_estimates(net, ev, 300, rngs, checkpoint_stride=70)
        for est in ests:
            assert est.checkpoints
            for ck in est.checkpoints:
                assert type(ck.transitions) is int and type(ck.scored) is int
            for probs in (est.probs, *(ck.probs for ck in est.checkpoints)):
                assert all(type(p) is float for row in probs for p in row)
            assert all(type(c) is int for row in est.tallies for c in row)
            assert {type(est.trials), type(est.total_transitions)} == {int}
            assert {type(est.cpu_seconds), type(est.wall_seconds)} == {float}
            assert "np." not in repr(est)
