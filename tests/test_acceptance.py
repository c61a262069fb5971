"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities (run with ``pytest -s`` to see
them). Statistical criteria use fixed seed panels, so every run of this
suite is deterministic.

Criterion 8 shows straight simulation's pathology on PATH2, and it is judged
against the exact law of the cyclic-scan chain rather than a fixed constant.
Under cyclic scan PATH2 is a four-state chain with a two-phase cycle; a
dynamic program over (A, B, count of A=t) in ``tests/conftest.py`` gives the
exact distribution of each node's time average after 10^4 transitions from
the uniform start. The figures it yields:

* one sweep flips a node's basin with probability 2 * 0.99 * 0.01 = 0.0198,
  about once every 100 transitions;
* the median of |A_hat - 0.5| is 0.0336, about ten times the 0.0034 that
  10^4 independent draws would give, so the run is worth about 1% as many
  independent samples;
* P(|A_hat - 0.5| > 0.2) = 4.1e-5, the same for B, so a seed-median
  max_error above 0.2 (at least 15 of 30 seeds above it) has probability
  below 1e-50. Such a floor would need a coupling near 0.9999 or a far
  shorter run.
"""

import itertools
import math
import random
import statistics

import numpy as np
import pytest

import bnras
from bnras import ErrorTolerances, Evidence, RandomStream

from conftest import (
    brute_posteriors,
    cyclic_scan_average_pmfs,
    cyclic_scan_flip_probability,
)


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def _evidence_sets(net):
    last = net.nodes[-1].name
    return (Evidence.empty(), Evidence({last: 0}))


def test_acceptance_01_oracle_exactness(nets, ab):
    ev = bnras.parse_evidence("B=t", ab)
    table = bnras.enumerate_posteriors(ab, ev)
    worst = abs(table.marginal("A")[0] - 9 / 11)
    for net in nets.values():
        for evidence in _evidence_sets(net):
            ours = bnras.enumerate_posteriors(net, evidence)
            expected, p_e = brute_posteriors(net, evidence)
            worst = max(worst, abs(ours.evidence_probability - p_e))
            for name in ours.nodes:
                for a, b in zip(ours.marginal(name), expected[name]):
                    worst = max(worst, abs(a - b))
    ok = worst <= 1e-12
    assert _criterion(1, "oracle exactness", ok, f"worst deviation {worst:.3e}")


def test_acceptance_02_stationary_identity(nets):
    worst = 0.0
    for name in ("AB", "PATH2", "CHAIN5"):
        net = nets[name]
        for ev in _evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            pi = tm.stationary
            worst = max(worst, float(np.max(np.abs(pi @ tm.matrix - pi))))
    ok = worst <= 1e-12
    assert _criterion(2, "stationary distribution identity", ok, f"worst residual {worst:.3e}")


def test_acceptance_03_detailed_balance(nets, ab):
    worst = 0.0
    for name in ("AB", "PATH2", "CHAIN5"):
        net = nets[name]
        for ev in _evidence_sets(net):
            tm = bnras.build_transition_matrix(net, ev)
            flux = tm.stationary[:, None] * tm.matrix
            worst = max(worst, float(np.max(np.abs(flux - flux.T))))
    tm = bnras.build_transition_matrix(ab, Evidence.empty())
    tt, ft = tm.states.index((0, 0)), tm.states.index((1, 0))
    worked = tm.stationary[tt] * tm.matrix[tt, ft]
    worked_ok = abs(worked - 0.45 / 22) <= 1e-12
    ok = worst <= 1e-12 and worked_ok
    assert _criterion(
        3, "detailed balance", ok,
        f"worst violation {worst:.3e}, worked pair {worked:.10f}",
    )


def test_acceptance_04_mixing_bound_soundness(nets, uninode):
    results = []
    for name, net in nets.items():
        tm = bnras.build_transition_matrix(net, Evidence.empty())
        assert len(tm.states) <= 256
        pi_min = float(tm.stationary.min())
        p0 = bnras.min_transition_probability(net, Evidence.empty())
        t_mix = bnras.mixing_bound(0.1, pi_min, p0)
        delta = bnras.relative_pointwise_distance(tm, t_mix)
        results.append((name, t_mix, delta))
    tm_uni = bnras.build_transition_matrix(uninode, Evidence.empty())
    delta3 = bnras.relative_pointwise_distance(tm_uni, 3)
    ok = all(delta <= 0.1 for _, _, delta in results) and abs(delta3 - 0.125) <= 1e-12
    detail = ", ".join(f"{n}: delta({t})={d:.2e}" for n, t, d in results)
    assert _criterion(4, "mixing bound soundness", ok, detail + f"; delta(3)={delta3}")


def test_acceptance_05_formula_values():
    checks = {
        "trials(0.1,0.1)": (bnras.trials_bound(0.1, 0.1), 250),
        "trials(0.05,0.05)": (bnras.trials_bound(0.05, 0.05), 2000),
        "mix(0.1,0.5,0.25)": (bnras.mixing_bound(0.1, 0.5, 0.25), 382),
        "mix(0.1,0.001,0.1)": (bnras.mixing_bound(0.1, 0.001, 0.1), 7364),
        "first factor": (math.ceil(4 * 1.1**3 / (3 * 0.1**2)), 178),
    }
    # The published worst-case counts for the original two-node and
    # full-alarm models (1332 / 2,662,000 / 256,573,353,901) are not
    # reproduced: they depend on tables and on a relative-error trial
    # formula that are not available here.
    ok = all(got == want for got, want in checks.values())
    detail = ", ".join(f"{k}={got}" for k, (got, want) in checks.items())
    assert _criterion(5, "closed-form requirement values", ok, detail)


def test_acceptance_06_sampler_statistical_correctness(ab):
    ev = bnras.parse_evidence("B=t", ab)
    oracle = bnras.enumerate_posteriors(ab, ev)
    hits = 0
    worst = 0.0
    for seed in range(30):
        est = bnras.bnras_estimate(ab, ev, 5000, 100, RandomStream(seed))
        err = bnras.error_metrics(est, oracle).max_error
        worst = max(worst, err)
        hits += err <= 0.03
    ok = hits >= 27
    assert _criterion(6, "sampler statistical correctness", ok,
                      f"{hits}/30 within 0.03, worst {worst:.4f}")


def test_acceptance_07_quality_dominates_quantity(path2):
    # Budget N*t = 1e5 split two ways. Evidence clamps B so the posterior
    # (P(A=t|B=t) = 0.99) sits far from the uniform restart distribution;
    # one-transition trials then inherit a large restart bias that no trial
    # count can wash out, while hundred-times-longer trials mix away. (With
    # no evidence this network is symmetric, restarts are exactly unbiased,
    # and the comparison degenerates to pure sampling noise.)
    ev = bnras.parse_evidence("B=t", path2)
    oracle = bnras.enumerate_posteriors(path2, ev)
    deep = [
        bnras.error_metrics(
            bnras.bnras_estimate(path2, ev, 100, 1000, RandomStream(s)), oracle
        ).avg_error
        for s in range(30)
    ]
    shallow = [
        bnras.error_metrics(
            bnras.bnras_estimate(path2, ev, 100_000, 1, RandomStream(1000 + s)), oracle
        ).avg_error
        for s in range(30)
    ]
    med_deep = statistics.median(deep)
    med_shallow = statistics.median(shallow)
    ok = med_deep * 2 <= med_shallow
    assert _criterion(
        7, "trial quality dominates trial count", ok,
        f"median avg_error: N=100,t=1000 -> {med_deep:.4f}; "
        f"N=1e5,t=1 -> {med_shallow:.4f}; ratio {med_shallow / med_deep:.1f}x",
    )


def _abs_error_law(pmf, p):
    """Distinct values of |c/n - p| over counts c = 0..n, ascending, with
    their probabilities under pmf (values equal up to rounding merged)."""
    n = len(pmf) - 1
    err = np.round(np.abs(np.arange(n + 1) / n - p), 12)
    values, inverse = np.unique(err, return_inverse=True)
    return values, np.bincount(inverse, weights=pmf)


def _binomial_tail(trials, p, k):
    """P(Binomial(trials, p) >= k)."""
    return sum(
        math.comb(trials, j) * p**j * (1 - p) ** (trials - j)
        for j in range(k, trials + 1)
    )


def test_acceptance_08_pathological_straight_simulation(path2):
    # Straight simulation on PATH2 must show the slow mixing of the exact
    # cyclic-scan chain (module docstring): its seed-median max_error must
    # fall in a band fixed beforehand from the exact law of each node's time
    # average, far above what independent draws would give, while the
    # randomized sampler at the matched budget stays below 0.1.
    budget, panel = 10_000, range(30)
    exact, _ = brute_posteriors(path2, Evidence.empty())
    laws = [
        _abs_error_law(pmf, exact[name][0])
        for name, pmf in cyclic_scan_average_pmfs(path2, Evidence.empty(), budget).items()
    ]
    # Edges sit halfway between a node's 0.15 (0.95) error quantile and the
    # next error value below (above) it, so float rounding in the estimates
    # cannot carry a value across an edge.
    lower = upper = 0.0
    for values, probs in laws:
        lo, hi = np.searchsorted(np.cumsum(probs), [0.15, 0.95])
        lower = max(lower, (values[lo - 1] + values[lo]) / 2)
        upper = max(upper, (values[hi] + values[hi + 1]) / 2)
    # max_error is at least every node's error and at most their maximum,
    # and a median of 30 outside the band needs 15 seeds outside it. Hence
    # the chance that a correct sampler fails the band:
    p_below = min(probs[values < lower].sum() for values, probs in laws)
    p_above = sum(probs[values > upper].sum() for values, probs in laws)
    false_alarm = _binomial_tail(30, p_below, 15) + _binomial_tail(30, p_above, 15)
    assert false_alarm <= 1e-5
    p_over_old_floor = sum(probs[values > 0.2].sum() for values, probs in laws)
    flips = cyclic_scan_flip_probability(path2, Evidence.empty())

    oracle = bnras.enumerate_posteriors(path2, Evidence.empty())
    straight = [
        bnras.error_metrics(
            bnras.straight_estimate(path2, Evidence.empty(), budget, RandomStream(s)),
            oracle,
        ).max_error
        for s in panel
    ]
    matched = [
        bnras.error_metrics(
            bnras.bnras_estimate(path2, Evidence.empty(), 100, 100, RandomStream(s)),
            oracle,
        ).max_error
        for s in panel
    ]
    med_straight = statistics.median(straight)
    med_bnras = statistics.median(matched)
    ok = lower <= med_straight <= upper and med_bnras < 0.1
    assert _criterion(
        8, "pathological straight simulation", ok,
        f"straight median {med_straight:.4f} (required in exact band "
        f"[{lower:.5f}, {upper:.5f}], false alarm <= {false_alarm:.1e}; "
        f"exact P(max_error > 0.2) <= {p_over_old_floor:.1e} per seed; "
        f"basin flip per sweep {max(flips.values()):.4f}), "
        f"randomized median {med_bnras:.4f} (required < 0.1)",
    )


def test_acceptance_09_well_mixing_parity(chain5):
    oracle = bnras.enumerate_posteriors(chain5, Evidence.empty())
    straight = [
        bnras.error_metrics(est, oracle).avg_error
        for est in bnras.straight_estimates(
            chain5, Evidence.empty(), 100_000, [RandomStream(s) for s in range(30)]
        )
    ]
    randomized = [
        bnras.error_metrics(
            bnras.bnras_estimate(chain5, Evidence.empty(), 1000, 100, RandomStream(s)),
            oracle,
        ).avg_error
        for s in range(30)
    ]
    diff = abs(statistics.median(straight) - statistics.median(randomized))
    ok = diff < 0.02
    assert _criterion(
        9, "well-mixing parity", ok,
        f"medians {statistics.median(straight):.4f} vs "
        f"{statistics.median(randomized):.4f}, diff {diff:.4f}",
    )


def _r_squared(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    return slope, 1.0 - ss_res / ss_tot


def test_acceptance_10_linear_time_scaling(ab):
    # This machine's speed drifts by up to a factor of two over seconds. So
    # each reading is divided by the mean of two speed probes (a fixed small
    # run of the same estimator) taken just before and after it, and each
    # grid point takes the median of `repeats` such ratios, measured in
    # rounds that sweep the whole grid.
    ev = bnras.parse_evidence("B=t", ab)
    trial_grid = [2000, 4000, 6000, 8000, 10000]
    transition_grid = [40, 80, 120, 160, 200]
    points = [(n, 50) for n in trial_grid] + [(2000, t) for t in transition_grid]

    def probe():
        return bnras.bnras_estimate(ab, ev, 2000, 20, RandomStream(1)).cpu_seconds

    repeats = 5
    ratios = [[] for _ in points]
    for _ in range(repeats):
        for p, (n, t) in enumerate(points):
            before = probe()
            cpu = bnras.bnras_estimate(ab, ev, n, t, RandomStream(0)).cpu_seconds
            ratios[p].append(2.0 * cpu / (before + probe()))
    scaled = [statistics.median(r) for r in ratios]
    cpu_by_trials, cpu_by_transitions = scaled[: len(trial_grid)], scaled[len(trial_grid) :]
    slope_n, r2_n = _r_squared(trial_grid, cpu_by_trials)
    slope_t, r2_t = _r_squared(transition_grid, cpu_by_transitions)
    ok = r2_n >= 0.95 and r2_t >= 0.95 and slope_n > 0 and slope_t > 0
    assert _criterion(
        10, "linear time scaling", ok,
        f"R2 over trials {r2_n:.4f}, over transitions {r2_t:.4f}",
    )


def test_acceptance_11_trial_count_coverage(ab):
    ev = bnras.parse_evidence("B=t", ab)
    oracle = bnras.enumerate_posteriors(ab, ev)
    n = bnras.trials_bound(0.1, 0.25)
    assert n == 100
    # the 200 seeds' runs move as one lock-step batch, each stream's tallies
    # those of its own bnras_estimate call
    ests = bnras.bnras_estimates(ab, ev, n, 500, [RandomStream(seed) for seed in range(200)])
    failures = sum(bnras.error_metrics(est, oracle).max_error > 0.1 for est in ests)
    fraction = failures / 200
    ok = fraction < 0.25
    assert _criterion(
        11, "trial-count coverage", ok,
        f"failure fraction {fraction:.3f} at N={n} (bound allows 0.25)",
    )


def test_acceptance_12_parser_round_trip_and_fuzz(nets):
    round_trip_ok = all(
        bnras.parse_network(bnras.serialize_network(net)) == net for net in nets.values()
    )
    rng = random.Random(12_345)
    structured = "network node parents cpt outcomes { } : , 0.5 0.25 1e-3 t f A B #x\n\t"
    crashes = 0
    checked = 0
    for i in range(10_000):
        if i % 2:
            text = "".join(
                rng.choice(structured) for _ in range(rng.randrange(0, 40))
            )
        else:
            text = "".join(
                chr(rng.randrange(0, 0x250)) for _ in range(rng.randrange(0, 60))
            )
        try:
            doc = bnras.parse_document(text)
        except Exception:
            crashes += 1
            continue
        checked += 1
        assert doc.network is not None or all(d.line >= 1 for d in doc.diagnostics)
    ok = round_trip_ok and crashes == 0 and checked == 10_000
    assert _criterion(
        12, "parser round trip and fuzz", ok,
        f"round-trip {round_trip_ok}, {checked} fuzz inputs, {crashes} crashes",
    )
