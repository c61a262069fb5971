"""Checks of a session's outputs against the reference computations.

Every check returns a list of failure messages; an empty list passes. The
references come from :mod:`oracle`, which reads only the CPT rows. The
statistical checks state their false-alarm probability; per run they add up
to at most 1e-4:

* randomized-sampler rows: Hoeffding, 5e-5 per CSV file, split evenly
  over its rows;
* straight rows on PATH2: the exact law of the chain, at most 1e-5 for the
  median band and 1e-6 per row;
* other straight rows: Chebyshev with the exact mean-squared error and a
  binomial count over seeds, at most 1e-5 per CSV file.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics

import numpy as np

import oracle

CSV_HEADER = (
    "run_id,seed,algorithm,network,evidence,trials,transitions_per_trial,"
    "total_transitions,checkpoint,avg_error,max_error,worst_node,"
    "cpu_seconds,wall_seconds"
)

HOEFFDING_FALSE_ALARM = 5e-5
STRAIGHT_FALSE_ALARM = 1e-5
PATH2_ROW_FALSE_ALARM = 1e-6
CHEBYSHEV_EXCEEDANCE = 0.05  # per-row exceedance probability of the Chebyshev bound
PRINT_SLACK = 1e-8  # rounding of the CSV's 9 significant digits


class References:
    """Reference computations for one plan, each made once and cached.

    ``tables(name)`` gives a network's (names, outcomes, parents, CPT rows);
    evidence strings are ``Name=outcome,...`` as the CLI takes them.
    """

    def __init__(self, tables):
        self.tables = tables
        self._cache: dict = {}

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _evidence(self, net: str, evidence: str) -> dict:
        names, outcomes = self.tables(net)[:2]
        pairs = (item.partition("=") for item in filter(None, evidence.split(",")))
        return {node: list(outcomes[names.index(node)]).index(label)
                for node, _, label in pairs}

    def model(self, net: str, evidence: str) -> oracle.Model:
        return self.cached(("model", net, evidence), lambda: oracle.Model(
            *self.tables(net), self._evidence(net, evidence)))

    def factored(self, net: str, evidence: str) -> tuple[float, float]:
        names, _, parents, rows = self.tables(net)
        return self.cached(("factored", net, evidence), lambda: oracle.factored_inputs(
            names, parents, rows, self._evidence(net, evidence)))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _close_int(got: int, want: int) -> bool:
    """Ceiled counts computed from inputs equal to ~1e-16 relative may land
    one apart, or further apart when the count is astronomically large."""
    return abs(got - want) <= 1 + 1e-9 * abs(want)


# -- exact -------------------------------------------------------------------------


def check_exact(stdout: str, model: oracle.Model) -> list[str]:
    """Posteriors printed with 6 decimals and P(evidence) with 6 significant
    digits must be the brute-force values rounded that way."""
    fails = []
    printed = {(m[1], m[2]): float(m[3]) for m in
               re.finditer(r"^P\((\w+)=(\w+)(?:\|[^)]*)?\)=(\S+)$", stdout, re.M)}
    for name, labels, post in zip(model.free, model.outcomes, model.posteriors()):
        for label, p in zip(labels, post):
            got = printed.pop((name, label), None)
            if got is None:
                fails.append(f"exact: no line for P({name}={label})")
            elif abs(got - p) > 0.5e-6 + 1e-12:
                fails.append(f"exact: P({name}={label}) printed {got}, brute force {p:.9f}")
    if printed:
        fails.append(f"exact: unexpected lines {sorted(printed)}")
    match = re.search(r"^P\(evidence\)=(\S+)$", stdout, re.M)
    pe = model.evidence_probability
    unit = 10.0 ** (math.floor(math.log10(pe)) - 5)
    if match is None:
        fails.append("exact: no P(evidence) line")
    elif abs(float(match[1]) - pe) > 0.5 * unit * (1 + 1e-9):
        fails.append(f"exact: P(evidence) printed {match[1]}, brute force {pe:.9g}")
    return fails


# -- bounds ------------------------------------------------------------------------


def _parse_bounds(stdout: str) -> dict | None:
    pattern = (r"pi_min=(\S+) p0=(\S+)\n.*N = (\d+)\n.*t_mix = (\d+)\n"
               r".*transitions per trial\s+t = (\d+)")
    match = re.search(pattern, stdout)
    if match is None:
        return None
    return {"pi_min": float(match[1]), "p0": float(match[2]), "trials": int(match[3]),
            "t_mix": int(match[4]), "t": int(match[5])}


def check_bounds(stdout: str, mode: str, model: oracle.Model, factored: tuple,
                 alpha=0.1, delta=0.1, gamma=0.1) -> list[str]:
    """Exact mode must print the brute-force pi_min and p0; factored mode
    the certified lower bounds, which may not exceed them, and requirements
    no smaller than the exact ones. Every count must follow its formula."""
    got = _parse_bounds(stdout)
    if got is None:
        return [f"bounds {mode}: output not understood"]
    fails = []
    want = (model.pi_min, model.p0) if mode == "exact" else factored
    for key, value in zip(("pi_min", "p0"), want):
        if not _close(got[key], value, 1e-8):
            fails.append(f"bounds {mode}: {key} printed {got[key]}, reference {value:.9g}")
    if got["trials"] != oracle.trials_bound(alpha, delta):
        fails.append(f"bounds {mode}: N = {got['trials']}")
    t_mix = math.ceil(oracle.mixing_ratio(gamma, *want))
    t = oracle.t_per_trial(alpha, delta, gamma, *want)
    if not (_close_int(got["t_mix"], t_mix) and _close_int(got["t"], t)):
        fails.append(f"bounds {mode}: t_mix {got['t_mix']} and t {got['t']}, "
                     f"formulas give {t_mix} and {t}")
    if mode == "factored":
        exact_t = oracle.t_per_trial(alpha, delta, gamma, model.pi_min, model.p0)
        if got["pi_min"] > model.pi_min or got["p0"] > model.p0:
            fails.append("bounds factored: a lower bound exceeds the exact input")
        if got["t"] < exact_t:
            fails.append(f"bounds factored: t {got['t']} below the exact requirement {exact_t}")
    return fails


# -- mixing ------------------------------------------------------------------------


def check_mixing(out: dict, model: oracle.Model, rpd: dict[int, float]) -> list[str]:
    """pi_min and p0 equal the brute-force values; every rpd matches the
    eigendecomposition within the rounding of both computations; rpd does
    not rise with t."""
    fails = []
    for key, value in (("pi_min", model.pi_min), ("p0", model.p0)):
        if not _close(out[key], value, 1e-9):
            fails.append(f"mixing: {key} = {out[key]!r}, reference {value!r}")
    got = {int(t): v for t, v in out["rpd"].items()}
    if sorted(got) != sorted(rpd):
        return fails + [f"mixing: rpd reported at t = {sorted(got)}, expected {sorted(rpd)}"]
    # entries of P^t carry absolute errors near 1e-13 in both computations,
    # and rpd divides them by pi(y)
    slack = 1e-12 / model.pi_min
    for t, want in rpd.items():
        if abs(got[t] - want) > slack + 1e-9 * want:
            fails.append(f"mixing: rpd({t}) = {got[t]!r}, eigendecomposition {want!r}")
    ts = sorted(got)
    for a, b in zip(ts, ts[1:]):
        if got[b] > got[a] * (1 + 1e-12):
            fails.append(f"mixing: rpd rises from t={a} ({got[a]!r}) to t={b} ({got[b]!r})")
    return fails


# -- sampler CSV ---------------------------------------------------------------------


def parse_csv(text: str) -> tuple[str, list[dict]]:
    header, _, body = text.partition("\n")
    return header, list(csv.DictReader(io.StringIO(body), fieldnames=header.split(",")))


def sampler_rates(rows: list[dict]) -> dict[str, tuple[int, float]]:
    """(transitions, wall seconds) summed over the summary rows, per algorithm."""
    totals = {"bnras": [0, 0.0], "straight": [0, 0.0]}
    for row in rows:
        if row["checkpoint"] == "":
            totals[row["algorithm"]][0] += int(row["total_transitions"])
            totals[row["algorithm"]][1] += float(row["wall_seconds"])
    return {k: tuple(v) for k, v in totals.items()}


def _structure(rows: list[dict], spec: dict, model: oracle.Model) -> list[str]:
    """Rows come per run in order: its checkpoint rows, then its summary."""
    fails = []
    expected = []
    stride = spec["stride"]
    for run in spec["runs"]:
        total = run["trials"] * run["t"] if run["algorithm"] == "bnras" else run["total"]
        checkpoints = total // stride if stride and total else 0
        expected += [(run["algorithm"], str(run["seed"]), str((k + 1) * stride))
                     for k in range(checkpoints)]
        expected.append((run["algorithm"], str(run["seed"]), ""))
    got = [(r["algorithm"], r["seed"], r["checkpoint"]) for r in rows]
    if got != expected:
        fails.append(f"csv: {len(got)} rows do not follow the runs ({len(expected)} expected)")
    for r in rows:
        if r["worst_node"] not in model.free:
            fails.append(f"csv: worst_node {r['worst_node']!r} is not a free node")
        if float(r["avg_error"]) > float(r["max_error"]):
            fails.append(f"csv: {r['run_id']} avg_error above max_error")
    return fails


def check_bnras_rows(rows: list[dict], model: oracle.Model, refs: References,
                     key) -> list[str]:
    """Each reported error lies within a Hoeffding epsilon of the error of
    the exact law of a trial's final state: the trials' frequencies are
    within epsilon of that law's marginals, and max and mean of absolute
    deviations move by no more than the frequencies do."""
    fails = []
    rows = [r for r in rows if r["algorithm"] == "bnras"]
    pairs = sum(len(o) for o in model.outcomes)
    for r in rows:
        t = int(r["transitions_per_trial"])
        law_avg, law_max = refs.cached((key, "trial", t),
                                       lambda: model.errors(model.marginals(model.trial_law(t))))
        scored = int(r["trials"]) if r["checkpoint"] == "" else -(-int(r["checkpoint"]) // t)
        eps = oracle.hoeffding_epsilon(scored, pairs, HOEFFDING_FALSE_ALARM / len(rows))
        for name, got, want in (("avg", float(r["avg_error"]), law_avg),
                                ("max", float(r["max_error"]), law_max)):
            if abs(got - want) > eps + PRINT_SLACK:
                fails.append(f"csv: {r['run_id']} checkpoint {r['checkpoint'] or 'final'}: "
                             f"{name}_error {got:.6f}, exact t={t} law gives {want:.6f} "
                             f"+- {eps:.6f}")
    return fails


def path2_band(model: oracle.Model, total: int, seeds: int):
    """From the exact law of each node's time average (acceptance 08's
    construction): the band the seed-median max_error must fall in, its
    false-alarm probability, and a per-row ceiling."""
    laws = [oracle.error_law(pmf, post[0]) for pmf, post in
            zip(oracle.cyclic_average_pmfs(model, total), model.posteriors())]
    lower = upper = 0.0
    for values, probs in laws:
        lo, hi = np.searchsorted(np.cumsum(probs), [0.15, 0.95])
        lower = max(lower, (values[lo - 1] + values[lo]) / 2)
        upper = max(upper, (values[hi] + values[hi + 1]) / 2)
    p_below = min(probs[values < lower].sum() for values, probs in laws)
    p_above = sum(probs[values > upper].sum() for values, probs in laws)
    half = seeds // 2 + seeds % 2
    false_alarm = (oracle.binomial_tail(seeds, p_below, half)
                   + oracle.binomial_tail(seeds, p_above, half))
    edges = np.unique(np.concatenate([values for values, _ in laws]))
    tails = [sum(probs[values > c].sum() for values, probs in laws) for c in edges]
    k = next(i for i, tail in enumerate(tails) if tail <= PATH2_ROW_FALSE_ALARM / seeds)
    ceiling = (edges[k] + edges[k + 1]) / 2 if k + 1 < len(edges) else 1.0
    return lower, upper, false_alarm, ceiling


def check_straight_rows(rows: list[dict], spec: dict, model: oracle.Model,
                        refs: References, key) -> list[str]:
    """Summary rows of cyclic-scan runs, against the exact law of the time
    averages on PATH2 (``exact_law``), elsewhere against a Chebyshev bound
    from their exact mean-squared error and a binomial count over seeds."""
    fails = []
    summary = [r for r in rows if r["algorithm"] == "straight" and r["checkpoint"] == ""]
    if not summary:
        return fails
    total = int(summary[0]["total_transitions"])
    errors = [float(r["max_error"]) for r in summary]
    if spec.get("exact_law"):
        lower, upper, false_alarm, ceiling = refs.cached(
            (key, "band", total, len(summary)), lambda: path2_band(model, total, len(summary)))
        if false_alarm > STRAIGHT_FALSE_ALARM:
            fails.append(f"csv: straight band false alarm {false_alarm:.2e} too high")
        median = statistics.median(errors)
        if not lower <= median <= upper:
            fails.append(f"csv: straight median max_error {median:.5f} outside the exact "
                         f"band [{lower:.5f}, {upper:.5f}]")
        high = [e for e in errors if e > ceiling]
        if high:
            fails.append(f"csv: straight max_error {max(high):.5f} above the exact "
                         f"per-row ceiling {ceiling:.5f}")
        return fails
    # Chebyshev: P(max_error > c) <= sum of MSE / c^2 = CHEBYSHEV_EXCEEDANCE
    mse = refs.cached((key, "mse", total), lambda: model.cyclic_mse(total))
    ceiling = math.sqrt(mse.sum() / CHEBYSHEV_EXCEEDANCE)
    n = len(summary)
    k = next((k for k in range(1, n + 1)
              if oracle.binomial_tail(n, CHEBYSHEV_EXCEEDANCE, k) <= STRAIGHT_FALSE_ALARM), None)
    if k is None:
        return fails + [f"csv: {n} straight runs are too few for the count test"]
    above = sum(e > ceiling for e in errors)
    if above >= k:
        fails.append(f"csv: {above} of {n} straight runs have max_error above "
                     f"{ceiling:.4f} (at most {k - 1} allowed)")
    return fails


def check_csv(text: str, spec: dict, model: oracle.Model, refs: References) -> list[str]:
    header, rows = parse_csv(text)
    if header != CSV_HEADER:
        return [f"csv: header {header!r}"]
    key = (spec["net"], spec["evidence"])
    return (_structure(rows, spec, model)
            + check_bnras_rows(rows, model, refs, key)
            + check_straight_rows(rows, spec, model, refs, key))


def check_validate(stdout: str, name: str, nodes: int) -> list[str]:
    want = f"{name}: ok ({nodes} nodes, strictly positive)"
    return [] if stdout.strip() == want else [f"validate: {stdout.strip()!r}, expected {want!r}"]
