"""A-priori convergence requirements for the randomized sampler.

Three closed-form requirements, all ceiled to integers:

* trial count       N(alpha, delta)            = ceil(1 / (4 delta alpha^2))
* mixing transitions t_mix(gamma, Pi, p0)      = ceil((ln gamma + ln Pi) / ln(1 - p0^2/8))
* transitions/trial t(alpha, delta, gamma, Pi, p0)
      = ceil( ceil(4 (1+gamma)^3 / (3 alpha^2))
              * (12 ceil(-ln delta) + 1)
              * (ln gamma + ln Pi) / ln(1 - p0^2/8) )

Pi is the smallest stationary (posterior joint) probability of the chain and
p0 its smallest positive transition probability; both can come from the
exact oracle or from the factored lower bounds computed here without any
enumeration. Feeding lower bounds for Pi and p0 can only increase the
transition requirements, never understate them.

The mixing ratio is invariant to the logarithm base; the ceil(-log delta)
factor is not, and this module fixes the natural logarithm for it. All
formulas require probabilities strictly inside (0, 1): zero or one table
entries make the chain reducible in the worst case, so the bound functions
refuse them instead of returning infinity.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from .chain import _prepare, _require_free
from .errors import MixingOverflowError
from .exact import (DEFAULT_ENUM_CAP, _require_positive, min_joint_posterior,
                    min_transition_probability)
from .network import BeliefNetwork, Evidence


@dataclass(frozen=True)
class ErrorTolerances:
    """Convergence targets: interval error alpha, failure probability delta
    and pointwise-distance target gamma."""

    alpha: float
    delta: float
    gamma: float

    def __post_init__(self):
        _check_unit_interval(alpha=self.alpha, delta=self.delta, gamma=self.gamma)


@dataclass(frozen=True)
class BoundsReport:
    trials: int
    t_mix: int
    t_per_trial: int
    pi_min: float
    p0: float
    mode: str  # "exact" | "factored"


def _check_unit_interval(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@contextmanager
def _within_doubles(what: str, **tolerances: float):
    """Refuse a count whose formula divides by a product that underflows to
    0.0 or overflows, with :class:`MixingOverflowError` naming the tolerances."""
    try:
        yield
    except (ZeroDivisionError, OverflowError):
        named = ", ".join(f"{name} = {value!r}" for name, value in tolerances.items())
        raise MixingOverflowError(f"{named}: the {what} required exceed every double") from None


def trials_bound(alpha: float, delta: float) -> int:
    """Trials needed for interval error alpha with failure probability
    delta, from the Chebyshev scoring argument."""
    _check_unit_interval(alpha=alpha, delta=delta)
    with _within_doubles("trials", alpha=alpha, delta=delta):
        return math.ceil(1.0 / (4.0 * delta * alpha * alpha))


def _mixing_ratio(gamma: float, pi_min: float, p0: float) -> float:
    numerator = math.log(gamma) + math.log(pi_min)
    base = 1.0 - p0 * p0 / 8.0
    denominator = math.log(base)
    if denominator == 0.0:
        raise MixingOverflowError(
            f"p0 = {p0!r} is too small: 1 - p0^2/8 rounds to 1, the "
            "transition requirement overflows any finite count"
        )
    return numerator / denominator


def mixing_bound(gamma: float, pi_min: float, p0: float) -> int:
    """Transitions after which the chain's relative pointwise distance from
    stationarity is guaranteed to be at most gamma (conductance bound)."""
    _check_unit_interval(gamma=gamma, pi_min=pi_min, p0=p0)
    return math.ceil(_mixing_ratio(gamma, pi_min, p0))


def transitions_per_trial(tol: ErrorTolerances, pi_min: float, p0: float) -> int:
    """Worst-case transitions per trial for the full (alpha, delta, gamma)
    guarantee. The first factor carries its own ceiling; -log delta uses the
    natural logarithm."""
    _check_unit_interval(pi_min=pi_min, p0=p0)
    with _within_doubles("transitions per trial", alpha=tol.alpha, delta=tol.delta,
                         gamma=tol.gamma):
        first = math.ceil(4.0 * (1.0 + tol.gamma) ** 3 / (3.0 * tol.alpha * tol.alpha))
        second = 12 * math.ceil(-math.log(tol.delta)) + 1
        return math.ceil(first * second * _mixing_ratio(tol.gamma, pi_min, p0))


def factored_lower_bounds(net: BeliefNetwork, ev: Evidence) -> tuple[float, float]:
    """Certified lower bounds (Pi_lb, p0_lb), up to float rounding, computed
    from table entries alone, with no enumeration.

    Pi_lb multiplies each node's smallest table entry: any posterior joint
    probability is at least the full joint, which is at least this product.
    A product that underflows to 0.0 raises :class:`MixingOverflowError`.
    p0_lb bounds each full conditional from below by m/(k*M), where m and M
    multiply the smallest and largest entries over the node and its
    children and k is the node's outcome count, then applies the 1/(2n)
    selection factor of the lazy kernel.
    """
    tab, free, _ = _prepare(net, ev)
    _require_positive(net)
    _require_free(free)

    pi_lb = 1.0
    for nd in net.nodes:
        pi_lb *= nd.cpt.min_entry
    if pi_lb == 0.0:
        raise MixingOverflowError(f"the factored Pi of network {net.name} underflows to 0.0: "
                                  "its least table entries multiply to below every double")

    worst = None
    for i in free:
        m = 1.0
        big = 1.0
        for member in (i, *tab.children[i]):
            cpt = net.nodes[member].cpt
            m *= cpt.min_entry
            big *= cpt.max_entry
        ratio = m / (tab.k[i] * big)
        if worst is None or ratio < worst:
            worst = ratio
    p0_lb = worst / (2.0 * len(free))
    return pi_lb, p0_lb


def report_bounds(
    net: BeliefNetwork,
    ev: Evidence,
    tol: ErrorTolerances,
    mode: str = "exact",
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> BoundsReport:
    """Assemble the full requirement table for a network and evidence.

    ``exact`` mode takes p0 off the nodes' blanket conditionals, then Pi off
    one enumeration of the joint states, which must fit under the
    enumeration cap, and builds no transition matrix; ``factored`` mode uses
    the certified lower bounds, which can only make the transition
    requirements larger.
    """
    if mode == "exact":
        p0 = min_transition_probability(net, ev)
        pi_min = min_joint_posterior(net, ev, enum_cap)
        if pi_min == 0.0:
            raise MixingOverflowError(f"the exact Pi of network {net.name} underflows to 0.0: "
                                      "its least joint posterior is below every double")
    elif mode == "factored":
        pi_min, p0 = factored_lower_bounds(net, ev)
    else:
        raise ValueError(f"mode must be 'exact' or 'factored', got {mode!r}")
    return BoundsReport(
        trials=trials_bound(tol.alpha, tol.delta),
        t_mix=mixing_bound(tol.gamma, pi_min, p0),
        t_per_trial=transitions_per_trial(tol, pi_min, p0),
        pi_min=pi_min,
        p0=p0,
        mode=mode,
    )
