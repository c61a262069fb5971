"""Exact draw cutoffs against ``_resample``'s inverse-CDF pick.

``chain._draw_cutoffs`` turns rows of conditional weights into cutoffs, and
both lock-step kernels pick the count of cutoffs at or below the draw. That
count must be the outcome ``_resample`` picks with the same draw, for every
double in [0, 1): on rows with zeros anywhere, tiny and equal weights, on
every row of the builtins' blanket tables, and on dead rows.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bnras
from bnras import chain

from conftest import evidence_sets

LAST_DRAW = 1.0 - 2.0**-53  # the largest draw a stream makes


def total_of(weights):
    total = 0.0
    for w in weights:
        total += w
    return total


def resample_pick(weights, u):
    """The outcome ``_resample`` picks with draw u from these weights."""
    state = [None]
    found = (list(weights), total_of(weights))
    with mock.patch.object(chain, "_conditional_weights", lambda tab, st, i: found):
        chain._resample(None, state, 0, lambda: u)
    return state[0]


def probe_draws(cutoffs):
    """0, the largest draw, and each finite cutoff with the double below it."""
    draws = {0.0, LAST_DRAW}
    for c in cutoffs[np.isfinite(cutoffs)].tolist():
        draws.update(u for u in (c, np.nextafter(c, 0.0)) if u < 1.0)
    return sorted(draws)


def assert_defines_cutoffs(weights, cutoffs):
    """Each finite cutoff is the least double whose product with the total
    reaches its running sum."""
    total = total_of(weights)
    running = np.cumsum(weights).tolist()
    for c, th in zip(cutoffs.tolist(), running):
        if np.isfinite(c):
            assert c * total >= th
            assert c == 0.0 or np.nextafter(c, 0.0) * total < th


def weight_rows():
    magnitude = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-320, 0))
    weight = st.one_of(st.just(0.0), magnitude, st.just(1.0))
    equal = st.builds(lambda w, k: [w] * k, weight, st.integers(2, 4))
    return st.one_of(st.lists(weight, min_size=2, max_size=4), equal)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(weight_rows(), st.lists(st.integers(0, 2**53 - 1), min_size=5, max_size=5))
# subnormal totals: fl(u * total) is coarse, and the cutoffs lie far from
# threshold / total, on either side
@example([5e-324, 5e-324], [1, 2**52, 2**53 - 1, 3, 5])
@example([6.8e-318] * 4, [1, 2**51, 2**52, 3 * 2**51, 7])
@example([3e-321, 0.0, 7e-322, 1e-323], [1, 2**52, 2**53 - 1, 3, 5])
def test_cutoffs_pick_as_resample(weights, grid):
    cutoffs, dead = chain._draw_cutoffs(np.array([weights]))
    cutoffs = cutoffs[0]
    assert dead.tolist() == [total_of(weights) <= 0.0]
    if dead[0]:
        assert np.isinf(cutoffs).all()
        return
    assert (cutoffs[:-1] <= cutoffs[1:]).all() and cutoffs[-1] == np.inf
    assert_defines_cutoffs(weights, cutoffs)
    for u in probe_draws(cutoffs) + [k * 2.0**-53 for k in grid]:
        assert (cutoffs <= u).sum() == resample_pick(weights, u)


def table_rows(tables, tab, free, template):
    """Each row of the tables: (row, node, its state)."""
    for s, i in enumerate(free):
        width = (tables.multipliers[s] > 0).sum()
        members = [free[m] for m in tables.members[s, :width]]
        for values in itertools.product(*(range(tab.k[m]) for m in members)):
            state = template.copy()
            for m, v in zip(members, values):
                state[m] = v
            row = tables.offsets[s] + sum(map(int.__mul__, values, tables.multipliers[s].tolist()))
            yield row, i, state


def assert_tables_pick_as_resample(tab, free, template, tables, dead):
    """Each row of the tables picks as ``_resample`` picks at its state,
    and ``dead`` marks exactly the rows on which ``_resample`` raises."""
    seen = 0
    for row, i, state in table_rows(tables, tab, free, template):
        cutoffs = tables.cutoffs[row]
        total = chain._conditional_weights(tab, state, i)[1]
        assert dead[row] == (total <= 0.0)
        if dead[row]:
            with pytest.raises(bnras.DeterministicConflictError):
                chain._resample(tab, state.copy(), i, lambda: 0.5)
            continue
        grid = [(k * 0x9E3779B97F4A7C15 % 2**53) * 2.0**-53 for k in range(1, 9)]
        for u in probe_draws(cutoffs) + grid:
            picked = state.copy()
            chain._resample(tab, picked, i, lambda: u)
            assert (cutoffs <= u).sum() == picked[i]
        seen += 1
    assert seen + dead.sum() == len(tables.cutoffs)


def test_builtin_tables_pick_as_resample(nets):
    # tables exist only with no dead row, and every builtin's have none
    for net in nets.values():
        for ev in evidence_sets(net):
            tab, free, template = chain._prepare(net, ev)
            tables = chain._BlanketTables.fill(tab, free, template)
            assert_tables_pick_as_resample(tab, free, template, tables,
                                           np.zeros(len(tables.cutoffs), dtype=bool))


def test_dead_rows_of_the_and_gate(monkeypatch, and_gate, empty):
    # fill refuses the AND gate's tables, which have dead rows; laid out
    # as fill lays them out, their rows still pick as _resample, and
    # _draw_cutoffs' dead mask flags exactly the rows on which it raises
    tab, free, template = chain._prepare(and_gate, empty)
    assert chain._BlanketTables.fill(tab, free, template) is None
    masks = []
    draw_cutoffs = chain._draw_cutoffs

    def passed_through(weights):
        cutoffs, dead = draw_cutoffs(weights)
        masks.append(dead)
        return cutoffs, np.zeros_like(dead)

    monkeypatch.setattr(chain, "_draw_cutoffs", passed_through)
    tables = chain._BlanketTables.fill(tab, free, template)
    assert_tables_pick_as_resample(tab, free, template, tables, masks[0])
    assert masks[0].sum() == 2
