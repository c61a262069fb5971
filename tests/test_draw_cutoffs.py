"""Exact draw cutoffs against ``_resample``'s inverse-CDF pick.

``chain._draw_cutoffs`` turns rows of conditional weights into cutoffs, and
both lock-step kernels pick the count of cutoffs at or below the draw. That
count must be the outcome ``_resample`` picks with the same draw, for every
double in [0, 1): on rows with zeros anywhere, tiny and equal weights, on
every row of the builtins' blanket tables, and on dead rows. The pick of a
gathered node, made without cutoffs, must be ``_resample``'s too.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bnras
from bnras import chain

from conftest import evidence_sets, layered_network, star_network

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
    # fill gathers A and C, whose tables have dead rows, and tabulates B;
    # laid out as fill lays tables out, their rows still pick as _resample,
    # and _draw_cutoffs' dead mask flags exactly the rows on which it raises
    tab, free, template = chain._prepare(and_gate, empty)
    rank = chain._BlanketTables.fill(tab, free, template).gathered[0]
    assert rank.tolist() == [0, 1, -1]
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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(weight_rows(), st.lists(st.integers(0, 2**53 - 1), min_size=5, max_size=5))
@example([5e-324, 5e-324], [1, 2**52, 2**53 - 1, 3, 5])
@example([3e-321, 0.0, 7e-322, 1e-323], [1, 2**52, 2**53 - 1, 3, 5])
def test_gathered_pick_as_resample(weights, grid):
    # one gathered node of one factor that reads the row itself: its pick
    # is _resample's at every draw, and a dead row is a conflict that keeps
    # the current value
    width = len(weights)
    no_members = np.zeros((1, 1, 0), dtype=np.intp)
    tables = chain._BlanketTables(
        np.array([width]), np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), dtype=np.intp),
        np.zeros(1, dtype=np.intp), np.full((1, width), np.inf),
        (np.array([0]), no_members, no_members, np.arange(width)[None, None],
         np.array([*weights, 1.0, 0.0])))
    draws = probe_draws(chain._draw_cutoffs(np.array([weights]))[0]) + [k * 2.0**-53 for k in grid]
    found = np.zeros((len(draws), 1, 0), dtype=np.intp)
    chosen, dead = tables._gathered_pick(0, found, np.array(draws), np.full(len(draws), -1))
    if total_of(weights) <= 0.0:
        assert dead.all() and (chosen == -1).all()
    else:
        assert not dead.any()
        assert chosen.tolist() == [resample_pick(weights, u) for u in draws]


@pytest.mark.parametrize("cap", [8, 1])
def test_gathered_weights_are_conditional_weights(monkeypatch, minialarm, cap):
    # a gathered node's weights, not only its picks, are _conditional_weights'
    # bit for bit at random states, the factors multiplied in the same order:
    # MINIALARM's nodes of 16 and 32 rows gathered, then every node; the
    # layered network's nodes have three children, the star's root 70
    monkeypatch.setattr(chain, "_BLANKET_CAP", cap)
    rng = np.random.default_rng(cap)
    for net in (minialarm, layered_network(12), star_network(70)):
        for ev in evidence_sets(net):
            tab, free, template = chain._prepare(net, ev)
            tables = chain._BlanketTables.fill(tab, free, template)
            rank, members = tables.gathered[:2]
            states = np.array(template) + np.zeros((200, 1), dtype=np.intp)
            states[:, free] = rng.integers(0, tables.outcomes, size=(200, len(free)))
            for s in np.flatnonzero(rank >= 0).tolist():
                weights = tables._gathered_weights(rank[s], states[:, free][:, members[rank[s]]])
                k = tab.k[free[s]]
                assert not weights[:, k:].any()
                for row, state in zip(weights[:, :k].tolist(), states.tolist()):
                    assert row == chain._conditional_weights(tab, state, free[s])[0]


def test_wide_star_fill_memory():
    # the root of 1000 children is gathered; its factor arrays hold one free
    # member a factor, so fill allocates little more than the children's
    # two-row tables (1.2 MB measured)
    tab, free, template = chain._prepare(star_network(1000), bnras.Evidence.empty())
    tracemalloc.start()
    tables = chain._BlanketTables.fill(tab, free, template)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (tables.gathered[0] >= 0).tolist() == [True] + [False] * 1000
    assert tables.members.shape == (1001, 1) and tables.gathered[1].shape == (1, 1001, 1)
    assert peak < 4 * 2**20
