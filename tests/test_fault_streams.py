"""Properties of the keyed counter fault streams: batched rows equal the
one-key draws of the same key whatever else is in the batch, plans sit
exactly at budget on distinct in-range ids, and the strategies draw from
the distributions they promise."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import faultmem as fm
from faultmem.faults import (STRATEGIES, draw_adversarial_batch,
                             draw_independent_batch, seed_key, trial_keys)

from conftest import CERTIFIED_INSTANCES, build_instance

GRAPH_PARAMS = ((12, 3, 6, 7), (20, 4, 5, 3), (36, 3, 6, 7), (16, 4, 8, 5),
                (40, 4, 5, 13))
_GRAPHS = {}


def graph(params):
    if params not in _GRAPHS:
        n, gamma, rho, seed = params
        _GRAPHS[params] = fm.build_random_regular(fm.CodeParams(n, gamma, rho),
                                                  seed)
    return _GRAPHS[params]


def budget_for(g, reg, xor, maj):
    """A budget whose floors are exactly the given counts."""
    total_xor = g.n * g.gamma * (g.rho - 2)
    return fm.AdversarialBudget((reg + 0.5) / g.n, (xor + 0.5) / total_xor,
                                (maj + 0.5) / g.n)


@st.composite
def batches(draw):
    g = graph(draw(st.sampled_from(GRAPH_PARAMS)))
    trials = draw(st.integers(1, 10))
    alive = draw(st.lists(st.integers(0, trials - 1), min_size=1,
                          max_size=trials, unique=True).map(sorted))
    root = draw(st.integers(0, 2**40))
    cycle = draw(st.integers(1, 10**6))
    bits = np.random.default_rng(draw(st.integers(0, 2**32)))
    observed = bits.integers(0, 2, size=(trials, g.n)).astype(np.uint8)
    return g, trials, np.array(alive), root, cycle, observed


def row_pairs(batch, row):
    """Per class, the (row, id) pairs of row ``row`` renumbered to row 0,
    or None for a class drawn as None: a one-key draw's pairs if equal."""
    return [None if pair is None else
            [(0, idx) for idx in pair[1][pair[0] == row].tolist()]
            for pair in (batch.reg, batch.xor, batch.maj)]


@settings(max_examples=60)
@given(batch=batches(), strategy=st.sampled_from(STRATEGIES),
       counts=st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 3)))
def test_adversarial_rows_match_single_draws(batch, strategy, counts):
    g, trials, alive, root, cycle, observed = batch
    budget = budget_for(g, *counts)
    assert (budget.register_count(g), budget.xor_count(g),
            budget.maj_count(g)) == counts
    plans = draw_adversarial_batch(budget, g, strategy,
                                   trial_keys(root, alive), cycle,
                                   observed[alive])
    full = draw_adversarial_batch(budget, g, strategy,
                                  trial_keys(root, np.arange(trials)), cycle,
                                  observed)
    totals = (g.n, g.n * g.gamma * (g.rho - 2), g.n)
    assert plans.rows == alive.size
    for pair, count, total in zip((plans.reg, plans.xor, plans.maj), counts,
                                  totals):
        if count == 0:
            assert pair is None
            continue
        rows, ids = pair
        assert np.array_equal(rows, np.repeat(np.arange(alive.size), count))
        assert ids.min() >= 0 and ids.max() < total
        assert all(len(set(row)) == count
                   for row in ids.reshape(alive.size, count).tolist())
    for row, t in enumerate(alive):
        single = draw_adversarial_batch(budget, g, strategy,
                                        seed_key((root, int(t))), cycle,
                                        observed[t][None])
        assert single.rows == 1
        assert row_pairs(plans, row) == row_pairs(single, 0)
        assert row_pairs(full, int(t)) == row_pairs(single, 0)


@settings(max_examples=40)
@given(batch=batches(),
       rates=st.tuples(st.sampled_from([0.0, 0.01, 0.2, 0.45]),
                       st.sampled_from([0.0, 0.001, 0.05]),
                       st.sampled_from([0.0, 0.01, 0.3])))
def test_independent_rows_match_single_draws(batch, rates):
    g, trials, alive, root, cycle, _observed = batch
    rates = fm.IndependentRates(*rates)
    plans = draw_independent_batch(rates, g, trial_keys(root, alive), cycle)
    assert plans.rows == alive.size
    totals = (g.n, g.n * g.gamma * (g.rho - 2), g.n)
    for pair, p, total in zip((plans.reg, plans.xor, plans.maj),
                              (rates.p_m, rates.p_xor, rates.p_maj), totals):
        assert (pair is None) == (p == 0.0)
        if pair is None:
            continue
        # ragged rows: grouped by row, ids distinct, in range and sorted
        rows, ids = pair
        assert rows.shape == ids.shape
        assert (np.diff(rows) >= 0).all() and (rows < alive.size).all()
        assert ((np.diff(ids) > 0) | (np.diff(rows) > 0)).all()
        assert ids.size == 0 or (ids.min() >= 0 and ids.max() < total)
    for row, t in enumerate(alive):
        single = draw_independent_batch(rates, g, seed_key((root, int(t))), cycle)
        assert single.rows == 1
        assert row_pairs(plans, row) == row_pairs(single, 0)


def test_random_subsets_uniform_marginals():
    # k = 3 of 36 registers and k = 4 of 432 XOR gates over 20000 trials:
    # every component is hit with probability k / total
    g = graph((36, 3, 6, 7))
    budget = budget_for(g, 3, 4, 0)
    trials = 20_000
    plans = draw_adversarial_batch(budget, g, "random",
                                   trial_keys(8, np.arange(trials)), 3, None)
    for (_rows, ids), total in ((plans.reg, g.n),
                                (plans.xor, g.n * g.gamma * (g.rho - 2))):
        hits = np.bincount(ids, minlength=total)
        expected = np.full(total, ids.size / total)
        assert stats.chisquare(hits, expected).pvalue >= 1e-3


def test_cluster_first_check_uniform():
    # one XOR gate sits in the first block of the check order, so its
    # check is the permutation's first entry
    g = graph((36, 3, 6, 7))
    budget = budget_for(g, 2, 1, 0)
    trials = 20_000
    plans = draw_adversarial_batch(budget, g, "cluster",
                                   trial_keys(9, np.arange(trials)), 1, None)
    first = plans.xor[1] // (g.rho * (g.rho - 2))
    hits = np.bincount(first, minlength=g.m)
    assert stats.chisquare(hits, np.full(g.m, trials / g.m)).pvalue >= 1e-3
    # the registers are variables of that first check
    nbrs = g.check_nbrs[first]
    reg = plans.reg[1].reshape(trials, 2)
    assert (nbrs[:, :, None] == reg[:, None, :]).any(axis=1).all()


def test_cluster_first_two_checks_uniform():
    # with block + 1 XOR gates the first check of the order holds a whole
    # block of gates and the second one gate, so a row's ids give its
    # ordered pair of checks: uniform over the m(m-1) ordered pairs (I1)
    g, _ = build_instance(CERTIFIED_INSTANCES[0])
    block = g.rho * (g.rho - 2)
    budget = budget_for(g, 0, block + 1, 0)
    trials = 20_000
    plans = draw_adversarial_batch(budget, g, "cluster",
                                   trial_keys(10, np.arange(trials)), 1, None)
    # a row's ids are sorted, so the lone gate's check is at one end
    checks = (plans.xor[1] // block).reshape(trials, block + 1)
    lone_first = checks[:, 0] != checks[:, 1]
    first = np.where(lone_first, checks[:, -1], checks[:, 0])
    second = np.where(lone_first, checks[:, 0], checks[:, -1])
    assert (first != second).all()
    hits = np.bincount(first * g.m + second, minlength=g.m * g.m)
    pairs = hits.reshape(g.m, g.m)[~np.eye(g.m, dtype=bool)]
    expected = np.full(pairs.size, trials / pairs.size)
    assert stats.chisquare(pairs, expected).pvalue >= 1e-3


def test_budget_check_rejects_bad_rows():
    g = graph((12, 3, 6, 7))
    budget = budget_for(g, 2, 0, 0)
    plans = draw_adversarial_batch(budget, g, "random", trial_keys(1, [0, 1]),
                                   1, None)
    budget.check_batch(g, plans)
    # a repeated id, an id out of range, too few and too many ids per row
    for bad in (np.array([[0, 0], [1, 2]]), np.array([[0, 12], [1, 2]]),
                np.array([[0], [1]]), np.array([[0, 1, 2], [3, 4, 5]])):
        with pytest.raises(fm.BudgetViolationError):
            budget.check_batch(g, fm.faults.PlanBatch(2, fm.faults._pairs(bad),
                                                      None, None))


@settings(max_examples=60)
@given(rows=st.lists(st.lists(st.integers(0, 9), min_size=12, max_size=12),
                     min_size=1, max_size=5),
       count=st.integers(1, 10))
def test_first_distinct_matches_loop(rows, count):
    firsts = [list(dict.fromkeys(row)) for row in rows]
    # the helper needs count distinct values in every row
    assume(all(len(seen) >= count for seen in firsts))
    assert (fm.faults._first_distinct(np.array(rows), count).tolist()
            == [seen[:count] for seen in firsts])
