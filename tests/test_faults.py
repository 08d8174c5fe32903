import bisect
import decimal
import hashlib
import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import faultmem as fm
from faultmem import faults
from faultmem.decoders import pack_rows, parallel_bitflip_round_many
from faultmem.faults import (PlanBatch, draw_adversarial_batch,
                             draw_independent_batch, exceedance_frequency,
                             seed_key, trial_keys)

from conftest import (CERTIFIED_INSTANCES, build_instance,
                      parallel_bitflip_round, plan_masks, row_ids,
                      var_planes)


@pytest.fixture(scope="module")
def small_graph():
    return fm.build_random_regular(fm.CodeParams(36, 3, 6), seed=7,
                                   reject_4cycles=True)


def zeros(g):
    return np.zeros(g.n, np.uint8)


def plan_sets(batch, row=0):
    """The register, XOR and majority id sets of one row of a batch."""
    return tuple(row_ids(pair, row) for pair in (batch.reg, batch.xor, batch.maj))


def independent(rates, g, seed, cycle):
    """The id sets of the one-key independent draw for (seed, cycle)."""
    return plan_sets(draw_independent_batch(rates, g, seed_key(seed), cycle))


def adversarial(budget, g, strategy, seed, cycle, observed):
    """The id sets of the one-key adversarial draw for (seed, cycle)."""
    return plan_sets(draw_adversarial_batch(budget, g, strategy, seed_key(seed),
                                            cycle, observed[None]))


def assert_gate_ids_in_range(g, xor, maj):
    """Flat XOR ids decompose to (check, out_slot, chain_pos) in range,
    majority ids are variables."""
    chain = g.rho - 2
    for idx in xor:
        c, k, pos = idx // chain // g.rho, idx // chain % g.rho, idx % chain
        assert 0 <= c < g.m and 0 <= k < g.rho and 0 <= pos <= g.rho - 3
    assert all(0 <= v < g.n for v in maj)


# -- rates / budgets --------------------------------------------------------


def test_rate_validation():
    with pytest.raises(ValueError):
        fm.IndependentRates(p_m=0.5)
    with pytest.raises(ValueError):
        fm.IndependentRates(p_xor=-0.1)
    with pytest.raises(ValueError):
        fm.AdversarialBudget(alpha_m=1.0)


def test_budget_counts(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.05, alpha_xor=0.01, alpha_maj=0.05)
    assert b.register_count(g) == 1  # floor(1.8)
    assert b.xor_count(g) == 4       # floor(0.01 * 432)
    assert b.maj_count(g) == 1
    tiny = fm.AdversarialBudget(alpha_m=1e-5, alpha_xor=1e-5, alpha_maj=1e-5)
    assert tiny.register_count(g) == 0  # zero floor => fault-free class


def test_budget_violation_detected(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.03)
    plan = PlanBatch(1, faults._pairs(np.array([[0, 1, 2]])), None, None)
    with pytest.raises(fm.BudgetViolationError):
        b.check_batch(g, plan)


# -- independent draws ------------------------------------------------------


def test_zero_rates_empty_plans(small_graph):
    batch = draw_independent_batch(fm.IndependentRates(), small_graph,
                                   seed_key(1), 1)
    assert (batch.rows, batch.reg, batch.xor, batch.maj) == (1, None, None, None)


def test_independent_reproducible(small_graph):
    rates = fm.IndependentRates(0.1, 0.01, 0.05)
    r1 = independent(rates, small_graph, 5, 9)
    r2 = independent(rates, small_graph, 5, 9)
    r3 = independent(rates, small_graph, 5, 10)
    assert r1 == r2
    assert r1 != r3


def test_independent_plan_ranges(small_graph):
    g = small_graph
    reg, xor, maj = independent(fm.IndependentRates(0.2, 0.05, 0.2), g, 3, 4)
    assert reg and xor and maj
    assert all(0 <= v < g.n for v in reg)
    assert_gate_ids_in_range(g, xor, maj)


def cycles(count):
    """Cycles 0 .. count-1 as a block: row c of a draw is cycle c."""
    return np.arange(count, dtype=np.uint64)[:, None]


def test_register_flip_mean_matches_binomial():
    # p_m = 0.01, n = 1e4, 1e4 draws; mean within 3 sigma of the mean
    g = fm.build_random_regular(fm.CodeParams(10_000, 3, 6), seed=1)
    rates = fm.IndependentRates(p_m=0.01)
    draws = 10_000
    batch = draw_independent_batch(rates, g, seed_key(77), cycles(draws))
    mean = batch.reg[1].size / draws
    sigma_mean = math.sqrt(10_000 * 0.01 * 0.99) / math.sqrt(draws)
    assert abs(mean - 100.0) <= 3 * sigma_mean


def binomial_pvalue(counts, total, p):
    """Chi-square p-value of per-row fault counts against Binomial(total,
    p); each tail is folded into one bin holding at least 5 expected."""
    exp = stats.binom.pmf(np.arange(total + 1), total, p) * counts.size
    obs = np.bincount(counts, minlength=total + 1)
    lo = int(np.argmax(np.cumsum(exp) >= 5))
    hi = total - int(np.argmax(np.cumsum(exp[::-1]) >= 5))
    exp = np.r_[exp[:lo + 1].sum(), exp[lo + 1:hi], exp[hi:].sum()]
    obs = np.r_[obs[:lo + 1].sum(), obs[lo + 1:hi], obs[hi:].sum()]
    return stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


# 10 000 cycles of one key on (2000,3,6): ~100 faults per row in every class
LAW_RATES = fm.IndependentRates(0.05, 0.004, 0.05)


@pytest.fixture(scope="module")
def law_batch():
    g = fm.build_random_regular(fm.CodeParams(2000, 3, 6), seed=2)
    return g, draw_independent_batch(LAW_RATES, g, seed_key(123), cycles(10_000))


def class_law(g, batch, name):
    pair = getattr(batch, name)
    total, p = {"reg": (g.n, LAW_RATES.p_m),
                "xor": (g.n * g.gamma * (g.rho - 2), LAW_RATES.p_xor),
                "maj": (g.n, LAW_RATES.p_maj)}[name]
    return np.bincount(pair[0], minlength=batch.rows), pair[1], total, p


def test_register_counts_chisquare_binomial(law_batch):
    counts, _ids, total, p = class_law(*law_batch, "reg")
    assert binomial_pvalue(counts, total, p) >= 1e-3


@pytest.mark.parametrize("name", ("xor", "maj"))
def test_gate_counts_chisquare_binomial(law_batch, name):
    counts, _ids, total, p = class_law(*law_batch, name)
    assert binomial_pvalue(counts, total, p) >= 1e-3


@pytest.mark.parametrize("name", ("reg", "xor", "maj"))
def test_position_marginals_uniform(law_batch, name):
    # every component of a class fails equally often
    _counts, ids, total, _p = class_law(*law_batch, name)
    hits = np.bincount(ids, minlength=total)
    assert stats.chisquare(hits, np.full(total, ids.size / total)).pvalue >= 1e-3


def exact_rounded_cdf(total, p, size):
    """rint(2^53 P(X <= k)), ties to even, for k < size and X ~
    Binomial(total, p), in Python integers: with p = a/2^e exactly and
    b = 2^e - a, P(X <= k) is the sum over j <= k of C(total, j) a^j
    b^(total-j), over 2^(e total)."""
    a, den = p.as_integer_ratio()
    b, scale = den - a, den ** total
    term, cum, out = b ** total, 0, []
    for k in range(size):
        cum += term
        q, r = divmod(cum << 53, scale)
        out.append(q + (2 * r > scale or (2 * r == scale and q & 1)))
        term = term * (total - k) * a // ((k + 1) * b)
    return out


def decimal_rounded_cdf(total, p, size):
    """rint(2^53 P(X <= k)) for k < size from 60-digit decimal arithmetic.

    Weights w_k, proportional to P(X = k), run from w = 1 at k0, 20 sd
    below the mean, by w_{k+1} = w_k (total-k) p / ((k+1) q) to k1, 20 sd
    + 40 above it, and are normalised by their sum.  The pmf rises to its
    mode and falls after it, so the mass cut off below k0 is at most k0
    P(X = k0) and above k1 at most (total-k1) P(X = k1); the two are
    asserted below 1e-40.  Every weight and sum is at most 4 roundings of
    1e-59 per step from exact, over at most 3e5 steps, so each P(X <= k) is
    within 1e-39: within 1e-23 once times 2^53.  Each entry is asserted
    farther than that from a half-integer, so its rounding is exact."""
    ctx = decimal.Context(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    prob = decimal.Decimal(p)
    ratio = ctx.divide(prob, ctx.subtract(1, prob))
    mean, sd = total * p, math.sqrt(total * p * (1 - p))
    k0 = max(0, math.floor(mean - 20 * sd))
    k1 = min(total, max(size - 1, math.ceil(mean + 20 * sd + 40)))
    weight, cum, sums = decimal.Decimal(1), decimal.Decimal(0), []
    for k in range(k0, k1 + 1):
        cum = ctx.add(cum, weight)
        sums.append(cum)
        if k < k1:
            weight = ctx.divide(ctx.multiply(weight, ctx.multiply(total - k, ratio)),
                                k + 1)
    cut = ctx.add(k0, ctx.multiply(total - k1, weight))
    assert ctx.divide(cut, cum) < decimal.Decimal("1e-40")
    scale, out = ctx.divide(2**53, cum), [0] * k0
    for part in sums[:size - k0]:
        x = ctx.multiply(scale, part)
        r = int(x.to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
        assert abs(abs(x - r) - decimal.Decimal("0.5")) > decimal.Decimal("1e-23")
        out.append(r)
    return out


@pytest.mark.parametrize("gamma, rho", ((3, 6), (4, 8)))
def test_binomial_table_reaches_the_top_quantile(gamma, rho):
    # every class size up to n*gamma*(rho-2) at n = 20 000, rates up to 1/2:
    # entry k is the exact rounding of 2^53 P(X <= k), and the table ends
    # at 2^53, which is the exact rounding there too, so every 53-bit
    # uniform has a count and no mass above 2^-53 is cut off.  Up to 40
    # components the oracle is exact integers, above it 60-digit decimals
    n = 20_000
    for total in (1, 40, n, n * gamma * (rho - 2)):
        for p in (1e-12, 1e-6, 1e-4, 0.004, 0.05, 0.3, 0.4999):
            table = faults._binomial_table(total, p)
            assert table[-1] == 2**53
            oracle = exact_rounded_cdf if total <= 40 else decimal_rounded_cdf
            assert table.tolist() == oracle(total, p, table.size)


@pytest.mark.parametrize("total, p", ((1, 0.3), (2, 3 / 2**27), (54, 0.5),
                                      (40, 0.05), (480, 0.05), (300, 1e-6),
                                      (30, 0.999)))
def test_rounded_cdf_is_exact_or_undecided(total, p):
    # at every mantissa width, down to one guard bit past 2^-53, the error
    # bound either decides every entry (and then right) or returns None.
    # 2^53 P(X = 0) is a half-integer in the first three cases, a tie that
    # only exact arithmetic settles, to even
    table = faults._binomial_table(total, p).tolist()
    exact = exact_rounded_cdf(total, p, len(table) - 1)
    assert table == exact + [2**53]
    for bits in (54, 56, 64, 80, 128):
        cdf = faults._rounded_cdf(total, p, len(table) - 2, bits)
        assert cdf is None or cdf == exact


def test_cycles_uncorrelated():
    g = fm.build_random_regular(fm.CodeParams(2000, 3, 6), seed=3)
    rates = fm.IndependentRates(p_m=0.05)
    ind = np.zeros((60, g.n), np.int8)
    # one key over cycles 0..59: row c is the register plan of cycle c
    rows, ids = draw_independent_batch(rates, g, seed_key(9), cycles(60)).reg
    ind[rows, ids] = 1
    corr = np.corrcoef(ind)
    off = corr[~np.eye(60, dtype=bool)]
    assert np.abs(off).max() < 0.12


# -- adversarial draws ------------------------------------------------------


def test_zero_budget_empty_all_strategies(small_graph):
    g = small_graph
    b = fm.AdversarialBudget()
    for strat in fm.faults.STRATEGIES:
        batch = draw_adversarial_batch(b, g, strat, seed_key(1), 1, zeros(g)[None])
        assert (batch.rows, batch.reg, batch.xor, batch.maj) == (1, None, None, None)


def test_plans_exactly_at_budget(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.1, alpha_xor=0.01, alpha_maj=0.06)
    for strat in fm.faults.STRATEGIES:
        reg, xor, maj = adversarial(b, g, strat, 2, 5, zeros(g))
        assert len(reg) == b.register_count(g) == 3
        assert len(xor) == b.xor_count(g) == 4
        assert len(maj) == b.maj_count(g) == 2
        assert_gate_ids_in_range(g, xor, maj)


def test_repeat_strategy_repeats(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.1)
    p1 = adversarial(b, g, "repeat", 4, 1, zeros(g))[0]
    p2 = adversarial(b, g, "repeat", 4, 2, zeros(g))[0]
    assert p1 == p2


def test_random_strategy_varies_with_cycle(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.2)
    plans = {frozenset(adversarial(b, g, "random", 4, c, zeros(g))[0])
             for c in range(12)}
    assert len(plans) > 1


def test_cluster_concentrates_on_check_neighborhoods(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.15)
    p1 = adversarial(b, g, "cluster", 4, 1, zeros(g))[0]
    p2 = adversarial(b, g, "cluster", 4, 9, zeros(g))[0]
    assert p1 == p2  # fixed check subset, fixed cluster
    flips = sorted(p1)
    covered = any(set(flips) <= set(int(v) for v in g.check_nbrs[c])
                  for c in range(g.m))
    # budget 5 > rho would span checks; here floor(0.15*36)=5 <= rho=6
    assert covered


def test_unknown_strategy_rejected(small_graph):
    with pytest.raises(ValueError, match="strategy"):
        draw_adversarial_batch(fm.AdversarialBudget(), small_graph, "evil",
                               seed_key(0), 0, zeros(small_graph)[None])


def test_greedy_beats_random_on_average(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=2.5 / 36)  # 2 register flips
    rng = np.random.default_rng(0)
    diffs = []
    for trial in range(300):
        observed = np.zeros(g.n, np.uint8)
        observed[rng.choice(g.n, 3, replace=False)] = 1
        post = {}
        for strat in ("greedy", "random"):
            reg = adversarial(b, g, strat, (1, trial), 1, observed)[0]
            state = observed.copy()
            state[sorted(reg)] ^= 1
            corrected = parallel_bitflip_round(g, state)
            post[strat] = int(corrected.sum())
        diffs.append(post["greedy"] - post["random"])
    assert np.mean(diffs) >= 0
    assert np.mean(diffs) > 0.1  # strictly better on average, paired


def reference_lookahead(g, keys, count, observed, pool_size):
    """The greedy lookahead on uint8 states: every candidate's state
    materialized, one parallel_bitflip_round_many over all of them, and a
    per-state corrupt count.  Returns the (T, P, count) candidates of
    faults._greedy_rows with their (T, P) pre- and post-correction
    corrupt counts."""
    rows = observed.shape[0]
    corrupt = observed != 0
    first = np.sort(np.argsort(corrupt, axis=1, kind="stable")[:, :count], axis=1)
    pool_keys = faults._absorb(keys[:, None],
                               np.arange(1, pool_size, dtype=np.uint64))
    rand = np.sort(faults._subset_draw(pool_keys.ravel(), faults._POOL, g.n, count))
    cands = np.concatenate(
        [first[:, None, :], rand.reshape(rows, pool_size - 1, count)], axis=1)
    stale = corrupt[np.arange(rows)[:, None, None], cands].sum(axis=2)
    pre = corrupt.sum(axis=1)[:, None] + count - 2 * stale
    states = np.repeat(observed, pool_size, axis=0)
    states[np.arange(rows * pool_size)[:, None],
           cands.reshape(rows * pool_size, count)] ^= 1
    corrected = parallel_bitflip_round_many(g, states)
    post = np.einsum("ij->i", corrected, dtype=np.int64).reshape(rows, pool_size)
    return cands, pre, post


def reference_greedy_rows(g, keys, count, observed, pool_size):
    """Per trial, the candidate with the most corrupt bits after the
    round, then before it; the first such candidate wins."""
    cands, pre, post = reference_lookahead(g, keys, count, observed, pool_size)
    best = np.argmax(post * (g.n + 1) + pre, axis=1)
    return cands[np.arange(observed.shape[0]), best]


@pytest.mark.parametrize("dense", (False, True))
@pytest.mark.parametrize("pool_size", (1, 63, 64, 65, 130))
@pytest.mark.parametrize("count", (1, 2, 3, 4, 5))
def test_greedy_rows_match_uint8_lookahead(count, pool_size, dense):
    # the rows start from the stored zero word or, when dense, from a
    # nonzero codeword, which the lookahead scores as a dense state
    rng = np.random.default_rng(1000 * count + 2 * pool_size + dense)
    for params, seed in (((36, 3, 6), 7), ((20, 4, 5), 3), ((16, 7, 8), 5)):
        g = fm.build_random_regular(fm.CodeParams(*params), seed)
        start = zeros(g)
        if dense:
            start = fm.encode(g, np.ones(fm.code_dimension(g), np.uint8))
            assert start.any()
        rows = 7
        observed = np.repeat(start[None], rows, axis=0)
        for t in range(1, rows):  # row 0 holds the start word itself
            hits = rng.choice(g.n, int(rng.integers(1, g.n // 2)), replace=False)
            observed[t, hits] ^= 1
        keys = trial_keys(int(rng.integers(2**31)), np.arange(rows))
        got = faults._greedy_rows(g, keys, count, observed, pool_size)
        want = reference_greedy_rows(g, keys, count, observed, pool_size)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("corrupt", (6, 40, 284))
def test_greedy_rows_match_uint8_lookahead_past_255_variables(corrupt):
    # n = 300 takes two uint8 partial sums per count; with 284 corrupt
    # bits each pool holds candidates left with fewer and with more than
    # 255, so a count kept modulo 256 would misrank them
    g = fm.build_random_regular(fm.CodeParams(300, 3, 6), 1)
    rng = np.random.default_rng(5)
    observed = np.zeros((3, g.n), np.uint8)
    for row in observed:
        row[rng.choice(g.n, corrupt, replace=False)] = 1
    keys = trial_keys(3, np.arange(3))
    for count, pool_size in ((5, 64), (4, 100)):
        _cands, _pre, post = reference_lookahead(g, keys, count, observed,
                                                 pool_size)
        if corrupt == 284:
            assert ((post.min(axis=1) < 256) & (post.max(axis=1) >= 256)).all()
        assert np.array_equal(
            faults._greedy_rows(g, keys, count, observed, pool_size),
            reference_greedy_rows(g, keys, count, observed, pool_size))


def clean_and_mixed_slabs(rng, n):
    """Observed slabs that mix clean (all-zero) rows with corrupt ones:
    all clean; clean rows at random among corrupt ones; one corrupt row,
    the last; and four clean rows, four corrupt and two clean, so that
    slabs of three trials straddle both boundaries."""
    def corrupt_rows(rows):
        out = np.zeros((rows, n), np.uint8)
        for row in out:
            row[rng.choice(n, int(rng.integers(1, n // 2)), replace=False)] = 1
        return out

    mixed = corrupt_rows(12)
    mixed[rng.choice(12, 5, replace=False)] = 0
    last = np.zeros((6, n), np.uint8)
    last[-1] = corrupt_rows(1)[0]
    split = np.zeros((10, n), np.uint8)
    split[4:8] = corrupt_rows(4)
    return np.zeros((9, n), np.uint8), mixed, last, split


@pytest.mark.parametrize("slab_trials", (None, 1, 3))
@pytest.mark.parametrize("pool_size", (1, 64, 65, 130))
@pytest.mark.parametrize("count", (1, 2, 3, 4, 5))
def test_greedy_rows_match_uint8_lookahead_on_clean_and_mixed_slabs(
        monkeypatch, count, pool_size, slab_trials):
    # a clean row skips the argsort, the stale count and the XOR of its
    # observed word, so a corrupt row taken for clean would misrank
    if slab_trials is not None:
        monkeypatch.setattr(faults, "_POOL_BYTES", slab_trials * 8 * pool_size)
    rng = np.random.default_rng(100 * count + pool_size)
    for params, seed in (((36, 3, 6), 7), ((40, 4, 5), 13)):
        g = fm.build_random_regular(fm.CodeParams(*params), seed,
                                    reject_4cycles=True)
        for observed in clean_and_mixed_slabs(rng, g.n):
            keys = trial_keys(int(rng.integers(2**31)), np.arange(len(observed)))
            got = faults._greedy_rows(g, keys, count, observed, pool_size)
            want = reference_greedy_rows(g, keys, count, observed, pool_size)
            assert np.array_equal(got, want)


def restores_single_flips(g):
    """One uint8 reliable round over the n single flips leaves them all
    zero."""
    return not parallel_bitflip_round_many(g, np.eye(g.n, dtype=np.uint8)).any()


def test_clean_rows_are_scored_where_a_single_flip_survives():
    # the count-1 rule (a clean row picks register 0 unscored) is exact
    # only where the round restores every single flip; on a (36,3,6) graph
    # with a 4-cycle a flip there leaves its partner flipped, so clean rows
    # must still be scored, and they pick other registers
    g = fm.build_random_regular(fm.CodeParams(36, 3, 6), 7)
    assert g.has_four_cycle() and not restores_single_flips(g)
    graphs = [build_instance(CERTIFIED_INSTANCES[0])[0],
              build_instance(CERTIFIED_INSTANCES[2])[0],
              fm.build_random_regular(fm.CodeParams(16, 7, 8), 5), g,
              # a 4-cycle at gamma = 4 leaves no single flip standing
              fm.build_random_regular(fm.CodeParams(20, 4, 5), 3)]
    got = [faults._restores_single_flips(h) for h in graphs]
    assert got == [restores_single_flips(h) for h in graphs]
    assert got == [True, True, False, False, True] and graphs[-1].has_four_cycle()
    rng = np.random.default_rng(23)
    for observed in clean_and_mixed_slabs(rng, g.n):
        keys = trial_keys(int(rng.integers(2**31)), np.arange(len(observed)))
        picks = faults._greedy_rows(g, keys, 1, observed, faults.GREEDY_POOL_SIZE)
        assert np.array_equal(picks, reference_greedy_rows(
            g, keys, 1, observed, faults.GREEDY_POOL_SIZE))
        assert picks[~observed.any(axis=1)].any()


def test_restores_single_flips_past_one_chunk():
    # n = 1152 takes two 1024-unit rounds: a girth-6 graph restores every
    # flip, and a graph whose 4-cycles all sit on variables >= 1024 keeps
    # every flip of the first round and fails in the second alone
    params = fm.CodeParams(1152, 3, 6)
    girth6 = fm.build_random_regular(params, 5, reject_4cycles=True)
    g = fm.build_random_regular(params, 5)
    i, j = np.triu_indices(g.gamma, 1)
    keys = (g.var_nbrs[:, i].astype(np.int64) * g.m + g.var_nbrs[:, j]).ravel()
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    shared = np.unique(np.flatnonzero(counts[inverse] > 1) // i.size)
    assert 0 < shared.size <= g.n - 1024
    # relabel: the variables on a 4-cycle become the last ids
    order = np.concatenate((np.setdiff1d(np.arange(g.n), shared), shared))
    label = np.argsort(order)
    edges = np.array(g.edges())
    late = fm.TannerGraph(params, np.column_stack((label[edges[:, 0]], edges[:, 1])))
    assert late.has_four_cycle()
    units = np.eye(late.n, dtype=np.uint8)
    assert not parallel_bitflip_round_many(late, units[:1024]).any()
    assert [faults._restores_single_flips(h) for h in (girth6, late)] == [True, False]
    assert [restores_single_flips(h) for h in (girth6, late)] == [True, False]


def test_clean_rows_skip_the_lookahead_at_one_register(monkeypatch):
    # on I1 and I3 every single flip is restored, so at count 1 the clean
    # rows never reach _lookahead: an all-clean slab picks register 0 in
    # every row without it, and a mixed slab passes it the corrupt rows
    # only; at count 2 a clean slab is scored as before
    seen = []
    real = faults._lookahead

    def recording(g, keys, count, observed, *rest):
        seen.append(observed.copy())
        return real(g, keys, count, observed, *rest)

    monkeypatch.setattr(faults, "_lookahead", recording)
    pool = faults.GREEDY_POOL_SIZE
    for inst in (CERTIFIED_INSTANCES[0], CERTIFIED_INSTANCES[2]):
        g, _ = build_instance(inst)
        rng = np.random.default_rng(inst[3])
        clean, mixed, _last, _split = clean_and_mixed_slabs(rng, g.n)
        keys = trial_keys(inst[3], np.arange(len(mixed)))
        seen.clear()
        picks = faults._greedy_rows(g, keys[:len(clean)], 1, clean, pool)
        assert not seen and np.array_equal(picks, np.zeros((len(clean), 1)))
        picks = faults._greedy_rows(g, keys, 1, mixed, pool)
        hit = mixed.any(axis=1)
        assert 0 < hit.sum() < len(mixed)
        assert np.array_equal(np.concatenate(seen), mixed[hit])
        assert not picks[~hit].any()
        assert np.array_equal(picks, reference_greedy_rows(g, keys, 1, mixed, pool))
        seen.clear()
        faults._greedy_rows(g, keys[:len(clean)], 2, clean, pool)
        assert sum(map(len, seen)) == len(clean)


# sha256 of greedy's register choices, taken with one slab for all 130
# trials (where the draws equal reference_greedy_rows' too).  The desk
# digest cannot see them: every desk trial observes the stored word, so
# its trajectory is the same whatever greedy picks.  Here the draws score
# observed rows from a fixed stream (130 trials: two full words and a
# partial third), and the runs follow the choices (decoder algorithm_a:
# every trial survives; none: trials retire at cycles 2-3).
_GREEDY_DRAW_DIGEST = "4514a2b192b668296c713b254e0f449a20a0b82b732705380f6d7a64a95c5b78"
_GREEDY_RUN_DIGEST = "a9a252e009c9c296101564f3c9a2b15de1984a35e69ba8fcc9f14914ee3a91d6"


@pytest.mark.parametrize("slab_trials", (1, None, 131))
def test_greedy_digests_do_not_move_with_pool_bytes(monkeypatch, slab_trials):
    if slab_trials is not None:
        monkeypatch.setattr(faults, "_POOL_BYTES",
                            slab_trials * 8 * faults.GREEDY_POOL_SIZE)
    trials = 130
    draws = hashlib.sha256()
    for inst in (CERTIFIED_INSTANCES[0], CERTIFIED_INSTANCES[2]):
        g, _ = build_instance(inst)
        rng = np.random.default_rng(inst[3])
        keys = trial_keys(inst[3], np.arange(trials))
        for count in (1, 2, 3):
            budget = fm.AdversarialBudget((count + 0.5) / g.n)
            for cycle in range(1, 6):
                observed = (rng.random((trials, g.n)) < 0.15).astype(np.uint8)
                plans = draw_adversarial_batch(budget, g, "greedy", keys, cycle,
                                               observed)
                draws.update(plans.reg[1].tobytes())
    assert draws.hexdigest() == _GREEDY_DRAW_DIGEST

    g, prof = build_instance(CERTIFIED_INSTANCES[2])
    model = fm.AdversarialModel(fm.AdversarialBudget(2.5 / 40), "greedy")
    runs = hashlib.sha256()
    for decoder in ("algorithm_a", "none"):
        res = fm.monte_carlo(fm.RunConfig(g, decoder, model, 40, profile=prof),
                             trials, 11)
        runs.update(json.dumps([res.to_json_obj(), [
            r.to_json_obj() for r in res.reports]]).encode())
    assert runs.hexdigest() == _GREEDY_RUN_DIGEST


_EDGE_WORDS = (0, 1, 2**63, 2**64 - 1)


def test_mix_rows_equals_python_int_mix():
    words = np.concatenate([np.array(_EDGE_WORDS, dtype=np.uint64),
                            np.random.default_rng(8).integers(
                                0, 2**64, 10_000, dtype=np.uint64, endpoint=False)])
    # _mix_rows works in place, so it gets a copy
    got = faults._mix_rows(words.copy())
    assert got.dtype == np.uint64
    assert got.tolist() == [faults._mix(w) for w in words.tolist()]


def below_reference(key, bound, pos):
    """One exact uniform in [0, bound) on Python ints: the mixed key at
    stream position pos, redrawn at pos + _REDRAW, ... while it falls in
    the incomplete top block of 2^64 (at or above ``cut``)."""
    cut = (1 << 64) - (1 << 64) % bound
    while True:
        value = faults._mix((key + (pos + 1) * faults._GOLDEN) & faults._MASK)
        if value < cut:
            return value % bound
        pos += faults._REDRAW


@settings(max_examples=60)
@given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
       bound=st.one_of(st.sampled_from((1, 2, 36, 2**62 + 1, 2**63)),
                       st.integers(1, 2**63)),
       pos=st.integers(0, 2**41), width=st.integers(1, 5))
def test_below_equals_python_int_reference(keys, bound, pos, width):
    arr = np.array(keys + list(_EDGE_WORDS), dtype=np.uint64)
    before = arr.copy()
    got = faults._below(arr, bound, pos)
    assert got.dtype == np.int64
    want = [[below_reference(k, bound, pos + j) for j in range(width)]
            for k in arr.tolist()]
    assert got.tolist() == [row[0] for row in want]
    # an array of positions broadcast against the keys, either way round
    at = np.arange(pos, pos + width, dtype=np.uint64)
    assert faults._below(arr[:, None], bound, at).tolist() == want
    assert faults._below(arr, bound, at[:, None]).T.tolist() == want
    assert np.array_equal(arr, before)  # the keys are read, not written


def test_below_rejection_branch_at_a_quarter():
    # 2^64 mod (2^62 + 1) = 2^62 - 3: about a quarter of the first draws
    # fall in the incomplete top block and are redrawn
    bound = 2**62 + 1
    keys = np.random.default_rng(9).integers(0, 2**64, 2000, dtype=np.uint64,
                                             endpoint=False)
    cut = (1 << 64) - (1 << 64) % bound
    first = faults._mix_rows(keys + np.uint64((5 + 1) * faults._GOLDEN & faults._MASK))
    assert 0.2 < (first >= np.uint64(cut)).mean() < 0.3
    got = faults._below(keys, bound, 5)
    assert got.tolist() == [below_reference(k, bound, 5) for k in keys.tolist()]
    at = np.arange(5, 9, dtype=np.uint64)
    assert faults._below(keys[:, None], bound, at).tolist() == [
        [below_reference(k, bound, pos) for pos in range(5, 9)] for k in keys.tolist()]


# -- the subset draw --------------------------------------------------------


def first_distinct_reference(key, base, total, count):
    """A key's count-subset of range(total) from the class at ``base``, on
    Python ints: the first count distinct values of the sequence of mixed
    values at positions base, base + 1, ..., each reduced mod total (the
    rejection of _below is taken with probability below total / 2^64, and
    never at these totals and keys)."""
    seen = {}
    pos = base
    while len(seen) < count:
        value = faults._mix((key + (pos + 1) * faults._GOLDEN) & faults._MASK)
        assert value < (1 << 64) - (1 << 64) % total
        seen.setdefault(value % total, None)
        pos += 1
    return list(seen)


# (total, count, keys): counts 1 to 100 on totals 5 to 48 000; small
# totals at large counts need many positions, so their rows widen
_SUBSET_CASES = ((5, 1, 40), (5, 2, 40), (5, 5, 40), (7, 6, 40), (36, 2, 300),
                 (36, 5, 300), (36, 30, 20), (40, 39, 10), (432, 4, 100),
                 (4000, 12, 100), (4000, 100, 5), (48_000, 3, 100),
                 (48_000, 100, 3))


@pytest.mark.parametrize("total, count, rows", _SUBSET_CASES)
def test_subset_draw_equals_python_first_distinct(total, count, rows):
    keys = trial_keys(total + count, np.arange(rows))
    for base in (faults._REG, faults._XOR, faults._POOL):
        got = faults._subset_draw(keys, base, total, count)
        assert got.shape == (rows, count) and got.dtype == np.int64
        assert got.tolist() == [first_distinct_reference(k, base, total, count)
                                for k in keys.tolist()]
    # keys of any shape: the pool's (trials, candidates) keys
    grid = keys[:rows // 2 * 2].reshape(-1, 2)
    assert np.array_equal(faults._subset_draw(grid, faults._POOL, total, count),
                          faults._subset_draw(grid.ravel(), faults._POOL, total,
                                              count).reshape(grid.shape + (count,)))


def graph_shape(n, gamma=3, rho=6):
    """What the draw kernels read of a Tanner graph: its class sizes."""
    return types.SimpleNamespace(n=n, gamma=gamma, rho=rho)


def row_lists(pair, rows):
    """Each row's ids of one PlanBatch class, in stored order (empty rows
    for a class drawn as None)."""
    out = [[] for _ in range(rows)]
    if pair is not None:
        for r, i in zip(pair[0].tolist(), pair[1].tolist()):
            out[r].append(i)
    return out


@pytest.mark.parametrize("n, rates, rows", (
    (5, (0.45, 0.3, 0.45), 200),            # counts up to the class size
    (36, (0.2, 0.05, 0.2), 100),
    (4000, (0.025, 0.002, 0.0), 1),         # one row with ~100 faults
    (4000, (1e-3, 1e-5, 1e-5), 64 * 13)))
def test_independent_rows_equal_python_first_distinct(n, rates, rows):
    # every row's count is its keyed uniform inverted against the table,
    # and its ids the first count distinct values of its class sequence
    g = graph_shape(n)
    keys = trial_keys(n, np.arange(rows))
    batch = draw_independent_batch(fm.IndependentRates(*rates), g, keys, 7)
    classes = ((faults._REG, g.n, rates[0], batch.reg),
               (faults._XOR, g.n * g.gamma * (g.rho - 2), rates[1], batch.xor),
               (faults._MAJ, g.n, rates[2], batch.maj))
    for pos, (base, total, p, pair) in enumerate(classes):
        if p == 0.0:
            assert pair is None
            continue
        table = faults._binomial_table(total, p).tolist()
        got = row_lists(pair, rows)
        for row, key in enumerate(keys.tolist()):
            key = faults._absorb(key, 7)
            u = faults._mix((key + (faults._COUNT + pos + 1) * faults._GOLDEN)
                            & faults._MASK) >> 11
            count = bisect.bisect_right(table, u)
            assert got[row] == sorted(first_distinct_reference(key, base, total,
                                                               count))
    if rows == 1:
        assert 70 <= batch.reg[1].size <= 130


@pytest.mark.parametrize("strategy", ("random", "repeat"))
def test_fixed_budgets_equal_python_first_distinct(strategy):
    g = graph_shape(4000)
    totals = (g.n, g.n * g.gamma * (g.rho - 2), g.n)
    keys = trial_keys(5, np.arange(20))
    for counts in ((1, 1, 1), (2, 5, 3), (100, 60, 17)):
        budget = fm.AdversarialBudget(*((c + 0.5) / t for c, t in zip(counts, totals)))
        batch = draw_adversarial_batch(budget, g, strategy, keys, 9, None)
        for pair, base, total, count in zip((batch.reg, batch.xor, batch.maj),
                                            (faults._REG, faults._XOR, faults._MAJ),
                                            totals, counts):
            got = row_lists(pair, keys.size)
            for row, key in enumerate(keys.tolist()):
                key = key if strategy == "repeat" else faults._absorb(key, 9)
                assert got[row] == sorted(
                    first_distinct_reference(key, base, total, count))


@pytest.mark.parametrize("strategy", ("random", "repeat"))
def test_fixed_budget_subsets_nest(small_graph, strategy):
    # on the same keys, every class's subset at budget k lies in the one
    # at budget k + 1
    g = small_graph
    totals = (g.n, g.n * g.gamma * (g.rho - 2), g.n)
    keys = trial_keys(17, np.arange(200))
    last = None
    for k in range(1, 13):
        budget = fm.AdversarialBudget(*((k + 0.5) / t for t in totals))
        batch = draw_adversarial_batch(budget, g, strategy, keys, 4, None)
        sets = [[set(ids) for ids in row_lists(pair, keys.size)]
                for pair in (batch.reg, batch.xor, batch.maj)]
        if last is not None:
            assert all(a < b for prev, cur in zip(last, sets)
                       for a, b in zip(prev, cur))
        last = sets


def test_independent_fault_sets_nest_in_p():
    # on the same keys and cycles, counts do not decrease and every
    # class's fault set at a lower rate lies in the one at a higher rate.
    # A count is monotone in p: every binomial table entry is the exact
    # rounding of 2^53 P(X <= k), which falls as p grows, and rint keeps
    # that order
    g = graph_shape(400, 4, 5)
    keys = trial_keys(23, np.arange(2000))
    last = None
    for p in (1e-4, 1e-3, 0.004, 0.02, 0.1, 0.3):
        batch = draw_independent_batch(fm.IndependentRates(p, p / 4, p), g, keys, 3)
        sets = [[set(ids) for ids in row_lists(pair, keys.size)]
                for pair in (batch.reg, batch.xor, batch.maj)]
        if last is not None:
            assert all(a <= b for prev, cur in zip(last, sets)
                       for a, b in zip(prev, cur))
        last = sets
    assert sum(len(s) for s in last[0]) > 0.29 * 400 * 2000


# -- model wrappers / margin -------------------------------------------------


def test_model_wrappers(small_graph):
    g = small_graph
    adv = fm.AdversarialModel(fm.AdversarialBudget(alpha_m=0.1), "repeat")
    ind = fm.IndependentModel(fm.IndependentRates(p_m=0.1))
    assert adv.kind == "adversarial" and not adv.cycle_dependent
    assert ind.kind == "independent" and ind.cycle_dependent
    with pytest.raises(ValueError):
        fm.AdversarialModel(fm.AdversarialBudget(), "nope")
    r1 = adv.draw_batch(g, seed_key(1), 1, zeros(g)[None])
    r2 = adv.draw_batch(g, seed_key(1), 2, zeros(g)[None])
    assert np.array_equal(r1.reg, r2.reg)


def test_theorem2_margin_values():
    prof = fm.ExpansionProfile(0.1, 3, 0.1)
    zero = fm.AdversarialBudget()
    assert fm.theorem2_margin(zero, 3, 6, prof) == pytest.approx(prof.alpha_total)
    gate_only = fm.AdversarialBudget(alpha_xor=1e-4)
    assert prof.alpha_total - fm.theorem2_margin(gate_only, 3, 6, prof) \
        == pytest.approx(3 * 4 * 1e-4)
    # exactly at threshold: margin 0, condition (strict) not satisfied
    at = fm.AdversarialBudget(alpha_m=prof.alpha_total)
    assert fm.theorem2_margin(at, 3, 6, prof) == pytest.approx(0.0, abs=1e-15)


# -- cluster order ----------------------------------------------------------

_CLUSTER_GRAPHS = {}


def cluster_graph(params):
    if params not in _CLUSTER_GRAPHS:
        _CLUSTER_GRAPHS[params] = fm.build_random_regular(fm.CodeParams(*params), 3)
    return _CLUSTER_GRAPHS[params]


def cluster_reference(g, key, reg_count, xor_count, maj_count):
    """One key's cluster plan written out on Python ints: the checks in
    order of first appearance in the keyed sequence below_reference(key,
    m, _ORDER + j), j = 0, 1, ... (a uniform permutation, of which a plan
    reads a prefix), registers and majority gates the first distinct
    variables met in that order, XOR gates the first ids of those checks'
    gate blocks."""
    order, pos = {}, faults._ORDER
    while len(order) < g.m:
        order.setdefault(below_reference(key, g.m, pos), None)
        pos += 1
    order = list(order)
    met = list(dict.fromkeys(int(v) for c in order for v in g.check_nbrs[c]))
    block = g.rho * (g.rho - 2)
    xor = sorted(order[j // block] * block + j % block for j in range(xor_count))
    return order, (sorted(met[:reg_count]), xor, sorted(met[:maj_count]))


@settings(max_examples=40)
@given(params=st.sampled_from(((12, 3, 6), (36, 3, 6), (40, 4, 5), (30, 2, 5))),
       keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       data=st.data())
def test_cluster_rows_equal_stable_order(params, keys, data):
    # every row equals the reference, which draws the whole check order
    # and reads its prefix
    g = cluster_graph(params)
    reg_count, maj_count = (data.draw(st.integers(0, g.n)) for _ in range(2))
    xor_count = data.draw(st.integers(0, g.m * g.rho * (g.rho - 2)))
    got = faults._cluster_rows(g, np.array(keys, dtype=np.uint64),
                               reg_count, xor_count, maj_count)
    for row, key in enumerate(keys):
        values, want = cluster_reference(g, key, reg_count, xor_count, maj_count)
        assert np.unique(values).size == g.m
        for ids, expected in zip(got, want):
            assert (ids is None) == (not expected)
            if ids is not None:
                assert ids[row].tolist() == expected


@pytest.mark.parametrize("counts", ((1, 0, 0), (2, 4, 0), (0, 9, 0), (0, 0, 3),
                                    (5, 25, 5), (37, 0, 12), (200, 0, 150),
                                    (0, 2870, 0)))
def test_cluster_rows_read_only_an_ordered_prefix(counts):
    # small budgets on a large graph read a short prefix of the check
    # order, and _cluster_rows draws only that prefix
    g = cluster_graph((600, 3, 6))
    keys = trial_keys(21, np.arange(12))
    got = faults._cluster_rows(g, keys, *counts)
    for row, key in enumerate(keys.tolist()):
        _, want = cluster_reference(g, key, *counts)
        for ids, expected in zip(got, want):
            assert (ids is None) == (not expected)
            if ids is not None:
                assert ids[row].tolist() == expected


@pytest.mark.parametrize("params", ("I1", (600, 3, 6)), ids=("I1", "n600"))
def test_cluster_sets_nest_in_each_budget(small_graph, params):
    # a key's check order is one prefix draw, so one more fault of a
    # class adds one id to that class's set and keeps every set it had
    g = small_graph if params == "I1" else cluster_graph(params)
    keys = trial_keys(29, np.arange(40))

    def sets(counts):
        return [[set() if ids is None else set(ids[row].tolist())
                 for row in range(keys.size)]
                for ids in faults._cluster_rows(g, keys, *counts)]

    block = g.rho * (g.rho - 2)
    # register counts across a span of checks, XOR counts across a block
    for base in itertools.product((0, 1, 2, 6, 7), (0, 1, block - 1, block),
                                  (0, 1, 5)):
        low = sets(base)
        for cls in range(3):
            up = list(base)
            up[cls] += 1
            high = sets(up)
            for c, (lo_sets, hi_sets) in enumerate(zip(low, high)):
                grow = int(c == cls)
                assert all(a <= b and len(b) == len(a) + grow
                           for a, b in zip(lo_sets, hi_sets))


# -- packed plans -----------------------------------------------------------


@pytest.mark.parametrize("rows", (1, 63, 64, 65, 130))
def test_gate_words_pack_the_gate_masks(small_graph, rows):
    g = small_graph
    chain = g.rho - 2
    keys = trial_keys(9, np.arange(rows))
    budget = fm.AdversarialBudget(alpha_m=0.03, alpha_xor=0.01, alpha_maj=0.05)
    # rows with two failed gates of one chain, whose flips cancel
    first = np.arange(rows)[:, None] % g.m * (g.rho * chain)
    batches = [
        draw_adversarial_batch(budget, g, "random", keys, 3,
                               np.zeros((rows, g.n), np.uint8)),
        draw_independent_batch(fm.IndependentRates(0.01, 0.05, 0.05), g, keys, 3),
        PlanBatch(rows, None, faults._pairs(np.hstack([first, first + 1,
                                                       first + chain])),
                  faults._pairs(np.arange(rows)[:, None] % g.n)),
    ]
    # the rows scattered into slots of a wider batch, across word bounds
    count = rows + 70
    slots = np.sort(np.random.default_rng(rows).choice(count, rows, replace=False))
    for batch in batches:
        flips, parity, mask = plan_masks(batch, g, rows)
        assert parity.any() and mask.any()
        for words, at, width in ((batch.packed(g), np.arange(rows), rows),
                                 (batch.packed(g, slots, count), slots, count)):
            reg_words, xor_words, maj_words = words
            assert xor_words.dtype == maj_words.dtype == np.uint64
            for got, rows_of in ((reg_words, flips), (xor_words, var_planes(g, parity)),
                                 (maj_words, mask)):
                if rows_of is flips and not flips.any():
                    assert got is None
                    continue
                full = np.zeros((width,) + rows_of.shape[1:], np.uint8)
                full[at] = rows_of
                assert np.array_equal(got, pack_rows(full))


def test_gate_words_of_a_batch_without_gate_faults(small_graph):
    g = small_graph
    # nonzero rates whose draw holds no gate fault in any of 70 rows
    quiet = draw_independent_batch(fm.IndependentRates(0.0, 1e-9, 1e-9), g,
                                   trial_keys(4, np.arange(70)), 2)
    assert quiet.xor[1].size == quiet.maj[1].size == 0
    assert quiet.packed(g) == (None, None, None)
    reg_only = PlanBatch(70, faults._pairs(np.tile(np.arange(2), (70, 1))),
                         None, None)
    reg_words, xor_words, maj_words = reg_only.packed(g)
    assert reg_words.shape == (2, g.n) and (xor_words, maj_words) == (None, None)
    assert PlanBatch(0, None, None, None).packed(g, np.arange(3), 3) \
        == (None, None, None)


# -- keyed streams ----------------------------------------------------------


def test_trial_keys_need_one_dimension():
    assert trial_keys(0, [128]).tolist() == [seed_key((0, 128))]
    for trials in (128, np.zeros((2, 3), np.int64)):
        with pytest.raises(ValueError, match="1-D"):
            trial_keys(0, trials)


def test_seed_parts_outside_64_bits_are_rejected(small_graph):
    # a part outside [0, 2^64) would alias its value mod 2^64; the
    # largest part inside is accepted
    assert seed_key((0, 2**64 - 1)) != seed_key((0, 0))
    for seed in (2**64, -1, (3, 2**64), (-1, 0)):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            seed_key(seed)
    model = fm.IndependentModel(fm.IndependentRates(0.1))
    cfg = fm.RunConfig(small_graph, "none", model, 3)
    for root in (2**64, -1):
        with pytest.raises(ValueError, match="outside"):
            fm.monte_carlo(cfg, 64, root)
        with pytest.raises(ValueError, match="outside"):
            fm.run_memory(small_graph, "none", model, 3, (root, 0))


def test_exceedance_frequency_law():
    # the frequency estimates the binomial tail itself, not only a bound
    p, delta, n, draws = 0.05, 0.01, 1000, 100_000
    exact = stats.binom.sf(math.floor((p + delta) * n), n, p)
    freq = exceedance_frequency(p, delta, n, draws, seed=3)
    sigma = math.sqrt(exact * (1 - exact) / draws)
    assert abs(freq - exact) <= 4 * sigma
    assert exceedance_frequency(p, delta, n, draws, seed=3) == freq
    assert exceedance_frequency(p, delta, n, draws, seed=4) != freq


def test_exceedance_frequency_within_bound():
    p, delta, n = 0.02, 0.02, 500
    exact, loose = fm.chernoff_tail(p, delta, n)
    freq = exceedance_frequency(p, delta, n, draws=20_000, seed=5)
    sigma = math.sqrt(exact * (1 - exact) / 20_000)
    assert freq <= exact + 3 * sigma
    assert exact <= loose
