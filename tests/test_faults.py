import math

import numpy as np
import pytest
from scipy import stats

import faultmem as fm
from faultmem import faults
from faultmem.decoders import (pack_rows, parallel_bitflip_round,
                               parallel_bitflip_round_many)
from faultmem.exceptions import BudgetViolationError
from faultmem.faults import (GREEDY_POOL_SIZE, PlanBatch, draw_adversarial,
                             draw_adversarial_batch, draw_independent,
                             draw_independent_batch, exceedance_frequency,
                             rng_for, seed_key, trial_keys)


@pytest.fixture(scope="module")
def small_graph():
    return fm.build_random_regular(fm.CodeParams(36, 3, 6), seed=7,
                                   reject_4cycles=True)


def zeros(g):
    return np.zeros(g.n, np.uint8)


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
    plan = fm.RegisterFaultPlan(frozenset({0, 1, 2}))
    with pytest.raises(BudgetViolationError):
        b.check_plans(g, plan, fm.GateFaultPlan.empty())


# -- independent draws ------------------------------------------------------


def test_zero_rates_empty_plans(small_graph):
    reg, gate = draw_independent(fm.IndependentRates(), small_graph, 1, 1)
    assert not reg.flips and gate.is_empty()


def test_independent_reproducible(small_graph):
    r1 = draw_independent(fm.IndependentRates(0.1, 0.01, 0.05), small_graph, 5, 9)
    r2 = draw_independent(fm.IndependentRates(0.1, 0.01, 0.05), small_graph, 5, 9)
    r3 = draw_independent(fm.IndependentRates(0.1, 0.01, 0.05), small_graph, 5, 10)
    assert r1[0].flips == r2[0].flips
    assert r1[1].xor_flips == r2[1].xor_flips
    assert (r1[0].flips, r1[1].xor_flips) != (r3[0].flips, r3[1].xor_flips) \
        or r1[1].maj_flips != r3[1].maj_flips


def test_independent_plan_ranges(small_graph):
    g = small_graph
    reg, gate = draw_independent(fm.IndependentRates(0.2, 0.05, 0.2), g, 3, 4)
    assert all(0 <= v < g.n for v in reg.flips)
    for (c, k, pos) in gate.xor_flips:
        assert 0 <= c < g.m and 0 <= k < g.rho and 0 <= pos <= g.rho - 3
    gate.validate(g)


def test_register_flip_mean_matches_binomial():
    # p_m = 0.01, n = 1e4, 1e4 draws; mean within 3 sigma of the mean
    g = fm.build_random_regular(fm.CodeParams(10_000, 3, 6), seed=1)
    rates = fm.IndependentRates(p_m=0.01)
    draws = 10_000
    total = 0
    for cycle in range(draws):
        reg, _ = draw_independent(rates, g, 77, cycle)
        total += len(reg.flips)
    mean = total / draws
    sigma_mean = math.sqrt(10_000 * 0.01 * 0.99) / math.sqrt(draws)
    assert abs(mean - 100.0) <= 3 * sigma_mean


def test_register_counts_chisquare_binomial():
    g = fm.build_random_regular(fm.CodeParams(2000, 3, 6), seed=2)
    p = 0.05
    rates = fm.IndependentRates(p_m=p)
    counts = np.array([len(draw_independent(rates, g, 123, c)[0].flips)
                       for c in range(10_000)])
    # bin by count value, merging tails so expected >= 5
    lo, hi = 60, 140
    edges = list(range(lo, hi + 1))
    exp_probs = [stats.binom.cdf(lo, 2000, p)]
    exp_probs += [stats.binom.pmf(k, 2000, p) for k in range(lo + 1, hi)]
    exp_probs.append(1 - stats.binom.cdf(hi - 1, 2000, p))
    exp = np.array(exp_probs) * counts.size
    obs = np.zeros_like(exp)
    clipped = np.clip(counts, lo, hi)
    for i, k in enumerate(range(lo, hi + 1)):
        obs[i] = (clipped == k).sum()
    keep = exp >= 5
    # fold the tiny-expectation bins together
    obs_k = np.append(obs[keep], obs[~keep].sum())
    exp_k = np.append(exp[keep], exp[~keep].sum())
    if exp_k[-1] < 1e-9:
        obs_k, exp_k = obs_k[:-1], exp_k[:-1]
    exp_k *= obs_k.sum() / exp_k.sum()
    _, pval = stats.chisquare(obs_k, exp_k)
    assert pval >= 1e-3


def test_cycles_uncorrelated():
    g = fm.build_random_regular(fm.CodeParams(2000, 3, 6), seed=3)
    rates = fm.IndependentRates(p_m=0.05)
    ind = np.zeros((60, g.n), np.int8)
    for c in range(60):
        reg, _ = draw_independent(rates, g, 9, c)
        ind[c, sorted(reg.flips)] = 1
    corr = np.corrcoef(ind)
    off = corr[~np.eye(60, dtype=bool)]
    assert np.abs(off).max() < 0.12


# -- adversarial draws ------------------------------------------------------


def test_zero_budget_empty_all_strategies(small_graph):
    g = small_graph
    b = fm.AdversarialBudget()
    for strat in fm.faults.STRATEGIES:
        reg, gate = draw_adversarial(b, g, strat, 1, 1, zeros(g))
        assert not reg.flips and gate.is_empty()


def test_plans_exactly_at_budget(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.1, alpha_xor=0.01, alpha_maj=0.06)
    for strat in fm.faults.STRATEGIES:
        reg, gate = draw_adversarial(b, g, strat, 2, 5, zeros(g))
        assert len(reg.flips) == b.register_count(g) == 3
        assert len(gate.xor_flips) == b.xor_count(g) == 4
        assert len(gate.maj_flips) == b.maj_count(g) == 2
        gate.validate(g)


def test_repeat_strategy_repeats(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.1)
    p1, _ = draw_adversarial(b, g, "repeat", 4, 1, zeros(g))
    p2, _ = draw_adversarial(b, g, "repeat", 4, 2, zeros(g))
    assert p1.flips == p2.flips


def test_random_strategy_varies_with_cycle(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.2)
    plans = {draw_adversarial(b, g, "random", 4, c, zeros(g))[0].flips
             for c in range(12)}
    assert len(plans) > 1


def test_cluster_concentrates_on_check_neighborhoods(small_graph):
    g = small_graph
    b = fm.AdversarialBudget(alpha_m=0.15)
    p1, _ = draw_adversarial(b, g, "cluster", 4, 1, zeros(g))
    p2, _ = draw_adversarial(b, g, "cluster", 4, 9, zeros(g))
    assert p1.flips == p2.flips  # fixed check subset, fixed cluster
    flips = sorted(p1.flips)
    covered = any(set(flips) <= set(int(v) for v in g.check_nbrs[c])
                  for c in range(g.m))
    # budget 5 > rho would span checks; here floor(0.15*36)=5 <= rho=6
    assert covered


def test_unknown_strategy_rejected(small_graph):
    with pytest.raises(ValueError, match="strategy"):
        draw_adversarial(fm.AdversarialBudget(), small_graph, "evil", 0, 0,
                         zeros(small_graph))


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
            reg, _ = draw_adversarial(b, g, strat, (1, trial), 1, observed)
            state = observed.copy()
            state[sorted(reg.flips)] ^= 1
            corrected = parallel_bitflip_round(g, state)
            post[strat] = int(corrected.sum())
        diffs.append(post["greedy"] - post["random"])
    assert np.mean(diffs) >= 0
    assert np.mean(diffs) > 0.1  # strictly better on average, paired


def reference_lookahead(g, keys, count, observed, original, pool_size):
    """The greedy lookahead on uint8 states: every candidate's state
    materialized, one parallel_bitflip_round_many over all of them, and a
    per-state corrupt count.  Returns the (T, P, count) candidates of
    faults._greedy_rows with their (T, P) pre- and post-correction
    corrupt counts."""
    rows = observed.shape[0]
    corrupt = observed != original
    first = np.sort(np.argsort(corrupt, axis=1, kind="stable")[:, :count], axis=1)
    pool_keys = faults._absorb(keys[:, None],
                               np.arange(1, pool_size, dtype=np.uint64))
    rand = faults._floyd(pool_keys.ravel(), faults._POOL, g.n, count)
    cands = np.concatenate(
        [first[:, None, :], rand.reshape(rows, pool_size - 1, count)], axis=1)
    stale = corrupt[np.arange(rows)[:, None, None], cands].sum(axis=2)
    pre = corrupt.sum(axis=1)[:, None] + count - 2 * stale
    states = np.repeat(observed, pool_size, axis=0)
    states[np.arange(rows * pool_size)[:, None],
           cands.reshape(rows * pool_size, count)] ^= 1
    corrected = parallel_bitflip_round_many(g, states)
    post = np.einsum("ij->i", (corrected != original).view(np.uint8),
                     dtype=np.int64).reshape(rows, pool_size)
    return cands, pre, post


def reference_greedy_rows(g, keys, count, observed, original, pool_size):
    """Per trial, the candidate with the most corrupt bits after the
    round, then before it; the first such candidate wins."""
    cands, pre, post = reference_lookahead(g, keys, count, observed, original,
                                           pool_size)
    best = np.argmax(post * (g.n + 1) + pre, axis=1)
    return cands[np.arange(observed.shape[0]), best]


@pytest.mark.parametrize("nonzero_original", (False, True))
@pytest.mark.parametrize("pool_size", (1, 63, 64, 65, 130))
@pytest.mark.parametrize("count", (1, 2, 3, 4, 5))
def test_greedy_rows_match_uint8_lookahead(count, pool_size, nonzero_original):
    rng = np.random.default_rng(1000 * count + 2 * pool_size + nonzero_original)
    for params, seed in (((36, 3, 6), 7), ((20, 4, 5), 3), ((16, 7, 8), 5)):
        g = fm.build_random_regular(fm.CodeParams(*params), seed)
        original = zeros(g)
        if nonzero_original:
            message = np.ones(fm.code_dimension(g), np.uint8)
            original = fm.encode(g, message)
            assert original.any()
        rows = 7
        observed = np.repeat(original[None], rows, axis=0)
        for t in range(1, rows):  # row 0 holds the stored word itself
            hits = rng.choice(g.n, int(rng.integers(1, g.n // 2)), replace=False)
            observed[t, hits] ^= 1
        keys = trial_keys(int(rng.integers(2**31)), np.arange(rows))
        got = faults._greedy_rows(g, keys, count, observed, original, pool_size)
        want = reference_greedy_rows(g, keys, count, observed, original,
                                     pool_size)
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
    original = zeros(g)
    keys = trial_keys(3, np.arange(3))
    for count, pool_size in ((5, 64), (4, 100)):
        _cands, _pre, post = reference_lookahead(g, keys, count, observed,
                                                 original, pool_size)
        if corrupt == 284:
            assert ((post.min(axis=1) < 256) & (post.max(axis=1) >= 256)).all()
        assert np.array_equal(
            faults._greedy_rows(g, keys, count, observed, original, pool_size),
            reference_greedy_rows(g, keys, count, observed, original, pool_size))


def test_greedy_pool_size_must_be_positive(small_graph):
    g = small_graph
    budget = fm.AdversarialBudget(alpha_m=2.5 / 36)
    for pool_size in (0, -3):
        with pytest.raises(ValueError, match="pool_size must be at least 1"):
            draw_adversarial(budget, g, "greedy", 1, 1, zeros(g),
                             pool_size=pool_size)
        with pytest.raises(ValueError, match="pool_size must be at least 1"):
            draw_adversarial_batch(budget, g, "greedy", trial_keys(1, [0, 1]),
                                   1, np.zeros((2, g.n), np.uint8),
                                   pool_size=pool_size)


# -- model wrappers / margin -------------------------------------------------


def test_model_wrappers(small_graph):
    g = small_graph
    adv = fm.AdversarialModel(fm.AdversarialBudget(alpha_m=0.1), "repeat")
    ind = fm.IndependentModel(fm.IndependentRates(p_m=0.1))
    assert adv.kind == "adversarial" and not adv.cycle_dependent
    assert ind.kind == "independent" and ind.cycle_dependent
    with pytest.raises(ValueError):
        fm.AdversarialModel(fm.AdversarialBudget(), "nope")
    r1 = adv.draw_batch(g, seed_key(1), 1, zeros(g)[None], zeros(g))
    r2 = adv.draw_batch(g, seed_key(1), 2, zeros(g)[None], zeros(g))
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


# -- packed gate masks ------------------------------------------------------


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
        PlanBatch(None, np.hstack([first, first + 1, first + chain]),
                  np.arange(rows)[:, None] % g.n),
    ]
    for batch in batches:
        xor_words, maj_words = batch.gate_words(g)
        parity, mask = batch.xor_parity(g), batch.maj_mask(g.n)
        assert parity is not None and mask is not None
        assert xor_words.dtype == maj_words.dtype == np.uint64
        assert np.array_equal(xor_words, pack_rows(parity))
        assert np.array_equal(maj_words, pack_rows(mask))


def test_gate_words_of_a_batch_without_gate_faults(small_graph):
    g = small_graph
    total_xor = g.n * g.gamma * (g.rho - 2)
    quiet = PlanBatch(None, np.zeros((70, total_xor), bool),
                      np.zeros((70, g.n), bool), dense=True)
    assert quiet.gate_words(g) == (None, None)
    assert PlanBatch(np.zeros((70, 2), np.int64), None, None).gate_words(g) \
        == (None, None)


# -- rng streams ------------------------------------------------------------


def test_rng_for_reproducible_and_split():
    a = rng_for((1, 2), 3).random(4).tolist()
    b = rng_for((1, 2), 3).random(4).tolist()
    c = rng_for((1, 2), 4).random(4).tolist()
    d = rng_for((1, 3), 3).random(4).tolist()
    assert a == b and a != c and a != d


def test_exceedance_frequency_within_bound():
    p, delta, n = 0.02, 0.02, 500
    exact, loose = fm.chernoff_tail(p, delta, n)
    freq = exceedance_frequency(p, delta, n, draws=20_000, seed=5)
    sigma = math.sqrt(exact * (1 - exact) / 20_000)
    assert freq <= exact + 3 * sigma
    assert exact <= loose
