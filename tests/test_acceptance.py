"""Acceptance suite: one test per criterion, at the stated scale and
tolerance.  A terminal-summary hook in conftest prints one PASS/FAIL line
per criterion at the end of the run."""

import itertools
import math

import numpy as np
import pytest

import faultmem as fm
from faultmem.decoders import (EdgeMessages, algorithm_a_round_packed,
                               gallager_b_round, pack_rows,
                               parallel_bitflip_decode_many,
                               parallel_bitflip_round_many, tk_round_packed)
from faultmem.faults import draw_adversarial_batch, exceedance_frequency, seed_key
from faultmem.memsim import RunConfig, detect_cap, _detect_word

from conftest import (CERTIFIED_INSTANCES, build_instance, gate_words,
                      tk_copies, tk_words, xor_gate_id)

# criterion-3 / criterion-8 fault budgets for the frozen instances
I1 = CERTIFIED_INSTANCES[0]  # (36, 3, 6, seed 7,  eps 1/4)
I3 = CERTIFIED_INSTANCES[2]  # (40, 4, 5, seed 13, eps 0.12)
TOLERANCE_BUDGETS = {I1: 1.5 / 36, I3: 0.0251}


def rounds_bound(epsilon: float, corrupt: int) -> int:
    """Allowed decoding rounds ceil(log_{1/(1-4e)}(|V|)), at least one
    round for any nonzero corruption (the log form degenerates at |V|=1
    and at epsilon=1/4)."""
    shrink = 1.0 - 4.0 * epsilon
    if corrupt <= 1 or shrink <= 0.0:
        return 1
    return max(1, math.ceil(math.log(corrupt) / math.log(1.0 / shrink)))


def decode_rounds_to_codeword(g, word, original, allowance):
    """Rounds actually needed to reach the original codeword, or None."""
    decoded, used, converged = parallel_bitflip_decode_many(g, word[None],
                                                            allowance + 1)
    if not converged[0] or not np.array_equal(decoded[0], original):
        return None
    return int(used[0]) - 1  # the final round only confirms the fixpoint


# ---------------------------------------------------------------------------
# Criterion 1: codeword fixpoint for every decoder, 100 graphs, 21 words each
# ---------------------------------------------------------------------------


def test_criterion1_codeword_fixpoint():
    families = [(24, 3, 6, 34), (16, 4, 8, 33), (20, 5, 10, 33)]
    rng = np.random.default_rng(2024)
    graphs_checked = 0
    for n, gamma, rho, count in families:
        for i in range(count):
            g = fm.build_random_regular(fm.CodeParams(n, gamma, rho),
                                        seed=(1000 + i))
            k = fm.code_dimension(g)
            words = [np.zeros(n, np.uint8)]
            for _ in range(20):
                words.append(fm.encode(
                    g, rng.integers(0, 2, size=k).astype(np.uint8)))
            stack = np.stack(words)
            packed = pack_rows(stack)
            assert np.array_equal(algorithm_a_round_packed(g, packed), packed)
            assert np.array_equal(parallel_bitflip_round_many(g, stack), stack)
            # every copy of every variable holds the stored bit
            copies = pack_rows(np.repeat(stack[:, None, :], gamma, axis=1))
            assert np.array_equal(tk_round_packed(g, copies), copies)
            for w in words:
                msgs = EdgeMessages.from_word(g, w)
                out = gallager_b_round(g, msgs)
                assert np.array_equal(out.var_to_check, msgs.var_to_check)
            graphs_checked += 1
    assert graphs_checked == 100


# ---------------------------------------------------------------------------
# Criterion 2: one-round contraction and full decoding on certified expanders
# ---------------------------------------------------------------------------


def error_patterns(n, size, limit=2_000_000, seed=0):
    """All size-subsets when the whole sweep fits the limit, else 1e5
    random ones."""
    total = sum(math.comb(n, s) for s in range(1, size + 1))
    if total <= limit:
        for s in range(1, size + 1):
            yield from itertools.combinations(range(n), s)
        return
    rng = np.random.default_rng(seed)
    for _ in range(100_000):
        s = int(rng.integers(1, size + 1))
        yield tuple(int(v) for v in rng.choice(n, size=s, replace=False))


def test_criterion2_one_round_contraction(certified_instances):
    assert len(certified_instances) >= 5
    patterns_total = 0
    for g, prof in certified_instances:
        cert = fm.check_expansion_exhaustive(g, prof)
        assert cert.verdict == "certified"
        threshold = prof.correctable_fraction * g.n
        vmax = math.ceil(threshold) - 1  # largest |V| with |V| < threshold
        assert vmax >= 1
        zero = np.zeros(g.n, np.uint8)
        for combo in error_patterns(g.n, vmax):
            word = zero.copy()
            word[list(combo)] = 1
            after = parallel_bitflip_round_many(g, word[None, :])[0]
            allowed = int(math.floor(len(combo) * prof.contraction + 1e-12))
            assert int(after.sum()) <= allowed, (combo, prof)
            bound = rounds_bound(prof.epsilon, len(combo))
            reached = decode_rounds_to_codeword(g, word, zero, bound)
            assert reached is not None and reached <= bound, (combo, prof)
            patterns_total += 1
    assert patterns_total >= 5 * 30


# ---------------------------------------------------------------------------
# Criterion 3: zero failures under tolerable adversarial budgets, all four
# strategies, 1e3 trials x 1e3 cycles, with per-cycle accounting enforced
# ---------------------------------------------------------------------------


def test_criterion3_theorem2_desk_scale():
    for inst, alpha_m in TOLERANCE_BUDGETS.items():
        g, prof = build_instance(inst)
        budget = fm.AdversarialBudget(alpha_m=alpha_m, alpha_xor=1e-6,
                                      alpha_maj=1e-6)
        margin = fm.theorem2_margin(budget, g.gamma, g.rho, prof)
        assert margin > 0, (inst, margin)
        assert budget.register_count(g) >= 1  # faults actually occur
        for strategy in fm.faults.STRATEGIES:
            model = fm.AdversarialModel(budget, strategy)
            cfg = RunConfig(g, "algorithm_a", model, cycles=1000,
                            profile=prof, check_accounting=True)
            result = fm.monte_carlo(cfg, trials=1000, root_seed=2025)
            assert result.failures == 0, (inst, strategy)
            assert max(result.max_alpha_pre) < prof.correctable_fraction
            assert max(result.max_alpha_pre) > 0  # decay was really injected


# ---------------------------------------------------------------------------
# Criterion 4: bit-copy scheme == hard-decision message passing, per edge
# ---------------------------------------------------------------------------


def test_criterion4_tk_equals_gallager_b():
    params_pool = [(12, 3, 6), (12, 4, 6), (20, 4, 5), (18, 3, 6), (16, 4, 8)]
    rng = np.random.default_rng(7)
    for instance in range(1000):
        n, gamma, rho = params_pool[instance % len(params_pool)]
        g = fm.build_random_regular(fm.CodeParams(n, gamma, rho),
                                    seed=instance)
        copies = rng.integers(0, 2, size=(n, gamma)).astype(np.uint8)
        tk = tk_words(copies[None])  # one state as a batch of one
        em = EdgeMessages(copies.reshape(-1).copy(),
                          np.zeros(n * gamma, np.uint8))
        for _ in range(20):
            xor = frozenset(
                xor_gate_id(g, int(rng.integers(0, g.m)),
                            int(rng.integers(0, g.rho)),
                            int(rng.integers(0, g.rho - 2)))
                for _ in range(int(rng.integers(0, 4))))
            maj = frozenset(
                int(v) for v in rng.choice(n, int(rng.integers(0, 3)),
                                           replace=False))
            tk = tk_round_packed(g, tk, *gate_words(g, xor, maj))
            em = gallager_b_round(g, em, xor, maj)
            assert np.array_equal(tk_copies(tk, 1)[0].reshape(-1),
                                  em.var_to_check)


# ---------------------------------------------------------------------------
# Criterion 5: closed-form bounds and curve shapes
# ---------------------------------------------------------------------------


def test_criterion5_closed_form_bounds():
    assert fm.redundancy(3, 6) == pytest.approx(36.0, abs=1e-12)
    assert fm.redundancy_tk(3, 6) == pytest.approx(90.0, abs=1e-12)
    for gamma in range(3, 41):
        assert fm.optimal_rho(gamma) == 2 * gamma
    assert abs(fm.expansion_upper_bound(3, 6, 0.1) - 0.2342795) <= 1e-6
    assert fm.expansion_lower_bound_alpha(8, 16, 0.75) == pytest.approx(
        1 / (288 * math.exp(7)), rel=1e-12)
    for gamma, rhos in ((9, range(10, 37)), (34, range(36, 103, 2))):
        redundancies = [fm.redundancy(gamma, rho) for rho in rhos]
        second_diff = [redundancies[i - 1] - 2 * redundancies[i]
                       + redundancies[i + 1]
                       for i in range(1, len(redundancies) - 1)]
        assert all(d > 0 for d in second_diff)  # strictly convex curve
        best = list(rhos)[int(np.argmin(redundancies))]
        assert best == 2 * gamma  # interior minimum
        for rho in rhos:
            b = fm.alpha_total_bounds(gamma, rho)
            assert b.lower is not None and 0 < b.lower <= b.upper, (gamma, rho)


# ---------------------------------------------------------------------------
# Criterion 6: Monte Carlo exceedance vs the exact and loose tail bounds
# ---------------------------------------------------------------------------


def test_criterion6_chernoff_consistency():
    draws = 100_000
    point = 0
    for p in (0.01, 0.05):
        for delta in (0.01, 0.02):
            for n in (1000, 10_000):
                exact, loose = fm.chernoff_tail(p, delta, n)
                assert exact <= loose * (1 + 1e-12)
                freq = exceedance_frequency(p, delta, n, draws,
                                            seed=(61, point))
                sigma = math.sqrt(exact * (1 - exact) / draws)
                assert freq <= exact + 3 * sigma, (p, delta, n, freq, exact)
                point += 1


# ---------------------------------------------------------------------------
# Criterion 7: empirical failure rate vs the (weak) union tail bound
# ---------------------------------------------------------------------------


def test_criterion7_pf_bound_direction():
    g, prof = build_instance(I1)
    p_m, p_xor, p_maj = 0.02, 1e-4, 1e-4
    eps_m, eps_xor, eps_maj = 0.02, 1e-4, 1e-4
    alpha = fm.AdversarialBudget(p_m + eps_m, p_xor + eps_xor, p_maj + eps_maj)
    assert fm.theorem2_margin(alpha, g.gamma, g.rho, prof) > 0
    L = 100
    bound = fm.pf_bound(L, g.n, eps_m, eps_xor, eps_maj)
    model = fm.IndependentModel(fm.IndependentRates(p_m, p_xor, p_maj))
    cfg = RunConfig(g, "algorithm_a", model, cycles=L, profile=prof)
    result = fm.monte_carlo(cfg, trials=10_000, root_seed=31)
    assert result.failure_rate <= min(1.0, bound)


# ---------------------------------------------------------------------------
# Criterion 8: disabled correction fails at the arithmetically predicted cycle
# ---------------------------------------------------------------------------


def test_criterion8_no_correction_baseline():
    g, prof = build_instance(I1)
    alpha_m = 1.5 / 36
    budget = fm.AdversarialBudget(alpha_m=alpha_m)
    threshold = prof.correctable_fraction  # alpha*(1+4eps)/2
    guarantee_floor = math.ceil(threshold / alpha_m)

    # accumulating adversary: replay the seeded plans on a pure XOR state
    # (no simulator) and locate the first cycle outside the decoding class
    cap = detect_cap(prof, g.n)
    zero = np.zeros(g.n, np.uint8)
    state = zero.copy()
    predicted = None
    for cycle in range(1, 201):
        _rows, flips = draw_adversarial_batch(budget, g, "greedy", seed_key(55),
                                              cycle, state[None], zero).reg
        assert flips.size == 1  # exactly the budget arithmetic
        state[flips] ^= 1
        if _detect_word(g, state, zero, cap):
            predicted = cycle
            break
    assert predicted is not None
    assert predicted >= guarantee_floor  # no failure inside the guarantee

    model = fm.AdversarialModel(budget, "greedy")
    rep = fm.run_memory(g, "none", model, 200, seed=55, profile=prof)
    rep2 = fm.run_memory(g, "none", model, 200, seed=55, profile=prof)
    assert rep.failed and rep.failure_cycle == predicted
    assert rep2.failure_cycle == rep.failure_cycle  # deterministic

    # bounded adversary: the same budget re-hitting one register never
    # crosses the guarantee, so no failure ever occurs
    rep_repeat = fm.run_memory(
        g, "none", fm.AdversarialModel(budget, "repeat"), 300, seed=55,
        profile=prof)
    assert not rep_repeat.failed
    assert max(rep_repeat.corrupt_pre) == 1
