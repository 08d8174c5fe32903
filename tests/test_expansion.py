import itertools
import math
import tracemalloc

import numpy as np
import pytest

import faultmem as fm
from faultmem import expansion
from faultmem.expansion import (admissible_epsilons, alpha_total_from,
                                invert_expansion_upper_bound,
                                neighborhood_size)
from faultmem.faults import _PROBE_SET, _PROBE_SIZE, _below, _subset_draw, seed_key
from faultmem.tanner import CodeParams, TannerGraph


def recount_verdict(g, profile):
    """Independent brute-force enumerator via plain set unions."""
    max_size = int(math.floor(profile.alpha * g.n + 1e-9))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.n), size):
            checks = set()
            for v in combo:
                checks.update(int(c) for c in g.var_nbrs[v])
            if len(checks) < profile.delta * size:
                return "refuted", combo
    return "certified", None


def shared_pair_graph():
    """(gamma=2, rho=4) graph where variables 0 and 1 share both checks."""
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 3),
             (4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3)]
    return TannerGraph(CodeParams(8, 2, 4), edges)


# -- profiles ---------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        fm.ExpansionProfile(0.0, 3, 0.1)
    with pytest.raises(ValueError):
        fm.ExpansionProfile(0.1, 3, 0.26)
    with pytest.raises(ValueError):
        fm.ExpansionProfile(0.1, 3, -0.01)
    prof = fm.ExpansionProfile(0.1, 3, 0.25)
    assert prof.delta == 3.0
    assert prof.correctable_fraction == pytest.approx(0.1)
    assert prof.alpha_total == pytest.approx(0.1)


def test_profile_with_delta():
    prof = fm.ExpansionProfile.with_delta(1 / 6, 3, 2.25)
    assert prof.epsilon == pytest.approx(0.0, abs=1e-12)
    assert abs(prof.delta - (0.75 + prof.epsilon) * 3) <= 1e-12


# -- exhaustive certification ------------------------------------------------


def test_singletons_always_expand(seed7_graph):
    # each singleton has exactly gamma neighbors, so delta <= gamma holds
    prof = fm.ExpansionProfile(1.9 / 12, 3, 0.25)
    cert = fm.check_expansion_exhaustive(seed7_graph, prof)
    assert cert.verdict == "certified"
    assert cert.subsets_checked == 12


def test_shared_pair_refuted():
    g = shared_pair_graph()
    prof = fm.ExpansionProfile(0.25, 2, 0.05)  # delta = 1.6 > gamma/2
    cert = fm.check_expansion_exhaustive(g, prof)
    assert cert.verdict == "refuted"
    assert cert.witness is not None and len(cert.witness) <= 2
    # witness recounts as a violation
    assert neighborhood_size(g, cert.witness) < prof.delta * len(cert.witness)


def test_exhaustive_matches_recount_boundary(seed7_graph):
    prof = fm.ExpansionProfile.with_delta(1 / 6, 3, 2.25)
    cert = fm.check_expansion_exhaustive(seed7_graph, prof)
    verdict, witness = recount_verdict(seed7_graph, prof)
    assert cert.verdict == verdict
    if verdict == "refuted":
        assert neighborhood_size(seed7_graph, cert.witness) \
            < prof.delta * len(cert.witness)


def test_certified_instances_sound(certified_instances):
    for g, prof in certified_instances:
        cert = fm.check_expansion_exhaustive(g, prof)
        assert cert.verdict == "certified"
        assert recount_verdict(g, prof)[0] == "certified"


def test_work_budget_never_silently_passes(seed7_graph):
    prof = fm.ExpansionProfile(0.3, 3, 0.01)
    cert = fm.check_expansion_exhaustive(seed7_graph, prof, work_budget=3)
    assert cert.verdict == "inconclusive"
    assert cert.subsets_checked == 3


def test_work_budget_below_one_is_rejected(seed7_graph):
    prof = fm.ExpansionProfile(0.3, 3, 0.01)
    for budget in (0, -1):
        with pytest.raises(ValueError,
                           match=f"work budget must be at least 1, got {budget}"):
            fm.check_expansion_exhaustive(seed7_graph, prof, work_budget=budget)


def test_vacuous_or_mismatched_profiles_are_rejected_by_both_modes(girth6_graph):
    checks = (fm.check_expansion_exhaustive,
              lambda g, prof: fm.probe_expansion_randomized(g, prof, 10, seed=1))
    # alpha*n = 0.36 covers no subset size: any verdict would be vacuous
    for check in checks:
        with pytest.raises(ValueError, match=r"alpha\*n = 0\.36 is below 1"):
            check(girth6_graph, fm.ExpansionProfile(0.01, 3, 0.25))
        with pytest.raises(ValueError, match="profile gamma=4 does not match"):
            check(girth6_graph, fm.ExpansionProfile(0.1, 4, 0.25))
        # alpha*n = 1 is the smallest covered budget
        assert check(girth6_graph, fm.ExpansionProfile(1 / 36, 3, 0.25)) \
            .subsets_checked >= 1


def test_certificate_invariants():
    with pytest.raises(ValueError):
        fm.ExpansionCertificate("x", 0.1, 2.3, 0.01, "randomized",
                                "certified", None, 5)
    with pytest.raises(ValueError):
        fm.ExpansionCertificate("x", 0.1, 2.3, 0.01, "exhaustive",
                                "refuted", None, 5)


def test_certificate_json_schema(seed7_graph):
    prof = fm.ExpansionProfile(1.9 / 12, 3, 0.25)
    obj = fm.check_expansion_exhaustive(seed7_graph, prof).to_json_obj()
    assert set(obj) == {"graph_hash", "alpha", "delta", "epsilon", "mode",
                        "verdict", "witness", "subsets_checked"}


# -- randomized probing -----------------------------------------------------


def test_randomized_rejects_zero_trials(seed7_graph):
    prof = fm.ExpansionProfile(0.2, 3, 0.1)
    with pytest.raises(ValueError):
        fm.probe_expansion_randomized(seed7_graph, prof, 0, seed=1)


def test_randomized_finds_refutation():
    g = shared_pair_graph()
    prof = fm.ExpansionProfile(0.25, 2, 0.05)
    cert = fm.probe_expansion_randomized(g, prof, trials=500, seed=3)
    assert cert.verdict == "refuted"
    assert neighborhood_size(g, cert.witness) < prof.delta * len(cert.witness)


def probe_one_at_a_time(g, profile, trials, seed):
    """(verdict, witness, subsets_checked) of the probe, one sample per
    step: sample t's key is seed_key((seed, t)), its size 1 + _below at
    the size segment, its members the prefix of one floor(alpha*n)-subset
    draw at the member segment, and |N(S)| a plain set union."""
    max_size = int(math.floor(profile.alpha * g.n + 1e-9))
    for t in range(trials):
        key = np.array([seed_key((seed, t))], dtype=np.uint64)
        size = int(_below(key, max_size, _PROBE_SIZE)[0]) + 1
        members = _subset_draw(key, _PROBE_SET, g.n, max_size)[0, :size]
        if neighborhood_size(g, members) < profile.delta * size:
            return "refuted", tuple(sorted(members.tolist())), t + 1
    return "inconclusive", None, trials


def test_batched_probe_equals_one_sample_at_a_time(monkeypatch, girth6_graph):
    # seven samples per batch on the pair graph (floor(alpha*n) = 2,
    # gamma = 2): only the subsets {0, 1} and {6, 7}, whose variables
    # share both checks, violate delta = 1.5, so the first refutation
    # falls at a seed-dependent sample
    monkeypatch.setattr(expansion, "_PROBE_BYTES", 7 * 8 * 2 * 2)
    g = shared_pair_graph()
    prof = fm.ExpansionProfile(0.25, 2, 0.0)
    found = []
    for seed in range(12):
        cert = fm.probe_expansion_randomized(g, prof, trials=200, seed=seed)
        want = probe_one_at_a_time(g, prof, 200, seed)
        assert (cert.verdict, cert.witness, cert.subsets_checked) == want
        if cert.verdict == "refuted":
            assert cert.witness in ((0, 1), (6, 7))
            assert neighborhood_size(g, cert.witness) < prof.delta * 2
            found.append(cert.subsets_checked)
    assert max(found) > 3 * 7 and min(found) <= 7
    # a certified profile: every batch runs, and a partial last one
    prof = fm.ExpansionProfile(2.9 / 36, 3, 1 / 12)
    monkeypatch.setattr(expansion, "_PROBE_BYTES", 7 * 8 * 2 * 3)
    for trials in (1, 7, 8, 45):
        cert = fm.probe_expansion_randomized(girth6_graph, prof, trials, seed=9)
        assert (cert.verdict, cert.witness, cert.subsets_checked) == \
            probe_one_at_a_time(girth6_graph, prof, trials, 9)
    # refutations by witnesses of sizes 2 to 6 (floor(alpha*n) = 6)
    g = fm.build_random_regular(fm.CodeParams(24, 3, 6), 5)
    prof = fm.ExpansionProfile(0.25, 3, 0.2)
    monkeypatch.setattr(expansion, "_PROBE_BYTES", 7 * 8 * 6 * 3)
    for seed in range(6):
        cert = fm.probe_expansion_randomized(g, prof, 100, seed)
        assert (cert.verdict, cert.witness, cert.subsets_checked) == \
            probe_one_at_a_time(g, prof, 100, seed)
        assert cert.verdict == "refuted"
        assert neighborhood_size(g, cert.witness) < \
            prof.delta * len(cert.witness)


def test_probe_memory_does_not_grow_with_trials(girth6_graph):
    prof = fm.ExpansionProfile(2.9 / 36, 3, 1 / 12)
    batch = expansion._PROBE_BYTES // (8 * 2 * 3)

    def peak(trials):
        tracemalloc.start()
        try:
            cert = fm.probe_expansion_randomized(girth6_graph, prof, trials, 1)
            bytes_at_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.verdict == "inconclusive" and cert.subsets_checked == trials
        return bytes_at_peak

    one = peak(batch)
    assert peak(10 * batch) < 1.25 * one


def test_randomized_never_certifies(girth6_graph):
    prof = fm.ExpansionProfile(2.9 / 36, 3, 1 / 12)
    assert fm.check_expansion_exhaustive(girth6_graph, prof).verdict == "certified"
    cert = fm.probe_expansion_randomized(girth6_graph, prof, trials=2000, seed=5)
    assert cert.verdict == "inconclusive"
    assert cert.subsets_checked == 2000


# -- closed-form bounds -----------------------------------------------------


def test_upper_bound_value():
    # direct evaluation oracle: 0.5 * (1 - 0.9^6)
    assert fm.expansion_upper_bound(3, 6, 0.1) == pytest.approx(
        0.5 * (1 - 0.9 ** 6), abs=1e-15)
    assert abs(fm.expansion_upper_bound(3, 6, 0.1) - 0.2342795) < 1e-6


def test_upper_bound_limits():
    assert fm.expansion_upper_bound(3, 6, 1e-9) < 1e-8
    assert fm.expansion_upper_bound(3, 6, 1.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        fm.expansion_upper_bound(3, 6, 0.0)
    with pytest.raises(ValueError):
        fm.expansion_upper_bound(3, 6, 1.5)


def test_lower_bound_value():
    val = fm.expansion_lower_bound_alpha(8, 16, 0.75)
    assert val == pytest.approx(1 / (288 * math.exp(7)), rel=1e-12)


def test_lower_bound_precondition():
    with pytest.raises(ValueError, match="precondition"):
        fm.expansion_lower_bound_alpha(4, 8, 0.75)  # (1-d)c = 1


def test_lower_bound_decreases_with_rho():
    vals = [fm.expansion_lower_bound_alpha(8, rho, 0.75)
            for rho in (16, 24, 32, 48)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theorem25_style_consistency(seed7_graph):
    # exhaustively measured worst-case expansion never exceeds the
    # upper bound beyond the dropped O(1)/n slack (reported in message)
    g = seed7_graph
    alpha = 2 / 12
    size = 2
    worst = min(neighborhood_size(g, c)
                for c in itertools.combinations(range(g.n), size))
    bound = fm.expansion_upper_bound(g.gamma, g.rho, alpha)
    gap = worst / g.n - bound
    assert worst / g.n <= bound + 2 / g.n, f"gap beyond O(1)/n slack: {gap:.6f}"


# -- alpha_total ------------------------------------------------------------


def test_alpha_total_identity_at_quarter():
    for a in (0.01, 0.1, 0.5):
        assert alpha_total_from(a, 0.25) == pytest.approx(a, rel=1e-15)


def test_alpha_total_strictly_increasing_in_eps():
    eps = np.linspace(0.001, 0.25, 120)
    vals = [alpha_total_from(0.07, e) for e in eps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_alpha_total_bounds_9_18():
    b = fm.alpha_total_bounds(9, 18)
    assert b.lower is not None
    assert 0 < b.lower < b.upper < 1


def test_alpha_total_bounds_ordered_on_grid():
    for gamma in (9, 34):
        for rho in (2 * gamma, 3 * gamma):
            b = fm.alpha_total_bounds(gamma, rho)
            assert b.lower is None or b.lower <= b.upper


def test_lower_bound_absent_when_no_admissible_eps():
    # gamma=8: (1/4 - eps)*8 >= 2 forces eps <= 0, so no admissible eps
    assert admissible_epsilons(8) == []
    b = fm.alpha_total_bounds(8, 16)
    assert b.lower is None and b.upper > 0


def test_admissible_epsilons_gamma9():
    eps = admissible_epsilons(9)
    assert len(eps) == 1
    assert eps[0] == pytest.approx(1 / 36)


def test_invert_upper_bound_consistent():
    # at the returned alpha, the required expansion equals the ceiling
    gamma, rho, eps = 4, 5, 0.12
    a = invert_expansion_upper_bound(gamma, rho, eps)
    assert a > 0
    lhs = (0.75 + eps) * gamma * a
    rhs = fm.expansion_upper_bound(gamma, rho, a)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert invert_expansion_upper_bound(gamma, rho, 0.25) == 0.0
