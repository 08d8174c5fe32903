import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultmem as fm
from faultmem.exceptions import AccountingError, ConfigError
from faultmem.faults import PlanBatch
from faultmem.memsim import MemoryState, RunConfig, detect_cap, wilson_interval


def adversarial(alpha_m=0.0, alpha_xor=0.0, alpha_maj=0.0, strategy="random"):
    return fm.AdversarialModel(
        fm.AdversarialBudget(alpha_m, alpha_xor, alpha_maj), strategy)


def independent(p_m=0.0, p_xor=0.0, p_maj=0.0):
    return fm.IndependentModel(fm.IndependentRates(p_m, p_xor, p_maj))


@pytest.fixture(scope="module")
def i1():
    g = fm.build_random_regular(fm.CodeParams(36, 3, 6), 7, reject_4cycles=True)
    return g, fm.ExpansionProfile(1.9 / 36, 3, 0.25)


# -- basic runs -------------------------------------------------------------


def test_zero_faults_zero_trajectory(i1):
    g, prof = i1
    for decoder in ("algorithm_a", "tk", "none"):
        rep = fm.run_memory(g, decoder, adversarial(), 25, seed=1, profile=prof)
        assert not rep.failed
        assert rep.cycles_executed == 25
        assert max(rep.alpha_pre) == 0.0 and max(rep.alpha_post) == 0.0


def test_run_validation_errors(i1):
    g, prof = i1
    with pytest.raises(ConfigError):
        fm.run_memory(g, "bogus", adversarial(), 5, seed=1)
    with pytest.raises(ConfigError):
        fm.run_memory(g, "algorithm_a", adversarial(), 0, seed=1)
    with pytest.raises(ConfigError):
        fm.run_memory(g, "none", adversarial(alpha_xor=0.05), 5, seed=1)
    with pytest.raises(ConfigError):
        bad = np.zeros(g.n, np.uint8)
        bad[0] = 1
        fm.run_memory(g, "algorithm_a", adversarial(), 5, seed=1,
                      initial_word=bad)
    with pytest.raises(ConfigError):
        fm.run_memory(g, "algorithm_a", adversarial(), 5, seed=1,
                      check_accounting=True)  # needs profile


def test_stored_codeword_mode(i1):
    g, prof = i1
    rng = np.random.default_rng(0)
    cw = fm.encode(g, rng.integers(0, 2, fm.code_dimension(g)).astype(np.uint8))
    rep = fm.run_memory(g, "algorithm_a", adversarial(alpha_m=1.5 / 36), 60,
                        seed=4, profile=prof, initial_word=cw)
    assert not rep.failed
    assert max(rep.alpha_post) == 0.0


# -- failure detection ------------------------------------------------------


def test_detect_failure_cases(i1):
    g, prof = i1
    zero = np.zeros(g.n, np.uint8)
    state = MemoryState.observe(zero, zero, 0)
    assert not fm.detect_failure(g, state, prof)

    # a different codeword decodes, but not to the original: failure
    rng = np.random.default_rng(1)
    other = zero
    while not other.any():
        other = fm.encode(g, rng.integers(0, 2, fm.code_dimension(g)).astype(np.uint8))
    assert fm.detect_failure(g, MemoryState.observe(other, zero, 0), prof)

    # below the guarantee threshold on a certified expander: never a failure
    one = zero.copy()
    one[5] = 1
    assert not fm.detect_failure(g, MemoryState.observe(one, zero, 0), prof)


def test_detect_cap_formula():
    assert detect_cap(None, 100, 77) == 77
    assert detect_cap(fm.ExpansionProfile(0.05, 3, 0.25), 100) == 10
    prof = fm.ExpansionProfile(0.05, 3, 0.05)
    expected = int(np.ceil(np.log(100) / np.log(1 / 0.8))) + 10
    assert detect_cap(prof, 100) == expected


# -- traces and invariants --------------------------------------------------


def test_trace_identity_recomputed(i1):
    g, prof = i1
    rep = fm.run_memory(g, "algorithm_a", adversarial(alpha_m=2.5 / 36), 30,
                        seed=9, profile=prof, record_states=True)
    zero = np.zeros(g.n, np.uint8)
    for c in range(rep.cycles_executed):
        assert rep.corrupt_pre[c] == int((rep.states_pre[c] != zero).sum())
        assert rep.corrupt_post[c] == int((rep.states_post[c] != zero).sum())
        assert rep.alpha_pre[c] == rep.corrupt_pre[c] / g.n


def test_accounting_checked_on_all_strategies(i1):
    g, prof = i1
    for strategy in fm.faults.STRATEGIES:
        model = adversarial(alpha_m=1.5 / 36, strategy=strategy)
        rep = fm.run_memory(g, "algorithm_a", model, 200, seed=3, profile=prof,
                            check_accounting=True)
        assert not rep.failed
        assert rep.accounting_checked
        assert max(rep.alpha_pre) < prof.correctable_fraction


def test_peak_at_pre_within_guarantee(i1):
    # inside the guarantee region every correction contracts, so the
    # trace maximum sits at a pre-correction observation point
    g, prof = i1
    for strategy in ("random", "repeat", "cluster", "greedy"):
        rep = fm.run_memory(g, "algorithm_a",
                            adversarial(alpha_m=1.5 / 36, strategy=strategy),
                            100, seed=6, profile=prof)
        assert not rep.failed
        assert rep.peak_at_pre()


def test_accounting_violation_raises(i1):
    # no correction and an accumulating adversary must violate the
    # contraction accounting (it assumes a correcting round ran)
    g, prof = i1
    with pytest.raises(AccountingError):
        fm.run_memory(g, "none", adversarial(alpha_m=1.5 / 36, strategy="random"),
                      200, seed=1, profile=prof, check_accounting=True)


# -- monte carlo ------------------------------------------------------------


def test_monte_carlo_zero_failure_exact(i1):
    g, prof = i1
    cfg = RunConfig(g, "algorithm_a", adversarial(), 10, profile=prof)
    res = fm.monte_carlo(cfg, 20, 1)
    assert res.failures == 0 and res.failure_rate == 0.0
    assert res.ci_low == 0.0 and res.ci_high < 0.2


def test_monte_carlo_rows_match_run_memory(i1):
    g, prof = i1
    models = [adversarial(alpha_m=1.5 / 36, strategy=s)
              for s in fm.faults.STRATEGIES]
    models.append(independent(p_m=0.04, p_xor=1e-4, p_maj=1e-4))
    for model in models:
        for decoder in ("algorithm_a", "none"):
            if decoder == "none":
                if model.kind == "adversarial":
                    model_n = adversarial(alpha_m=model.budget.alpha_m,
                                          strategy=model.strategy)
                else:
                    model_n = independent(p_m=model.rates.p_m)
            else:
                model_n = model
            cfg = RunConfig(g, decoder, model_n, 40, profile=prof)
            rb = fm.monte_carlo(cfg, 15, 77)
            reps = [fm.run_memory(g, decoder, model_n, 40, (77, t), prof)
                    for t in range(15)]
            assert rb.failed_by_trial == [r.failed for r in reps]
            assert rb.failure_cycle_by_trial == [r.failure_cycle for r in reps]
            for c, (mean, peak) in enumerate(zip(rb.mean_alpha_pre,
                                                 rb.max_alpha_post)):
                ran = [r for r in reps if c < r.cycles_executed]
                assert mean == pytest.approx(
                    sum(r.alpha_pre[c] for r in ran) / len(ran), rel=1e-12)
                assert peak == max(r.alpha_post[c] for r in ran)
            assert rb.recorded == [sum(c < r.cycles_executed for r in reps)
                                   for c in range(len(rb.recorded))]


_GRAPHS = {}


def small_graph(params, seed):
    if (params, seed) not in _GRAPHS:
        _GRAPHS[params, seed] = fm.build_random_regular(fm.CodeParams(*params),
                                                        seed)
    return _GRAPHS[params, seed]


@st.composite
def fault_models(draw, g, kind, gates):
    """A fault model of the given kind (a strategy name or 'independent')
    with small budgets; gate faults only when ``gates``."""
    if kind == "independent":
        return independent(draw(st.floats(0.0, 0.06)),
                           draw(st.floats(0.0, 0.004)) if gates else 0.0,
                           draw(st.floats(0.0, 0.01)) if gates else 0.0)
    total_xor = g.n * g.gamma * (g.rho - 2)
    return adversarial((draw(st.integers(0, 2)) + 0.5) / g.n,
                       (draw(st.integers(0, 2)) + 0.5) / total_xor if gates else 0.0,
                       (draw(st.integers(0, 1)) + 0.5) / g.n if gates else 0.0,
                       strategy=kind)


@pytest.mark.parametrize("kind", fm.faults.STRATEGIES + ("independent",))
@pytest.mark.parametrize("rounds", (1, 2))
@pytest.mark.parametrize("decoder", ("algorithm_a", "tk", "none"))
@settings(max_examples=8)
@given(data=st.data(), trials=st.integers(1, 6), root=st.integers(0, 2**40),
       cycles=st.integers(1, 12),
       params=st.sampled_from(((24, 3, 6), (20, 4, 5), (24, 4, 6))),
       graph_seed=st.integers(0, 4))
def test_monte_carlo_row_equals_run_memory(decoder, rounds, kind, data, trials,
                                           root, cycles, params, graph_seed):
    g = small_graph(params, graph_seed)
    model = data.draw(fault_models(g, kind, decoder != "none"))
    cfg = RunConfig(g, decoder, model, cycles, rounds_per_cycle=rounds)
    res = fm.monte_carlo(cfg, trials, root, keep_reports=True)
    for t in range(trials):
        rep = fm.run_memory(g, decoder, model, cycles, (root, t),
                            rounds_per_cycle=rounds)
        assert res.reports[t] == rep
        assert res.failure_cycle_by_trial[t] == rep.failure_cycle


def test_monotone_degradation(i1):
    g, prof = i1
    budget_kw = dict(alpha_m=2.5 / 36, strategy="random")
    corrected = fm.monte_carlo(
        RunConfig(g, "algorithm_a", adversarial(**budget_kw), 60, profile=prof),
        60, 5)
    disabled = fm.monte_carlo(
        RunConfig(g, "none", adversarial(**budget_kw), 60, profile=prof),
        60, 5)
    assert disabled.failure_rate >= corrected.failure_rate
    assert disabled.failures > 0  # decay without correction really fails


def test_high_rate_failure_goes_to_one():
    g = fm.build_random_regular(fm.CodeParams(48, 3, 6), seed=5)
    cfg = RunConfig(g, "algorithm_a", independent(p_m=0.4), 50)
    res = fm.monte_carlo(cfg, 100, 3)
    assert res.failure_rate >= 0.95


def test_root_seed_reproducibility_and_overlap(i1):
    g, prof = i1
    cfg = RunConfig(g, "algorithm_a", independent(p_m=0.01), 30, profile=prof)
    r1 = fm.monte_carlo(cfg, 300, 11, confidence=0.99)
    r1b = fm.monte_carlo(cfg, 300, 11, confidence=0.99)
    r2 = fm.monte_carlo(cfg, 300, 12, confidence=0.99)
    assert r1.failure_rate == r1b.failure_rate
    assert r1.failed_by_trial == r1b.failed_by_trial
    # different roots: overlapping 99% intervals
    assert r1.ci_low <= r2.ci_high and r2.ci_low <= r1.ci_high
    assert 0 < r1.failure_rate < 1


def test_keep_reports(i1):
    g, prof = i1
    cfg = RunConfig(g, "algorithm_a", adversarial(alpha_m=1.5 / 36), 10,
                    profile=prof)
    res = fm.monte_carlo(cfg, 5, 2, keep_reports=True)
    assert len(res.reports) == 5
    assert all(r.cycles_executed == 10 for r in res.reports)


def test_tk_memory_runs():
    # gamma=4: the half-or-more copy threshold is a strict majority of the
    # 3 non-excluded checks, so single register faults heal cleanly
    g = fm.build_random_regular(fm.CodeParams(40, 4, 5), 13, reject_4cycles=True)
    prof = fm.ExpansionProfile(2.9 / 40, 4, 0.12)
    rep = fm.run_memory(g, "tk", adversarial(alpha_m=1.2 / 40, strategy="repeat"),
                        40, seed=8, profile=prof)
    assert rep.decoder == "tk"
    assert not rep.failed
    assert max(rep.alpha_pre) > 0  # register decay visible before correction
    assert max(rep.alpha_post) == 0.0  # and corrected away each cycle


def test_rounds_per_cycle_knob(i1):
    g, prof = i1
    rep = fm.run_memory(g, "algorithm_a", adversarial(alpha_m=1.5 / 36), 20,
                        seed=2, profile=prof, rounds_per_cycle=2)
    assert not rep.failed


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(1, 2)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 < 0.1
    with pytest.raises(ValueError):
        wilson_interval(3, 2)


def test_sim_report_json(i1):
    g, prof = i1
    rep = fm.run_memory(g, "algorithm_a", adversarial(alpha_m=1.5 / 36), 5,
                        seed=1, profile=prof)
    obj = rep.to_json_obj()
    assert obj["cycles_executed"] == 5
    assert len(obj["alpha_pre"]) == 5
    assert obj["guarantee_threshold"] == pytest.approx(prof.correctable_fraction)


def test_batched_accounting_violation_matches_run_memory(i1):
    # monte_carlo must raise at the first cycle any trial violates the
    # accounting, naming the lowest such trial, exactly as that trial's
    # run_memory reports it
    g, prof = i1
    model = adversarial(alpha_m=1.5 / 36, strategy="random")
    cfg = RunConfig(g, "none", model, 200, profile=prof, check_accounting=True)
    trials = 30
    for root in (1, 4):
        first = {}
        for t in range(trials):
            try:
                fm.run_memory(g, "none", model, 200, (root, t), prof,
                              check_accounting=True)
            except AccountingError as exc:
                first[t] = (int(re.match(r"cycle (\d+): ", str(exc))[1]), t)
        cycle, trial = min(first.values())
        with pytest.raises(AccountingError,
                           match=rf"^cycle {cycle}, trial {trial}: corrupt count"):
            fm.monte_carlo(cfg, trials, root)


def test_dense_batch_without_gate_faults_gives_no_masks(i1):
    g, _prof = i1
    total_xor = g.n * g.gamma * (g.rho - 2)
    quiet = PlanBatch(None, np.zeros((3, total_xor), bool),
                      np.zeros((3, g.n), bool), dense=True)
    assert quiet.xor_parity(g) is None and quiet.maj_mask(g.n) is None
    xor, maj = quiet.xor.copy(), quiet.maj.copy()
    xor[1, 5], maj[2, 7] = True, True
    loud = PlanBatch(None, xor, maj, dense=True)
    parity, mask = loud.xor_parity(g), loud.maj_mask(g.n)
    assert parity.shape == (3, g.m, g.rho) and parity.sum() == 1
    assert parity[1].reshape(-1)[5 // (g.rho - 2)] == 1
    assert mask.shape == (3, g.n) and mask.sum() == 1 and mask[2, 7] == 1


def test_run_memory_unchanged_by_skipped_gate_masks(i1, monkeypatch):
    # a dense batch with no failed gate of a class passes None to the
    # round; the reports must equal those of rounds fed all-zero masks
    g, prof = i1
    model = independent(p_m=0.004, p_xor=2e-4, p_maj=1e-3)
    cases = [(decoder, seed) for decoder in ("algorithm_a", "tk")
             for seed in range(4)]
    skipped = [fm.run_memory(g, decoder, model, 200, seed, prof)
               for decoder, seed in cases]

    xor_parity, maj_mask = PlanBatch.xor_parity, PlanBatch.maj_mask
    seen = {"none": 0, "some": 0}

    def zero_xor_parity(self, gr):
        out = xor_parity(self, gr)
        seen["none" if out is None else "some"] += 1
        if out is None and self.xor is not None:
            out = np.zeros((self.xor.shape[0], gr.m, gr.rho), np.uint8)
        return out

    def zero_maj_mask(self, n):
        out = maj_mask(self, n)
        if out is None and self.maj is not None:
            out = np.zeros((self.maj.shape[0], n), np.uint8)
        return out

    monkeypatch.setattr(PlanBatch, "xor_parity", zero_xor_parity)
    monkeypatch.setattr(PlanBatch, "maj_mask", zero_maj_mask)
    fed = [fm.run_memory(g, decoder, model, 200, seed, prof)
           for decoder, seed in cases]
    assert seen["none"] > 0 and seen["some"] > 0
    assert fed == skipped
