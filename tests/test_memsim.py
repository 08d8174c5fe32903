import dataclasses
import functools
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultmem as fm
from faultmem import memsim
from faultmem.exceptions import AccountingError, ConfigError
from faultmem.memsim import RunConfig, _detect_word, detect_cap, wilson_interval

from conftest import CERTIFIED_INSTANCES, build_instance


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
        fm.run_memory(g, "algorithm_a", adversarial(), 5, seed=1,
                      check_accounting=True)  # needs profile


@pytest.mark.parametrize("bad", [
    {"decoder": "bogus"},
    {"cycles": 0},
    {"decoder": "none", "fault_model": adversarial(alpha_xor=0.05)},
    {"check_accounting": True},  # needs profile
], ids=["decoder", "cycles", "none-gates", "accounting"])
def test_inconsistent_run_cannot_be_built(i1, bad):
    g, _ = i1
    fields = {"graph": g, "decoder": "algorithm_a",
              "fault_model": adversarial(), "cycles": 5}
    with pytest.raises(ConfigError):
        RunConfig(**{**fields, **bad})
    with pytest.raises(ConfigError):
        dataclasses.replace(RunConfig(**fields), **bad)


# -- failure detection ------------------------------------------------------


def test_detect_failure_cases(i1):
    g, prof = i1
    cap = detect_cap(prof, g.n)
    zero = np.zeros(g.n, np.uint8)
    assert not _detect_word(g, zero, zero, cap)

    # a different codeword decodes, but not to the original: failure
    rng = np.random.default_rng(1)
    other = zero
    while not other.any():
        other = fm.encode(g, rng.integers(0, 2, fm.code_dimension(g)).astype(np.uint8))
    assert _detect_word(g, other, zero, cap)

    # below the guarantee threshold on a certified expander: never a failure
    one = zero.copy()
    one[5] = 1
    assert not _detect_word(g, one, zero, cap)


def test_detect_cap_formula():
    assert detect_cap(None, 100) == 100
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


# rates on i1 at which trials fail in more than one word and, but for
# 'repeat' under 'none' (whose word only toggles), at different cycles;
# 'tk' (gamma 3) fails every trial at cycle 1 under any nonzero budget
_ACROSS_WORDS = {
    ("algorithm_a", "random"): adversarial(1.5 / 36, 1.5 / 432, strategy="random"),
    ("algorithm_a", "repeat"): adversarial(0.5 / 36, 1.5 / 432, 1.5 / 36,
                                           strategy="repeat"),
    ("algorithm_a", "independent"): independent(0.003, 1e-3, 1e-3),
    ("none", "random"): adversarial(1.5 / 36, strategy="random"),
    ("none", "repeat"): adversarial(2.5 / 36, strategy="repeat"),
    ("none", "independent"): independent(0.003),
    ("tk", "independent"): independent(0.0003, 3e-5, 3e-4),
}


@pytest.mark.parametrize("decoder, kind", sorted(_ACROSS_WORDS))
def test_monte_carlo_rows_match_run_memory_across_words(i1, decoder, kind):
    # 64, 65 and 130 trials fill one word, spill one trial into a second
    # and reach into a third: failed trials retire from every word
    g, prof = i1
    model = _ACROSS_WORDS[decoder, kind]
    cycles = 30
    reps = [fm.run_memory(g, decoder, model, cycles, (5, t), prof)
            for t in range(130)]
    failed = [t for t, r in enumerate(reps) if r.failed]
    assert {t // 64 for t in failed} >= {0, 1}
    if kind != "repeat" or decoder != "none":
        assert len({reps[t].failure_cycle for t in failed}) > 1
    for trials in (64, 65, 130):
        cfg = RunConfig(g, decoder, model, cycles, profile=prof)
        res = fm.monte_carlo(cfg, trials, 5)
        assert res.reports == reps[:trials]
        assert res.failure_cycle_by_trial == [r.failure_cycle for r in reps[:trials]]


def block_bytes(g, trials, cycles):
    """A _BLOCK_BYTES under which _simulate draws ``cycles`` cycles per
    block for ``trials`` trials (one cycle's words: 2n + m*rho per word
    of 64 trials)."""
    return cycles * 8 * -(-trials // 64) * (2 * g.n + g.m * g.rho)


@pytest.mark.parametrize("kind", ("independent", "random"))
def test_block_size_does_not_change_results(i1, monkeypatch, kind):
    # blocks of 1, 3 and all 30 cycles give the same results, and trials
    # that fail inside a block still equal their run_memory re-runs
    g, prof = i1
    model = _ACROSS_WORDS["algorithm_a", kind]
    cycles, trials = 30, 70
    cfg = RunConfig(g, "algorithm_a", model, cycles, profile=prof)
    results = []
    for size in (1, 3, cycles):
        monkeypatch.setattr(memsim, "_BLOCK_BYTES", block_bytes(g, trials, size))
        res = fm.monte_carlo(cfg, trials, 5)
        results.append(res)
        inside = [t for t, c in enumerate(res.failure_cycle_by_trial)
                  if c is not None and (c - 1) % size]
        assert len(inside) >= (3 if size > 1 else 0)
        for t in inside[:3]:
            assert res.reports[t] == fm.run_memory(g, "algorithm_a", model,
                                                   cycles, (5, t), prof)
    assert results[0] == results[1] == results[2]


# sha256 of the criterion-3 shape (both tolerance instances, all four
# strategies, accounting on, 100 trials x 20 cycles), taken before block
# draws existed
_DESK_DIGEST = "bd6c8fd531078cef0bd22009bdab0b923fc774f776172b3692f5bada77d728b8"


def test_desk_digests_do_not_move_with_block_size(monkeypatch):
    shapes = [(build_instance(inst), alpha_m) for inst, alpha_m in
              ((CERTIFIED_INSTANCES[0], 1.5 / 36), (CERTIFIED_INSTANCES[2], 0.0251))]
    for size in (1, 3, 20):
        digest = hashlib.sha256()
        for (g, prof), alpha_m in shapes:
            monkeypatch.setattr(memsim, "_BLOCK_BYTES", block_bytes(g, 100, size))
            budget = fm.AdversarialBudget(alpha_m, 1e-6, 1e-6)
            for strategy in fm.faults.STRATEGIES:
                cfg = RunConfig(g, "algorithm_a", fm.AdversarialModel(budget, strategy),
                                20, profile=prof, check_accounting=True)
                res = fm.monte_carlo(cfg, 100, 2025)
                digest.update(json.dumps([res.to_json_obj(), [
                    r.to_json_obj() for r in res.reports]]).encode())
        assert digest.hexdigest() == _DESK_DIGEST


def test_accounting_violation_in_second_word_names_lowest_trial(i1):
    # the slots of the first word run a trial that passes cycle 2's
    # accounting, the second word's violate it from its third slot on: the
    # error must name slot 66, the lowest violating trial of that cycle
    g, prof = i1
    model = adversarial(alpha_m=1.5 / 36, strategy="random")

    def violates(t):
        try:
            fm.run_memory(g, "none", model, 2, (3, t), prof, check_accounting=True)
        except AccountingError:
            return True
        return False

    quiet, loud = [], []
    t = 0
    while not quiet or len(loud) < 4:
        (loud if violates(t) else quiet).append(t)
        t += 1
    keys = fm.faults.trial_keys(3, np.array(quiet[:1] * 66 + loud[:4]))
    cfg = RunConfig(g, "none", model, 20, profile=prof, check_accounting=True)
    with pytest.raises(AccountingError, match=r"^cycle 2, trial 66: corrupt count"):
        memsim._simulate(cfg, keys)


def test_packed_state_is_never_repacked(i1, monkeypatch):
    # the registers ('tk': the bit-copies and their readouts) stay packed
    # from the first cycle to the last: without record_states nothing is
    # packed or unpacked per cycle, and the one pack of a run is its
    # alive flags
    g, prof = i1
    calls = {"pack_rows": 0, "unpack_rows": 0}

    def counted(name):
        real = getattr(memsim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(memsim, name, counted(name))
    models = {"algorithm_a": adversarial(1.5 / 36, 1.5 / 432, strategy="repeat"),
              "tk": independent(0.0003, 3e-5, 3e-4)}
    for runs, (decoder, model) in enumerate(models.items(), 1):
        res = fm.monte_carlo(RunConfig(g, decoder, model, 100, profile=prof),
                             70, 2)
        assert 0 < res.failures < 70 and len(res.recorded) == 100
        assert calls == {"pack_rows": runs, "unpack_rows": 0}
    # the patch is seen: recording the states unpacks them
    fm.run_memory(g, "tk", models["tk"], 3, 1, prof, record_states=True)
    assert calls["unpack_rows"] > 0


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


@pytest.mark.parametrize("span, kind",
                         [(1, kind) for kind in fm.faults.STRATEGIES + ("independent",)]
                         + [(2, kind) for kind in ("random", "greedy", "independent")])
@pytest.mark.parametrize("decoder", ("algorithm_a", "tk", "none"))
@settings(max_examples=8)
@given(data=st.data(), trials=st.integers(1, 6), root=st.integers(0, 2**40),
       cycles=st.integers(1, 12),
       params=st.sampled_from(((24, 3, 6), (20, 4, 5), (24, 4, 6))),
       graph_seed=st.integers(0, 4))
def test_monte_carlo_row_equals_run_memory(decoder, span, kind, data, trials,
                                           root, cycles, params, graph_seed):
    # spans of 1 and 2 cycles flush after every cycle or every other one,
    # where the default span would hold all of at most 12 cycles; span 2
    # runs only the cycle-dependent kinds (random, greedy, independent),
    # since repeat and cluster always flush every cycle
    g = small_graph(params, graph_seed)
    model = data.draw(fault_models(g, kind, decoder != "none"))
    cfg = RunConfig(g, decoder, model, cycles)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memsim, "_SPAN_CYCLES", span)
        res = fm.monte_carlo(cfg, trials, root)
        for t in range(trials):
            rep = fm.run_memory(g, decoder, model, cycles, (root, t))
            assert res.reports[t] == rep
            assert res.failure_cycle_by_trial[t] == rep.failure_cycle
            ran = rep.cycles_executed
            assert res.corrupt[:, t].tolist() == [
                rep.corrupt_pre + [-1] * (cycles - ran),
                rep.corrupt_post + [-1] * (cycles - ran)]


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


def test_reports_are_built_from_the_counts(i1):
    # the result keeps the engine's counts in the smallest signed type
    # that holds -1 .. n, and builds each trial's report from them on
    # first use; neither the counts nor the reports are compared
    g, prof = i1
    cfg = RunConfig(g, "algorithm_a", independent(p_m=0.015), 10, profile=prof)
    res = fm.monte_carlo(cfg, 5, 2)
    assert res.corrupt.shape == (2, 5, 10) and res.corrupt.dtype == np.int8
    assert [memsim.count_dtype(n) for n in (127, 128, 32768, 2**31)] \
        == [np.int8, np.int16, np.int32, np.int64]
    assert "reports" not in vars(res)
    assert res.reports == [fm.run_memory(g, "algorithm_a", cfg.fault_model, 10,
                                         (2, t), prof) for t in range(5)]
    assert res.reports is res.reports
    assert 0 < res.failures < 5
    assert [r.failure_cycle for r in res.reports] == res.failure_cycle_by_trial
    assert res == dataclasses.replace(res, corrupt=None, config=None)


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


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(1, 2)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 < 0.1
    with pytest.raises(ValueError):
        wilson_interval(3, 2)


@pytest.mark.parametrize("confidence", [1.5, -0.2, 0.0, 1.0, float("nan")])
def test_confidence_outside_unit_interval_rejected(i1, monkeypatch, confidence):
    with pytest.raises(ValueError, match="confidence"):
        wilson_interval(3, 10, confidence)

    def never(*args, **kwargs):
        raise AssertionError("simulated before checking the confidence")

    monkeypatch.setattr(memsim, "_simulate", never)
    cfg = RunConfig(i1[0], "algorithm_a", adversarial(), 5, profile=i1[1])
    with pytest.raises(ValueError, match="confidence"):
        fm.monte_carlo(cfg, 4, 1, confidence=confidence)


def test_wilson_interval_bitwise_equals_norm_ppf_formula():
    from scipy.stats import norm

    def reference(successes, total, confidence):
        z = float(norm.ppf(0.5 + confidence / 2.0))
        phat = successes / total
        denom = 1.0 + z * z / total
        center = (phat + z * z / (2 * total)) / denom
        half = z * math.sqrt(phat * (1 - phat) / total
                             + z * z / (4 * total * total)) / denom
        lo = 0.0 if successes == 0 else max(0.0, center - half)
        hi = 1.0 if successes == total else min(1.0, center + half)
        return lo, hi

    for confidence in (0.8, 0.9, 0.95, 0.99, 0.999):
        for successes, total in ((0, 1), (1, 2), (0, 50), (3, 10), (7, 7),
                                 (17, 250), (249, 250), (1, 100000)):
            got = wilson_interval(successes, total, confidence)
            want = reference(successes, total, confidence)
            assert [x.hex() for x in got] == [x.hex() for x in want]


def test_ndtri_port_bitwise_equals_scipy():
    # scipy is only the oracle here: the package's quantile must give the
    # same doubles as scipy.special.ndtri in the central branch
    # (|y - 1/2| <= 1/2 - e^-2), in both tail branches (x = sqrt(-2 log y)
    # below and above 8, i.e. y above and below e^-32) down to 1e-300, at
    # the branch edges, mirrored about 1/2, and at 0.5 + c/2 for the
    # confidences c that wilson_interval asks for
    from scipy.special import ndtri

    rng = np.random.default_rng(13)
    edge = math.exp(-2)
    lower = np.concatenate([
        np.linspace(0.0, 0.5, 20001),
        rng.uniform(edge, 0.5, 5000),
        10.0 ** -rng.uniform(0.0, 300.0, 10000),
        np.logspace(-300, -0.87, 4000),
        [1e-300, 5e-324, math.exp(-32), edge, 0.5 - edge],
        np.nextafter(edge, [0.0, 1.0]),
        np.nextafter(math.exp(-32), [0.0, 1.0]),
    ])
    confidence = np.linspace(0.0, 1.0, 100001)
    y = np.concatenate([lower, 1.0 - lower, 0.5 + confidence / 2.0,
                        [0.5, 0.0, 1.0, np.nextafter(1.0, 0.0)]])
    want = ndtri(y)
    assert np.isneginf(want).any() and np.isposinf(want).any()
    assert -want[np.isfinite(want)].min() > 37  # y = 1e-300 reached
    got = [memsim._ndtri(v).hex() for v in y.tolist()]
    assert got == [w.hex() for w in want.tolist()]


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


def test_run_memory_unchanged_by_skipped_gate_masks(i1, monkeypatch):
    # a class without a fault in a block passes None to the round, and a
    # quiet cycle of a block with faults passes all-zero words: swapping
    # each for the other must leave every report unchanged, under blocks
    # of the whole run and of one cycle
    g, prof = i1
    model = independent(p_m=0.004, p_xor=2e-4, p_maj=1e-3)
    cases = [(decoder, seed) for decoder in ("algorithm_a", "tk")
             for seed in range(4)]
    draw = memsim._draw_block
    seen = {"none": 0, "zero": 0}

    def swapped_block(*args):
        block = []
        for reg, *gates in draw(*args):
            for i, shape in enumerate(((1, g.gamma, g.n), (1, g.n))):
                if gates[i] is None:
                    seen["none"] += 1
                    gates[i] = np.zeros(shape, np.uint64)
                elif not gates[i].any():
                    seen["zero"] += 1
                    gates[i] = None
            block.append((reg, *gates))
        return block

    for block_bytes in (memsim._BLOCK_BYTES, 1):
        monkeypatch.setattr(memsim, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(memsim, "_draw_block", draw)
        kept = [fm.run_memory(g, decoder, model, 200, seed, prof)
                for decoder, seed in cases]
        monkeypatch.setattr(memsim, "_draw_block", swapped_block)
        fed = [fm.run_memory(g, decoder, model, 200, seed, prof)
               for decoder, seed in cases]
        assert fed == kept
    assert seen["none"] > 0 and seen["zero"] > 0


# -- failure test on changed differences only ------------------------------


def _budget(g, registers, xor_gates, maj_gates, strategy):
    """An adversarial model with the given fault counts per use."""
    total_xor = g.n * g.gamma * (g.rho - 2)
    return adversarial((registers + 0.5) / g.n, (xor_gates + 0.5) / total_xor,
                       (maj_gates + 0.5) / g.n, strategy=strategy)


# (registers, xor gates, majority gates) per use, or independent rates, on
# the (40,4,5) graph-seed-13 instance: over 60 cycles of root seed 5 each
# leaves residuals that persist for several cycles and fails some trials
_PERSISTING = {
    ("algorithm_a", "repeat"): (1, 3, 1),
    ("algorithm_a", "cluster"): (3, 4, 1),
    ("algorithm_a", "random"): (1, 1, 1),
    ("algorithm_a", "independent"): (0.006, 3e-4, 0.01),
    ("tk", "repeat"): (0, 1, 1),
    ("tk", "cluster"): (2, 2, 2),
    ("tk", "random"): (0, 1, 1),
    ("tk", "independent"): (0.001, 1e-4, 6e-3),
}


@pytest.mark.parametrize("decoder, kind", sorted(_PERSISTING))
def test_failure_cycle_is_first_failing_post_state(decoder, kind, monkeypatch):
    # the loop decodes only suspects whose difference changed: each
    # trial's failure cycle must still be the first recorded post state
    # that the uint8 decode places outside the class, and every nonzero
    # difference a trial reaches must have been decoded for that trial
    g, _prof = build_instance(CERTIFIED_INSTANCES[2])
    rates = _PERSISTING[decoder, kind]
    model = independent(*rates) if kind == "independent" \
        else _budget(g, *rates, strategy=kind)
    cfg = RunConfig(g, decoder, model, 60)
    cap = detect_cap(None, g.n)
    real = memsim._failed_bits
    decoded_diffs = []

    def recording(g, diff, suspects, cap):
        # the rows are (cycle, word) pairs: bit b of row r is state
        # 64 * r + b, trial 64 * (r % W) + b of a run of W trial words
        words = len(decoded_diffs) // 64
        rows = fm.decoders.unpack_rows(diff, 64 * diff.shape[0])
        for s in np.flatnonzero(fm.decoders.unpack_bits(suspects)):
            decoded_diffs[s // 64 % words * 64 + s % 64].add(rows[s].tobytes())
        return real(g, diff, suspects, cap)

    monkeypatch.setattr(memsim, "_failed_bits", recording)
    persisted = failures = 0
    for trials in (1, 65, 130):
        decoded_diffs[:] = [set() for _ in range(64 * -(-trials // 64))]
        corrupt, failure_cycle, recorded = memsim._simulate(
            cfg, fm.faults.trial_keys(5, np.arange(trials)), record_states=True)
        executed = corrupt[1] >= 0
        post = recorded[1]  # the stored word is zero: post is the difference
        for t, cycle in zip(*np.nonzero(executed & post.any(axis=2))):
            assert post[t, cycle].tobytes() in decoded_diffs[t]
        decoded, _rounds, converged = fm.decoders.parallel_bitflip_decode_many(
            g, post[executed], cap)
        outside = np.zeros(executed.shape, dtype=bool)
        outside[executed] = ~converged | decoded.any(axis=1)
        first = np.where(outside.any(axis=1), outside.argmax(axis=1) + 1, -1)
        assert np.array_equal(failure_cycle, first)
        persisted += int((executed[:, 1:] & post[:, 1:].any(axis=2)
                          & (post[:, 1:] == post[:, :-1]).all(axis=2)).sum())
        failures += int((failure_cycle >= 0).sum())
    assert persisted > 0 and failures > 0


def test_detector_decodes_only_changed_differences(i1, monkeypatch):
    # four repeated XOR faults leave a residual that persists from cycle 1
    # on (seed 2, the first of seeds 0-29 whose one-trial run keeps a
    # residual for all 30 cycles and survives): the failure test runs only
    # in cycles where a suspect's difference changed, not in every cycle
    g, prof = i1
    calls = []
    real = memsim._failed_bits

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(memsim, "_failed_bits", counted)
    rep = fm.run_memory(g, "algorithm_a", _budget(g, 0, 4, 0, "repeat"), 30, 2,
                        prof, record_states=True)
    post = np.array(rep.states_post)
    prev = np.vstack([np.zeros((1, g.n), np.uint8), post[:-1]])
    suspect = post.any(axis=1)
    changed = suspect & (post != prev).any(axis=1)
    assert not rep.failed and suspect.all()
    assert len(calls) <= changed.sum() < suspect.sum()


# rates on the (40,4,5) instance at which trials fail at scattered cycles
# inside the corrupt-count spans of a two-word run; under 'none' and the
# 'tk' adversary every trial fails before the run ends
_SPANNED = {
    ("algorithm_a", "adversarial"): adversarial(2.5 / 40, 1.5 / 480),
    ("algorithm_a", "independent"): independent(0.01, 1e-3, 1e-3),
    ("tk", "adversarial"): adversarial(1.5 / 40, 1.5 / 480),
    ("tk", "independent"): independent(0.002, 1e-4, 1e-4),
    ("none", "adversarial"): adversarial(1.5 / 40),
    ("none", "independent"): independent(0.001),
}


@pytest.mark.parametrize("decoder, kind", sorted(_SPANNED))
def test_rows_do_not_depend_on_where_counts_are_taken(decoder, kind, monkeypatch):
    # corrupt counts are taken once per span of cycles, and under a byte
    # bound of 16 KB a one-trial run has a longer span than a two-word
    # run: failures inside a span must leave every row equal to its
    # run_memory re-run
    monkeypatch.setattr(memsim, "_SPAN_BYTES", 1 << 14)
    g, prof = build_instance(CERTIFIED_INSTANCES[2])
    model = _SPANNED[decoder, kind]
    cycles, trials = 120, 65
    span = memsim._SPAN_BYTES // (16 * 2 * g.n)
    assert span < memsim._SPAN_BYTES // (16 * g.n) < cycles
    res = fm.monte_carlo(RunConfig(g, decoder, model, cycles, profile=prof),
                         trials, 5)
    failed = [c for c in res.failure_cycle_by_trial if c is not None]
    assert any(c % span for c in failed)
    assert res.reports == [fm.run_memory(g, decoder, model, cycles, (5, t), prof)
                           for t in range(trials)]


# sha256 of monte_carlo's payload and reports (100 cycles, root seed 5
# unless the case names another) on the (40,4,5) graph-seed-13 instance,
# taken from the loop that tests for failure every cycle (_SPAN_CYCLES =
# 1): per decoder and model, trials fail at scattered cycles; every trial
# of "all-fail" fails by cycle 14; "accounting" passes its check with two
# failures, and "accounting-error" holds the message it raises at root
# seed 0, the first of seeds 0-29 whose run breaks the bound
_SPAN_CASES = {
    "algorithm_a-adversarial": ("algorithm_a", adversarial(2.5 / 40, 1.5 / 480), 65, False),
    "algorithm_a-greedy": ("algorithm_a", adversarial(2.5 / 40, 1.5 / 480,
                                                      strategy="greedy"), 65, False),
    "algorithm_a-independent": ("algorithm_a", independent(0.01, 1e-3, 1e-3), 65, False),
    "tk-adversarial": ("tk", adversarial(1.5 / 40, 1.5 / 480), 65, False),
    "tk-independent": ("tk", independent(0.002, 1e-4, 1e-4), 65, False),
    "none-adversarial": ("none", adversarial(1.5 / 40), 65, False),
    "none-independent": ("none", independent(0.001), 65, False),
    "all-fail": ("algorithm_a", independent(0.05), 64, False),
    "accounting": ("algorithm_a", adversarial(2.5 / 40, 1.5 / 480, strategy="repeat"),
                   65, True),
    "accounting-error": ("tk", adversarial(1.5 / 40, 3.5 / 480), 65, True, 0),
}
_SPAN_DIGESTS = {
    "algorithm_a-adversarial": "2527570b56f8bc848784b2b101f6b9ef10a7e5aedaba68150c4894a2d21a3a17",
    "algorithm_a-greedy": "8fd5e747170cce8a363ea64b688a98263b55d15e5fd6abeedd6093ba74f9a6a2",
    "algorithm_a-independent": "295b41f15117f39a1e2c6cb1ac44b3f9b2cc3aeb610dae2e65ea66ad32c8644c",
    "tk-adversarial": "517da055dec29238a16212eb365ded65865125d1ff5307731e5616f38f5aff09",
    "tk-independent": "9194b842cfa7919ba69ff0caf3b58db439a7c3d14d7af47e250450bbde9e5129",
    "none-adversarial": "32a34c7c2a1cb9e0945c89de85f642da7a2320ef9d481ba52462e34e44840d79",
    "none-independent": "b152c0d6e14b25a387cf89fddb642238812bd82f9e4b36a085f7b2a8c0ce818f",
    "all-fail": "f4577a1fccb5b3ce5b0b2150b448428b31bbb2d2651829a69261ced28533ddbc",
    "accounting": "2d4b34f0eb11f9c0266e52237955e25dc02e37a4025989664694d409a8f7fa58",
    "accounting-error": "cycle 6, trial 10: corrupt count 6 not below bound 5.52 "
                        "(previous count 1)",
}


def _result_digest(res):
    """sha256 of monte_carlo's payload and reports."""
    return hashlib.sha256(json.dumps([res.to_json_obj(), [
        r.to_json_obj() for r in res.reports]]).encode()).hexdigest()


def _span_results():
    """Per _SPAN_CASES entry, the digest of its run or the accounting
    message it raises."""
    g, prof = build_instance(CERTIFIED_INSTANCES[2])
    got = {}
    for name, (decoder, model, trials, accounting, *root) in _SPAN_CASES.items():
        cfg = RunConfig(g, decoder, model, 100, profile=prof,
                        check_accounting=accounting)
        try:
            got[name] = _result_digest(fm.monte_carlo(
                cfg, trials, root[0] if root else 5))
        except AccountingError as exc:
            got[name] = str(exc)
    return got


@functools.lru_cache(maxsize=1)
def _span_reference():
    """_span_results of the loop that tests for failure every cycle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memsim, "_SPAN_CYCLES", 1)
        return _span_results()


@pytest.mark.parametrize("span_cycles, span_bytes", (
    (1, memsim._SPAN_BYTES), (3, memsim._SPAN_BYTES),
    (memsim._SPAN_CYCLES, memsim._SPAN_BYTES), (10**6, 1 << 40)),
    ids=("one", "three", "default", "whole-run"))
def test_results_do_not_depend_on_the_span(span_cycles, span_bytes, monkeypatch):
    # failures are found, trials retired and counts taken once per span:
    # failure cycles, counts and the accounting verdict must not move with
    # its length, from one cycle to the whole run
    want = _span_reference()
    monkeypatch.setattr(memsim, "_SPAN_CYCLES", span_cycles)
    monkeypatch.setattr(memsim, "_SPAN_BYTES", span_bytes)
    got = _span_results()
    assert got == want
    assert got == _SPAN_DIGESTS
    # the accounting cases pass their check and break it, as chosen
    assert [got[name].startswith("cycle ") for name in ("accounting", "accounting-error")] \
        == [False, True]


# -- periodic exit of cycle-independent models ------------------------------


def _periodic_graph(n):
    """The (36,3,6) seed-7, (40,4,5) seed-13 or (200,3,6) seed-0 girth-6
    graph."""
    params, seed = {36: ((36, 3, 6), 7), 40: ((40, 4, 5), 13),
                    200: ((200, 3, 6), 0)}[n]
    if (params, seed, "girth-6") not in _GRAPHS:
        _GRAPHS[params, seed, "girth-6"] = fm.build_random_regular(
            fm.CodeParams(*params), seed, reject_4cycles=True)
    return _GRAPHS[params, seed, "girth-6"]


def _count_calls(monkeypatch, names):
    """Patch each memsim name in ``names`` with a wrapper counting its
    calls into the returned list (one total)."""
    calls = [0]

    def counted(real):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(memsim, name, counted(getattr(memsim, name)))
    return calls


_ROUNDS = ("algorithm_a_round_packed", "tk_round_packed")

# (n, decoder, strategy, (registers, xor gates, majority gates) per use):
# each runs 65 trials of root seed 5 for 100 cycles without a profile, on
# the graph _periodic_graph(n).  All but tk-cluster and none-cluster fail
# some trials, and every alive trial's state recurs long before cycle
# 100.  "gates-period-4", the first graph seed of (200,3,6) girth-6 graphs
# whose survivors under one register and two XOR faults include one of
# period >= 2 (trial 53, period 4), makes the loop find a period against
# a snapshot other than cycle 0's.
_PERIODIC_CASES = {
    "algorithm_a-repeat": (36, "algorithm_a", "repeat", (1, 2, 0)),
    "algorithm_a-cluster": (40, "algorithm_a", "cluster", (3, 2, 1)),
    "tk-repeat": (40, "tk", "repeat", (1, 2, 0)),
    "tk-cluster": (40, "tk", "cluster", (1, 2, 1)),
    "none-repeat": (40, "none", "repeat", (3, 0, 0)),
    "none-cluster": (36, "none", "cluster", (1, 0, 0)),
    "gates-period-4": (200, "algorithm_a", "repeat", (1, 2, 0)),
}
# sha256 of monte_carlo's payload and reports, and ("states") of trial
# 53's report and recorded states, taken from the loop that runs every
# cycle up to the last trial's failure (_EveryCycle)
_PERIODIC_DIGESTS = {
    "algorithm_a-cluster": "8d39e7832a835f94c1f256fb7e7a72164964cde2a830559afdef075e7625e20e",
    "algorithm_a-repeat": "b68a88782a7cba679b2f6d0e061ecd5b0b9e76ebb647e45b7dfd7d3ccac17dc5",
    "gates-period-4": "5e1d4b686854928c61bd55ad205bb55473c78a0158ab0d0def3ae47dd3c4fd73",
    "none-cluster": "f60b1d932cd08fdb690fc9b4cfb2651eb04b8fd1867deee6681557cc82e2ffcb",
    "none-repeat": "fa49e34d28c5f0404a4d671ff5fbfdc490aebc217104feeb4cfd54af86ea4b54",
    "tk-cluster": "34be875a94973a8caeb9452a877c950be993b037c8c621e3addf1b9b5edad426",
    "tk-repeat": "8d88c5ea9903d81566cfcf9c3a14a5583c3b1451b30fd9461ad0c554acf679a0",
    "states": "04497fa00126921c5bdfeafa3f4e8c9db15da929bee6534bcc8c693249af469e",
}


def _periodic_config(name, cycles=100, faults=None):
    n, decoder, strategy, case_faults = _PERIODIC_CASES[name]
    faults = faults or case_faults
    g = _periodic_graph(n)
    return RunConfig(g, decoder, _budget(g, *faults, strategy), cycles)


@dataclasses.dataclass(frozen=True)
class _EveryCycle(fm.AdversarialModel):
    """The wrapped budget's and strategy's plans, reported cycle-dependent,
    so the loop runs every cycle and looks for no period.  repeat and
    cluster read no cycle, so a block of B cycles is B copies of the
    keys' plans."""

    cycle_dependent = True

    def draw_batch(self, g, keys, cycle, observed):
        keys = np.tile(np.asarray(keys, dtype=np.uint64), np.size(cycle))
        return super().draw_batch(g, keys, cycle, observed)


def _every_cycle(cfg):
    model = cfg.fault_model
    return dataclasses.replace(cfg, fault_model=_EveryCycle(model.budget,
                                                            model.strategy))


@pytest.mark.parametrize("name", sorted(_PERIODIC_CASES))
def test_periodic_exit_is_exact(name, monkeypatch):
    # repeat and cluster apply one map every cycle, so the loop stops once
    # every alive trial's state has recurred and fills in the remaining
    # cycles: payload and reports must equal those of the loop that runs
    # them, and fewer cycles must run, each of them flushed ('none' has
    # no round to count, so its flushes are counted)
    cfg = _periodic_config(name)
    want = fm.monte_carlo(_every_cycle(cfg), 65, 5)
    rounds = _count_calls(monkeypatch, _ROUNDS)
    flushes = _count_calls(monkeypatch, ("popcounts",))
    res = fm.monte_carlo(cfg, 65, 5)
    assert res.to_json_obj() == want.to_json_obj() and res.reports == want.reports
    assert _result_digest(res) == _PERIODIC_DIGESTS[name]
    assert res.failures < 65
    if cfg.decoder == "none":
        assert flushes[0] < cfg.cycles
    else:
        assert 0 < rounds[0] < cfg.cycles
        assert flushes[0] == rounds[0]


# (last failure cycle, round calls) at root seed 5.  tk-cluster fails no
# trial at its one register per use (root seeds 5-3004), so it runs with
# two, at which every trial fails by cycle 4
_LAST_FAILURE = {
    "algorithm_a-repeat": (2, 2),
    "tk-repeat": (5, 5),
    "algorithm_a-cluster": (2, 5),
    "tk-cluster": (4, 4),
}
_FAILING_FAULTS = {"tk-cluster": (2, 2, 1)}


@pytest.mark.parametrize("name", sorted(_LAST_FAILURE))
def test_periodic_exit_does_not_wait_for_failed_trials(name, monkeypatch):
    # a run of a cycle-independent model flushes every cycle, so a failed
    # trial is retired in the cycle it fails and the loop stops at the
    # last failure (or when the survivors recur), not at the end of the
    # 32-cycle span of a cycle-dependent model
    cfg = _periodic_config(name, faults=_FAILING_FAULTS.get(name))
    rounds = _count_calls(monkeypatch, _ROUNDS)
    res = fm.monte_carlo(cfg, 65, 5)
    last = max(c for c in res.failure_cycle_by_trial if c is not None)
    assert (last, rounds[0]) == _LAST_FAILURE[name]


def test_periodic_exit_fills_recorded_states(monkeypatch):
    # the recorded states of the filled cycles repeat the period: trial 53
    # of "gates-period-4" settles into a cycle of four states
    cfg = _periodic_config("gates-period-4")
    want = fm.run_memory(cfg.graph, cfg.decoder, _every_cycle(cfg).fault_model,
                         cfg.cycles, (5, 53), record_states=True)
    rounds = _count_calls(monkeypatch, _ROUNDS)
    rep = fm.run_memory(cfg.graph, cfg.decoder, cfg.fault_model, cfg.cycles,
                        (5, 53), record_states=True)
    post = np.array(rep.states_post)
    assert not rep.failed and rounds[0] < cfg.cycles
    assert (post[-4:] == post[-8:-4]).all() and (post[-1] != post[-2]).any()
    assert (post[-2:] != post[-4:-2]).any()  # the period is 4, not 2
    assert rep.to_json_obj() == want.to_json_obj()
    assert np.array_equal(rep.states_pre, want.states_pre)
    assert np.array_equal(rep.states_post, want.states_post)
    assert hashlib.sha256(json.dumps(rep.to_json_obj()).encode()
                          + np.array(rep.states_pre).tobytes()
                          + post.tobytes()).hexdigest() == _PERIODIC_DIGESTS["states"]


@pytest.mark.parametrize("model", (adversarial(2.5 / 40, 1.5 / 480),
                                   independent(0.002, 1e-4, 1e-4)),
                         ids=("random", "independent"))
def test_cycle_dependent_models_run_every_cycle(model, monkeypatch):
    # a cycle-dependent model draws new plans each cycle, so no state
    # recurrence ends its loop: with survivors left it runs one round per
    # cycle, as the loop always did
    g = _periodic_graph(40)
    rounds = _count_calls(monkeypatch, _ROUNDS)
    res = fm.monte_carlo(RunConfig(g, "algorithm_a", model, 100), 65, 5)
    assert res.failures < 65 and rounds[0] == 100


def test_accounting_violation_in_filled_cycles(i1, monkeypatch):
    # at epsilon = 1/4 the contraction is 0, so the accounting bound is the
    # spend, one register flip here; the refresh removes the one repeated
    # flip every cycle, so every trial's state recurs at cycle 1, the loop
    # stops there, and the pair of cycles (1, 2) that breaks the bound is
    # first met in the filled cycles: the message must be the one the
    # loop raised when it ran cycle 2
    g, prof = i1
    model = fm.AdversarialModel(fm.AdversarialBudget(1 / 36, 0.0, 0.0), "repeat")
    assert model.budget.register_count(g) == 1
    rounds = _count_calls(monkeypatch, _ROUNDS)
    cfg = RunConfig(g, "algorithm_a", model, 50, profile=prof, check_accounting=True)
    with pytest.raises(AccountingError) as exc:
        fm.monte_carlo(cfg, 65, 5)
    assert str(exc.value) == ("cycle 2, trial 0: corrupt count 1 not below "
                              "bound 1 (previous count 1)")
    assert rounds[0] == 1
