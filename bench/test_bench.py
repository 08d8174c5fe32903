"""Tests of the benchmark itself: every output check accepts a correct
result and rejects a deliberately wrong one, and the tracer's self
times and wrapping behave.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import faultmem as fm  # noqa: E402
from faultmem import cli, memsim  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """A certified instance under an independent model that fails often,
    so re-run checks see both outcomes."""
    g = fm.build_random_regular(fm.CodeParams(40, 4, 5), 13, reject_4cycles=True)
    prof = fm.ExpansionProfile(2.9 / 40, 4, 0.12)
    model = fm.IndependentModel(fm.IndependentRates(0.03, 1e-3, 1e-3))
    cfg = memsim.RunConfig(g, "algorithm_a", model, 30, profile=prof)
    reports = [memsim.run_memory(g, "algorithm_a", model, 30, (5, t), prof)
               for t in range(4)]
    return cfg, reports


def fake_result(**kw):
    base = dict(trials=4, failures=0, failure_rate=0.0, ci_low=0.0, ci_high=1.0,
                confidence=0.95, failed_by_trial=[False] * 4,
                failure_cycle_by_trial=[None] * 4, mean_alpha_pre=[0.02],
                max_alpha_pre=[0.025], mean_alpha_post=[0.0],
                max_alpha_post=[0.0], recorded=[4])
    base.update(kw)
    return memsim.MonteCarloResult(**base)


# -- desk-adversarial ---------------------------------------------------------


def test_desk_result_accepts_clean_run():
    assert checks.desk_result(fake_result(), 0.05) == []


@pytest.mark.parametrize("wrong", [
    dict(failures=1),                      # a flipped failure count
    dict(max_alpha_pre=[0.0]),             # no decay injected
    dict(max_alpha_pre=[0.05]),            # reached the correctable fraction
])
def test_desk_result_rejects(wrong):
    assert checks.desk_result(fake_result(**wrong), 0.05)


# -- binomial band ------------------------------------------------------------


def test_band_accepts_reference_and_rejects_far_counts():
    assert checks.failures_in_band(88, 100, 0.879, "tk") == []
    assert checks.failures_in_band(12, 100, 0.879, "tk")   # counts swapped
    assert checks.failures_in_band(100 - 2, 100, 0.021, "algorithm_a")
    assert checks.failures_in_band(-1, 100, 0.021, "missing")
    assert checks.failures_in_band(2, 64, 0.0, "repeat") == []
    assert checks.failures_in_band(3, 64, 0.0, "repeat")


def test_reference_rates_are_stored():
    for workload, labels in (("large-cached", ("repeat", "cluster")),
                             ("paired-tk", ("algorithm_a", "tk"))):
        for label in labels:
            assert 0.0 <= checks.reference(workload, label) <= 1.0


# -- re-run against run_memory -------------------------------------------------


def test_rerun_matches_real_engine(small):
    cfg, reports = small
    batch = memsim.monte_carlo(cfg, 4, 5)
    assert any(r.failed for r in reports) and not all(r.failed for r in reports)
    assert checks.rerun_matches(batch, reports) == []
    assert checks.prefix_matches(batch, reports, cfg.cycles) == []


def test_rerun_rejects_wrong_results(small):
    cfg, reports = small
    batch = memsim.monte_carlo(cfg, 4, 5)
    flipped = [not f for f in batch.failed_by_trial]
    assert checks.rerun_matches(
        dataclasses.replace(batch, failed_by_trial=flipped), reports)
    moved = [None if c else 1 for c in batch.failure_cycle_by_trial]
    assert checks.rerun_matches(
        dataclasses.replace(batch, failure_cycle_by_trial=moved), reports)
    assert checks.prefix_matches(
        dataclasses.replace(batch, failure_cycle_by_trial=moved), reports,
        cfg.cycles)
    bumped = [x + 1 / 40 for x in batch.max_alpha_pre]
    assert checks.rerun_matches(
        dataclasses.replace(batch, max_alpha_pre=bumped), reports)
    shifted = [x * (1 + 1e-9) for x in batch.mean_alpha_post]
    assert checks.rerun_matches(
        dataclasses.replace(batch, mean_alpha_post=shifted), reports)
    assert checks.rerun_matches(
        dataclasses.replace(batch, recorded=batch.recorded[:-1]), reports)


def test_failed_trial_must_reproduce(small):
    cfg, reports = small
    t, rep = next((t, r) for t, r in enumerate(reports) if r.failed)
    assert checks.failure_reproduced(rep, t, rep.failure_cycle) == []
    assert checks.failure_reproduced(rep, t, rep.failure_cycle + 1)


def test_prefix_only_checks_the_compared_cycles(small):
    cfg, reports = small
    short = [memsim.run_memory(cfg.graph, cfg.decoder, cfg.fault_model, 3,
                               (5, t), cfg.profile) for t in range(4)]
    full = memsim.monte_carlo(cfg, 4, 5)
    assert checks.prefix_matches(full, short, 3) == []


# -- compare-tk output ---------------------------------------------------------


@pytest.fixture(scope="module")
def paired_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paired")
    config = tmp / "cfg.json"
    config.write_text(json.dumps({
        "code": workloads.PairedTk.CODE, "decoder": "algorithm_a",
        "fault_model": {"type": "independent", "p_m": 0.03, "p_xor": 1e-3,
                        "p_maj": 1e-3},
        "profile": workloads.PairedTk.PROFILE, "cycles": 30, "trials": 4,
        "root_seed": 5}))
    assert cli.main(["compare-tk", "--config", str(config), "--out",
                     str(tmp / "p.csv"), "--summary", str(tmp / "s.json")]) == 0
    return (cli.load_experiment_config(config), (tmp / "p.csv").read_text(),
            json.loads((tmp / "s.json").read_text()))


def test_paired_csv_checks_accept_real_output(paired_output):
    cfg, text, summary = paired_output
    traces = checks.parse_paired_csv(text, ("algorithm_a", "tk"))
    for decoder in ("algorithm_a", "tk"):
        assert checks.trace_agrees(traces[decoder],
                                   summary[decoder]["failures"], 4, decoder) == []
        for t in range(4):
            rep = memsim.run_memory(cfg.graph, decoder, cfg.fault_model, 30,
                                    (5, t), cfg.profile)
            assert checks.trace_matches_report(traces[decoder][t], rep, "x") == []


def test_paired_csv_checks_reject_wrong_output(paired_output):
    cfg, text, summary = paired_output
    traces = checks.parse_paired_csv(text, ("algorithm_a", "tk"))
    tk = traces["tk"]
    failures = summary["tk"]["failures"]
    assert checks.trace_agrees(tk, failures + 1, 4, "tk")      # flipped count
    assert checks.trace_agrees({t: tk[t] for t in (0, 1, 2)}, failures, 4, "tk")
    rows = list(tk[0])
    c, pre, post, failed = rows[-1]
    rows[-1] = (c, pre, post, 1 - failed)
    rep = memsim.run_memory(cfg.graph, "tk", cfg.fault_model, 30, (5, 0),
                            cfg.profile)
    assert checks.trace_matches_report(rows, rep, "tk trial 0")
    assert checks.trace_agrees({**tk, 0: rows}, failures, 4, "tk")


# -- determinism ---------------------------------------------------------------


def test_repeat_digest_mismatch_fails_the_operation():
    same = workloads.OpOutput(b"abc", 1, {})
    other = workloads.OpOutput(b"abd", 1, {})
    ledger = run.Ledger()
    run.check_repeats({"op": same}, {"op": same}, ledger, 1)
    assert ledger.failed == 0
    run.check_repeats({"op": same}, {"op": other}, ledger, 2)
    assert ledger.failed == 1


def test_raising_or_failing_operation_counts_as_failed():
    def boom():
        raise fm.AccountingError("cycle 3: corrupt count over bound")

    def keep(raw):
        return workloads.OpOutput(b"", 1, {}, raw)

    ledger = run.Ledger()
    walls, outputs = run.run_experiment(
        [("ok", lambda: [], keep), ("raises", boom, keep),
         ("violates", lambda: ["1 failures under tolerable budgets"], keep),
         ("unreadable", lambda: None, lambda raw: raw.payload)], ledger, 0)
    assert ledger.attempted == 4 and ledger.failed == 3
    assert outputs["raises"] is None and outputs["unreadable"] is None
    assert set(walls) == {"ok", "violates", "unreadable"}
    assert all(wall >= 0 and cal > 0 for wall, cal in walls.values())


def test_scaled_times_refer_to_the_calibration_speed():
    ref = run.CALIBRATION_REF_S
    assert run.scaled([(2.0, ref), (3.0, 2 * ref)]) == [2.0, 1.5]
    assert run.repeat_seconds({"a": [(1.0, ref), (5.0, ref), (2.0, ref)],
                               "b": [(4.0, 2 * ref)]}) == 4.0


# -- tracer --------------------------------------------------------------------


def test_tracer_self_time_absent_names_and_restore(monkeypatch):
    mod = types.SimpleNamespace()

    def inner(x):
        time.sleep(0.02)
        return x

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setattr(tracing, "WRAPPED", (
        ("m", "outer", "layer.outer", None), ("m", "inner", "layer.inner", None),
        ("m", "gone", "layer.gone", None)))
    tracer = Tracer()
    tracer.set_phase("sim")
    tracer.install({"m": mod})
    assert mod.outer(1) == 2
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert tracer.absent == ["m.gone"] and tracer.absent_keys() == {"layer.gone"}
    times = tracer.times("sim")
    self_outer, incl_outer, spans = times["layer.outer"]
    self_inner, incl_inner, _ = times["layer.inner"]
    assert spans == 1
    assert self_outer == pytest.approx(incl_outer - incl_inner)
    assert self_inner == pytest.approx(incl_inner)
    assert 0.005 < self_outer < incl_inner
    assert tracer.root_seconds("sim") == pytest.approx(incl_outer)
    assert tracer.times("setup") == {}
