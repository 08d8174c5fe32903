"""Output checks that hold whatever the fault streams are.

Each function returns a list of violation messages (empty when the
output is correct), so the benchmark can count every violation against
the operation that produced it.  Exact comparisons are used wherever
both sides come from the same (root_seed, trial, cycle) keys; simulated
failure counts are only held to a wide binomial band around
reference.json, because a change of fault streams moves them on purpose.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
BAND_SIGMAS = 6.0
BAND_SLACK = 2  # failures, so a reference rate near 0 or 1 keeps some room
MEAN_RTOL = 1e-12  # means may be summed in another order by another engine


def reference(workload: str, label: str) -> float:
    """Reference failure rate of one operation."""
    doc = json.loads(REFERENCE_PATH.read_text())
    return float(doc[workload][label]["failure_rate"])


def binomial_band(trials: int, rate: float) -> tuple[int, int]:
    """Accepted failure counts: mean +- BAND_SIGMAS sd +- BAND_SLACK."""
    mean = trials * rate
    sd = math.sqrt(trials * rate * (1.0 - rate))
    lo = math.floor(mean - BAND_SIGMAS * sd) - BAND_SLACK
    hi = math.ceil(mean + BAND_SIGMAS * sd) + BAND_SLACK
    return max(0, lo), min(trials, hi)


def failures_in_band(failures, trials: int, rate: float, label: str) -> list:
    lo, hi = binomial_band(trials, rate)
    if not (isinstance(failures, int) and lo <= failures <= hi):
        return [f"{label}: {failures} failures of {trials} outside [{lo}, {hi}] "
                f"(reference rate {rate:.4g})"]
    return []


def desk_result(result, correctable_fraction: float) -> list:
    """Theorem-2 shape: no failures, and decay really injected but kept
    below the correctable fraction."""
    problems = []
    if result.failures != 0:
        problems.append(f"{result.failures} failures under tolerable budgets")
    peak = max(result.max_alpha_pre, default=0.0)
    if not 0.0 < peak < correctable_fraction:
        problems.append(f"max alpha_pre {peak} outside (0, {correctable_fraction})")
    return problems


def _close(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(math.isclose(x, y, rel_tol=MEAN_RTOL, abs_tol=MEAN_RTOL)
               for x, y in zip(a, b))


def rerun_matches(batch, reports) -> list:
    """monte_carlo over the first len(reports) trials against those trials
    run one at a time: per-trial outcomes exactly, trajectories exactly
    for maxima and counts, means to MEAN_RTOL."""
    problems = []
    k = len(reports)
    want_failed = [r.failed for r in reports]
    want_cycle = [r.failure_cycle for r in reports]
    if list(batch.failed_by_trial[:k]) != want_failed:
        problems.append(f"failed {batch.failed_by_trial[:k]} != run_memory "
                        f"{want_failed}")
    if list(batch.failure_cycle_by_trial[:k]) != want_cycle:
        problems.append(f"failure_cycle {batch.failure_cycle_by_trial[:k]} != "
                        f"run_memory {want_cycle}")
    depth = max((r.cycles_executed for r in reports), default=0)
    for name, attr in (("pre", "alpha_pre"), ("post", "alpha_post")):
        cols = [[getattr(r, attr)[c] for r in reports if c < r.cycles_executed]
                for c in range(depth)]
        want_max = [max(col) for col in cols]
        want_mean = [sum(col) / len(col) for col in cols]
        if list(getattr(batch, f"max_alpha_{name}")) != want_max:
            problems.append(f"max_alpha_{name} differs from run_memory")
        if not _close(list(getattr(batch, f"mean_alpha_{name}")), want_mean):
            problems.append(f"mean_alpha_{name} differs from run_memory")
    want_recorded = [sum(1 for r in reports if c < r.cycles_executed)
                     for c in range(depth)]
    if list(batch.recorded) != want_recorded:
        problems.append(f"recorded {batch.recorded} != run_memory {want_recorded}")
    return problems


def prefix_matches(result, reports, cycles: int) -> list:
    """The full-length result agrees with the first ``cycles`` cycles of
    each re-run trial: same failure when it happened inside the prefix,
    no failure inside the prefix otherwise."""
    problems = []
    for t, rep in enumerate(reports):
        got = result.failure_cycle_by_trial[t]
        inside = got if got is not None and got <= cycles else None
        if inside != rep.failure_cycle:
            problems.append(f"trial {t}: failure cycle {got} vs run_memory "
                            f"{rep.failure_cycle} within {cycles} cycles")
    return problems


def failure_reproduced(report, trial: int, cycle: int) -> list:
    """A trial that failed at ``cycle`` in the batch fails at that cycle
    when re-run alone for that many cycles."""
    if report.failure_cycle != cycle:
        return [f"trial {trial}: failed at cycle {cycle} but run_memory gives "
                f"{report.failure_cycle}"]
    return []


def parse_paired_csv(text: str, decoders) -> dict:
    """compare-tk CSV as {decoder: {trial: [(cycle, pre, post, failed)]}},
    skipping the empty cells of a decoder that had already failed."""
    out = {d: {} for d in decoders}
    for row in csv.DictReader(io.StringIO(text)):
        t, c = int(row["trial"]), int(row["cycle"])
        for d in decoders:
            if row[f"alpha_v_pre_{d}"] == "":
                continue
            out[d].setdefault(t, []).append(
                (c, float(row[f"alpha_v_pre_{d}"]),
                 float(row[f"alpha_v_post_{d}"]), int(row[f"failed_{d}"])))
    return out


def trace_agrees(per_trial: dict, failures, trials: int, label: str) -> list:
    """Every trial has a trace of consecutive cycles from 1, at most its
    last cycle is marked failed, and the marked trials match the summary
    failure count."""
    problems = []
    if sorted(per_trial) != list(range(trials)):
        return [f"{label}: traces for {len(per_trial)} of {trials} trials"]
    marked = 0
    for t, rows in per_trial.items():
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            problems.append(f"{label} trial {t}: cycles not consecutive from 1")
        if any(r[3] for r in rows[:-1]):
            problems.append(f"{label} trial {t}: failure before its last cycle")
        marked += rows[-1][3]
    if marked != failures:
        problems.append(f"{label}: {marked} failed traces but summary says "
                        f"{failures}")
    return problems


def trace_matches_report(rows, report, label: str) -> list:
    """One CSV trace against the same trial re-run through run_memory."""
    want = [(c + 1, report.alpha_pre[c], report.alpha_post[c],
             int(report.failed and report.failure_cycle == c + 1))
            for c in range(report.cycles_executed)]
    if list(rows) != want:
        return [f"{label}: CSV trace differs from run_memory"]
    return []
