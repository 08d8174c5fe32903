"""The three benchmark workloads, driven through faultmem's public API.

Each workload builds its inputs in ``setup`` (graph, certification, rank
or config load), then exposes a fixed list of operations.  An operation
is one ``monte_carlo`` call or one CLI invocation, given as a pair: the
timed call, and an untimed ``finish`` that turns its return value into
an OpOutput (the bytes whose digest must repeat for a given seed, the
executed trial-cycles, the simulated statistics, and every output check
that failed).

Every call goes through a module attribute looked up at call time
(``m.memsim.monte_carlo``, not a name bound at import), so the tracer's
wrappers see it.  README.md gives the reasons for each shape.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import checks


@dataclass
class OpOutput:
    payload: bytes              # deterministic outputs, digested
    trial_cycles: int           # executed trial-cycles
    stats: dict                 # simulated statistics, reported only
    violations: list = field(default_factory=list)
    result: object = None       # parsed result, for re-run checks


def _mc_payload(result) -> bytes:
    doc = result.to_json_obj()
    doc["failed_by_trial"] = result.failed_by_trial
    doc["failure_cycle_by_trial"] = result.failure_cycle_by_trial
    return json.dumps(doc, sort_keys=True).encode()


def _mc_stats(result) -> dict:
    return {
        "trials": result.trials,
        "failures": result.failures,
        "failure_rate": result.failure_rate,
        "trial_cycles": int(sum(result.recorded)),
        "max_alpha_pre": max(result.max_alpha_pre, default=0.0),
        "max_alpha_post": max(result.max_alpha_post, default=0.0),
    }


def _mc_output(result, violations) -> OpOutput:
    return OpOutput(_mc_payload(result), int(sum(result.recorded)),
                    _mc_stats(result), violations, result)


def _budget_counts(budget, g) -> dict:
    return {"register": budget.register_count(g), "xor": budget.xor_count(g),
            "maj": budget.maj_count(g)}


def _rerun_monte_carlo(m, cfg, root_seed, main_result, trials, cycles,
                       failed_cap=2):
    """Re-run trials one at a time through run_memory and compare with
    monte_carlo on the same (root_seed, trial) keys: the first ``trials``
    over the first ``cycles`` cycles, and up to ``failed_cap`` failed
    trials of the operation up to their failure cycle."""
    def rerun(t, length):
        return m.memsim.run_memory(cfg.graph, cfg.decoder, cfg.fault_model,
                                   length, (root_seed, t), cfg.profile,
                                   check_accounting=cfg.check_accounting)

    short = m.memsim.RunConfig(cfg.graph, cfg.decoder, cfg.fault_model, cycles,
                               profile=cfg.profile,
                               check_accounting=cfg.check_accounting)
    batch = m.memsim.monte_carlo(short, trials, root_seed)
    single = m.memsim.monte_carlo(short, 1, root_seed)
    reports = [rerun(t, cycles) for t in range(trials)]
    failed = [(t, c) for t, c in enumerate(main_result.failure_cycle_by_trial)
              if c is not None][:failed_cap]
    return (checks.rerun_matches(batch, reports)
            + checks.rerun_matches(single, reports[:1])
            + checks.prefix_matches(main_result, reports, cycles)
            + [problem for t, c in failed
               for problem in checks.failure_reproduced(rerun(t, c), t, c)])


class DeskAdversarial:
    """Criterion-3 shape: both frozen certified instances, all four
    adversary strategies, accounting enforced."""

    name = "desk-adversarial"
    # (n, gamma, rho, graph seed, alpha, epsilon, alpha_m)
    INSTANCES = ((36, 3, 6, 7, 1.9 / 36, 0.25, 1.5 / 36),
                 (40, 4, 5, 13, 2.9 / 40, 0.12, 0.0251))
    ALPHA_GATE = 1e-6
    TRIALS = 250
    CYCLES = 20
    RERUN_TRIALS = 3

    def __init__(self, m, root_seed, work_dir):
        self.m = m
        self.root_seed = root_seed
        self.configs = []  # (label, RunConfig)

    def setup(self) -> list:
        m = self.m
        problems = []
        for n, gamma, rho, seed, alpha, eps, alpha_m in self.INSTANCES:
            g = m.tanner.build_random_regular(m.tanner.CodeParams(n, gamma, rho),
                                              seed, reject_4cycles=True)
            prof = m.expansion.ExpansionProfile(alpha, gamma, eps)
            cert = m.expansion.check_expansion_exhaustive(g, prof)
            if cert.verdict != "certified":
                problems.append(f"instance n={n}: certification {cert.verdict}")
            budget = m.faults.AdversarialBudget(alpha_m, self.ALPHA_GATE,
                                                self.ALPHA_GATE)
            if not m.faults.theorem2_margin(budget, gamma, rho, prof) > 0:
                problems.append(f"instance n={n}: budgets not tolerable")
            for strategy in m.faults.STRATEGIES:
                model = m.faults.AdversarialModel(budget, strategy)
                cfg = m.memsim.RunConfig(g, "algorithm_a", model, self.CYCLES,
                                         profile=prof, check_accounting=True)
                self.configs.append((f"n{n}-{strategy}", cfg))
        return problems

    def budgets(self) -> dict:
        return {label: _budget_counts(cfg.fault_model.budget, cfg.graph)
                for label, cfg in self.configs if label.endswith("-random")}

    def ops(self):
        return [(label, self._call(cfg), self._finish(cfg))
                for label, cfg in self.configs]

    def _call(self, cfg):
        return lambda: self.m.memsim.monte_carlo(cfg, self.TRIALS, self.root_seed)

    def _finish(self, cfg):
        threshold = cfg.profile.correctable_fraction
        return lambda result: _mc_output(result,
                                         checks.desk_result(result, threshold))

    def rerun_check(self, label, output) -> list:
        return _rerun_monte_carlo(self.m, dict(self.configs)[label],
                                  self.root_seed, output.result,
                                  self.RERUN_TRIALS, self.CYCLES)


class LargeCached:
    """n=4000 girth-6 code, plans drawn once per trial and reused."""

    name = "large-cached"
    N, GAMMA, RHO, GRAPH_SEED = 4000, 3, 6, 4000
    # 2 registers and 4 XOR gates per use: floor(2.5) and floor(4.5)
    ALPHA_M = 2.5 / N
    ALPHA_XOR = 4.5 / (N * GAMMA * (RHO - 2))
    PROFILE = (0.002, 1 / 12)  # alpha, epsilon of the probed expansion
    PROBE_TRIALS = 5000
    STRATEGIES = ("repeat", "cluster")
    TRIALS = 64
    CYCLES = 100
    RERUN_TRIALS = 2
    RERUN_CYCLES = 5

    def __init__(self, m, root_seed, work_dir):
        self.m = m
        self.root_seed = root_seed
        self.configs = []

    def setup(self) -> list:
        m = self.m
        g = m.tanner.build_random_regular(
            m.tanner.CodeParams(self.N, self.GAMMA, self.RHO), self.GRAPH_SEED,
            reject_4cycles=True)
        dimension = m.tanner.code_dimension(g)
        prof = m.expansion.ExpansionProfile(self.PROFILE[0], self.GAMMA,
                                            self.PROFILE[1])
        cert = m.expansion.probe_expansion_randomized(g, prof, self.PROBE_TRIALS,
                                                      self.GRAPH_SEED)
        problems = []
        if cert.verdict != "inconclusive":
            problems.append(f"randomized probe: {cert.verdict}")
        if dimension < self.N - self.N * self.GAMMA // self.RHO:
            problems.append(f"code dimension {dimension} below n - m")
        budget = m.faults.AdversarialBudget(self.ALPHA_M, self.ALPHA_XOR, 0.0)
        for strategy in self.STRATEGIES:
            model = m.faults.AdversarialModel(budget, strategy)
            cfg = m.memsim.RunConfig(g, "algorithm_a", model, self.CYCLES,
                                     profile=prof)
            self.configs.append((strategy, cfg))
        return problems

    def budgets(self) -> dict:
        cfg = self.configs[0][1]
        return {"all": _budget_counts(cfg.fault_model.budget, cfg.graph)}

    def ops(self):
        return [(label, self._call(cfg), self._finish(label))
                for label, cfg in self.configs]

    def _call(self, cfg):
        return lambda: self.m.memsim.monte_carlo(cfg, self.TRIALS, self.root_seed)

    def _finish(self, label):
        rate = checks.reference(self.name, label)
        return lambda result: _mc_output(result, checks.failures_in_band(
            result.failures, result.trials, rate, label))

    def rerun_check(self, label, output) -> list:
        return _rerun_monte_carlo(self.m, dict(self.configs)[label],
                                  self.root_seed, output.result,
                                  self.RERUN_TRIALS, self.RERUN_CYCLES)


class PairedTk:
    """``faultmem compare-tk`` in-process on the certified (40,4,5)
    instance under the independent fault model."""

    name = "paired-tk"
    CODE = {"n": 40, "gamma": 4, "rho": 5, "seed": 13, "reject_4cycles": True}
    PROFILE = {"alpha": 2.9 / 40, "epsilon": 0.12}
    RATES = {"p_m": 0.004, "p_xor": 1e-4, "p_maj": 1e-4}
    TRIALS = 50
    CYCLES = 200
    RERUN_TRIALS = 3
    DECODERS = ("algorithm_a", "tk")

    def __init__(self, m, root_seed, work_dir):
        self.m = m
        self.root_seed = root_seed
        self.dir = Path(work_dir)
        self.config_path = self.dir / "paired-tk.json"
        self.csv_path = self.dir / "paired.csv"
        self.summary_path = self.dir / "summary.json"
        self.rates = {d: checks.reference(self.name, d) for d in self.DECODERS}
        self.cfg = None

    def setup(self) -> list:
        m = self.m
        doc = {"code": self.CODE, "decoder": "algorithm_a",
               "fault_model": {"type": "independent", **self.RATES},
               "profile": self.PROFILE, "cycles": self.CYCLES,
               "trials": self.TRIALS, "root_seed": self.root_seed}
        self.config_path.write_text(json.dumps(doc, sort_keys=True))
        self.cfg = m.cli.load_experiment_config(self.config_path)
        cert = m.expansion.check_expansion_exhaustive(self.cfg.graph,
                                                      self.cfg.profile)
        return ([] if cert.verdict == "certified"
                else [f"certification {cert.verdict}"])

    def budgets(self) -> dict:
        g, rates = self.cfg.graph, self.cfg.fault_model.rates
        # expected faults per use; the independent model has no integer budget
        return {"expected": {"register": rates.p_m * g.n,
                             "xor": rates.p_xor * g.n * g.gamma * (g.rho - 2),
                             "maj": rates.p_maj * g.n}}

    def ops(self):
        return [("compare-tk", self._call, self._finish)]

    def _call(self) -> int:
        argv = ["compare-tk", "--config", str(self.config_path),
                "--out", str(self.csv_path), "--summary", str(self.summary_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.m.cli.main(argv)

    def _finish(self, code) -> OpOutput:
        if code != 0:
            return OpOutput(b"", 0, {}, [f"compare-tk exited with {code}"])
        csv_bytes = self.csv_path.read_bytes()
        summary_bytes = self.summary_path.read_bytes()
        summary = json.loads(summary_bytes)
        traces = checks.parse_paired_csv(csv_bytes.decode(), self.DECODERS)
        stats, violations = {}, []
        for decoder in self.DECODERS:
            got = summary.get(decoder, {})
            stats[decoder] = dict(got)
            failures = got.get("failures", -1)
            violations += checks.failures_in_band(
                failures, self.TRIALS, self.rates[decoder], decoder)
            violations += checks.trace_agrees(traces.get(decoder, {}), failures,
                                              self.TRIALS, decoder)
        cycles = sum(len(rows) for per in traces.values() for rows in per.values())
        stats["trial_cycles"] = cycles
        return OpOutput(csv_bytes + b"\0" + summary_bytes, cycles, stats,
                        violations, traces)

    def rerun_check(self, label, output) -> list:
        if output.result is None:
            return []  # the operation already failed
        problems = []
        for decoder in self.DECODERS:
            for t in range(self.RERUN_TRIALS):
                rep = self.m.memsim.run_memory(
                    self.cfg.graph, decoder, self.cfg.fault_model, self.CYCLES,
                    (self.root_seed, t), self.cfg.profile)
                problems += checks.trace_matches_report(
                    output.result.get(decoder, {}).get(t, []), rep,
                    f"{decoder} trial {t}")
        return problems


WORKLOADS = {w.name: w for w in (DeskAdversarial, LargeCached, PairedTk)}
