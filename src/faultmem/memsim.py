"""Cycle-level simulation of the refreshed storage array.

Each cycle collapses one decay interval and one correction: apply the
interval's register-fault plan, observe the pre-correction corrupt
fraction, run one faulty correction round, observe again, and test for
memory failure.  Failure means leaving the original codeword's decoding
class, the class being defined operationally by the reliable parallel
bit-flipping decoder under a round cap.

Monte Carlo trials are independent; the batched engine draws one
cycle's fault plans for all alive trials in one keyed-hash call and
vectorizes the state updates across trials.  Every trial's plans are a
pure function of its (root_seed, trial, cycle) key, so each trial
reproduces the sequential run exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .decoders import (GateFaultPlan, TkState, algorithm_a_round_many,
                       parallel_bitflip_decode, tk_round)
from .exceptions import AccountingError, ConfigError
from .expansion import ExpansionProfile
from .faults import AdversarialModel, IndependentModel, trial_keys
from .tanner import TannerGraph, Word, as_word, zero_word

DECODERS = ("algorithm_a", "tk", "none")


@dataclass
class MemoryState:
    """Registers plus corrupt-variable bookkeeping at one observation point."""

    registers: Word
    original: Word
    cycle: int
    corrupt_count: int
    corrupt_frac: float

    @classmethod
    def observe(cls, registers: Word, original: Word, cycle: int) -> "MemoryState":
        count = int((registers != original).sum())
        return cls(registers, original, cycle, count, count / len(original))


@dataclass
class SimReport:
    """Per-cycle trace of one trial.

    alpha_pre[l-1] is the corrupt fraction just before the cycle-l
    correction, alpha_post[l-1] just after; trace length equals the
    number of executed cycles (a failing cycle is the last one).
    """

    decoder: str
    n: int
    cycles_requested: int
    cycles_executed: int
    failed: bool
    failure_cycle: int | None
    alpha_pre: list[float]
    alpha_post: list[float]
    corrupt_pre: list[int]
    corrupt_post: list[int]
    guarantee_threshold: float | None
    accounting_checked: bool
    states_pre: list | None = None
    states_post: list | None = None

    def peak_at_pre(self) -> bool:
        """Whether the trace-wide corrupt maximum is attained at a
        pre-correction observation point."""
        if not self.alpha_pre:
            return True
        return max(self.alpha_pre) >= max(self.alpha_post)

    def to_json_obj(self) -> dict:
        return {
            "decoder": self.decoder,
            "n": self.n,
            "cycles_requested": self.cycles_requested,
            "cycles_executed": self.cycles_executed,
            "failed": self.failed,
            "failure_cycle": self.failure_cycle,
            "alpha_pre": self.alpha_pre,
            "alpha_post": self.alpha_post,
            "corrupt_pre": self.corrupt_pre,
            "corrupt_post": self.corrupt_post,
            "guarantee_threshold": self.guarantee_threshold,
            "accounting_checked": self.accounting_checked,
        }


def detect_cap(profile: ExpansionProfile | None, n: int, default_cap: int = 100) -> int:
    """Round cap for the decoding-class oracle: ceil(log_{1/(1-4e)}(n)) + 10
    with a profile attached (a one-step profile, epsilon = 1/4, needs no
    contraction rounds), else the configured default."""
    if profile is None or profile.epsilon <= 0.0:
        return default_cap
    shrink = 1.0 - 4.0 * profile.epsilon
    if shrink <= 0.0:
        return 10
    return int(math.ceil(math.log(n) / math.log(1.0 / shrink))) + 10


def _detect_word(g: TannerGraph, word: Word, original: Word, cap: int) -> bool:
    """True iff ``word`` lies outside the original's decoding class."""
    if np.array_equal(word, original):
        return False
    decoded, _rounds, converged = parallel_bitflip_decode(g, word, cap)
    return (not converged) or (not np.array_equal(decoded, original))


def detect_failure(g: TannerGraph, state: MemoryState,
                   profile: ExpansionProfile | None = None,
                   max_rounds: int = 100) -> bool:
    """Memory-failure test: reliable decoding must converge back to the
    originally stored codeword."""
    return _detect_word(g, state.registers, state.original,
                        detect_cap(profile, g.n, max_rounds))


def _accounting_rhs(model: AdversarialModel, g: TannerGraph,
                    profile: ExpansionProfile) -> float:
    b = model.budget
    return (g.gamma * (g.rho - 2) * b.alpha_xor + b.alpha_maj + b.alpha_m) * g.n


def _check_accounting(prev_count: int, cur_count: int, contraction: float,
                      rhs_budget: float, cycle: int, trial=None) -> None:
    rhs = prev_count * contraction + rhs_budget
    if not cur_count < rhs:
        where = f"cycle {cycle}" + (f", trial {trial}" if trial is not None else "")
        raise AccountingError(
            f"{where}: corrupt count {cur_count} not below bound {rhs:.6g} "
            f"(previous count {prev_count})"
        )


def _validate_run_args(g, decoder, fault_model, cycles, rounds_per_cycle):
    if decoder not in DECODERS:
        raise ConfigError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")
    if cycles < 1:
        raise ConfigError(f"cycles must be at least 1, got {cycles}")
    if rounds_per_cycle < 1:
        raise ConfigError("rounds_per_cycle must be at least 1")
    if not isinstance(fault_model, (AdversarialModel, IndependentModel)):
        raise ConfigError("fault_model must be AdversarialModel or IndependentModel")
    if decoder == "none":
        gates_active = (
            isinstance(fault_model, AdversarialModel)
            and (fault_model.budget.xor_count(g) > 0 or fault_model.budget.maj_count(g) > 0)
        ) or (
            isinstance(fault_model, IndependentModel)
            and (fault_model.rates.p_xor > 0 or fault_model.rates.p_maj > 0)
        )
        if gates_active:
            raise ConfigError(
                "decoder 'none' has no correcting circuit, so gate-fault "
                "budgets/rates must be zero"
            )


def run_memory(g: TannerGraph, decoder: str, fault_model, cycles: int, seed,
               profile: ExpansionProfile | None = None, *,
               rounds_per_cycle: int = 1,
               check_accounting: bool = False,
               record_states: bool = False,
               detect_max_rounds: int = 100,
               initial_word=None) -> SimReport:
    """Run one trial of L correction cycles; deterministic per seed.

    Per cycle: draw the (register, gate) plans for this (seed, cycle),
    apply register decay, record the pre-correction corrupt fraction, run
    the faulty correction (none for decoder 'none'), record again, then
    test for failure and stop early if it occurred.
    """
    _validate_run_args(g, decoder, fault_model, cycles, rounds_per_cycle)
    original = zero_word(g.n) if initial_word is None else as_word(initial_word, g.n)
    if not g.is_codeword(original):
        raise ConfigError("the stored word must be a codeword")
    if check_accounting and not (profile is not None
                                 and isinstance(fault_model, AdversarialModel)):
        raise ConfigError("accounting checks need a profile and an adversarial model")

    threshold = profile.correctable_fraction if profile is not None else None
    cap = detect_cap(profile, g.n, detect_max_rounds)
    contraction = profile.contraction if profile is not None else None
    rhs_budget = _accounting_rhs(fault_model, g, profile) if check_accounting else None

    tk_mode = decoder == "tk"
    if tk_mode:
        tk_state = TkState.from_word(g, original)
        readout_prev = original.copy()
    registers = original.copy()

    alpha_pre, alpha_post = [], []
    corrupt_pre, corrupt_post = [], []
    states_pre = [] if record_states else None
    states_post = [] if record_states else None
    failed = False
    failure_cycle = None
    executed = 0
    prev_pre_count = None

    for cycle in range(1, cycles + 1):
        observed = readout_prev if tk_mode else registers
        reg_plan, gate_plan = fault_model.draw(g, seed, cycle, observed, original)

        if reg_plan.flips:
            if tk_mode:
                tk_state.copies[reg_plan.indices(), :] ^= 1
            else:
                registers[reg_plan.indices()] ^= 1

        if tk_mode:
            pre_word = tk_state.readout(prev=readout_prev)
            readout_prev = pre_word
        else:
            pre_word = registers
        pre_count = int((pre_word != original).sum())
        alpha_pre.append(pre_count / g.n)
        corrupt_pre.append(pre_count)
        if record_states:
            states_pre.append(pre_word.copy())

        if check_accounting and prev_pre_count is not None \
                and prev_pre_count < threshold * g.n:
            _check_accounting(prev_pre_count, pre_count, contraction,
                              rhs_budget, cycle)
        prev_pre_count = pre_count

        if decoder == "algorithm_a":
            for _ in range(rounds_per_cycle):
                registers = algorithm_a_round_many(
                    g, registers[None, :], gate_plan.xor_parity(g),
                    _maj_mask(g, gate_plan))[0]
            post_word = registers
        elif tk_mode:
            for _ in range(rounds_per_cycle):
                tk_state = tk_round(g, tk_state, gate_plan)
            post_word = tk_state.readout(prev=readout_prev)
            readout_prev = post_word
        else:
            post_word = registers

        post_count = int((post_word != original).sum())
        alpha_post.append(post_count / g.n)
        corrupt_post.append(post_count)
        if record_states:
            states_post.append(post_word.copy())

        executed = cycle
        if _detect_word(g, post_word, original, cap):
            failed = True
            failure_cycle = cycle
            break

    return SimReport(
        decoder=decoder, n=g.n, cycles_requested=cycles, cycles_executed=executed,
        failed=failed, failure_cycle=failure_cycle,
        alpha_pre=alpha_pre, alpha_post=alpha_post,
        corrupt_pre=corrupt_pre, corrupt_post=corrupt_post,
        guarantee_threshold=threshold, accounting_checked=check_accounting,
        states_pre=states_pre, states_post=states_post,
    )


def _maj_mask(g: TannerGraph, plan: GateFaultPlan):
    if not plan.maj_flips:
        return None
    mask = np.zeros(g.n, dtype=np.uint8)
    mask[plan.maj_indices()] = 1
    return mask


def wilson_interval(successes: int, total: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes must lie in [0, total]")
    z = float(norm.ppf(0.5 + confidence / 2.0))
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class RunConfig:
    """Everything monte_carlo needs apart from trial count and seed."""

    graph: TannerGraph
    decoder: str
    fault_model: object
    cycles: int
    profile: ExpansionProfile | None = None
    rounds_per_cycle: int = 1
    check_accounting: bool = False
    detect_max_rounds: int = 100
    initial_word: object = None


@dataclass
class MonteCarloResult:
    trials: int
    failures: int
    failure_rate: float
    ci_low: float
    ci_high: float
    confidence: float
    failed_by_trial: list[bool]
    failure_cycle_by_trial: list
    mean_alpha_pre: list[float]
    max_alpha_pre: list[float]
    mean_alpha_post: list[float]
    max_alpha_post: list[float]
    recorded: list[int]
    reports: list | None = None

    def to_json_obj(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "failure_rate": self.failure_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "mean_alpha_pre": self.mean_alpha_pre,
            "max_alpha_pre": self.max_alpha_pre,
            "mean_alpha_post": self.mean_alpha_post,
            "max_alpha_post": self.max_alpha_post,
            "recorded": self.recorded,
        }


def _aggregate(trials, confidence, failed, failure_cycle, pre_mat, post_mat,
               reports=None):
    failures = int(np.count_nonzero(failed))
    rate = failures / trials
    lo, hi = wilson_interval(failures, trials, confidence)
    recorded = (~np.isnan(pre_mat)).sum(axis=0)
    last = int(np.max(np.nonzero(recorded)[0])) + 1 if recorded.any() else 0
    with np.errstate(invalid="ignore"):
        mean_pre = np.nanmean(pre_mat[:, :last], axis=0) if last else np.array([])
        max_pre = np.nanmax(pre_mat[:, :last], axis=0) if last else np.array([])
        mean_post = np.nanmean(post_mat[:, :last], axis=0) if last else np.array([])
        max_post = np.nanmax(post_mat[:, :last], axis=0) if last else np.array([])
    return MonteCarloResult(
        trials=trials, failures=failures, failure_rate=rate,
        ci_low=lo, ci_high=hi, confidence=confidence,
        failed_by_trial=[bool(x) for x in failed],
        failure_cycle_by_trial=[int(c) if c >= 0 else None for c in failure_cycle],
        mean_alpha_pre=mean_pre.tolist(), max_alpha_pre=max_pre.tolist(),
        mean_alpha_post=mean_post.tolist(), max_alpha_post=max_post.tolist(),
        recorded=recorded[:last].astype(int).tolist(),
        reports=reports,
    )


def _monte_carlo_sequential(config: RunConfig, trials: int, root_seed,
                            confidence: float, keep_reports: bool):
    L = config.cycles
    failed = np.zeros(trials, dtype=bool)
    failure_cycle = np.full(trials, -1, dtype=np.int64)
    pre_mat = np.full((trials, L), np.nan)
    post_mat = np.full((trials, L), np.nan)
    reports = [] if keep_reports else None
    for t in range(trials):
        rep = run_memory(
            config.graph, config.decoder, config.fault_model, L,
            (root_seed, t), config.profile,
            rounds_per_cycle=config.rounds_per_cycle,
            check_accounting=config.check_accounting,
            detect_max_rounds=config.detect_max_rounds,
            initial_word=config.initial_word,
        )
        failed[t] = rep.failed
        failure_cycle[t] = rep.failure_cycle if rep.failure_cycle is not None else -1
        k = rep.cycles_executed
        pre_mat[t, :k] = rep.alpha_pre
        post_mat[t, :k] = rep.alpha_post
        if keep_reports:
            reports.append(rep)
    return _aggregate(trials, confidence, failed, failure_cycle, pre_mat,
                      post_mat, reports)


def _monte_carlo_batched(config: RunConfig, trials: int, root_seed,
                         confidence: float):
    """Vectorized engine for decoders without per-edge copies.

    Each cycle draws the plans of all alive trials in one call from their
    (root_seed, trial) keys, so every trial matches its sequential run bit
    for bit; plans of cycle-independent models are drawn once and reused.
    Decay, accounting, the round and observation run on (T, n) arrays.
    """
    g = config.graph
    L = config.cycles
    model = config.fault_model
    _validate_run_args(g, config.decoder, model, L, config.rounds_per_cycle)
    original = zero_word(g.n) if config.initial_word is None \
        else as_word(config.initial_word, g.n)
    if not g.is_codeword(original):
        raise ConfigError("the stored word must be a codeword")
    if config.check_accounting and not (config.profile is not None
                                        and isinstance(model, AdversarialModel)):
        raise ConfigError("accounting checks need a profile and an adversarial model")

    cap = detect_cap(config.profile, g.n, config.detect_max_rounds)
    threshold_count = (config.profile.correctable_fraction * g.n
                       if config.profile is not None else None)
    contraction = config.profile.contraction if config.profile is not None else None
    rhs_budget = (_accounting_rhs(model, g, config.profile)
                  if config.check_accounting else None)

    keys = trial_keys(root_seed, np.arange(trials))
    states = np.tile(original, (trials, 1))
    alive = np.ones(trials, dtype=bool)
    failed = np.zeros(trials, dtype=bool)
    failure_cycle = np.full(trials, -1, dtype=np.int64)
    pre_mat = np.full((trials, L), np.nan)
    post_mat = np.full((trials, L), np.nan)
    prev_pre = np.full(trials, -1, dtype=np.int64)
    cached = None

    for cycle in range(1, L + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        work = states[idx]
        if model.cycle_dependent:
            plans = model.draw_batch(g, keys[idx], cycle, work, original)
        else:
            if cached is None:
                cached = model.draw_batch(g, keys, cycle, states, original)
            plans = cached if idx.size == trials else cached.take(idx)
        plans.flip_registers(work)

        pre_counts = (work != original).sum(axis=1)
        pre_mat[idx, cycle - 1] = pre_counts / g.n

        if config.check_accounting:
            prev = prev_pre[idx]
            bound = prev * contraction + rhs_budget
            broken = (prev >= 0) & (prev < threshold_count) & ~(pre_counts < bound)
            if broken.any():
                pos = int(np.argmax(broken))
                _check_accounting(int(prev[pos]), int(pre_counts[pos]),
                                  contraction, rhs_budget, cycle,
                                  trial=int(idx[pos]))
        prev_pre[idx] = pre_counts

        if config.decoder == "algorithm_a":
            work = algorithm_a_round_many(g, work, plans.xor_parity(g),
                                          plans.maj_mask(g.n))
        states[idx] = work

        post_counts = (work != original).sum(axis=1)
        post_mat[idx, cycle - 1] = post_counts / g.n

        suspect = idx[post_counts > 0]
        for t in suspect:
            if _detect_word(g, states[t], original, cap):
                failed[t] = True
                failure_cycle[t] = cycle
                alive[t] = False

    return _aggregate(trials, confidence, failed, failure_cycle, pre_mat, post_mat)


def monte_carlo(config: RunConfig, trials: int, root_seed, *,
                confidence: float = 0.95, keep_reports: bool = False,
                engine: str = "auto") -> MonteCarloResult:
    """Aggregate independent seeded trials: failure rate with a Wilson
    interval plus mean/max corrupt-fraction trajectories."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if engine not in ("auto", "sequential", "batched"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "auto":
        engine = ("batched"
                  if config.decoder != "tk" and config.rounds_per_cycle == 1
                  and not keep_reports else "sequential")
    if engine == "batched":
        if config.decoder == "tk" or config.rounds_per_cycle != 1:
            raise ValueError("batched engine supports single-round non-tk runs")
        if keep_reports:
            raise ValueError("keep_reports needs the sequential engine")
        return _monte_carlo_batched(config, trials, root_seed, confidence)
    return _monte_carlo_sequential(config, trials, root_seed, confidence,
                                   keep_reports)
