"""Cycle-level simulation of the refreshed storage array.

Each cycle collapses one decay interval and one correction: apply the
interval's register-fault plan, observe the pre-correction corrupt
fraction, run one faulty correction round, observe again, and test for
memory failure.  Failure means leaving the original codeword's decoding
class, the class being defined operationally by the reliable parallel
bit-flipping decoder under a round cap.

One cycle loop serves every run.  It draws one cycle's fault plans for
all alive trials in one keyed-hash call and updates their (T, n)
register states, or (T, n, gamma) bit-copies for the 'tk' decoder, in
a few array operations, with one batched decode testing every suspect
word for failure.  The 'algorithm_a' rounds run bit-sliced, on the
registers packed 64 trials per uint64 word.  Every trial's plans are a
pure function of its (root_seed, trial, cycle) key, so a single run
(``run_memory``) is the one-trial case of the same loop and reproduces
trial t of ``monte_carlo`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .decoders import (TkState, algorithm_a_round_packed, pack_rows,
                       parallel_bitflip_decode_many, tk_round_many, unpack_rows)
from .exceptions import AccountingError, ConfigError
from .expansion import ExpansionProfile
from .faults import AdversarialModel, IndependentModel, seed_key, trial_keys
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


def _decode_fails(g: TannerGraph, words: np.ndarray, original: Word,
                  cap: int) -> np.ndarray:
    """Row mask of the (T, n) ``words`` whose reliable decoding does not
    converge back to the original, all rows in one batched decode."""
    decoded, _rounds, converged = parallel_bitflip_decode_many(g, words, cap)
    return ~converged | (decoded != original).any(axis=1)


def _detect_word(g: TannerGraph, word: Word, original: Word, cap: int) -> bool:
    """True iff ``word`` lies outside the original's decoding class."""
    if np.array_equal(word, original):
        return False
    return bool(_decode_fails(g, word[None, :], original, cap)[0])


def detect_failure(g: TannerGraph, state: MemoryState,
                   profile: ExpansionProfile | None = None,
                   max_rounds: int = 100) -> bool:
    """Memory-failure test: reliable decoding must converge back to the
    originally stored codeword."""
    return _detect_word(g, state.registers, state.original,
                        detect_cap(profile, g.n, max_rounds))


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


def _validate_run_args(config: RunConfig) -> None:
    g, decoder, fault_model = config.graph, config.decoder, config.fault_model
    if decoder not in DECODERS:
        raise ConfigError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")
    if config.cycles < 1:
        raise ConfigError(f"cycles must be at least 1, got {config.cycles}")
    if config.rounds_per_cycle < 1:
        raise ConfigError("rounds_per_cycle must be at least 1")
    if not isinstance(fault_model, (AdversarialModel, IndependentModel)):
        raise ConfigError("fault_model must be AdversarialModel or IndependentModel")
    if config.check_accounting and not (config.profile is not None
                                        and isinstance(fault_model, AdversarialModel)):
        raise ConfigError("check_accounting needs a profile and an adversarial model")
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


def _simulate(config: RunConfig, keys: np.ndarray, *,
              record_states: bool = False, name_trials: bool = True):
    """The cycle loop, run for the trials with the given keys: a uint64
    array, or one trial's int key (which the draw kernels hash in Python).

    Per cycle, for every trial still alive: draw its (register, gate)
    plans for (key, cycle), apply register decay, observe the
    pre-correction word, run the faulty correction rounds (none for
    decoder 'none'), observe again, then test for failure and retire the
    trials that failed.  The state is (T, n) registers, or (T, n, gamma)
    bit-copies plus their (T, n) readouts for 'tk'; plans of
    cycle-independent models are drawn once and reused.  'algorithm_a'
    packs the registers once per cycle (trial t in bit t % 64 of word
    t // 64), runs its rounds on the words and unpacks the result.

    Returns (corrupt, failure_cycle, recorded): (2, T, L) pre/post-correction
    corrupt counts, -1 where a cycle did not run; (T,) failure cycles, -1
    for survivors; and the (2, T, L, n) observed words when
    ``record_states`` is set, else None.  An accounting violation raises
    for the lowest violating trial of the first violating cycle, naming
    that trial when ``name_trials`` is set.
    """
    _validate_run_args(config)
    g, model, L = config.graph, config.fault_model, config.cycles
    original = zero_word(g.n) if config.initial_word is None \
        else as_word(config.initial_word, g.n)
    if not g.is_codeword(original):
        raise ConfigError("the stored word must be a codeword")
    cap = detect_cap(config.profile, g.n, config.detect_max_rounds)
    if config.check_accounting:
        b, contraction = model.budget, config.profile.contraction
        threshold = config.profile.correctable_fraction * g.n
        spend = (g.gamma * (g.rho - 2) * b.alpha_xor + b.alpha_maj + b.alpha_m) * g.n

    trials = np.size(keys)
    tk = config.decoder == "tk"
    words = np.tile(original, (trials, 1))
    state = np.repeat(words[:, :, None], g.gamma, axis=2) if tk else words
    alive = np.ones(trials, dtype=bool)
    failure_cycle = np.full(trials, -1, dtype=np.int64)
    corrupt = np.full((2, trials, L), -1, dtype=np.int64)
    recorded = np.zeros((2, trials, L, g.n), dtype=np.uint8) if record_states else None
    cached = None

    for cycle in range(1, L + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        work = state[idx]
        seen = words[idx] if tk else work  # the words left by the last cycle
        if model.cycle_dependent:
            plans = model.draw_batch(g, keys if idx.size == trials else keys[idx],
                                     cycle, seen, original)
        else:
            if cached is None:
                cached = model.draw_batch(g, keys, cycle, words, original)
            plans = cached if idx.size == trials else cached.take(idx)
        plans.flip_registers(work)
        pre = TkState(work).readout(prev=seen) if tk else work
        pre_counts = (pre != original).sum(axis=1)

        if config.check_accounting and cycle > 1:
            prev = corrupt[0, idx, cycle - 2]
            bound = prev * contraction + spend
            broken = (prev < threshold) & ~(pre_counts < bound)
            if broken.any():
                pos = int(np.argmax(broken))
                where = f"cycle {cycle}" + (f", trial {idx[pos]}" if name_trials else "")
                raise AccountingError(
                    f"{where}: corrupt count {pre_counts[pos]} not below bound "
                    f"{bound[pos]:.6g} (previous count {prev[pos]})")

        if tk:
            xor_parity, maj_flip = plans.xor_parity(g), plans.maj_mask(g.n)
            for _ in range(config.rounds_per_cycle):
                work = tk_round_many(g, work, xor_parity, maj_flip)
        elif config.decoder == "algorithm_a":
            xor_words, maj_words = plans.gate_words(g)
            packed = pack_rows(work)
            for _ in range(config.rounds_per_cycle):
                packed = algorithm_a_round_packed(g, packed, xor_words, maj_words)
            work = unpack_rows(packed, idx.size)
        post = TkState(work).readout(prev=pre) if tk else work
        if tk:
            state[idx] = work
        words[idx] = post

        post_counts = (post != original).sum(axis=1)
        corrupt[0, idx, cycle - 1] = pre_counts
        corrupt[1, idx, cycle - 1] = post_counts
        if record_states:
            recorded[0, idx, cycle - 1] = pre
            recorded[1, idx, cycle - 1] = post
        suspect = post_counts > 0
        if suspect.any():
            out = idx[suspect][_decode_fails(g, post[suspect], original, cap)]
            failure_cycle[out] = cycle
            alive[out] = False

    return corrupt, failure_cycle, recorded


def _report(config: RunConfig, corrupt: np.ndarray, failure_cycle: int,
            recorded: np.ndarray | None = None) -> SimReport:
    """One trial's SimReport from its (2, L) row of _simulate's output."""
    n = config.graph.n
    executed = int((corrupt[0] >= 0).sum())
    pre, post = corrupt[:, :executed].tolist()
    return SimReport(
        decoder=config.decoder, n=n, cycles_requested=config.cycles,
        cycles_executed=executed, failed=bool(failure_cycle >= 0),
        failure_cycle=int(failure_cycle) if failure_cycle >= 0 else None,
        alpha_pre=[c / n for c in pre], alpha_post=[c / n for c in post],
        corrupt_pre=pre, corrupt_post=post,
        guarantee_threshold=(config.profile.correctable_fraction
                             if config.profile is not None else None),
        accounting_checked=config.check_accounting,
        states_pre=None if recorded is None else list(recorded[0, :executed]),
        states_post=None if recorded is None else list(recorded[1, :executed]),
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
    test for failure and stop early if it occurred.  This is the one-trial
    case of the Monte Carlo cycle loop: trial t of monte_carlo equals
    run_memory with seed (root_seed, t).
    """
    config = RunConfig(g, decoder, fault_model, cycles, profile,
                       rounds_per_cycle, check_accounting, detect_max_rounds,
                       initial_word)
    corrupt, failure_cycle, recorded = _simulate(
        config, seed_key(seed), record_states=record_states, name_trials=False)
    return _report(config, corrupt[:, 0], failure_cycle[0],
                   None if recorded is None else recorded[:, 0])


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


def monte_carlo(config: RunConfig, trials: int, root_seed, *,
                confidence: float = 0.95,
                keep_reports: bool = False) -> MonteCarloResult:
    """Aggregate independent seeded trials: failure rate with a Wilson
    interval plus mean/max corrupt-fraction trajectories.  Trial t runs
    under the seed (root_seed, t); with ``keep_reports`` each trial's
    SimReport is kept as well."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    corrupt, failure_cycle, _ = _simulate(
        config, trial_keys(root_seed, np.arange(trials)))
    failures = int(np.count_nonzero(failure_cycle >= 0))
    lo, hi = wilson_interval(failures, trials, confidence)
    # trials only ever drop out, so every recorded column precedes the
    # first empty one and holds at least one value
    recorded = (corrupt[0] >= 0).sum(axis=0)
    last = int(np.count_nonzero(recorded))
    pre, post = np.where(corrupt >= 0, corrupt / config.graph.n,
                         np.nan)[:, :, :last]
    return MonteCarloResult(
        trials=trials, failures=failures, failure_rate=failures / trials,
        ci_low=lo, ci_high=hi, confidence=confidence,
        failed_by_trial=(failure_cycle >= 0).tolist(),
        failure_cycle_by_trial=[int(c) if c >= 0 else None for c in failure_cycle],
        mean_alpha_pre=np.nanmean(pre, axis=0).tolist(),
        max_alpha_pre=np.nanmax(pre, axis=0).tolist(),
        mean_alpha_post=np.nanmean(post, axis=0).tolist(),
        max_alpha_post=np.nanmax(post, axis=0).tolist(),
        recorded=recorded[:last].tolist(),
        reports=([_report(config, corrupt[:, t], failure_cycle[t])
                  for t in range(trials)] if keep_reports else None),
    )
