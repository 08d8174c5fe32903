"""Cycle-level simulation of the refreshed storage array.

Each cycle collapses one decay interval and one correction: apply the
interval's register-fault plan, observe the pre-correction corrupt
fraction, run one faulty correction round, observe again, and test for
memory failure.  Failure means leaving the stored codeword's decoding
class, the class being defined operationally by the reliable parallel
bit-flipping decoder under a round cap.

The stored codeword is the zero word, and each cycle runs the correcting
circuit once.  No output is lost: a check's estimate of a variable is the
XOR of its other variables, so adding a codeword c shifts every estimate,
and with it every round (gate faults included), by c; the failure test
and greedy read only the difference to the stored word.  A memory storing
c runs through the zero-word states plus c (the symmetry of Richardson
and Urbanke, IEEE Trans. IT 47(2), 2001), and every observed word is its
own difference to the stored word.

One cycle loop serves every run.  A state-independent fault model draws
the plans of all alive trials for a block of cycles in one call and
scatters them in one call; the block is bounded in bytes, and a
cycle-independent model's one block is reused for every cycle.  Only the
greedy adversary, which reads the state, draws cycle by cycle.  For
every decoder the state stays packed from the first cycle to the last,
64 trials per uint64 word: the plans are scattered into each trial's own
bit, and the rounds run bit-sliced (the 'tk' bit-copies as gamma planes
of words, read out by tk_readout_packed, which needs no count at even
gamma).  The loop itself only draws, decays, refreshes and keeps the
observed words; the per-trial bookkeeping is done once per span of
cycles, bounded in bytes and in cycles.  A span's flush finds the
suspects of all its cycles, decides them bit-sliced in one call (one
verdict per state, none past a trial's first failing cycle), retires
the trials that failed (each at its first failing cycle), checks the
accounting and takes the corrupt counts as popcounts, in one call.
Every trial's plans are a pure function of its (root_seed, trial, cycle)
key, so a single run (``run_memory``) is the one-trial case of the same
loop and reproduces trial t of ``monte_carlo`` exactly.

The failure test decides only the suspects whose post-correction state
changed since the previous cycle.  The verdict is a pure function of the
state, and an alive trial's previous state was zero or found inside the
class, so an unchanged one is inside again: a residual that persists
through many cycles is decided once.

A cycle-independent model (repeat, cluster) applies the same plans every
cycle, so each trial's cycle map is one fixed function of its state and
its trajectory is eventually periodic.  Its run flushes every cycle, so
a failed trial leaves in the cycle it fails.  The loop finds each
trial's period against one snapshot of the state, retaken at cycles 1,
2, 4, 8, ... (Brent's cycle detection), and at the first flush after
which every alive trial has one it repeats each trial's last period over
the remaining cycles, checks their accounting and stops: the exit
follows the last failure.  This is exact: a state that recurs repeats
every later state, so every later observation repeats one already
taken, and every post word of the period was already decided inside
the class, so no later cycle fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decoders import (algorithm_a_round_packed, pack_rows,
                       parallel_bitflip_verdict_packed, popcounts,
                       tk_readout_packed, tk_round_packed, unpack_bits,
                       unpack_rows)
from .exceptions import AccountingError, ConfigError
from .expansion import ExpansionProfile
from .faults import AdversarialModel, IndependentModel, seed_key, trial_keys
from .tanner import TannerGraph, Word

DECODERS = ("algorithm_a", "tk", "none")


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


def detect_cap(profile: ExpansionProfile | None, n: int) -> int:
    """Round cap for the decoding-class oracle: ceil(log_{1/(1-4e)}(n)) + 10
    with a profile attached (a one-step profile, epsilon = 1/4, needs no
    contraction rounds), else 100."""
    if profile is None or profile.epsilon <= 0.0:
        return 100
    shrink = 1.0 - 4.0 * profile.epsilon
    if shrink <= 0.0:
        return 10
    return int(math.ceil(math.log(n) / math.log(1.0 / shrink))) + 10


def _failed_bits(g: TannerGraph, diff: np.ndarray, suspects: np.ndarray,
                 cap: int) -> np.ndarray:
    """The bits of the (S, W) ``suspects`` words, S cycles of W trial
    words, whose states lie outside the original's decoding class, given
    their packed (S, W, n) differences ``diff`` to the original; exact up
    to each trial's first failing cycle, which is all a flush reads.  The
    flip rule reads only the syndrome, so decoding a word and decoding its
    difference to a codeword flip the same bits: a state fails when
    reliable decoding of its difference does not converge, or converges
    to a nonzero word.  All suspects are decided in one bit-sliced call
    (parallel_bitflip_verdict_packed)."""
    return parallel_bitflip_verdict_packed(g, diff, suspects, cap)


def _detect_word(g: TannerGraph, word: Word, original: Word, cap: int) -> bool:
    """True iff ``word`` lies outside the original's decoding class."""
    if np.array_equal(word, original):
        return False
    return bool(_failed_bits(g, pack_rows((word ^ original)[None, None, :]),
                             np.ones((1, 1), dtype=np.uint64), cap)[0, 0])


@dataclass(frozen=True)
class RunConfig:
    """Everything monte_carlo needs apart from trial count and seed."""

    graph: TannerGraph
    decoder: str
    fault_model: object
    cycles: int
    profile: ExpansionProfile | None = None
    check_accounting: bool = False

    def __post_init__(self) -> None:
        """Reject a run that cannot mean what it says, when it is built."""
        g, decoder, fault_model = self.graph, self.decoder, self.fault_model
        if decoder not in DECODERS:
            raise ConfigError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")
        if self.cycles < 1:
            raise ConfigError(f"cycles must be at least 1, got {self.cycles}")
        if not isinstance(fault_model, (AdversarialModel, IndependentModel)):
            raise ConfigError("fault_model must be AdversarialModel or IndependentModel")
        if self.check_accounting and not (self.profile is not None
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


def count_dtype(n: int) -> np.dtype:
    """The smallest signed integer type holding every count -1 .. n."""
    return np.min_scalar_type(-n - 1)


_BLOCK_BYTES = 1 << 21  # bound on the packed plan words of one block
# bounds on the observed words of one span of a cycle-dependent model, in
# bytes and in cycles: its loop runs up to _SPAN_CYCLES - 1 cycles past
# the last trial's failure
_SPAN_BYTES = 1 << 18
_SPAN_CYCLES = 32


def _draw_block(model, g: TannerGraph, keys, idx: np.ndarray, words: int,
                first: int, size: int, observed=None) -> list:
    """The packed plan words of the trials ``idx`` (keys ``keys``) for
    cycles first .. first+size-1, one (reg_words, xor_words, maj_words)
    tuple of ``words`` word rows per cycle.  One draw covers the block,
    row b*T + t for trial idx[t] at cycle first + b, and one scatter puts
    it into bit idx[t] % 64 of word b*words + idx[t] // 64.  A
    state-dependent model draws a block of one cycle from ``observed``,
    the trials' (T, n) states; a state-independent one reads None."""
    cycles = np.arange(first, first + size, dtype=np.uint64)[:, None]
    slots = (np.arange(size)[:, None] * (64 * words) + idx).ravel()
    packed = model.draw_batch(g, keys, cycles, observed) \
        .packed(g, slots, size * 64 * words)
    return [tuple(None if w is None else w[b * words:(b + 1) * words]
                  for w in packed) for b in range(size)]


def _simulate(config: RunConfig, keys: np.ndarray, *, record_states: bool = False):
    """The cycle loop, run for the trials with the given keys: a uint64
    array, or one trial's int key (which the draw kernels hash in Python).

    Per cycle, for every trial still alive: take its (register, gate)
    plans for (key, cycle), apply register decay, observe the
    pre-correction word, run one faulty correction round (none for
    decoder 'none'), observe again, then test for failure and retire the
    trials that failed.  The stored word is zero, which loses no output
    because every round commutes with adding a codeword (module
    docstring).

    Plans are drawn a block at a time (_draw_block): one draw for the
    trials alive at the block's first cycle and its next B cycles, keys
    _absorb(keys[None, :], cycles[:, None]), and one scatter into (B *
    ceil(T/64), ...) words, of which each cycle takes its slice.  B is the
    most cycles whose words fit in _BLOCK_BYTES, at least 1.  A
    cycle-independent model (repeat, cluster) draws one block of one
    cycle and reuses it; greedy draws a block of one cycle, every cycle,
    from the observed state.  Every row is a pure function of its (key,
    cycle), so results do not depend on B, and trials that fail inside a
    block leave bits that are never read.

    The state is (ceil(T/64), n) uint64 words for the whole run, trial t
    in bit t % 64 of word t // 64 (the layout of pack_rows): the
    registers, or for 'tk' the readouts of its (ceil(T/64), gamma, n)
    bit-copy words, plane j holding every variable's j-th copy.  The
    alive trials are the bits of the alive words.  Plans are scattered
    into their trials' bits (PlanBatch.packed); a register flip
    complements all copies of a 'tk' register, and a 'tk' readout is the
    majority of the copies, a tie keeping the previous readout (at even
    gamma the round leaves a variable's copies all equal or half set, so
    tk_readout_packed reads it with an AND and an OR).  The
    pre-correction readout needs no majority: the flip keeps a tie of the
    last readout a tie and flips every other majority, so it is the last
    readout with the flipped bits off its exact ties complemented.

    The observed (pre, post) words, each its own difference to the stored
    word, go into a buffer of S cycles: S = 1 for a cycle-independent
    model, else min(L, _SPAN_CYCLES, the most cycles whose words fit in
    _SPAN_BYTES), at least 1.  When it is full, and after the last cycle,
    the span is flushed:

    1. the suspects of every cycle of the span: the bits of the trials
       alive at the span's start whose post word is nonzero and
       changed since the previous cycle (an unchanged one was zero or
       found inside the class, so it needs no verdict);
    2. one bit-sliced verdict call on the span's (cycle, word) rows
       holding a suspect (_failed_bits): a suspect is decided in the
       round that confirms its fixpoint, leaves it zero, returns it to
       its state of two rounds before (a 2-cycle, which never
       converges) or reaches the cap, and once a trial fails at one
       cycle, its later cycles of the span are not decided;
    3. the retirement of the trials that failed, cycle by cycle, so a
       trial's failure cycle is its first failing one, and their bits
       cleared from the alive words;
    4. the accounting check of the span's cycles, cycle by cycle over the
       trials that ran each, and one popcounts call over the buffer for
       the corrupt counts of every trial.

    The loop stops after a flush that leaves no trial alive, so it runs
    at most S - 1 cycles past the last failure, or at the periodic exit
    of a cycle-independent model (below).  Counts past a trial's
    failure cycle are set to -1 at the end.  Bits of retired trials keep
    being refreshed but are never read.  Suspects, verdicts and counts
    are pure functions of the words, so results do not depend on S.  The
    words are unpacked only for ``record_states`` (each cycle's states
    are recorded before a flush ending on that cycle) and for a
    state-dependent (greedy) adversary, and for greedy only while some
    bit is set: a clean state is handed over as zeros.

    A cycle-independent model applies one map to a trial's state every
    cycle: its full state (the registers, or for 'tk' the copy words and
    the readout) after cycle l fixes every later cycle.  So one snapshot
    of the state is kept, taken at cycle 0 and retaken after cycles 1, 2,
    4, 8, ..., and a trial whose state after cycle l equals the snapshot
    of cycle s gets the period p = l - s, kept from then on (Brent's
    cycle detection: it finds a period of any length, one comparison per
    cycle).  Every cycle is flushed (S = 1), so a failed trial is retired
    in the cycle it fails and the exit follows the last failure.  After
    the first flush that leaves every alive trial with a period, each
    alive trial's counts (and recorded states) of every cycle c past that
    one are those of cycle c - p, the accounting of the filled cycles is
    checked, and the loop stops.  This is exact: s_l = s_{l-p} under one
    map gives s_c = s_{c-p} for every c >= l, so the observations of
    cycle c > l are those of cycle c - p >= 1.  Those post words were
    decided (or were unchanged from a decided one) inside the class,
    else the flush retired the trial, so no filled cycle fails;
    and the check over the filled cycles raises any violation first
    reached there, as running them would.

    Returns (corrupt, failure_cycle, recorded): (2, T, L) pre/post-correction
    corrupt counts of type count_dtype(n), -1 where a cycle did not run;
    (T,) failure cycles, -1 for survivors; and the (2, T, L, n) observed
    words when ``record_states`` is set, else None.  An accounting
    violation raises for the lowest violating trial of the first
    violating cycle, naming that trial when ``keys`` is an array.
    """
    g, model, L = config.graph, config.fault_model, config.cycles
    cap = detect_cap(config.profile, g.n)
    if config.check_accounting:
        b, contraction = model.budget, config.profile.contraction
        threshold = config.profile.correctable_fraction * g.n
        spend = (g.gamma * (g.rho - 2) * b.alpha_xor + b.alpha_maj + b.alpha_m) * g.n

    trials = np.size(keys)
    alive = pack_rows(np.ones(trials, dtype=bool))
    idx = np.arange(trials)
    state = np.zeros((alive.size, g.n), dtype=np.uint64)
    if config.decoder == "tk":
        copies = np.repeat(state[:, None], g.gamma, axis=1)
        ties = None  # the last readout's exact ties; equal copies never tie
    failure_cycle = np.full(trials, -1, dtype=np.int64)
    corrupt = np.full((2, trials, L), -1, dtype=count_dtype(g.n))
    recorded = np.zeros((2, trials, L, g.n), dtype=np.uint8) if record_states else None
    # the bytes of one cycle's (reg, xor, maj) words
    block_size = max(1, _BLOCK_BYTES // (8 * alive.size * (2 * g.n + g.m * g.rho)))
    block = []
    # a cycle-independent model applies one map every cycle: a trial whose
    # full state recurs is periodic from there on, its period found against
    # one snapshot retaken at cycles 1, 2, 4, 8, ... (Brent); its run
    # flushes every cycle, so the exit follows the last failure
    settles = not model.cycle_dependent
    # the (pre, post) words of the cycles not yet flushed
    span = 1 if settles else max(1, min(L, _SPAN_CYCLES, _SPAN_BYTES // (16 * state.size)))
    observed = np.empty((2, span) + state.shape, dtype=np.uint64)
    pending = 0
    # the post word of the cycle before the span: an alive trial's is zero
    # or was found inside the decoding class
    checked = np.zeros_like(state)

    def full_state() -> list:
        """What the next cycles read of the state, as (W, ...) words."""
        if config.decoder == "tk":
            return [state, copies.reshape(copies.shape[0], -1)]
        return [state]

    def flush(last: int) -> None:
        """Retire the trials that failed in the ``pending`` cycles up to
        ``last``, check those cycles' accounting and fill their corrupt
        counts, all from ``observed``."""
        first = last - pending + 1
        post = observed[1, :pending]
        suspects = np.bitwise_or.reduce(post, axis=-1) & alive
        if suspects.any():
            changed = np.empty_like(suspects)
            changed[0] = np.bitwise_or.reduce(post[0] ^ checked, axis=-1)
            changed[1:] = np.bitwise_or.reduce(post[1:] ^ post[:-1], axis=-1)
            suspects &= changed
        if suspects.any():
            failed = _failed_bits(g, post, suspects, cap)
            if failed.any():
                hit = unpack_bits(failed).reshape(pending, -1)[:, :trials]
                out = hit.any(axis=0)
                failure_cycle[out] = first + hit.argmax(axis=0)[out]
                alive[:] &= ~np.bitwise_or.reduce(failed, axis=0)
        checked[:] = post[-1]
        corrupt[:, :, first - 1:last] = popcounts(observed[:, :pending]) \
            .reshape(2, pending, -1)[:, :, :trials].transpose(0, 2, 1)
        check(first, last)

    def check(first: int, last: int) -> None:
        """The accounting check of cycles ``first`` .. ``last``, cycle by
        cycle over the trials that ran each, from ``corrupt``."""
        lo = max(first, 2)
        if not config.check_accounting or lo > last:
            return
        prev, cur = corrupt[0, :, lo - 2:last - 1], corrupt[0, :, lo - 1:last]
        bound = prev * contraction + spend
        ran = (failure_cycle[:, None] < 0) \
            | (np.arange(lo, last + 1) <= failure_cycle[:, None])
        broken = ran & (prev < threshold) & ~(cur < bound)
        if broken.any():
            col = int(np.argmax(broken.any(axis=0)))
            pos = int(np.argmax(broken[:, col]))
            named = isinstance(keys, np.ndarray)
            where = f"cycle {lo + col}" + (f", trial {pos}" if named else "")
            raise AccountingError(
                f"{where}: corrupt count {cur[pos, col]} not below bound "
                f"{bound[pos, col]:.6g} (previous count {prev[pos, col]})")

    def fill(last: int) -> None:
        """Repeat each alive trial's last period of counts (and recorded
        states) over cycles last+1 .. L, and check their accounting."""
        p = period[idx][:, None]
        src = last - p + np.arange(L - last) % p  # (alive, L - last) cycles
        # one gather along the cycle axis of the alive rows, one write back
        corrupt[:, idx, last:] = np.take_along_axis(corrupt[:, idx], src[None], axis=2)
        if record_states:
            recorded[:, idx, last:] = np.take_along_axis(
                recorded[:, idx], src[None, :, :, None], axis=2)
        check(last + 1, L)

    if settles:
        period = np.zeros(trials, dtype=np.int64)
        periodic = np.zeros_like(alive)
        snapshot, snapshot_cycle = [a.copy() for a in full_state()], 0

    for cycle in range(1, L + 1):
        if not block:
            alive_keys = keys if idx.size == trials else keys[idx]
            seen = None
            if model.state_dependent:  # a clean state needs no unpacking
                seen = (unpack_rows(state, trials)[idx] if state.any()
                        else np.zeros((idx.size, g.n), dtype=np.uint8))
            size = (min(block_size, L + 1 - cycle)
                    if model.cycle_dependent and seen is None else 1)
            block = _draw_block(model, g, alive_keys, idx, alive.size, cycle, size, seen)
        # retired trials' bits are never read
        words = block.pop(0) if model.cycle_dependent else block[0]

        reg_words, xor_words, maj_words = words
        if config.decoder == "tk":
            pre = state
            if reg_words is not None:
                copies ^= reg_words[:, None]
                # complementing every copy keeps a tie a tie and flips
                # every other majority
                pre = state ^ (reg_words if ties is None else reg_words & ~ties)
            copies = tk_round_packed(g, copies, xor_words, maj_words)
            state, ties = tk_readout_packed(copies, pre)
        else:
            if reg_words is not None:
                state ^= reg_words
            pre = state
            if config.decoder == "algorithm_a":
                state = algorithm_a_round_packed(g, state, xor_words, maj_words)
        observed[0, pending] = pre
        observed[1, pending] = state
        pending += 1
        if record_states:
            recorded[0, idx, cycle - 1] = unpack_rows(pre, trials)[idx]
            recorded[1, idx, cycle - 1] = unpack_rows(state, trials)[idx]
        if settles:
            differs = np.zeros_like(periodic)
            for now, then in zip(full_state(), snapshot):
                differs |= np.bitwise_or.reduce(now ^ then, axis=-1)
            found = ~(differs | periodic)
            if found.any():
                period[unpack_bits(found)[:trials]] = cycle - snapshot_cycle
                periodic |= found
            if cycle & (cycle - 1) == 0:
                snapshot, snapshot_cycle = [a.copy() for a in full_state()], cycle
        if pending == span or cycle == L:
            flush(cycle)
            pending = 0
            idx = np.flatnonzero(unpack_bits(alive))
            if idx.size == 0:
                break
            if settles and not (alive & ~periodic).any():
                fill(cycle)
                break

    # retired trials' bits were counted along
    corrupt[:, np.arange(1, L + 1) > np.where(failure_cycle < 0, L,
                                              failure_cycle)[:, None]] = -1
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
               check_accounting: bool = False,
               record_states: bool = False) -> SimReport:
    """Run one trial of L correction cycles; deterministic per seed.

    Per cycle: draw the (register, gate) plans for this (seed, cycle),
    apply register decay, record the pre-correction corrupt fraction, run
    the faulty correction (none for decoder 'none'), record again, then
    test for failure and stop early if it occurred.  This is the one-trial
    case of the Monte Carlo cycle loop: trial t of monte_carlo equals
    run_memory with seed (root_seed, t).
    """
    config = RunConfig(g, decoder, fault_model, cycles, profile, check_accounting)
    corrupt, failure_cycle, recorded = _simulate(
        config, seed_key(seed), record_states=record_states)
    return _report(config, corrupt[:, 0], failure_cycle[0],
                   None if recorded is None else recorded[:, 0])


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")


# Cephes ndtri (S. L. Moshier), the standard normal quantile behind
# scipy.special.ndtri and scipy.stats.norm.ppf: the same coefficients in
# the same order of operations, so the same doubles.  The Q sets carry
# the leading 1 that Cephes' p1evl implies (1.0 * x is exact).
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
# central branch, |y - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, x = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# tails, x >= 8 (y below exp(-32))
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule on coef, highest degree first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile of y in [0, 1]; -inf at 0, +inf at 1."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def wilson_interval(successes: int, total: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion.

    z is the normal quantile at 0.5 + confidence/2 from _ndtri, an
    in-package port of the Cephes routine that scipy.stats.norm.ppf
    evaluates, bit for bit; importing scipy for one number would cost
    most of a cold start."""
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes must lie in [0, total]")
    _check_confidence(confidence)
    z = _ndtri(0.5 + confidence / 2.0)
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


@dataclass
class MonteCarloResult:
    """What monte_carlo found: the failure rate with its Wilson interval,
    each trial's outcome and the per-cycle mean and maximum corrupt
    fractions over the trials that ran that cycle.

    ``corrupt`` is the engine's (2, T, L) array of pre- and
    post-correction corrupt counts of every trial and cycle, -1 where a
    cycle did not run, in the smallest signed integer type holding -1 .. n
    (count_dtype); ``config`` is the RunConfig that ran.  Neither is
    compared or serialized.  ``reports``, each trial's SimReport, is built
    from them on first use.
    """

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
    corrupt: np.ndarray | None = field(default=None, compare=False, repr=False)
    config: RunConfig | None = field(default=None, compare=False, repr=False)

    @cached_property
    def reports(self) -> list[SimReport]:
        """Each trial's SimReport, from ``corrupt``."""
        return [_report(self.config, self.corrupt[:, t], -1 if c is None else c)
                for t, c in enumerate(self.failure_cycle_by_trial)]

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
                confidence: float = 0.95) -> MonteCarloResult:
    """Aggregate independent seeded trials: failure rate with a Wilson
    interval plus mean/max corrupt-fraction trajectories.  Trial t runs
    under the seed (root_seed, t)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_confidence(confidence)
    corrupt, failure_cycle, _ = _simulate(
        config, trial_keys(root_seed, np.arange(trials)))
    failures = int(np.count_nonzero(failure_cycle >= 0))
    lo, hi = wilson_interval(failures, trials, confidence)
    # trials only ever drop out, so every recorded column precedes the
    # first empty one and holds at least one value
    recorded = (corrupt[0] >= 0).sum(axis=0)
    last = int(np.count_nonzero(recorded))
    kept, n = corrupt[:, :, :last], config.graph.n
    means = np.where(kept >= 0, kept / n, 0.0).sum(axis=1) / recorded[:last]
    maxima = kept.max(axis=1) / n
    return MonteCarloResult(
        trials=trials, failures=failures, failure_rate=failures / trials,
        ci_low=lo, ci_high=hi, confidence=confidence,
        failed_by_trial=(failure_cycle >= 0).tolist(),
        failure_cycle_by_trial=[int(c) if c >= 0 else None for c in failure_cycle],
        mean_alpha_pre=means[0].tolist(),
        max_alpha_pre=maxima[0].tolist(),
        mean_alpha_post=means[1].tolist(),
        max_alpha_post=maxima[1].tolist(),
        recorded=recorded[:last].tolist(),
        corrupt=corrupt, config=config,
    )
