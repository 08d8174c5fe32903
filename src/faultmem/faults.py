"""Register- and gate-fault plan generation for both failure models.

The adversarial model spends fixed per-use budgets (a maximal adversary
always spends them exactly); the independent model flips each component
with a fixed probability per use.

Every draw reads a keyed counter stream.  A trial's key is folded from
its seed (an int or a tuple of ints, e.g. (root_seed, trial)) with the
SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014), and the cycle is
folded in the same way for cycle-dependent draws.  Each class reads its
own segment of the SplitMix64 sequence seeded by the key, so a draw is a
pure function of (seed, cycle, class, index).  The kernels take the keys
of any set of trials, and for cycle-dependent draws a block of cycles,
and draw all their plans in a few numpy calls; a row never depends on
what else is in the batch, so one trial is a batch of one key.

Plans are drawn as index sets, never as per-component masks: an
independent class's fault count is Binomial(N, p), by inverting one keyed
uniform, and its positions a uniform subset of that size.  Every plan is
a PlanBatch of ragged (row, id) pairs per class, for both models.

The greedy adversary scores a pool of candidate register-flip sets per
trial by one reliable flip round.  The pools are scored over slabs of
consecutive trials, each slab's pool-key array at most _POOL_BYTES, so a
cycle's temporaries stay small enough to be reused rather than paged in
afresh.  In a slab the candidate states are variable-major words, (n,
T*W) with W = ceil(P/64): entry (v, t*W + p // 64) holds bit p % 64 for
candidate p of trial t, rounded by
decoders.parallel_bitflip_round_var_major.  A trial's choice is a pure
function of its key and its observed row, so no result depends on
_POOL_BYTES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decoders import broadcast_bits, parallel_bitflip_round_var_major, popcounts
from .exceptions import BudgetViolationError
from .expansion import ExpansionProfile
from .tanner import TannerGraph

STRATEGIES = ("random", "repeat", "cluster", "greedy")

# floor(alpha * N) on the mathematical product, shielded from float dust
def _budget_count(fraction: float, units: int) -> int:
    return int(math.floor(fraction * units + 1e-9))


# ---------------------------------------------------------------------------
# Keyed counter streams
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Each component class reads its own segment of a key's sequence:
# component j of the class at base b is output b + j + 1.
_REG, _XOR, _MAJ, _ORDER, _POOL, _COUNT = (c << 40 for c in range(6))


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int; a bijection of 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_UM1, _UM2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_UGOLDEN = np.uint64(_GOLDEN)


def _mix_rows(z: np.ndarray) -> np.ndarray:
    """The same finalizer in place on a uint64 array (arrays wrap mod 2^64),
    its shifts written into one scratch array."""
    t = np.right_shift(z, _U30)
    z ^= t
    z *= _UM1
    z ^= np.right_shift(z, _U27, out=t)
    z *= _UM2
    z ^= np.right_shift(z, _U31, out=t)
    return z


def _absorb(h, x):
    """Fold x into key h; for a fixed h, distinct x give distinct keys.
    Python ints stay Python ints (cheap for one trial); a uint64 array on
    either side gives the elementwise keys."""
    if not isinstance(x, np.ndarray):
        x = int(x) & _MASK
        if not isinstance(h, np.ndarray):
            return _mix(((h ^ x) + _GOLDEN) & _MASK)
    z = h ^ x
    z += _UGOLDEN
    return _mix_rows(z)


def _seed_parts(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [part for s in seed for part in _seed_parts(s)]


@functools.lru_cache(maxsize=1024)
def seed_key(seed) -> int:
    """64-bit key of a trial seed (an int or a (nested) tuple of ints)."""
    h = 0
    for part in _seed_parts(seed):
        h = _absorb(h, part)
    return h


def trial_keys(root_seed, trials) -> np.ndarray:
    """uint64 keys of the trials (root_seed, t) for t in ``trials``; entry
    i equals seed_key((root_seed, trials[i])).  ``trials`` must be 1-D."""
    trials = np.asarray(trials, dtype=np.uint64)
    if trials.ndim != 1:
        raise ValueError(f"trials must be 1-D, got shape {trials.shape}")
    return _absorb(seed_key(root_seed), trials)


def _rows(keys) -> np.ndarray:
    """Keys as a flat uint64 array."""
    if isinstance(keys, np.ndarray):
        return keys.ravel()
    return np.array([keys], dtype=np.uint64)


@functools.lru_cache(maxsize=16)
def _offsets(base: int, size: int) -> np.ndarray:
    out = np.arange(base + 1, base + size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    out.flags.writeable = False
    return out


def _below(keys: np.ndarray, bound: int, pos: int, stride: int) -> np.ndarray:
    """Exact uniform integers in [0, bound), one per key (of any shape),
    read at stream position ``pos``, as int64 (bound <= 2^63).  A value in
    the incomplete top block (probability below bound/2^64) is redrawn at
    pos + stride, pos + 2*stride, ..."""
    vals = np.add(keys, np.uint64((pos + 1) * _GOLDEN & _MASK))
    _mix_rows(vals)
    cut = (1 << 64) - (1 << 64) % bound
    if cut <= _MASK:
        bad = vals >= cut
        while bad.any():
            pos += stride
            redo = keys[bad]
            redo += np.uint64((pos + 1) * _GOLDEN & _MASK)
            vals[bad] = _mix_rows(redo)
            bad &= vals >= cut
    # vals - (vals // bound) * bound: division by a scalar has a fast path
    # that the remainder lacks
    bound = np.uint64(bound)
    quot = np.floor_divide(vals, bound)
    quot *= bound
    return np.subtract(vals, quot, out=vals).view(np.int64)


def _floyd(keys: np.ndarray, base: int, total: int, count: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Uniform count-subsets of range(total), one per key (of any shape),
    by Floyd's algorithm (count hashes per key, from the class at
    ``base``); each subset sorted ascending along the last axis of the
    keys.shape + (count,) int64 result, written into ``out`` when given."""
    if out is None:
        if count == 1:
            return _below(keys, total, base, 1)[..., None]
        out = np.empty(keys.shape + (count,), dtype=np.int64)
    for i in range(count):
        top = total - count + i
        pick = _below(keys, top + 1, base + i, count)
        if i:
            pick[(out[..., :i] == pick[..., None]).any(axis=-1)] = top
        out[..., i] = pick
    if count > 1:
        out.sort(axis=-1)
    return out


def _subsets(keys, base: int, total: int, count: int):
    return None if count == 0 else _floyd(keys, base, total, count)


def _ragged_subsets(keys: np.ndarray, base: int, total: int,
                    counts: np.ndarray):
    """(row, id) pairs of a uniform counts[r]-subset of range(total) for
    each key r: _floyd on each group of rows that share a count."""
    rows = np.repeat(np.arange(counts.size), counts)
    ids = np.empty(rows.size, dtype=np.int64)
    start = np.cumsum(counts) - counts
    for count in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        sel = np.flatnonzero(counts == count)
        ids[start[sel, None] + np.arange(count)] = _floyd(keys[sel], base,
                                                          total, count)
    return rows, ids


@functools.lru_cache(maxsize=64)
def _binomial_table(total: int, p: float) -> np.ndarray:
    """Inversion table of Binomial(total, p): entry k is 2^53 - round(2^53
    * P(X > k)), P(X > k) = I_p(k+1, total-k), so a 53-bit uniform u falls
    at k = searchsorted(table, u, 'right') with probability P(X = k) up to
    2^-53.  The last entry is 2^53; it may stand at mean + 12 sd + 31,
    because P(X > mean + 12 sd + 30) < 2^-54 by Bernstein's inequality.

    scipy.special is imported here, at the first independent draw, and
    not with the package: it is most of a cold start, and the adversarial
    model never needs it."""
    from scipy.special import betainc

    top = min(total - 1, math.ceil(total * p + 12 * math.sqrt(total * p * (1 - p))
                                   + 30))
    k = np.arange(top + 1)
    tail = np.append(np.minimum.accumulate(betainc(k + 1, total - k, p)), 0.0)
    table = np.uint64(2**53) - np.rint(tail * 2.0**53).astype(np.uint64)
    table.flags.writeable = False
    return table


def _binomial_counts(keys: np.ndarray, pos: int, total: int, p: float) -> np.ndarray:
    """One Binomial(total, p) count per key: the 53-bit uniform at position
    ``pos`` of the key's count segment inverted against _binomial_table."""
    u = _mix_rows(keys + np.uint64((_COUNT + pos + 1) * _GOLDEN & _MASK))
    return np.searchsorted(_binomial_table(total, p), u >> _U11, side="right")


def _first_distinct(seq: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` distinct values of each row, in order of first
    appearance; every row must hold at least that many."""
    rows, width = seq.shape
    order = np.argsort(seq, axis=1, kind="stable")
    srt = np.take_along_axis(seq, order, axis=1)
    first_sorted = np.ones((rows, width), dtype=bool)
    first_sorted[:, 1:] = srt[:, 1:] != srt[:, :-1]
    first = np.empty_like(first_sorted)
    np.put_along_axis(first, order, first_sorted, axis=1)
    keep = first & (np.cumsum(first, axis=1) <= count)
    return seq[keep].reshape(rows, count)


# ---------------------------------------------------------------------------
# Budgets, rates and plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarialBudget:
    """Worst-case fault fractions per use: registers per interval,
    two-input XOR gates and majority gates per round."""

    alpha_m: float = 0.0
    alpha_xor: float = 0.0
    alpha_maj: float = 0.0

    def __post_init__(self):
        for name in ("alpha_m", "alpha_xor", "alpha_maj"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must lie in [0,1), got {val}")

    def register_count(self, g: TannerGraph) -> int:
        return _budget_count(self.alpha_m, g.n)

    def xor_count(self, g: TannerGraph) -> int:
        return _budget_count(self.alpha_xor, g.n * g.gamma * (g.rho - 2))

    def maj_count(self, g: TannerGraph) -> int:
        return _budget_count(self.alpha_maj, g.n)

    def check_batch(self, g: TannerGraph, plans: "PlanBatch") -> None:
        """Vectorized check of a batch: every row spends exactly the
        budget, on distinct in-range component ids."""
        classes = (
            ("register flips", plans.reg, self.register_count(g), g.n),
            ("XOR gate faults", plans.xor, self.xor_count(g),
             g.n * g.gamma * (g.rho - 2)),
            ("majority gate faults", plans.maj, self.maj_count(g), g.n),
        )
        for name, pair, budget, total in classes:
            if pair is None:
                if budget:
                    raise BudgetViolationError(f"0 {name} per trial, budget {budget}")
                continue
            row, ids = pair
            widths = np.bincount(row, minlength=plans.rows)
            if (widths != budget).any():
                raise BudgetViolationError(f"{widths[np.argmax(widths != budget)]} "
                                           f"{name} per trial, budget {budget}")
            if budget == 0:
                continue
            if ids.min() < 0 or ids.max() >= total:
                raise BudgetViolationError(f"{name}: id outside [0, {total})")
            if budget > 1 and (np.diff(np.sort(row * total + ids)) == 0).any():
                raise BudgetViolationError(f"{name}: a component repeats in a plan")


@dataclass(frozen=True)
class IndependentRates:
    """Per-use flip probabilities, each in [0, 1/2)."""

    p_m: float = 0.0
    p_xor: float = 0.0
    p_maj: float = 0.0

    def __post_init__(self):
        for name in ("p_m", "p_xor", "p_maj"):
            val = getattr(self, name)
            if not 0.0 <= val < 0.5:
                raise ValueError(f"{name} must lie in [0, 1/2), got {val}")


def _pairs(ids: np.ndarray | None):
    """The (row, id) pairs of a (T, k) index array, k ids in every row."""
    if ids is None:
        return None
    return np.repeat(np.arange(ids.shape[0]), ids.shape[1]), ids.ravel()


@dataclass(slots=True)
class PlanBatch:
    """Fault plans for ``rows`` rows, each one trial at one cycle: per
    class a ragged (row, id) pair of int64 arrays, grouped by ascending
    row and sorted within a row, of register ids, flat XOR gate ids and
    majority ids (an adversarial row holds exactly the class budget).  A
    class with zero budget or zero rate is None.  The flat id of XOR gate
    (check, out_slot, chain_pos) is (check*rho + out_slot)*(rho-2) +
    chain_pos."""

    rows: int
    reg: tuple | None
    xor: tuple | None
    maj: tuple | None

    def packed(self, g: TannerGraph, slots=None, count=None):
        """(reg_words, xor_words, maj_words): the register flips, the net
        message flips (the parity of each chain's failed gates) and the
        majority complements, row r of the batch packed into bit
        slots[r] % 64 of word slots[r] // 64 (pack_rows' layout when the
        slots are the rows themselves, the default): (W, n), (W, gamma, n)
        and (W, n) uint64 words, W = ceil(count / 64), count defaulting to
        the row count, the chain parities in the variable-plane layout the
        packed rounds read (entry (j, v) is the chain behind the edge of
        variable v's j-th check).  A class without a fault in the batch is
        None.  One XOR scatter fills all three: two failed gates of one
        chain cancel, and a row's register and majority ids are distinct,
        so XOR sets their bits."""
        width = (2 + g.gamma) * g.n
        parts, at, bits, offset = [], [], [], 0
        xor = self.xor
        if xor is not None:  # gate id -> chain check*rho + slot -> plane*n + variable
            chain = xor[1] // (g.rho - 2)
            xor = xor[0], g.slot_copy_ids[chain % g.rho, chain // g.rho]
        for pair, size in ((self.reg, g.n), (xor, g.gamma * g.n), (self.maj, g.n)):
            part = None
            if pair is not None and pair[1].size:
                row, ids = pair
                slot = row if slots is None else slots[row]
                at.append(slot // 64 * width + offset + ids)
                bits.append(np.uint64(1) << (slot % 64).astype(np.uint64))
                part = slice(offset, offset + size)
            parts.append(part)
            offset += size
        if not at:
            return None, None, None
        count = self.rows if count is None else count
        words = np.zeros((-(-count // 64), width), dtype=np.uint64)
        np.bitwise_xor.at(words.reshape(-1), np.concatenate(at), np.concatenate(bits))
        reg, xor, maj = (None if part is None else words[:, part] for part in parts)
        return reg, None if xor is None else xor.reshape(-1, g.gamma, g.n), maj


# ---------------------------------------------------------------------------
# Draw kernels
# ---------------------------------------------------------------------------


def draw_independent_batch(rates: IndependentRates, g: TannerGraph, keys,
                           cycle) -> PlanBatch:
    """Independent per-component Bernoulli plans for the trials with the
    given keys (a uint64 array, or one int key) at ``cycle``; a (B, 1)
    uint64 array of cycles gives row b*T + t for trial t at cycle b.  A
    class's fault count is Binomial(N, p), its 53-bit count uniform
    inverted against _binomial_table, and its faults a uniform subset of
    that size (_floyd): the law of N iid Bernoulli(p) components, at
    2^-53 resolution.  A zero-rate class draws nothing."""
    keyed = _rows(_absorb(keys, cycle))
    classes = []
    for pos, (base, total, p) in enumerate(
            ((_REG, g.n, rates.p_m), (_XOR, g.n * g.gamma * (g.rho - 2), rates.p_xor),
             (_MAJ, g.n, rates.p_maj))):
        if p == 0.0:
            classes.append(None)
            continue
        counts = _binomial_counts(keyed, pos, total, p)
        classes.append(_ragged_subsets(keyed, base, total, counts))
    return PlanBatch(keyed.size, *classes)


def _cluster_rows(g: TannerGraph, keys, reg_count: int, xor_count: int,
                  maj_count: int):
    """Per key, a uniform check permutation (argsort of keyed values);
    registers and majority gates take the first distinct variables in
    neighborhood order, XOR gates the first ids of those checks' blocks of
    rho*(rho-2) gates.  Only the prefix of the permutation that is read
    is ordered."""
    count = max(reg_count, maj_count)
    block = g.rho * (g.rho - 2)
    # p checks fill p*rho slots and a variable takes at most gamma of
    # them, so ceil(count*gamma/rho) checks hold count distinct variables
    span = min(g.m, -(-count * g.gamma // g.rho))
    need = max(span, -(-xor_count // block) if xor_count else 0)
    if not need:
        return None, None, None
    values = _mix_rows(keys[:, None] + _offsets(_ORDER, g.m))
    # the keys of a row are distinct (distinct offsets through a
    # bijection), so the partition holds exactly the need smallest and
    # every sort kind gives the same order
    if need < g.m:
        part = np.argpartition(values, need - 1, axis=1)[:, :need]
        order = np.take_along_axis(
            part, np.argsort(np.take_along_axis(values, part, 1), axis=1), 1)
    else:
        order = np.argsort(values, axis=1)
    reg = maj = xor = None
    if count:
        seq = g.check_nbrs[order[:, :span]].reshape(order.shape[0], -1)
        first = _first_distinct(seq, count)
        if reg_count:
            reg = np.sort(first[:, :reg_count], axis=1)
        if maj_count:
            maj = np.sort(first[:, :maj_count], axis=1)
    if xor_count:
        j = np.arange(xor_count)
        xor = np.sort(order[:, j // block] * block + j % block, axis=1)
    return reg, xor, maj


GREEDY_POOL_SIZE = 64
# Bound on one slab's pool-key array in _greedy_rows: the slab's other
# temporaries are of the same order, small enough that the allocator
# reuses them from cycle to cycle instead of mapping fresh pages.
_POOL_BYTES = 1 << 16


def _greedy_rows(g: TannerGraph, keys, count: int, observed: np.ndarray,
                 pool_size: int) -> np.ndarray:
    """One-step lookahead per trial over a pool of register-flip sets:
    candidate 0 targets fresh registers first, the rest are uniform
    subsets.  The score is the post-correction corrupt count after one
    reliable flip round, then the pre-correction count; the first argmax
    wins.  Scored over consecutive slabs of trials, each slab's pool keys
    at most _POOL_BYTES; a row's choice is a pure function of its key and
    its observed row, so the result does not depend on the bound."""
    rows = observed.shape[0]
    slab = max(1, _POOL_BYTES // (8 * pool_size))
    out = np.empty((rows, count), dtype=np.int64)
    for lo in range(0, rows, slab):
        hi = min(rows, lo + slab)
        out[lo:hi] = _lookahead(g, keys[lo:hi], count, observed[lo:hi],
                                pool_size)
    return out


def _lookahead(g: TannerGraph, keys, count: int, observed: np.ndarray,
               pool_size: int) -> np.ndarray:
    """_greedy_rows on one slab.  One bit-sliced round covers every
    trial's pool, on variable-major words: candidate p of trial t is bit
    p % 64 of column t*W + p // 64, W = ceil(pool_size / 64)."""
    rows, n = observed.shape
    corrupt = observed != 0
    cands = np.empty((rows, pool_size, count), dtype=np.int64)
    cands[:, 0] = np.sort(np.argsort(corrupt, axis=1, kind="stable")[:, :count],
                          axis=1)
    _floyd(_absorb(keys[:, None], np.arange(1, pool_size, dtype=np.uint64)), _POOL,
           n, count, cands[:, 1:])
    # flipping a fresh register adds one corrupt bit, a stale one removes
    # it: the pre-correction count is corrupt.sum(axis=1) + count - 2 *
    # stale, and its row constant moves no argmax
    row_ids = np.arange(rows)
    stale = corrupt.reshape(-1).take(cands + (row_ids * n)[:, None, None]).sum(axis=2)
    # scatter-add of each candidate's bit into its registers' words: a
    # candidate's registers are distinct and no two candidates share a
    # bit, so no bit is set twice and np.add.at (which has a fast path)
    # ORs exactly
    words = -(-pool_size // 64)
    slot = np.arange(pool_size)
    col = row_ids[:, None] * words + slot // 64
    bit = np.uint64(1) << (slot % 64).astype(np.uint64)
    at = cands * (rows * words)
    at += col[..., None]
    states = np.zeros((n, rows * words), dtype=np.uint64)
    np.add.at(states.reshape(-1), at.ravel(),
              np.broadcast_to(bit[:, None], cands.shape).ravel())
    states.reshape(n, rows, words)[...] ^= broadcast_bits(observed.T)[:, :, None]
    wrong = parallel_bitflip_round_var_major(g, states)
    post = popcounts(wrong.T).reshape(rows, -1)[:, :pool_size]
    best = np.argmax(post * (n + 1) - 2 * stale, axis=1)
    return cands[row_ids, best]


def draw_adversarial_batch(budget: AdversarialBudget, g: TannerGraph,
                           strategy: str, keys, cycle, observed) -> PlanBatch:
    """Plans exactly at budget for the trials with the given keys (a
    uint64 array, or one int key); ``observed`` holds their (T, n)
    register states (read by greedy only).  For random, a (B, 1) uint64
    array of cycles gives B*T rows, row b*T + t for trial t at cycle b.
    Strategies:

    * random  -- uniform subsets, fresh per cycle;
    * repeat  -- the same subsets every cycle (keyed without the cycle);
    * cluster -- registers concentrated on the variable neighborhoods of
      a key-fixed check ordering, gates on the same checks;
    * greedy  -- register flips chosen by one-step lookahead against one
      reliable correction round (bounded candidate pool), gates random.

    The adversary sees the current register state, whose difference to
    the stored zero word is the state itself (worst-case, information
    unrestricted); it never sees future randomness.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    rc, xc, mc = budget.register_count(g), budget.xor_count(g), budget.maj_count(g)
    keyed = _rows(keys if strategy in ("repeat", "cluster") else _absorb(keys, cycle))
    if strategy == "cluster":
        reg, xor, maj = _cluster_rows(g, keyed, rc, xc, mc)
    else:
        if strategy == "greedy":
            reg = (_greedy_rows(g, keyed, rc, observed, GREEDY_POOL_SIZE)
                   if rc else None)
        else:
            reg = _subsets(keyed, _REG, g.n, rc)
        xor = _subsets(keyed, _XOR, g.n * g.gamma * (g.rho - 2), xc)
        maj = _subsets(keyed, _MAJ, g.n, mc)
    plans = PlanBatch(keyed.size, _pairs(reg), _pairs(xor), _pairs(maj))
    budget.check_batch(g, plans)
    return plans


# ---------------------------------------------------------------------------
# Model wrappers consumed by the simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarialModel:
    budget: AdversarialBudget
    strategy: str = "random"
    kind = "adversarial"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )

    @property
    def state_dependent(self) -> bool:
        return self.strategy == "greedy"

    @property
    def cycle_dependent(self) -> bool:
        return self.strategy in ("random", "greedy")

    def draw_batch(self, g, keys, cycle, observed) -> PlanBatch:
        return draw_adversarial_batch(self.budget, g, self.strategy, keys,
                                      cycle, observed)


@dataclass(frozen=True)
class IndependentModel:
    rates: IndependentRates
    kind = "independent"
    state_dependent = False
    cycle_dependent = True

    def draw_batch(self, g, keys, cycle, observed) -> PlanBatch:
        return draw_independent_batch(self.rates, g, keys, cycle)


def theorem2_margin(budget: AdversarialBudget, gamma: int, rho: int,
                    profile: ExpansionProfile) -> float:
    """Slack of the tolerance condition: alpha*(1+4e)*(4e)/2 minus
    alpha_m + gamma*(rho-2)*alpha_xor + alpha_maj.  Positive means the
    budgets are tolerable (the condition is strict, so 0 is not)."""
    spend = budget.alpha_m + gamma * (rho - 2) * budget.alpha_xor + budget.alpha_maj
    return profile.alpha_total - spend


def exceedance_frequency(p: float, delta: float, n: int, draws: int,
                         seed) -> float:
    """Monte Carlo frequency of the event 'more than (p+delta)*n of n
    independent components fail', each failing with probability p.

    Each draw's failure count is one Binomial(n, p) variate, the exact law
    of a sum of n Bernoulli(p) component masks, drawn as the independent
    model draws its fault counts: draw i inverts the keyed uniform of trial
    key (seed, i) against the binomial table.
    """
    if not 0.0 < p < 1.0 or delta <= 0.0:
        raise ValueError("need 0 < p < 1 and delta > 0")
    if draws < 1 or n < 1:
        raise ValueError("need draws >= 1 and n >= 1")
    counts = _binomial_counts(trial_keys(seed, np.arange(draws)), 0, n, p)
    return int((counts > (p + delta) * n).sum()) / draws
