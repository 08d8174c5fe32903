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
53-bit uniform against an exactly rounded table of the CDF, computed in
Python integers, and its positions a uniform subset of that size.  Every
plan is a PlanBatch of ragged (row, id) pairs per class, for both models.
Every uniform subset, and the cluster adversary's check order, is one
draw, _subset_draw: the first k distinct values of a keyed sequence of
ids, so a key's k-subset is a prefix of its (k+1)-subset and curves in
the budget or in p share random numbers.

The greedy adversary scores a pool of candidate register-flip sets per
trial by one reliable flip round.  The pools are scored over slabs of
consecutive trials, each slab's pool-key array at most _POOL_BYTES.  That
bounds a slab's temporaries (for one register flip at n = 36-40, about
0.45-0.55 MB at the peak, the largest single one a 110-160 KB gather in
the round), but it does not keep them off fresh pages: glibc reuses them
from cycle to cycle only while its dynamic mmap and trim thresholds,
raised by an earlier free of a large mapped block, sit above them.  In a
slab the candidate states are the engine's packed words, (T*W, n) with
W = ceil(P/64): entry (t*W + p // 64, v) holds bit p % 64 for candidate
p of trial t, rounded by decoders.algorithm_a_round_packed.  Only the
rows with a corrupt bit read their state; a clean row (every row while
the memory holds its stored word) needs no argsort, stale count or XOR
of its observed word.  At one register flip, on a graph whose round
restores every single flip, a clean row is not scored at all: its
choice is register 0, the choice scoring would make.  A trial's choice
is a pure function of its key and its observed row, so no result
depends on _POOL_BYTES.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .decoders import algorithm_a_round_packed, broadcast_bits, popcounts
from .exceptions import BudgetViolationError
from .tanner import TannerGraph

if TYPE_CHECKING:  # expansion imports this module's keyed streams
    from .expansion import ExpansionProfile

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
# component j of the class at base b is output b + j + 1.  The last two
# hold the expansion probe's subset sizes and members.
(_REG, _XOR, _MAJ, _ORDER, _POOL, _COUNT,
 _PROBE_SIZE, _PROBE_SET) = (c << 40 for c in range(8))
_REDRAW = 1 << 32  # _below's redraw step, past every draw position


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
    """64-bit key of a trial seed (an int or a (nested) tuple of ints),
    each part in [0, 2^64): a part outside would alias one inside, its
    value mod 2^64, so it is a ValueError."""
    h = 0
    for part in _seed_parts(seed):
        if not 0 <= part <= _MASK:
            raise ValueError(f"seed part {part} lies outside [0, 2^64)")
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


def _below(keys: np.ndarray, bound: int, pos) -> np.ndarray:
    """Exact uniform integers in [0, bound) as int64 (bound <= 2^63), read at
    stream position ``pos`` (an int, or a uint64 array broadcast against
    keys of any shape).  A value in the incomplete top block (probability
    below bound/2^64) is redrawn at pos + _REDRAW, pos + 2*_REDRAW, ..."""
    step = np.multiply(np.add(pos, 1, dtype=np.uint64), _UGOLDEN)  # wraps
    vals = _mix_rows(np.add(keys, step))
    cut = (1 << 64) - (1 << 64) % bound
    if cut <= _MASK:
        bad = vals >= cut
        while bad.any():
            step = np.add(step, _REDRAW * _GOLDEN & _MASK, dtype=np.uint64)
            vals[bad] = _mix_rows(np.add(keys, step)[bad])
            bad &= vals >= cut
    # vals - (vals // bound) * bound: division by a scalar has a fast path
    # that the remainder lacks
    bound = np.uint64(bound)
    quot = np.floor_divide(vals, bound)
    quot *= bound
    return np.subtract(vals, quot, out=vals).view(np.int64)


def _first_distinct(seq: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` distinct values of each row, in order of first
    appearance; all -1 in a row that holds fewer."""
    rows, width = seq.shape
    order = np.argsort(seq, axis=1, kind="stable")
    srt = np.take_along_axis(seq, order, axis=1)
    first = np.ones((rows, width), dtype=bool)
    np.put_along_axis(first, order[:, 1:], srt[:, 1:] != srt[:, :-1], axis=1)
    seen = np.cumsum(first, axis=1)
    full = seen[:, -1] >= count
    out = np.full((rows, count), -1, dtype=seq.dtype)
    out[full] = seq[first & (seen <= count) & full[:, None]].reshape(-1, count)
    return out


def _subset_draw(keys: np.ndarray, base: int, total: int, count: int) -> np.ndarray:
    """Uniform count-subsets of range(total), one per key (of any shape), as
    keys.shape + (count,) int64: the first count distinct values of the
    sequence _below(key, total, base + j), j = 0, 1, ..., in order of
    appearance (a smaller count's subset is a prefix).  Rows hash count +
    count^2 // total positions, a row holding fewer twice as many, ..."""
    if count == 1:
        return _below(keys, total, base)[..., None]
    flat = keys.reshape(-1)
    out = np.empty((flat.size, count), dtype=np.int64)
    rows, width = slice(None), count + count * count // total
    while True:
        pos = np.arange(base, base + width, dtype=np.uint64)
        out[rows] = got = _first_distinct(_below(flat[rows, None], total, pos), count)
        short = np.flatnonzero(got[:, -1] < 0)
        if not short.size:
            return out.reshape(keys.shape + (count,))
        rows, width = np.arange(flat.size)[rows][short], 2 * width


def _subsets(keys, base: int, total: int, count: int):
    """_subset_draw sorted along the last axis; None at count 0."""
    return None if count == 0 else np.sort(_subset_draw(keys, base, total, count))


def _ragged_subsets(keys: np.ndarray, base: int, total: int,
                    counts: np.ndarray):
    """(row, id) pairs, sorted within a row, of a uniform counts[r]-subset
    of range(total) per key r: its prefix of one _subset_draw at the top."""
    hit = np.flatnonzero(counts)
    if not hit.size:
        return hit, hit
    counts = counts[hit]
    ids = _subset_draw(keys[hit], base, total, int(counts.max()))
    keep = np.arange(ids.shape[1]) < counts[:, None]
    return np.repeat(hit, counts), np.sort(np.where(keep, ids, total))[keep]


def _rounded_cdf(total: int, p: float, top: int, bits: int) -> list[int] | None:
    """rint(2^53 P(X <= k)), ties to even, for k = 0..top and X ~
    Binomial(total, p); None where the error bound at ``bits``-bit
    mantissas leaves a rounding undecided.

    With p = a/2^e exactly and b = 2^e - a, P(X = 0) = (b/2^e)^total by
    squaring, and P(X = k+1) = P(X = k) (total-k) a / ((k+1) b).  Each term
    is m 2^s with m of at least ``bits`` bits, and the terms are summed in
    fixed point with ``bits`` fraction bits.  Every step rounds down, so a
    sum falls short of P(X <= k) by less than c 2^(1-bits) for the c
    roundings compounded into a term, plus 2^-bits per term added, and is
    exact when no step drops a nonzero bit."""
    a, den = float(p).as_integer_ratio()
    e, b = den.bit_length() - 1, den - a
    m, s, c, exact = 1, 0, 0, True
    for bit in bin(total)[2:]:
        m, s, c = m * m * (b if bit == "1" else 1), 2 * s, 2 * c
        cut = m.bit_length() - bits
        if cut > 0:
            exact = exact and not m & ((1 << cut) - 1)
            m, s, c = m >> cut, s + cut, c + 1
    s -= e * total
    acc, sums = 0, []
    for k in range(top + 1):
        if s + bits >= 0:
            acc += m << (s + bits)
        else:
            exact = exact and not m & ((1 << (-s - bits)) - 1)
            acc += m >> (-s - bits)
        sums.append(acc)
        # lift the numerator so that the quotient keeps >= bits bits
        x, d = m * (total - k) * a, (k + 1) * b
        lift = bits + d.bit_length() - x.bit_length()
        if lift < 0:
            exact = exact and not x & ((1 << -lift) - 1)
        m, rem = divmod(x << lift if lift >= 0 else x >> -lift, d)
        exact = exact and not rem
        s -= lift
    # the bound in units of 2^-bits; entries are units of 2^-53
    err = 0 if exact else 2 * (c + 2 * top) + top + 1
    shift = bits - 53
    half, low = 1 << (shift - 1), (1 << shift) - 1
    out = []
    for acc in sums:
        r = (acc + half) >> shift
        tie = not (acc + half) & low
        if err and (tie or (acc + err + half) >> shift != r):
            return None
        out.append(r - (tie and r & 1))
    return out


@functools.lru_cache(maxsize=64)
def _binomial_table(total: int, p: float) -> np.ndarray:
    """Inversion table of Binomial(total, p): entry k is rint(2^53 P(X <=
    k)), exactly rounded, so a 53-bit uniform u falls at k =
    searchsorted(table, u, 'right') with probability P(X = k) to 2^-53.
    The last entry is 2^53; it may stand at mean + 12 sd + 31, because
    P(X > mean + 12 sd + 30) < 2^-54 by Bernstein's inequality, so it is
    the exact rounding there too.  Every entry is monotone in p, as the
    CDF is and rint is.

    _rounded_cdf starts at 128-bit mantissas and doubles them until its
    bound decides every entry; once they hold every term whole, it is
    exact, which settles a true tie (total 1 and p in [1/4, 1/2) make one)."""
    top = min(total - 1, math.ceil(total * p + 12 * math.sqrt(total * p * (1 - p))
                                   + 30))
    bits = 128
    while (cdf := _rounded_cdf(total, p, top, bits)) is None:
        bits *= 2
    table = np.array(cdf + [2**53], dtype=np.uint64)
    table.flags.writeable = False
    return table


def _binomial_counts(keys: np.ndarray, pos: int, total: int, p: float) -> np.ndarray:
    """One Binomial(total, p) count per key: the 53-bit uniform at position
    ``pos`` of the key's count segment inverted against _binomial_table."""
    u = _mix_rows(keys + np.uint64((_COUNT + pos + 1) * _GOLDEN & _MASK))
    return np.searchsorted(_binomial_table(total, p), u >> _U11, side="right")


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
    that size: the law of N iid Bernoulli(p) components, each count's
    probability exactly rounded to 2^-53.  A zero-rate class draws nothing.
    A row's faults are the prefix of its _subset_draw at the batch's
    largest count, so they nest in p: the count inversion is monotone in p,
    as every table entry is."""
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
    """Per key, the first checks of a uniform check order, drawn as one
    _subset_draw over range(m) (a uniform ordered tuple of distinct
    checks, only as long as is read); registers and majority gates take
    the first distinct variables in neighborhood order, XOR gates the
    first ids of those checks' blocks of rho*(rho-2) gates."""
    count = max(reg_count, maj_count)
    block = g.rho * (g.rho - 2)
    # p checks fill p*rho slots and a variable takes at most gamma of
    # them, so ceil(count*gamma/rho) checks hold count distinct variables
    span = min(g.m, -(-count * g.gamma // g.rho))
    need = max(span, -(-xor_count // block) if xor_count else 0)
    if not need:
        return None, None, None
    order = _subset_draw(keys, _ORDER, g.m, need)
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
# Bound on one slab's pool-key array in _greedy_rows; the slab's other
# temporaries are of the same order.  Whether the allocator reuses them
# or maps fresh pages each cycle depends on its thresholds (module
# docstring), not on this bound.
_POOL_BYTES = 1 << 16


def _greedy_rows(g: TannerGraph, keys, count: int, observed: np.ndarray,
                 pool_size: int) -> np.ndarray:
    """One-step lookahead per trial over a pool of register-flip sets:
    candidate 0 targets fresh registers first, the rest are uniform
    subsets.  The score is the post-correction corrupt count after one
    reliable flip round, then the pre-correction count; the first argmax
    wins.  Scored over consecutive slabs of trials, each slab's pool keys
    at most _POOL_BYTES; a row's choice is a pure function of its key and
    its observed row, so the result does not depend on the bound.

    At one register flip, on a graph whose round restores every single
    flip (_restores_single_flips), a clean row's choice is register 0
    without drawing or scoring its pool: each of its candidates is one
    flip, so each scores post = 0 and pre = 1, and the first argmax is
    candidate 0, the stable argsort of an all-False row.  Only the
    corrupt rows are scored.  So greedy at criterion 3's budget, where
    every observed row is clean, scores nothing: it costs about as much
    as random, apart from drawing one cycle at a time."""
    out = np.zeros((observed.shape[0], count), dtype=np.int64)
    rows = slice(None)
    if count == 1 and _restores_single_flips(g):
        if not observed.any():  # one cheap test for an all-clean batch
            return out
        rows = np.flatnonzero(observed.any(axis=1))
        keys, observed = keys[rows], observed[rows]
    slab = max(1, _POOL_BYTES // (8 * pool_size))
    layout = _pool_layout(pool_size, count, slab)
    chosen = [_lookahead(g, keys[lo:lo + slab], count, observed[lo:lo + slab],
                         pool_size, layout)
              for lo in range(0, len(observed), slab)]
    if chosen:
        out[rows] = np.concatenate(chosen)
    return out


# _restores_single_flips per graph, computed at its first greedy draw at
# one register flip; weak keys, so a cached graph can still be freed
_SINGLE_FLIPS_RESTORED = weakref.WeakKeyDictionary()


def _restores_single_flips(g: TannerGraph) -> bool:
    """Whether one reliable flip round maps every single register flip
    back to the stored word (not so where two variables share more than
    gamma/2 checks, as on a 4-cycle at gamma = 3): one bit-sliced round
    over the n unit words, up to 1024 of them per round."""
    if g not in _SINGLE_FLIPS_RESTORED:
        n, chunk = g.n, 1024
        _SINGLE_FLIPS_RESTORED[g] = True
        for lo in range(0, n, chunk):
            v = np.arange(min(chunk, n - lo))
            units = np.zeros((-(-v.size // 64), n), dtype=np.uint64)
            units[v // 64, lo + v] = np.uint64(1) << (v % 64).astype(np.uint64)
            if algorithm_a_round_packed(g, units).any():
                _SINGLE_FLIPS_RESTORED[g] = False
                break
    return _SINGLE_FLIPS_RESTORED[g]


@functools.lru_cache(maxsize=16)
def _pool_layout(pool_size: int, count: int, rows: int):
    """The part of _lookahead's pool layout that reads no key or state,
    for slabs of up to ``rows`` trials (a smaller slab takes a prefix):
    the pool ids 1..pool_size-1, the (rows, pool_size, 1) word row t*W +
    p // 64 of candidate p of trial t, and candidate p's bit p % 64 for
    every (trial, candidate, register), raveled."""
    words = -(-pool_size // 64)
    slot = np.arange(pool_size)
    col = (np.arange(rows)[:, None] * words + slot // 64)[..., None]
    bit = np.uint64(1) << (slot % 64).astype(np.uint64)
    bits = np.broadcast_to(bit[:, None], (rows, pool_size, count)).ravel()
    ids = np.arange(1, pool_size, dtype=np.uint64)
    for arr in (ids, col, bits):
        arr.flags.writeable = False
    return ids, col, bits


def _lookahead(g: TannerGraph, keys, count: int, observed: np.ndarray,
               pool_size: int, layout) -> np.ndarray:
    """_greedy_rows on one slab, ``layout`` being _pool_layout's for at
    least as many rows.  One bit-sliced round covers every trial's pool,
    on the engine's words: candidate p of trial t is bit p % 64 of row
    t*W + p // 64, W = ceil(pool_size / 64).

    Only the rows with a corrupt bit read their state.  A clean row's
    candidate 0 is registers 0..count-1 (the stable argsort of an
    all-False row), none of its candidates flips a stale register, and
    XOR-ing its observed word into its states changes nothing, so its
    score is the post-correction count alone."""
    rows, n = observed.shape
    ids, col, bits = layout
    cands = np.empty((rows, pool_size, count), dtype=np.int64)
    cands[:, 0] = np.arange(count)
    cands[:, 1:] = _subset_draw(_absorb(keys[:, None], ids), _POOL, n, count)
    hit = observed.any(axis=1)
    # a slab of corrupt rows only is read through views
    dirty = slice(None) if hit.all() else np.flatnonzero(hit)
    seen = observed[dirty]
    corrupt = seen != 0
    if len(seen):
        cands[dirty, 0] = np.argsort(corrupt, axis=1, kind="stable")[:, :count]
    # scatter-add of each candidate's bit into its registers' words: a
    # candidate's registers are distinct and no two candidates share a
    # bit, so no bit is set twice and np.add.at (which has a fast path)
    # ORs exactly
    words = -(-pool_size // 64)
    at = col[:rows] * n + cands
    states = np.zeros((rows * words, n), dtype=np.uint64)
    np.add.at(states.reshape(-1), at.ravel(), bits[:cands.size])
    if len(seen):
        states.reshape(rows, words, n)[dirty] ^= broadcast_bits(seen)[:, None, :]
    wrong = algorithm_a_round_packed(g, states)
    post = popcounts(wrong).reshape(rows, -1)[:, :pool_size]
    best = np.argmax(post, axis=1)
    if len(seen):
        # flipping a fresh register adds one corrupt bit, a stale one
        # removes it: the pre-correction count is corrupt.sum(axis=1) +
        # count - 2 * stale, and its row constant moves no argmax
        dirty_cands = cands[dirty] + (np.arange(len(seen)) * n)[:, None, None]
        stale = corrupt.reshape(-1).take(dirty_cands).sum(axis=2)
        best[dirty] = np.argmax(post[dirty] * (n + 1) - 2 * stale, axis=1)
    return np.sort(cands[np.arange(rows), best])


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
      the first checks of a key-fixed uniform check order (one subset
      draw), gates on the same checks;
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
