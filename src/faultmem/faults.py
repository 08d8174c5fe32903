"""Register- and gate-fault plan generation for both failure models.

The adversarial model spends fixed per-use budgets (a maximal adversary
always spends them exactly); the independent model flips each component
with a fixed probability per use.

Every draw reads a keyed counter stream.  A trial's key is folded from
its seed (an int or a tuple of ints, e.g. (root_seed, trial)) with the
SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014), and the cycle is
folded in the same way for cycle-dependent draws.  Component j of a
class reads output j of that class's segment of the SplitMix64 sequence
seeded by the key, so a draw is a pure function of (seed, cycle, class,
index).  The kernels take the keys of any set of trials and draw one
cycle's plans for all of them in a few numpy calls; row t never depends
on which other trials are in the batch.  The one-trial functions
(``draw_adversarial``, ``draw_independent``) are the one-row case of the
same kernels, with their keys derived in Python ints.

Batched plans are a PlanBatch: (T, k) index arrays for the adversarial
model, dense (T, .) masks for the independent one.  The plan dataclasses
remain the return type of the one-trial draws.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .decoders import GateFaultPlan, pack_rows, parallel_bitflip_round_packed
from .exceptions import BudgetViolationError
from .expansion import ExpansionProfile
from .tanner import TannerGraph, Word, as_word, zero_word

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
_REG, _XOR, _MAJ, _ORDER, _POOL = (c << 40 for c in range(5))
_HASH_CHUNK = 1 << 18  # hashed values held at once by a dense draw


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int; a bijection of 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)
_UM1, _UM2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_rows(z: np.ndarray) -> np.ndarray:
    """The same finalizer in place on a uint64 array (arrays wrap mod 2^64)."""
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


def _absorb(h, x):
    """Fold x into key h; for a fixed h, distinct x give distinct keys.
    Python ints stay Python ints (cheap for one trial); a uint64 array on
    either side gives the elementwise keys."""
    if not isinstance(x, np.ndarray):
        x = int(x) & _MASK
        if not isinstance(h, np.ndarray):
            return _mix(((h ^ x) + _GOLDEN) & _MASK)
    return _mix_rows((h ^ x) + _GOLDEN)


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
    i equals seed_key((root_seed, trials[i]))."""
    return _absorb(seed_key(root_seed), np.asarray(trials, dtype=np.uint64))


def _rows(keys) -> np.ndarray:
    if isinstance(keys, np.ndarray):
        return keys
    return np.array([keys], dtype=np.uint64)


@functools.lru_cache(maxsize=16)
def _offsets(base: int, size: int) -> np.ndarray:
    out = np.arange(base + 1, base + size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    out.flags.writeable = False
    return out


def _stream(keys, base: int, size: int) -> np.ndarray:
    """SplitMix64 outputs base+1 .. base+size of each key's sequence,
    shape (T, size)."""
    return _mix_rows(_rows(keys)[:, None] + _offsets(base, size))


def _below(keys: np.ndarray, bound: int, pos: int, stride: int) -> np.ndarray:
    """Exact uniform integers in [0, bound), one per key, read at stream
    position ``pos``.  A value in the incomplete top block (probability
    below bound/2^64) is redrawn at pos + stride, pos + 2*stride, ..."""
    vals = _mix_rows(keys + ((pos + 1) * _GOLDEN & _MASK))
    cut = (1 << 64) - (1 << 64) % bound
    if cut <= _MASK:
        bad = vals >= cut
        while bad.any():
            pos += stride
            vals[bad] = _mix_rows(keys[bad] + ((pos + 1) * _GOLDEN & _MASK))
            bad &= vals >= cut
    return (vals % bound).astype(np.int64)


def _floyd(keys: np.ndarray, base: int, total: int, count: int) -> np.ndarray:
    """Uniform count-subsets of range(total), one per key, by Floyd's
    algorithm (count hashes per key, from the class at ``base``); rows
    sorted ascending."""
    out = np.empty((keys.shape[0], count), dtype=np.int64)
    for i in range(count):
        top = total - count + i
        pick = _below(keys, top + 1, base + i, count)
        if i:
            pick[(out[:, :i] == pick[:, None]).any(axis=1)] = top
        out[:, i] = pick
    out.sort(axis=1)
    return out


def _subsets(keys, base: int, total: int, count: int):
    return None if count == 0 else _floyd(_rows(keys), base, total, count)


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

    def check_plans(self, g: TannerGraph, reg_plan: "RegisterFaultPlan",
                    gate_plan: GateFaultPlan) -> None:
        if len(reg_plan.flips) > self.register_count(g):
            raise BudgetViolationError(
                f"{len(reg_plan.flips)} register flips exceed budget "
                f"{self.register_count(g)}"
            )
        if len(gate_plan.xor_flips) > self.xor_count(g):
            raise BudgetViolationError(
                f"{len(gate_plan.xor_flips)} XOR gate faults exceed budget "
                f"{self.xor_count(g)}"
            )
        if len(gate_plan.maj_flips) > self.maj_count(g):
            raise BudgetViolationError(
                f"{len(gate_plan.maj_flips)} majority gate faults exceed budget "
                f"{self.maj_count(g)}"
            )

    def check_batch(self, g: TannerGraph, plans: "PlanBatch") -> None:
        """Vectorized check of index-form plans: every row spends exactly
        the budget, on distinct in-range component ids."""
        classes = (
            ("register flips", plans.reg, self.register_count(g), g.n),
            ("XOR gate faults", plans.xor, self.xor_count(g),
             g.n * g.gamma * (g.rho - 2)),
            ("majority gate faults", plans.maj, self.maj_count(g), g.n),
        )
        for name, ids, budget, total in classes:
            width = 0 if ids is None else ids.shape[1]
            if width != budget:
                raise BudgetViolationError(
                    f"{width} {name} per trial, budget {budget}")
            if width == 0 or ids.shape[0] == 0:
                continue
            if ids.min() < 0 or ids.max() >= total:
                raise BudgetViolationError(f"{name}: id outside [0, {total})")
            if width > 1 and (np.diff(np.sort(ids, axis=1), axis=1) == 0).any():
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


@dataclass(frozen=True)
class RegisterFaultPlan:
    """Registers whose stored bit is complemented this interval."""

    flips: frozenset = frozenset()

    @classmethod
    def empty(cls) -> "RegisterFaultPlan":
        return _EMPTY_REG

    def apply(self, word: Word) -> Word:
        out = word.copy()
        if self.flips:
            out[list(self.flips)] ^= 1
        return out


_EMPTY_REG = RegisterFaultPlan()


@dataclass(slots=True)
class PlanBatch:
    """One cycle's fault plans for a batch of trials, row t for trial t.

    Index form (``dense`` False, adversarial model): reg, xor and maj are
    (T, k) int64 arrays of register ids, flat XOR gate ids and majority
    ids, k being the class budget, rows sorted.  Mask form (``dense`` True,
    independent model): (T, n), (T, n*gamma*(rho-2)) and (T, n) bool
    masks.  A class with zero budget or zero rate is None.  The flat id of
    XOR gate (check, out_slot, chain_pos) is
    (check*rho + out_slot)*(rho-2) + chain_pos.
    """

    reg: np.ndarray | None
    xor: np.ndarray | None
    maj: np.ndarray | None
    dense: bool = False

    def take(self, rows) -> "PlanBatch":
        return PlanBatch(*(None if a is None else a[rows]
                           for a in (self.reg, self.xor, self.maj)), self.dense)

    def flip_registers(self, states: np.ndarray) -> None:
        """Complement the planned registers of (T, n) ``states`` in place;
        with (T, n, gamma) bit-copy states, all copies of a register."""
        if self.reg is None:
            return
        if self.dense:
            states ^= self.reg.reshape(self.reg.shape + (1,) * (states.ndim - 2))
        else:
            states[np.arange(states.shape[0])[:, None], self.reg] ^= 1

    def xor_parity(self, g: TannerGraph) -> np.ndarray | None:
        """(T, m, rho) net message flips: parity of each chain's failed
        gates.  None when no XOR gate of the batch failed."""
        if self.xor is None or (self.dense and not self.xor.any()):
            return None
        rows = self.xor.shape[0]
        if self.dense:
            chains = self.xor.view(np.uint8).reshape(rows, g.m, g.rho, g.rho - 2)
            return np.bitwise_xor.reduce(chains, axis=-1)
        chain = self.xor // (g.rho - 2) + (np.arange(rows) * (g.m * g.rho))[:, None]
        parity = np.zeros(rows * g.m * g.rho, dtype=np.uint8)
        np.bitwise_xor.at(parity, chain.ravel(), 1)
        return parity.reshape(rows, g.m, g.rho)

    def maj_mask(self, n: int) -> np.ndarray | None:
        """(T, n) 0/1 complement mask of failed majority gates; None when
        no majority gate of the batch failed."""
        if self.maj is None or (self.dense and not self.maj.any()):
            return None
        if self.dense:
            return self.maj.view(np.uint8)
        mask = np.zeros((self.maj.shape[0], n), dtype=np.uint8)
        mask[np.arange(self.maj.shape[0])[:, None], self.maj] = 1
        return mask

    def gate_words(self, g: TannerGraph):
        """(xor_words, maj_words): the chain parities and majority masks of
        xor_parity / maj_mask packed as pack_rows packs them, (W, m, rho)
        and (W, n) uint64 words with trial t in bit t % 64 of word t // 64;
        None where xor_parity / maj_mask is None."""
        if self.dense:
            parity, mask = self.xor_parity(g), self.maj_mask(g.n)
            return (None if parity is None else pack_rows(parity),
                    None if mask is None else pack_rows(mask))
        xor = None if self.xor is None else _scatter_bits(
            self.xor // (g.rho - 2), g.m * g.rho, np.bitwise_xor)
        # a row's majority ids are distinct, so adding its bit is an OR
        maj = None if self.maj is None else _scatter_bits(self.maj, g.n, np.add)
        return None if xor is None else xor.reshape(-1, g.m, g.rho), maj

    def _ids(self, arr, row) -> list[int]:
        if arr is None:
            return []
        return (arr[row].nonzero()[0] if self.dense else arr[row]).tolist()

    def plan(self, row: int, g: TannerGraph):
        """Row ``row`` as a (RegisterFaultPlan, GateFaultPlan) pair."""
        chain = g.rho - 2
        reg = self._ids(self.reg, row)
        xor = self._ids(self.xor, row)
        maj = self._ids(self.maj, row)
        reg_plan = RegisterFaultPlan(frozenset(reg)) if reg else _EMPTY_REG
        if not xor and not maj:
            return reg_plan, GateFaultPlan.empty()
        return reg_plan, GateFaultPlan(
            frozenset((idx // chain // g.rho, idx // chain % g.rho, idx % chain)
                      for idx in xor),
            frozenset(maj))


def _scatter_bits(ids: np.ndarray, width: int, combine) -> np.ndarray:
    """(ceil(T/64), width) uint64 words with the bit of trial t (bit t % 64
    of word t // 64) combined by the ufunc ``combine`` into the columns
    listed in row t of the (T, k) ``ids``."""
    rows = ids.shape[0]
    trial = np.arange(rows)
    words = np.zeros(-(-rows // 64) * width, dtype=np.uint64)
    bit = np.uint64(1) << (trial % 64).astype(np.uint64)
    combine.at(words, (((trial // 64) * width)[:, None] + ids).ravel(),
               np.repeat(bit, ids.shape[1]))
    return words.reshape(-1, width)


# ---------------------------------------------------------------------------
# Draw kernels
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _bernoulli_layout(rates: IndependentRates, n: int, total_xor: int):
    """Stream offsets, 64-bit cut-offs and column slices of the classes
    with a nonzero rate, laid side by side.  A 53-bit uniform u = v >> 11
    lies below floor(p * 2^53) exactly when v < floor(p * 2^53) << 11."""
    classes = [(base, size, int(p * 2.0 ** 53) << 11) for base, size, p in
               ((_REG, n, rates.p_m), (_XOR, total_xor, rates.p_xor),
                (_MAJ, n, rates.p_maj)) if p > 0.0]
    if not classes:
        return None
    offsets = np.concatenate([_offsets(base, size) for base, size, _ in classes])
    cutoffs = np.repeat(np.array([cut for _, _, cut in classes], dtype=np.uint64),
                        [size for _, size, _ in classes])
    slices, start = {}, 0
    for base, size, _ in classes:
        slices[base] = slice(start, start + size)
        start += size
    return offsets, cutoffs, slices


def draw_independent_batch(rates: IndependentRates, g: TannerGraph, keys,
                           cycle) -> PlanBatch:
    """Independent per-component Bernoulli masks for the trials with the
    given keys (a uint64 array, or one int key) at ``cycle``.  Component j
    of a class fails when the 53-bit uniform integer at position j of the
    class stream is below floor(p * 2^53); the classes share one hash
    call, and a zero-rate class draws nothing."""
    layout = _bernoulli_layout(rates, g.n, g.n * g.gamma * (g.rho - 2))
    masks = {}
    if layout is not None:
        offsets, cutoffs, slices = layout
        keyed = _rows(_absorb(keys, cycle))
        hit = np.empty((keyed.size, offsets.size), dtype=bool)
        step = max(1, _HASH_CHUNK // offsets.size)  # bounds the uint64 temporaries
        for lo in range(0, keyed.size, step):
            hit[lo:lo + step] = _mix_rows(keyed[lo:lo + step, None] + offsets) < cutoffs
        masks = {base: hit[:, cols] for base, cols in slices.items()}
    return PlanBatch(masks.get(_REG), masks.get(_XOR), masks.get(_MAJ),
                     dense=True)


def draw_independent(rates: IndependentRates, g: TannerGraph, seed, cycle):
    """Independent per-component Bernoulli plans, deterministic for
    (seed, cycle)."""
    return draw_independent_batch(rates, g, seed_key(seed), cycle).plan(0, g)


def _cluster_rows(g: TannerGraph, keys, reg_count: int, xor_count: int,
                  maj_count: int):
    """Per key, a uniform check permutation (argsort of keyed values);
    registers and majority gates take the first distinct variables in
    neighborhood order, XOR gates the first ids of those checks' blocks of
    rho*(rho-2) gates."""
    order = np.argsort(_stream(keys, _ORDER, g.m), axis=1, kind="stable")
    reg = maj = xor = None
    count = max(reg_count, maj_count)
    if count:
        # p checks fill p*rho slots and a variable takes at most gamma of
        # them, so ceil(count*gamma/rho) checks hold count distinct variables
        span = min(g.m, -(-count * g.gamma // g.rho))
        seq = g.check_nbrs[order[:, :span]].reshape(order.shape[0], -1)
        first = _first_distinct(seq, count)
        if reg_count:
            reg = np.sort(first[:, :reg_count], axis=1)
        if maj_count:
            maj = np.sort(first[:, :maj_count], axis=1)
    if xor_count:
        block = g.rho * (g.rho - 2)
        j = np.arange(xor_count)
        xor = np.sort(order[:, j // block] * block + j % block, axis=1)
    return reg, xor, maj


GREEDY_POOL_SIZE = 64


def _broadcast_bits(word: np.ndarray) -> np.ndarray:
    """uint64 words with every bit equal to the matching 0/1 entry."""
    return np.uint64(0) - word.astype(np.uint64)


def _greedy_rows(g: TannerGraph, keys, count: int, observed: np.ndarray,
                 original: np.ndarray, pool_size: int) -> np.ndarray:
    """One-step lookahead per trial over a pool of register-flip sets:
    candidate 0 targets fresh registers first, the rest are uniform
    subsets.  The score is the post-correction corrupt count after one
    reliable flip round, then the pre-correction count; the first argmax
    wins.  One bit-sliced round covers every trial's pool: candidate p of
    a trial is bit p % 64 of word p // 64 of that trial's states."""
    rows = observed.shape[0]
    corrupt = observed != original
    first = np.sort(np.argsort(corrupt, axis=1, kind="stable")[:, :count], axis=1)
    pool_keys = _absorb(_rows(keys)[:, None],
                        np.arange(1, pool_size, dtype=np.uint64))
    rand = _floyd(pool_keys.ravel(), _POOL, g.n, count)
    cands = np.concatenate(
        [first[:, None, :], rand.reshape(rows, pool_size - 1, count)], axis=1)
    row_ids = np.arange(rows)[:, None, None]
    # flipping a fresh register adds one corrupt bit, a stale one removes it
    stale = corrupt[row_ids, cands].sum(axis=2)
    pre = corrupt.sum(axis=1)[:, None] + count - 2 * stale
    # scatter-OR of each candidate's bit into the words of its registers;
    # a candidate's registers are distinct and no two candidates share a
    # bit, so no bit is set twice and np.add.at (which has a fast path)
    # ORs exactly
    words = -(-pool_size // 64)
    slot = np.arange(pool_size)
    at = (row_ids * words + (slot // 64)[:, None]) * g.n + cands
    bit = np.uint64(1) << (slot % 64).astype(np.uint64)
    flips = np.zeros((rows, words, g.n), dtype=np.uint64)
    np.add.at(flips.reshape(-1), at.ravel(),
              np.broadcast_to(bit[:, None], cands.shape).ravel())
    states = flips ^ _broadcast_bits(observed)[:, None, :]
    wrong = parallel_bitflip_round_packed(g, states) ^ _broadcast_bits(original)
    # vertical popcount: variable-major words unpacked low bit first put
    # candidate p of trial t in column t*64*words + p; a uint8 sum over at
    # most 255 variables cannot overflow, and int64 holds the total
    bits = np.unpackbits(np.ascontiguousarray(wrong.transpose(2, 0, 1), dtype="<u8")
                         .view(np.uint8), bitorder="little").reshape(g.n, -1)
    post = np.zeros(bits.shape[1], dtype=np.int64)
    for lo in range(0, g.n, 255):
        post += bits[lo:lo + 255].sum(axis=0, dtype=np.uint8)
    post = post.reshape(rows, -1)[:, :pool_size]
    best = np.argmax(post * (g.n + 1) + pre, axis=1)
    return cands[np.arange(rows), best]


def draw_adversarial_batch(budget: AdversarialBudget, g: TannerGraph,
                           strategy: str, keys, cycle, observed, original=None,
                           pool_size: int = GREEDY_POOL_SIZE) -> PlanBatch:
    """Index-form plans exactly at budget for the trials with the given
    keys (a uint64 array, or one int key); ``observed`` holds their (T, n)
    register states (read by greedy only).  Strategies:

    * random  -- uniform subsets, fresh per cycle;
    * repeat  -- the same subsets every cycle (keyed without the cycle);
    * cluster -- registers concentrated on the variable neighborhoods of
      a key-fixed check ordering, gates on the same checks;
    * greedy  -- register flips chosen by one-step lookahead against one
      reliable correction round (bounded candidate pool), gates random.

    The adversary sees the current register state and, for greedy
    scoring, the originally stored word (worst-case, information
    unrestricted); it never sees future randomness.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if pool_size < 1:
        raise ValueError(f"pool_size must be at least 1, got {pool_size}")
    rc, xc, mc = budget.register_count(g), budget.xor_count(g), budget.maj_count(g)
    if strategy == "cluster":
        reg, xor, maj = _cluster_rows(g, keys, rc, xc, mc)
    else:
        keyed = keys if strategy == "repeat" else _absorb(keys, cycle)
        if strategy == "greedy":
            original = zero_word(g.n) if original is None else original
            reg = (_greedy_rows(g, keyed, rc, observed, original, pool_size)
                   if rc else None)
        else:
            reg = _subsets(keyed, _REG, g.n, rc)
        xor = _subsets(keyed, _XOR, g.n * g.gamma * (g.rho - 2), xc)
        maj = _subsets(keyed, _MAJ, g.n, mc)
    plans = PlanBatch(reg, xor, maj)
    budget.check_batch(g, plans)
    return plans


def _word_view(word, n: int) -> np.ndarray:
    """Shape/dtype normalization without the per-bit value scan; fault
    draws sit on the simulator's hot path and its words are binary by
    construction.  Non-array or wrongly sized input still fails loudly."""
    if isinstance(word, np.ndarray) and word.dtype == np.uint8:
        if word.shape != (n,):
            raise ValueError(f"length mismatch: expected {n} bits, got {word.shape}")
        return word
    return as_word(word, n)


def draw_adversarial(budget: AdversarialBudget, g: TannerGraph, strategy: str,
                     seed, cycle, observed_state, original=None,
                     pool_size: int = GREEDY_POOL_SIZE):
    """One trial's plans for (seed, cycle): the one-row case of
    draw_adversarial_batch, as a (RegisterFaultPlan, GateFaultPlan) pair."""
    observed = _word_view(observed_state, g.n)
    original = None if original is None else _word_view(original, g.n)
    return draw_adversarial_batch(budget, g, strategy, seed_key(seed), cycle,
                                  observed[None, :], original,
                                  pool_size).plan(0, g)


# ---------------------------------------------------------------------------
# Model wrappers consumed by the simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarialModel:
    budget: AdversarialBudget
    strategy: str = "random"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )

    @property
    def kind(self) -> str:
        return "adversarial"

    @property
    def state_dependent(self) -> bool:
        return self.strategy == "greedy"

    @property
    def cycle_dependent(self) -> bool:
        return self.strategy in ("random", "greedy")

    def draw_batch(self, g, keys, cycle, observed, original) -> PlanBatch:
        return draw_adversarial_batch(self.budget, g, self.strategy, keys,
                                      cycle, observed, original)


@dataclass(frozen=True)
class IndependentModel:
    rates: IndependentRates

    @property
    def kind(self) -> str:
        return "independent"

    @property
    def state_dependent(self) -> bool:
        return False

    @property
    def cycle_dependent(self) -> bool:
        return True

    def draw_batch(self, g, keys, cycle, observed, original) -> PlanBatch:
        return draw_independent_batch(self.rates, g, keys, cycle)


def theorem2_margin(budget: AdversarialBudget, gamma: int, rho: int,
                    profile: ExpansionProfile) -> float:
    """Slack of the tolerance condition: alpha*(1+4e)*(4e)/2 minus
    alpha_m + gamma*(rho-2)*alpha_xor + alpha_maj.  Positive means the
    budgets are tolerable (the condition is strict, so 0 is not)."""
    spend = budget.alpha_m + gamma * (rho - 2) * budget.alpha_xor + budget.alpha_maj
    return profile.alpha_total - spend


def rng_for(seed, cycle=None) -> np.random.Generator:
    """A new generator keyed by (seed, cycle); seed may be an int or a
    tuple of ints.  The PCG64 state is a blake2b hash of the key, so
    distinct keys give independent streams and the same key always
    reproduces the same draws."""
    parts = _seed_parts(seed) + ([] if cycle is None else [int(cycle)])
    digest = hashlib.blake2b(repr(tuple(parts)).encode(), digest_size=32).digest()
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(digest[:16], "little"),
                  "inc": int.from_bytes(digest[16:], "little") | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


def exceedance_frequency(p: float, delta: float, n: int, draws: int,
                         seed) -> float:
    """Monte Carlo frequency of the event 'more than (p+delta)*n of n
    independent components fail', each failing with probability p.

    Each draw's failure count is one Binomial(n, p) variate, the exact law
    of a sum of n Bernoulli(p) component masks.
    """
    if not 0.0 < p < 1.0 or delta <= 0.0:
        raise ValueError("need 0 < p < 1 and delta > 0")
    if draws < 1 or n < 1:
        raise ValueError("need draws >= 1 and n >= 1")
    counts = rng_for(seed).binomial(n, p, draws)
    return int((counts > (p + delta) * n).sum()) / draws
