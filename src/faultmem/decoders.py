"""Register update rules, in reliable and gate-faulty execution modes.

Three rules are implemented with synchronous (parallel) semantics, all
messages of a round being computed from the pre-round state:

* the estimate-majority refresh (decoder name ``algorithm_a``): every
  check sends each neighbor the mod-2 sum of its other neighbors, and
  every variable adopts the majority of its gamma estimates, keeping its
  value on a tie.  ``algorithm_a_round_packed`` runs it as the circuit
  it is, bit-sliced (Biham, FSE 1997) on uint64 words holding 64 states
  each: check estimates are XORs of words gathered slot-major, (..., rho,
  m) with row k holding every check's k-th edge, gate faults XOR masks
  in the same layout, and the majority a bit-sliced at-least-k count.
  ``pack_rows`` / ``unpack_rows`` convert (T, ...) 0/1 arrays to and from
  that layout, ``pack_bits`` / ``unpack_bits`` one flag per state, and
  ``popcounts`` counts each state's set bits; ``algorithm_a_round_many``
  is the packed round on a uint8 batch;
* parallel bit flipping: flip every variable that sits in more
  unsatisfied than satisfied checks (the reliable-decoder reference
  rule, no fault machinery).  ``parallel_bitflip_round_packed`` runs it
  bit-sliced with the same at-least-k count, and
  ``parallel_bitflip_decode_packed`` iterates it to a fixpoint, the
  failure detector's decode; the uint8 ``parallel_bitflip_round_many``
  and ``parallel_bitflip_decode_many`` are their test oracles;
* the bit-copy scheme (``tk``) and its per-edge reformulation as
  hard-decision message passing (Gallager B), kept as two independent
  implementations so their equivalence is testable bit by bit.
  ``tk_round_packed`` runs the former bit-sliced on (..., gamma, n)
  words, plane j holding every variable's j-th copy, its xor words
  (..., rho, m) as well, and ``majority_packed`` reads the copies out;
  the uint8 ``tk_round_many`` and ``TkState.readout`` are their oracles,
  which, like ``GateFaultPlan.xor_parity``, take chain parities as
  (..., m, rho).

Gate faults: the message a check sends on one edge is produced by a
chain of rho-2 two-input XOR gates; a failed gate complements its own
output, so the message flips iff an odd number of that chain's gates
failed.  A failed majority gate complements the variable's updated
value (for the bit-copy scheme, the updates of all of that variable's
copies).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tanner import TannerGraph, Word, as_word


@dataclass(frozen=True)
class GateFaultPlan:
    """One round's worth of gate failures.

    xor_flips holds (check, out_slot, chain_pos) gate ids, chain_pos in
    [0, rho-3]; maj_flips holds variable indices.
    """

    xor_flips: frozenset = frozenset()
    maj_flips: frozenset = frozenset()

    @classmethod
    def empty(cls) -> "GateFaultPlan":
        return _EMPTY_PLAN

    def validate(self, g: TannerGraph) -> None:
        for c, k, pos in self.xor_flips:
            if not (0 <= c < g.m and 0 <= k < g.rho and 0 <= pos <= g.rho - 3):
                raise ValueError(f"xor gate id ({c},{k},{pos}) out of range")
        for v in self.maj_flips:
            if not (0 <= v < g.n):
                raise ValueError(f"majority gate id {v} out of range")

    def xor_parity(self, g: TannerGraph) -> np.ndarray | None:
        """Net message flip per (check, out_slot): parity of failed gates
        in that chain.  None when there are no XOR faults."""
        if not self.xor_flips:
            return None
        arr = np.zeros((g.m, g.rho), dtype=np.uint8)
        for c, k, _pos in self.xor_flips:
            arr[c, k] ^= 1
        return arr

    def maj_mask(self, g: TannerGraph) -> np.ndarray | None:
        """(n,) 0/1 complement mask of failed majority gates, or None."""
        if not self.maj_flips:
            return None
        mask = np.zeros(g.n, dtype=np.uint8)
        mask[list(self.maj_flips)] = 1
        return mask


_EMPTY_PLAN = GateFaultPlan()


# ---------------------------------------------------------------------------
# Estimate-majority refresh
# ---------------------------------------------------------------------------


def _check_estimates(v2c: np.ndarray,
                     xor_parity: np.ndarray | None) -> np.ndarray:
    """Extrinsic mod-2 estimates from the bits ``v2c`` that check c reads
    on each of its edges, slot-major, shape (..., rho, m): entry (k, c)
    is the sum of the bits on c's edges other than slot k, plus any chain
    fault.  The bits may be 0/1 bytes or packed words, the sums being
    XORs of rows of m."""
    est = np.bitwise_xor.reduce(v2c, axis=-2, keepdims=True) ^ v2c
    if xor_parity is not None:
        est ^= xor_parity
    return est


def pack_rows(states: np.ndarray) -> np.ndarray:
    """(T, ...) 0/1 array as (ceil(T/64), ...) uint64 words: row t is bit
    t % 64 of word t // 64, and the unused high bits are zero."""
    rows = states.shape[0]
    if rows == 1:  # one state is its own bit 0
        return states.astype(np.uint64)
    flat = np.ascontiguousarray(states.reshape(rows, math.prod(states.shape[1:])).T)
    packed = np.packbits(flat, axis=-1, bitorder="little")
    buf = np.zeros((packed.shape[0], -(-rows // 64) * 8), dtype=np.uint8)
    buf[:, :packed.shape[1]] = packed
    return np.ascontiguousarray(buf.view("<u8").T, dtype=np.uint64) \
        .reshape((-1,) + states.shape[1:])


def unpack_rows(words: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the 0/1 array packed in ``words``: the
    inverse of pack_rows, as uint8."""
    if rows == 1:
        return (words[:1] & np.uint64(1)).astype(np.uint8)
    flat = np.ascontiguousarray(
        words.reshape(words.shape[0], math.prod(words.shape[1:])).T, dtype="<u8")
    bits = np.unpackbits(flat.view(np.uint8), axis=-1, count=rows,
                         bitorder="little")
    return bits.T.reshape((rows,) + words.shape[1:])


def broadcast_bits(word: np.ndarray) -> np.ndarray:
    """uint64 words with every bit equal to the matching 0/1 entry: one
    word holding the same state in all 64 bits."""
    return np.uint64(0) - word.astype(np.uint64)


def pack_bits(flags: np.ndarray) -> np.ndarray:
    """(S,) flags as (ceil(S/64),) uint64 words, flag s in bit s % 64 of
    word s // 64 (the layout of pack_rows), the unused high bits zero."""
    packed = np.packbits(flags, bitorder="little")
    buf = np.zeros(-(-flags.size // 64) * 8, dtype=np.uint8)
    buf[:packed.size] = packed
    return buf.view("<u8").astype(np.uint64)


def unpack_bits(words: np.ndarray) -> np.ndarray:
    """(64*W,) bool flags of the (W,) uint64 words: the inverse of
    pack_bits, every bit included."""
    return np.unpackbits(np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
                         bitorder="little").view(bool)


def popcounts(words: np.ndarray) -> np.ndarray:
    """Vertical popcount of packed (..., n) words, the leading axes taken
    as W rows of words: entry 64*w + b counts the variables at which bit b
    of row w is set, i.e. the ones of state 64*w + b.  Sparse: only the
    nonzero words are unpacked, so mostly-zero differences are cheap."""
    n = words.shape[-1]
    flat = words.reshape(-1)
    nonzero = flat.nonzero()[0]
    counts = np.zeros((flat.size // n, 64), dtype=np.int64)
    if nonzero.size:
        row = nonzero // n
        first = np.ones(row.size, dtype=bool)
        first[1:] = row[1:] != row[:-1]
        starts = first.nonzero()[0]
        counts[row[starts]] = np.add.reduceat(
            unpack_bits(flat[nonzero]).reshape(-1, 64), starts, axis=0,
            dtype=np.int64)
    return counts.reshape(-1)


def _at_least(planes: np.ndarray, lo: int, hi: int) -> list:
    """Bit-sliced at-least-j counts over the planes ``planes[..., i, :]``
    for j in lo..hi (1 <= lo <= hi <= plane count): entry j - lo has a bit
    set where at least j planes do.  ANDs and ORs plane by plane; j runs
    down so each plane adds to a count once, and a count that the planes
    left cannot lift to ``lo`` is no longer updated."""
    count = planes.shape[-2]
    at_least = [None] * (hi + 1)
    for i in range(count):
        x = planes[..., i, :]
        for j in range(min(i + 1, hi), max(1, lo - (count - 1 - i)) - 1, -1):
            carry = x if j == 1 else at_least[j - 1] & x
            at_least[j] = carry if at_least[j] is None else at_least[j] | carry
    return at_least[lo:]


def majority_packed(planes: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Bit-sliced majority over the planes ``planes[..., i, :]``: a bit is
    set where more than half of them are, and where exactly half are (an
    even plane count only) it keeps its value in ``old``."""
    half, odd = divmod(planes.shape[-2], 2)
    if odd:
        return _at_least(planes, half + 1, half + 1)[0]
    tie, more = _at_least(planes, half, half + 1)
    return more | (old & tie)


def _var_planes(g: TannerGraph, est: np.ndarray) -> np.ndarray:
    """The (..., gamma, n) planes of the (..., rho, m) check estimates as
    the variables receive them: plane j holds every variable's j-th."""
    edges = est.reshape(est.shape[:-2] + (est.shape[-2] * est.shape[-1],))
    return edges.take(g.var_edge_ids, axis=-1)


def algorithm_a_round_packed(g: TannerGraph, words: np.ndarray,
                             xor_words: np.ndarray | None = None,
                             maj_words: np.ndarray | None = None) -> np.ndarray:
    """The refresh bit-sliced over 64 states per word: ``words`` is a
    (..., n) uint64 array in which bit b of every entry belongs to state
    b, and bit b of the result is the refresh of state b.

    xor_words (..., rho, m) and maj_words (..., n) hold, bit for bit, the
    chain parities and majority complements of those states, the chain
    parities slot-major: entry (k, c) is the chain of check c's slot k.
    Each check estimate is an XOR of words gathered slot-major (row k of
    the gather holds every check's k-th neighbor); a variable takes the
    value of at least gamma//2 + 1 of its gamma received planes, and for
    even gamma keeps its old value where exactly gamma/2 of them are set.
    """
    est = _check_estimates(words.take(g.slot_nbrs, axis=-1), xor_words)
    new = majority_packed(_var_planes(g, est), words)
    if maj_words is not None:
        new ^= maj_words
    return new


def algorithm_a_round_many(g: TannerGraph, states: np.ndarray,
                           xor_parity: np.ndarray | None = None,
                           maj_flip: np.ndarray | None = None) -> np.ndarray:
    """Refresh of a batch of states, shape (T, n), through the packed round.

    xor_parity broadcasts over (m, rho) or (T, m, rho), the layout of
    GateFaultPlan.xor_parity, and is packed slot-major; maj_flip is a
    (n,) or (T, n) 0/1 complement mask applied to the updated values.
    """
    rows = states.shape[0]
    if xor_parity is not None:
        xor_parity = pack_rows(np.broadcast_to(xor_parity, (rows, g.m, g.rho))
                               .swapaxes(-1, -2))
    if maj_flip is not None:
        maj_flip = pack_rows(np.broadcast_to(maj_flip, (rows, g.n)))
    return unpack_rows(algorithm_a_round_packed(g, pack_rows(states), xor_parity,
                                                maj_flip), rows)


# ---------------------------------------------------------------------------
# Parallel bit flipping (reliable reference rule)
# ---------------------------------------------------------------------------


def parallel_bitflip_round_many(g: TannerGraph, states: np.ndarray) -> np.ndarray:
    """Flip, in parallel, every variable with strictly more unsatisfied
    than satisfied incident checks.  states has shape (T, n)."""
    unsat = np.bitwise_xor.reduce(states[..., g.check_nbrs], axis=-1)
    per_var = unsat[..., g.var_nbrs].sum(axis=-1, dtype=np.int16)
    return (states ^ (2 * per_var > g.gamma)).astype(np.uint8)


def parallel_bitflip_round_packed(g: TannerGraph, words: np.ndarray) -> np.ndarray:
    """The flip rule bit-sliced over 64 states per word: ``words`` is a
    (..., n) uint64 array in which bit b of every entry belongs to state
    b, and bit b of the result is parallel_bitflip_round_many's row for
    state b.

    Each check's parity is an XOR over its rho gathered words; a variable
    flips where at least gamma//2 + 1 of its gamma check planes are
    unsatisfied, which a bit-sliced at-least-k count decides with ANDs
    and ORs, plane by plane.
    """
    unsat = np.bitwise_xor.reduce(words[..., g.slot_nbrs], axis=-2)
    need = g.gamma // 2 + 1
    return words ^ _at_least(unsat[..., g.var_nbrs.T], need, need)[0]


def parallel_bitflip_decode_many(g: TannerGraph, states: np.ndarray,
                                 max_rounds: int):
    """Iterate the flip rule to a fixpoint on each row of (T, n) ``states``.

    Returns (words, rounds_used, converged) arrays of shape (T, n), (T,)
    and (T,); row t is parallel_bitflip_decode of row t.  A row stops
    once a round confirms its fixpoint, the others keep going.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    cur = np.array(states, dtype=np.uint8)
    rounds = np.full(cur.shape[0], max_rounds, dtype=np.int64)
    converged = np.zeros(cur.shape[0], dtype=bool)
    active = np.arange(cur.shape[0])
    for r in range(1, max_rounds + 1):
        if active.size == 0:
            break
        work = cur[active]
        nxt = parallel_bitflip_round_many(g, work)
        fixed = (nxt == work).all(axis=1)
        rounds[active[fixed]] = r
        converged[active[fixed]] = True
        active = active[~fixed]
        cur[active] = nxt[~fixed]
    return cur, rounds, converged


def parallel_bitflip_decode_packed(g: TannerGraph, words: np.ndarray,
                                   live: np.ndarray, max_rounds: int):
    """parallel_bitflip_decode_many bit-sliced: iterate the flip rule on
    the states packed in the (W, n) uint64 ``words`` (state 64*w + b in
    bit b of row w), tracking the states whose bits are set in the (W,)
    ``live`` words.

    A round runs only on the rows that still hold a live state that has
    not converged.  Its "still changing" word, the OR over n of what the
    round flipped, is the fixpoint test: a live state whose bit in it is
    clear has converged, and a fixpoint stays one, so converged states
    need no freezing.  Bits of states that are not live are rounded along
    with their row but never read.

    Returns (words, converged): the (W, n) words after the rounds, and
    the (W,) words with the bit of every converged live state set.  For
    live state s these equal the words and converged flags of row s of
    parallel_bitflip_decode_many.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    cur = np.array(words, dtype=np.uint64)
    pending = np.array(live, dtype=np.uint64)
    rows = np.flatnonzero(pending)
    for _ in range(max_rounds):
        if rows.size == 0:
            break
        work = cur[rows]
        nxt = parallel_bitflip_round_packed(g, work)
        still = pending[rows] & np.bitwise_or.reduce(nxt ^ work, axis=-1)
        pending[rows] = still
        cur[rows] = nxt
        rows = rows[still != 0]
    return cur, live & ~pending


def parallel_bitflip_decode(g: TannerGraph, state, max_rounds: int):
    """Iterate the flip rule to a fixpoint.

    Returns (word, rounds_used, converged); converged means a round
    confirmed the fixpoint within the allowance, and rounds_used counts
    that confirming round.
    """
    words, rounds, converged = parallel_bitflip_decode_many(
        g, as_word(state, g.n)[None, :], max_rounds)
    return words[0], int(rounds[0]), bool(converged[0])


# ---------------------------------------------------------------------------
# Bit-copy scheme
# ---------------------------------------------------------------------------


@dataclass
class TkState:
    """gamma bit-copies per variable; copy j of variable i rides edge j
    of i's (sorted) edge list, the edge to the check excluded when that
    copy is re-estimated."""

    copies: np.ndarray  # (n, gamma) uint8, or (T, n, gamma) for T trials

    @classmethod
    def from_word(cls, g: TannerGraph, word) -> "TkState":
        w = as_word(word, g.n)
        return cls(np.repeat(w[:, None], g.gamma, axis=1))

    def readout(self, prev: Word | None = None) -> Word:
        """Per-variable majority over the copies; a tie (even copy counts
        only) resolves to the previous readout, which must then be given."""
        gamma = self.copies.shape[-1]
        ones = self.copies.sum(axis=-1, dtype=np.int64)
        out = (2 * ones > gamma).astype(np.uint8)
        ties = 2 * ones == gamma
        if ties.any():
            if prev is None:
                raise ValueError("tied copy sets need the previous readout")
            out[ties] = prev[ties]
        return out


def tk_round_many(g: TannerGraph, copies: np.ndarray,
                  xor_parity: np.ndarray | None = None,
                  maj_flip: np.ndarray | None = None) -> np.ndarray:
    """Bit-copy round on a batch of copy sets, shape (T, n, gamma).

    Re-estimate every bit-copy from its gamma-1 non-excluded checks and
    flip it when at least half of them are unsatisfied (ties flip).
    Check c reads, from each neighbor variable, the copy riding that
    edge; xor_parity and maj_flip broadcast as in algorithm_a_round_many,
    a failed majority gate complementing all of its variable's copies.
    """
    gamma = g.gamma
    if xor_parity is not None:
        xor_parity = np.swapaxes(xor_parity, -1, -2)
    est = _check_estimates(copies[..., g.check_nbrs.T, g.check_edge_pos.T],
                           xor_parity)
    est_v = est[..., g.var_edge_pos, g.var_nbrs]  # (..., n, gamma)

    # copy (i,j) counts disagreements among estimates j' != j
    s = est_v.sum(axis=-1, dtype=np.int16)
    s_ex = s[..., None] - est_v
    disagree = np.where(copies == 1, (gamma - 1) - s_ex, s_ex)
    flip_threshold = gamma // 2  # ceil((gamma-1)/2): "half or more"
    new = (copies ^ (disagree >= flip_threshold)).astype(np.uint8)
    if maj_flip is not None:
        new ^= maj_flip[..., None]
    return new


@functools.lru_cache(maxsize=None)
def _exclusion(gamma: int) -> np.ndarray:
    """(gamma-1, gamma) index whose column j lists the copies other than j."""
    i = np.arange(gamma - 1)[:, None]
    return i + (i >= np.arange(gamma))


def tk_round_packed(g: TannerGraph, copies: np.ndarray,
                    xor_words: np.ndarray | None = None,
                    maj_words: np.ndarray | None = None) -> np.ndarray:
    """tk_round_many bit-sliced over 64 states per word: ``copies`` is a
    (..., gamma, n) uint64 array whose plane j holds every variable's
    j-th copy, bit b of every entry belonging to state b; xor_words and
    maj_words are as in algorithm_a_round_packed (xor_words slot-major,
    (..., rho, m)).

    Check c reads the copy riding each edge through the flat ids
    check_edge_pos * n + check_nbrs, gathered slot-major (slot_copy_ids).
    Copy j flips where at least gamma//2 of the gamma-1 estimates other
    than its own disagree with it: one at-least-k count over a
    (..., gamma, gamma-1, n) stack.
    """
    gamma = g.gamma
    flat = copies.reshape(copies.shape[:-2] + (gamma * g.n,))
    est = _check_estimates(flat.take(g.slot_copy_ids, axis=-1), xor_words)
    # entry (i, j): copy j against the i-th estimate other than its own;
    # the count reads the swapped view, whose planes are contiguous
    disagree = _var_planes(g, est)[..., _exclusion(gamma), :] ^ copies[..., None, :, :]
    new = copies ^ _at_least(disagree.swapaxes(-3, -2), gamma // 2, gamma // 2)[0]
    if maj_words is not None:
        new ^= maj_words[..., None, :]
    return new


def tk_round(g: TannerGraph, state: TkState, faults: GateFaultPlan | None = None) -> TkState:
    """One faulty bit-copy round on one copy set: the one-state case of
    tk_round_many, gate faults entering exactly as in the
    estimate-majority refresh."""
    if faults is None:
        faults = GateFaultPlan.empty()
    faults.validate(g)
    return TkState(tk_round_many(g, state.copies[None], faults.xor_parity(g),
                                 faults.maj_mask(g))[0])


# ---------------------------------------------------------------------------
# Hard-decision message passing on edges (Gallager B)
# ---------------------------------------------------------------------------


@dataclass
class EdgeMessages:
    """One bit per edge per direction; edge id = variable*gamma + slot."""

    var_to_check: np.ndarray
    check_to_var: np.ndarray

    @classmethod
    def from_word(cls, g: TannerGraph, word) -> "EdgeMessages":
        w = as_word(word, g.n)
        v2c = np.repeat(w, g.gamma)
        return cls(v2c, np.zeros_like(v2c))

    @classmethod
    def from_copies(cls, g: TannerGraph, state: TkState) -> "EdgeMessages":
        v2c = state.copies.reshape(-1).copy()
        return cls(v2c, np.zeros_like(v2c))


def gallager_b_round(g: TannerGraph, msgs: EdgeMessages,
                     faults: GateFaultPlan | None = None) -> EdgeMessages:
    """One round of hard-decision message passing, written edge by edge.

    Check-to-variable: extrinsic mod-2 sum (with chain-fault complement).
    Variable-to-check on edge e: flip the current value iff at least
    ceil((gamma-1)/2) of the gamma-1 incoming estimates excluding e
    disagree with it, the channel value being the current copy; failed
    majority gates then complement all of a variable's outgoing messages.
    Only the incoming var_to_check field of ``msgs`` is consumed.

    Deliberately loop-based and dictionary-driven: this is the
    independent reference against which the vectorized bit-copy round is
    checked edge for edge.
    """
    if faults is None:
        faults = GateFaultPlan.empty()
    faults.validate(g)
    n, m, gamma, rho = g.n, g.m, g.gamma, g.rho
    old = msgs.var_to_check

    chain_parity: dict[tuple[int, int], int] = {}
    for c, k, _pos in faults.xor_flips:
        chain_parity[(c, k)] = chain_parity.get((c, k), 0) ^ 1

    c2v = np.zeros_like(old)
    for c in range(m):
        eids = []
        bits = []
        for k in range(rho):
            v = int(g.check_nbrs[c, k])
            j = int(g.check_edge_pos[c, k])
            eids.append(v * gamma + j)
            bits.append(int(old[eids[-1]]))
        for k in range(rho):
            x = 0
            for k2 in range(rho):
                if k2 != k:
                    x ^= bits[k2]
            x ^= chain_parity.get((c, k), 0)
            c2v[eids[k]] = x

    new = old.copy()
    threshold = gamma // 2  # ceil((gamma-1)/2)
    for i in range(n):
        base = i * gamma
        for j in range(gamma):
            cur = int(old[base + j])
            disagree = 0
            for j2 in range(gamma):
                if j2 != j and int(c2v[base + j2]) != cur:
                    disagree += 1
            if disagree >= threshold:
                new[base + j] = cur ^ 1
        if i in faults.maj_flips:
            new[base:base + gamma] ^= 1
    return EdgeMessages(new, c2v)
