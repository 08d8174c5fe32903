"""Register update rules, in reliable and gate-faulty execution modes.

Three rules are implemented with synchronous (parallel) semantics, all
messages of a round being computed from the pre-round state.  Each has
one engine kernel, bit-sliced (Biham, FSE 1997) on uint64 words that
hold 64 states each, and independent oracles that check it bit for
bit:

* the estimate-majority refresh (decoder name ``algorithm_a``): every
  check sends each neighbor the mod-2 sum of its other neighbors, and
  every variable adopts the majority of its gamma estimates, keeping its
  value on a tie.  Kernel ``algorithm_a_round_packed``; its oracle is
  the uint8 refresh kept in the tests;
* parallel bit flipping: flip every variable that sits in more
  unsatisfied than satisfied checks (the reliable-decoder reference
  rule, no fault machinery).  It is the refresh without gate faults (the
  estimate variable v receives from check c is c's parity XOR v, so the
  tie-keeping majority flips v exactly where more than half of its
  checks are unsatisfied), so ``algorithm_a_round_packed`` is its
  kernel too; ``parallel_bitflip_decode_packed`` iterates it to a
  fixpoint (the failure detector's decode), and
  ``parallel_bitflip_round_var_major`` runs it on variable-major (n, C)
  words (the greedy lookahead's candidate pools); oracles the uint8
  ``parallel_bitflip_round_many`` (of both rounds) and
  ``parallel_bitflip_decode_many``;
* the bit-copy scheme (``tk``): gamma copies per variable, copy j
  re-estimated from the checks other than its j-th.  Kernel
  ``tk_round_packed`` on (..., gamma, n) words, plane j holding every
  variable's j-th copy, read out by ``majority_ties_packed``; oracles
  the uint8 ``tk_round_many`` and ``gallager_b_round``, its per-edge
  reformulation as hard-decision message passing (Gallager B) written
  loop by loop, so that the paper's equivalence is checked edge by edge.

``pack_rows`` / ``unpack_rows`` convert (T, ...) 0/1 arrays to and from
the packed layout, ``pack_bits`` / ``unpack_bits`` one flag per state,
and ``popcounts`` counts each state's set bits, unpacking only the
nonzero words.

Gate faults: the message a check sends on one edge is produced by a
chain of rho-2 two-input XOR gates; a failed gate complements its own
output, so the message flips iff an odd number of that chain's gates
failed.  A failed majority gate complements the variable's updated
value (for the bit-copy scheme, the updates of all of that variable's
copies).  The packed kernels take chain parities in variable-plane
layout (..., gamma, n), entry (j, v) being the chain behind the edge of
variable v's j-th check, as ``faults.PlanBatch.packed`` builds them; the
uint8 oracles take them slot-major (..., rho, m), entry (k, c) being the
chain of check c's k-th edge, and ``gallager_b_round`` takes the
flat gate ids themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tanner import TannerGraph, as_word


# ---------------------------------------------------------------------------
# Estimate-majority refresh
# ---------------------------------------------------------------------------


def _check_estimates(v2c: np.ndarray,
                     xor_parity: np.ndarray | None) -> np.ndarray:
    """Extrinsic mod-2 estimates from the bits ``v2c`` that check c reads
    on each of its edges, slot-major, shape (..., rho, m): entry (k, c)
    is the sum of the bits on c's edges other than slot k, plus any chain
    fault."""
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


_POP_SLAB = 2048  # nonzero words unpacked at a time


def popcounts(words: np.ndarray) -> np.ndarray:
    """Vertical popcount of packed (..., n) words, the leading axes taken
    as W rows of words: entry 64*w + b counts the variables at which bit b
    of row w is set, i.e. the ones of state 64*w + b.  Sparse: only the
    nonzero words are unpacked, _POP_SLAB of them at a time, so the cost
    follows the nonzero words and the temporaries stay bounded (about
    600 bytes per word of a slab) however many rows there are."""
    n = words.shape[-1]
    flat = words.reshape(-1)
    nonzero = (flat != 0).nonzero()[0]
    counts = np.zeros((flat.size // n, 64), dtype=np.int64)
    for lo in range(0, nonzero.size, _POP_SLAB):
        at = nonzero[lo:lo + _POP_SLAB]
        row = at // n
        first = np.ones(row.size, dtype=bool)
        first[1:] = row[1:] != row[:-1]
        starts = first.nonzero()[0]
        # int64 sums: 16-bit lanes summed four to a word took 20-40 % less
        # per call, but their smaller temporaries leave glibc's dynamic
        # trim threshold at its default, and the greedy lookahead's
        # per-cycle temporaries are then trimmed off the heap and faulted
        # in again every cycle (desk-adversarial 10-20 % slower end to
        # end).  A row split across slabs is added to, not overwritten.
        counts[row[starts]] += np.add.reduceat(
            unpack_bits(flat[at]).reshape(-1, 64), starts, axis=0, dtype=np.int64)
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


def majority_ties_packed(planes: np.ndarray, old: np.ndarray):
    """Bit-sliced majority over the planes ``planes[..., i, :]`` and its
    exact ties: (majority, ties).  A majority bit is set where more than
    half of the planes are, and where exactly half are (an even plane
    count only) it keeps its value in ``old``; ``ties`` has a bit set
    there, or is None for an odd plane count, which never ties."""
    half, odd = divmod(planes.shape[-2], 2)
    if odd:
        return _at_least(planes, half + 1, half + 1)[0], None
    at_half, more = _at_least(planes, half, half + 1)
    ties = at_half ^ more
    return more | (old & ties), ties


def algorithm_a_round_packed(g: TannerGraph, words: np.ndarray,
                             xor_words: np.ndarray | None = None,
                             maj_words: np.ndarray | None = None) -> np.ndarray:
    """The refresh bit-sliced over 64 states per word: ``words`` is a
    (..., n) uint64 array in which bit b of every entry belongs to state
    b, and bit b of the result is the refresh of state b.  Without gate
    faults it is the parallel bit-flipping round as well
    (parallel_bitflip_round_many's row for state b).

    xor_words (..., gamma, n) and maj_words (..., n) hold, bit for bit, the
    chain parities and majority complements of those states, the chain
    parities in variable-plane layout: entry (j, v) is the chain behind
    the edge of v's j-th check.  Each check's parity is an XOR over its
    rho words gathered slot-major (row k of the gather holds every
    check's k-th neighbor).  The estimate v receives from its j-th check
    c is parity(c) ^ v ^ chain(j, v), so v's majority over its gamma
    estimates, keeping v on a tie, flips v exactly where at least
    gamma//2 + 1 of the planes parity(c) ^ chain(j, v) are set, which a
    bit-sliced at-least-k count decides with ANDs and ORs, plane by plane.
    """
    parity = np.bitwise_xor.reduce(words.take(g.slot_nbrs, axis=-1), axis=-2)
    planes = parity.take(g.slot_checks, axis=-1)
    if xor_words is not None:
        planes ^= xor_words
    need = g.gamma // 2 + 1
    new = words ^ _at_least(planes, need, need)[0]
    if maj_words is not None:
        new ^= maj_words
    return new


# ---------------------------------------------------------------------------
# Parallel bit flipping (reliable reference rule)
# ---------------------------------------------------------------------------


def parallel_bitflip_round_many(g: TannerGraph, states: np.ndarray) -> np.ndarray:
    """Flip, in parallel, every variable with strictly more unsatisfied
    than satisfied incident checks.  states has shape (T, n)."""
    unsat = np.bitwise_xor.reduce(states[..., g.check_nbrs], axis=-1)
    per_var = unsat[..., g.var_nbrs].sum(axis=-1, dtype=np.int16)
    return (states ^ (2 * per_var > g.gamma)).astype(np.uint8)


def parallel_bitflip_round_var_major(g: TannerGraph, words: np.ndarray) -> np.ndarray:
    """The flip rule on variable-major words: ``words`` is an (n, C)
    uint64 array whose row v holds variable v of 64*C states, state
    64*c + b in bit b of column c, and bit b of column c of the result is
    parallel_bitflip_round_many's row for that state.

    Each check's parity is the XOR of rho contiguous row gathers, and a
    variable flips where at least gamma//2 + 1 of its gamma gathered
    check planes are unsatisfied.  This layout suits many states over few
    variables (the greedy lookahead's candidate pools);
    algorithm_a_round_packed suits few rows of many variables.
    """
    slots = g.slot_nbrs
    unsat = words[slots[0]]
    for nbrs in slots[1:]:
        unsat ^= words[nbrs]
    need = g.gamma // 2 + 1
    planes = unsat[g.slot_checks].swapaxes(0, 1)  # (n, gamma, C)
    return words ^ _at_least(planes, need, need)[0]


def parallel_bitflip_decode_many(g: TannerGraph, states: np.ndarray,
                                 max_rounds: int):
    """Iterate the flip rule to a fixpoint on each row of (T, n) ``states``.

    Returns (words, rounds_used, converged) arrays of shape (T, n), (T,)
    and (T,).  A row stops once a round confirms its fixpoint, the others
    keep going; converged means a round confirmed it within max_rounds,
    and rounds_used counts that confirming round.
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
    need no freezing.  A state that a round r < max_rounds leaves all
    zero is converged too: zero is a fixpoint, which the oracle confirms
    in round r + 1 <= max_rounds, so that round is skipped.  Bits of
    states that are not live are rounded along with their row but never
    read.

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
    for r in range(1, max_rounds + 1):
        if rows.size == 0:
            break
        work = cur[rows]
        nxt = algorithm_a_round_packed(g, work)
        still = pending[rows] & np.bitwise_or.reduce(nxt ^ work, axis=-1)
        if r < max_rounds:
            still &= np.bitwise_or.reduce(nxt, axis=-1)
        pending[rows] = still
        cur[rows] = nxt
        rows = rows[still != 0]
    return cur, live & ~pending


# ---------------------------------------------------------------------------
# Bit-copy scheme
# ---------------------------------------------------------------------------


def tk_round_many(g: TannerGraph, copies: np.ndarray,
                  xor_parity: np.ndarray | None = None,
                  maj_flip: np.ndarray | None = None) -> np.ndarray:
    """Bit-copy round on a batch of copy sets, shape (T, n, gamma).

    Re-estimate every bit-copy from its gamma-1 non-excluded checks and
    flip it when at least half of them are unsatisfied (ties flip).
    Check c reads, from each neighbor variable, the copy riding that
    edge.  xor_parity is a 0/1 array of chain parities, slot-major
    (..., rho, m), and maj_flip a (..., n) one of majority complements,
    a failed majority gate complementing all of its variable's copies;
    both broadcast over the batch.
    """
    gamma = g.gamma
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
    maj_words are as in algorithm_a_round_packed (xor_words in
    variable-plane layout, (..., gamma, n)).

    Copy j of variable v rides the edge of v's j-th check, so each check
    reads the copies riding its edges through the flat ids
    check_edge_pos * n + check_nbrs, gathered slot-major (slot_copy_ids),
    and the estimate copy j receives is that check's parity XOR copy j
    (XOR its chain fault).  Copy j flips where at least gamma//2 of the
    gamma-1 estimates other than its own disagree with it: one at-least-k
    count over a (..., gamma, gamma-1, n) stack.  At odd gamma that is
    half of them, so a copy flips on a tie.  One flipped copy (no faults,
    girth 6) gives each copy sharing a check with it one wrong estimate,
    which flips it only when gamma//2 = 1: the flipped copy is restored
    in one round at gamma >= 4 and spreads at gamma = 3.
    """
    gamma = g.gamma
    flat = copies.reshape(copies.shape[:-2] + (gamma * g.n,))
    parity = np.bitwise_xor.reduce(flat.take(g.slot_copy_ids, axis=-1), axis=-2)
    est = parity.take(g.slot_checks, axis=-1) ^ copies
    if xor_words is not None:
        est ^= xor_words
    # entry (i, j): copy j against the i-th estimate other than its own;
    # the count reads the swapped view, whose planes are contiguous
    disagree = est[..., _exclusion(gamma), :] ^ copies[..., None, :, :]
    new = copies ^ _at_least(disagree.swapaxes(-3, -2), gamma // 2, gamma // 2)[0]
    if maj_words is not None:
        new ^= maj_words[..., None, :]
    return new


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


def _distinct_ids(ids, size: int, kind: str) -> set:
    """The gate ids as a set, each checked to lie in [0, size) and to be
    given once."""
    out = set()
    for i in map(int, ids):
        if not 0 <= i < size:
            raise ValueError(f"{kind} gate id {i} out of range")
        if i in out:
            raise ValueError(f"{kind} gate id {i} given twice")
        out.add(i)
    return out


def gallager_b_round(g: TannerGraph, msgs: EdgeMessages,
                     xor_ids=(), maj_ids=()) -> EdgeMessages:
    """One round of hard-decision message passing, written edge by edge.

    Check-to-variable: extrinsic mod-2 sum (with chain-fault complement).
    Variable-to-check on edge e: flip the current value iff at least
    ceil((gamma-1)/2) of the gamma-1 incoming estimates excluding e
    disagree with it, the channel value being the current copy; failed
    majority gates then complement all of a variable's outgoing messages.
    Only the incoming var_to_check field of ``msgs`` is consumed.

    xor_ids are the failed XOR gates as flat ids in PlanBatch's
    convention, (check*rho + out_slot)*(rho-2) + chain_pos, and maj_ids
    the failed majority gates' variables; an id out of range or given
    twice raises ValueError.

    Deliberately loop-based and dictionary-driven: this is the
    independent reference against which the vectorized bit-copy round is
    checked edge for edge.
    """
    n, m, gamma, rho = g.n, g.m, g.gamma, g.rho
    chain = rho - 2
    xor_ids = _distinct_ids(xor_ids, m * rho * chain, "xor")
    maj_ids = _distinct_ids(maj_ids, n, "majority")
    old = msgs.var_to_check

    chain_parity: dict[tuple[int, int], int] = {}
    for idx in xor_ids:
        c, k = divmod(idx // chain, rho)
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
        if i in maj_ids:
            new[base:base + gamma] ^= 1
    return EdgeMessages(new, c2v)
