"""Register update rules, in reliable and gate-faulty execution modes.

Three rules are implemented with synchronous (parallel) semantics, all
messages of a round being computed from the pre-round state:

* the estimate-majority refresh (decoder name ``algorithm_a``): every
  check sends each neighbor the mod-2 sum of its other neighbors, and
  every variable adopts the majority of its gamma estimates, keeping its
  value on a tie;
* parallel bit flipping: flip every variable that sits in more
  unsatisfied than satisfied checks (the reliable-decoder reference
  rule, no fault machinery).  ``parallel_bitflip_round_packed`` runs it
  bit-sliced (Biham, FSE 1997) on uint64 words holding 64 states each,
  the check XOR and the at-least-k threshold done as word operations;
  the uint8 ``parallel_bitflip_round_many`` is its test oracle;
* the bit-copy scheme (``tk``) and its per-edge reformulation as
  hard-decision message passing (Gallager B), kept as two independent
  implementations so their equivalence is testable bit by bit.

Gate faults: the message a check sends on one edge is produced by a
chain of rho-2 two-input XOR gates; a failed gate complements its own
output, so the message flips iff an odd number of that chain's gates
failed.  A failed majority gate complements the variable's updated
value (for the bit-copy scheme, the updates of all of that variable's
copies).
"""

from __future__ import annotations

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

    def is_empty(self) -> bool:
        return not self.xor_flips and not self.maj_flips

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
    on each of its edges, shape (..., m, rho): entry (c, k) is the sum of
    the bits on c's edges other than slot k, plus any chain fault."""
    total = np.bitwise_xor.reduce(v2c, axis=-1)
    est = total[..., None] ^ v2c
    if xor_parity is not None:
        est = est ^ xor_parity
    return est


def algorithm_a_round_many(g: TannerGraph, states: np.ndarray,
                           xor_parity: np.ndarray | None = None,
                           maj_flip: np.ndarray | None = None) -> np.ndarray:
    """Vectorized refresh of a batch of states, shape (T, n).

    xor_parity broadcasts over (m, rho) or (T, m, rho); maj_flip is a
    (n,) or (T, n) 0/1 complement mask applied to the updated values.
    """
    gamma = g.gamma
    est = _check_estimates(states[..., g.check_nbrs], xor_parity)
    recv = est[..., g.var_nbrs, g.var_edge_pos]
    ones = recv.sum(axis=-1, dtype=np.int16)
    new = np.where(ones > gamma // 2, 1,
                   np.where(gamma - ones > gamma // 2, 0, states)).astype(np.uint8)
    if maj_flip is not None:
        new ^= maj_flip
    return new


def algorithm_a_round(g: TannerGraph, state, faults: GateFaultPlan | None = None) -> Word:
    """One faulty refresh: broadcast values, form check estimates through
    the XOR chains, take per-variable majorities (ties keep the previous
    value), then complement the outputs of failed majority gates."""
    w = as_word(state, g.n)
    if faults is None:
        faults = GateFaultPlan.empty()
    faults.validate(g)
    return algorithm_a_round_many(g, w[None, :], faults.xor_parity(g),
                                  faults.maj_mask(g))[0]


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
    b, and bit b of the result is parallel_bitflip_round of state b.

    Each check's parity is an XOR over its rho gathered words; a variable
    flips where at least gamma//2 + 1 of its gamma check planes are
    unsatisfied, which a bit-sliced at-least-k count decides with ANDs
    and ORs, plane by plane.
    """
    gamma, need = g.gamma, g.gamma // 2 + 1
    unsat = np.bitwise_xor.reduce(words[..., g.check_nbrs.T], axis=-2)
    planes = unsat[..., g.var_nbrs.T]  # (..., gamma, n)
    # at_least[j]: states with at least j unsatisfied planes so far; j runs
    # down so each plane adds to a count once, and a count that the planes
    # left cannot lift to ``need`` is no longer updated
    at_least = [None] * (need + 1)
    for i in range(gamma):
        x = planes[..., i, :]
        for j in range(min(i + 1, need), max(1, need - (gamma - 1 - i)) - 1, -1):
            carry = x if j == 1 else at_least[j - 1] & x
            at_least[j] = carry if at_least[j] is None else at_least[j] | carry
    return words ^ at_least[need]


def parallel_bitflip_round(g: TannerGraph, state) -> Word:
    w = as_word(state, g.n)
    return parallel_bitflip_round_many(g, w[None, :])[0]


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
    est = _check_estimates(copies[..., g.check_nbrs, g.check_edge_pos],
                           xor_parity)
    est_v = est[..., g.var_nbrs, g.var_edge_pos]  # (..., n, gamma)

    # copy (i,j) counts disagreements among estimates j' != j
    s = est_v.sum(axis=-1, dtype=np.int16)
    s_ex = s[..., None] - est_v
    disagree = np.where(copies == 1, (gamma - 1) - s_ex, s_ex)
    flip_threshold = gamma // 2  # ceil((gamma-1)/2): "half or more"
    new = (copies ^ (disagree >= flip_threshold)).astype(np.uint8)
    if maj_flip is not None:
        new ^= maj_flip[..., None]
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
