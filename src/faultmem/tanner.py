"""(gamma, rho)-regular Tanner graphs and the binary codes they define.

A Tanner graph couples n variable nodes of degree gamma with
m = n*gamma/rho check nodes of degree rho.  A word is a codeword iff
every check's neighbor sum is even.  This module samples random
biregular graphs, encodes messages over GF(2), and reads/writes the
standard alist exchange format.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from math import comb

import numpy as np

from .exceptions import AlistFormatError, GraphConstructionError

Word = np.ndarray  # length-n uint8 vector of bits


@dataclass(frozen=True)
class CodeParams:
    """Length and degree parameters of a regular LDPC code."""

    n: int
    gamma: int
    rho: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.gamma < 2:
            raise ValueError(f"gamma must be at least 2, got {self.gamma}")
        if self.rho <= self.gamma:
            raise ValueError(
                f"rho must exceed gamma, got rho={self.rho}, gamma={self.gamma}"
            )
        if (self.n * self.gamma) % self.rho != 0:
            raise ValueError(
                f"n*gamma = {self.n * self.gamma} is not divisible by "
                f"rho = {self.rho}, so the check count n*gamma/rho is not an integer"
            )

    @property
    def m(self) -> int:
        """Number of check nodes."""
        return self.n * self.gamma // self.rho

    @property
    def rate_bound(self) -> float:
        """Lower bound 1 - gamma/rho on the code rate."""
        return 1.0 - self.gamma / self.rho


def as_word(bits, n: int | None = None) -> Word:
    """Validate and normalize a bit vector to uint8."""
    w = np.asarray(bits, dtype=np.uint8)
    if w.ndim != 1:
        raise ValueError("word must be one-dimensional")
    if n is not None and w.shape[0] != n:
        raise ValueError(f"length mismatch: expected {n} bits, got {w.shape[0]}")
    if ((w != 0) & (w != 1)).any():
        raise ValueError("word entries must be 0 or 1")
    return w


def _frozen(ids: np.ndarray) -> np.ndarray:
    """An index array as a read-only contiguous intp array, the index type
    that ``take`` and fancy indexing use without converting."""
    out = np.ascontiguousarray(ids, dtype=np.intp)
    out.setflags(write=False)
    return out


class TannerGraph:
    """Immutable simple (gamma, rho)-biregular bipartite graph.

    Adjacency is held in dense regular form:

    * ``var_nbrs[i, j]``  -- check id of variable i's j-th edge (sorted)
    * ``check_nbrs[c, k]``-- variable id of check c's k-th edge (sorted)
    * ``var_edge_pos[i, j]``  -- slot of that edge inside the check's list
    * ``check_edge_pos[c, k]``-- slot of that edge inside the variable's list

    The cross-position arrays let message-passing rounds gather in both
    directions without dictionaries.  All four come from two stable sorts
    of the edge list, an (E, 2) array or a sequence of (variable, check)
    pairs: sorted by (variable, check), edge e sits at position
    i*gamma + j, so the checks in that order are ``var_nbrs``; sorted by
    (check, variable), at position c*rho + k, so the variables in that
    order are ``check_nbrs``.  An edge's slot in the other node's list is
    its position in the other order, mod that node's degree.
    """

    def __init__(self, params: CodeParams, edges):
        self.params = params
        n, m, gamma, rho = params.n, params.m, params.gamma, params.rho

        v, c = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
        if v.size != n * gamma:
            raise ValueError(f"expected {n * gamma} edges, got {v.size}")
        by_var, by_chk = np.lexsort((c, v)), np.lexsort((v, c))
        if ((np.diff(v[by_var]) == 0) & (np.diff(c[by_var]) == 0)).any():
            raise ValueError("parallel edges are not allowed")
        outside = np.flatnonzero((v < 0) | (v >= n) | (c < 0) | (c >= m))
        if outside.size:
            e = outside[0]
            raise ValueError(f"edge ({v[e]},{c[e]}) out of range")
        for kind, ids, count, degree in (("variable", v, n, gamma),
                                         ("check", c, m, rho)):
            degrees = np.bincount(ids, minlength=count)
            wrong = np.flatnonzero(degrees != degree)
            if wrong.size:
                i = wrong[0]
                raise ValueError(
                    f"{kind} {i} has degree {degrees[i]}, expected {degree}"
                )

        # each edge's position in the check-major and variable-major order
        at_chk, at_var = np.empty_like(by_chk), np.empty_like(by_var)
        at_chk[by_chk] = at_var[by_var] = np.arange(v.size)
        self.var_nbrs = c[by_var].reshape(n, gamma).astype(np.int32)
        self.check_nbrs = v[by_chk].reshape(m, rho).astype(np.int32)
        self.var_edge_pos = (at_chk[by_var] % rho).reshape(n, gamma).astype(np.int32)
        self.check_edge_pos = (at_var[by_chk] % gamma).reshape(m, rho).astype(np.int32)

        self.var_nbrs.setflags(write=False)
        self.check_nbrs.setflags(write=False)
        self.var_edge_pos.setflags(write=False)
        self.check_edge_pos.setflags(write=False)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def gamma(self) -> int:
        return self.params.gamma

    @property
    def rho(self) -> int:
        return self.params.rho

    @functools.cached_property
    def slot_nbrs(self) -> np.ndarray:
        """(rho, m) check_nbrs.T, contiguous: row k holds every check's
        k-th variable, for gathering per-edge words slot-major."""
        return _frozen(self.check_nbrs.T)

    @functools.cached_property
    def slot_checks(self) -> np.ndarray:
        """(gamma, n) var_nbrs.T, contiguous: row j holds every variable's
        j-th check, for gathering per-check words plane by plane."""
        return _frozen(self.var_nbrs.T)

    @functools.cached_property
    def slot_copy_ids(self) -> np.ndarray:
        """(rho, m) flat ids check_edge_pos*n + check_nbrs, transposed: row
        k holds, for every check, the plane entry j*n + v of its k-th edge
        (v its variable, j the check's slot in v's list): the bit-copy
        riding that edge in a (gamma, n) stack of copy planes, and where
        its chain parity goes in variable-plane layout."""
        return _frozen((self.check_edge_pos * self.n + self.check_nbrs).T)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of (variable, check) pairs."""
        return list(zip(np.repeat(np.arange(self.n), self.gamma).tolist(),
                        self.var_nbrs.ravel().tolist()))

    def syndrome(self, word) -> np.ndarray:
        """Per-check parity: 1 where the neighbor sum is odd."""
        w = as_word(word, self.n)
        return (w[self.check_nbrs].sum(axis=1) & 1).astype(np.uint8)

    def is_codeword(self, word) -> bool:
        return not self.syndrome(word).any()

    def parity_check_matrix(self) -> np.ndarray:
        """Dense (m, n) uint8 parity-check matrix H."""
        H = np.zeros((self.m, self.n), dtype=np.uint8)
        H[np.arange(self.m)[:, None], self.check_nbrs] = 1
        return H

    def has_four_cycle(self) -> bool:
        """True if two variables share two checks (girth 4): some sorted
        check pair (a, b) of one variable's list recurs in another's."""
        i, j = np.triu_indices(self.gamma, 1)
        pairs = self.var_nbrs[:, i].astype(np.int64) * self.m + self.var_nbrs[:, j]
        return np.unique(pairs).size < pairs.size

    def graph_hash(self) -> str:
        """Stable identity hash over the canonical edge list."""
        flat = np.column_stack((np.repeat(np.arange(self.n), self.gamma),
                                self.var_nbrs.ravel())).ravel().tolist()
        edges = ";".join(["%d-%d"] * (self.n * self.gamma)) % tuple(flat)
        payload = f"{self.n},{self.gamma},{self.rho}|" + edges
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "rho": self.rho,
            "edges": [[v, c] for v, c in self.edges()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TannerGraph":
        params = CodeParams(int(obj["n"]), int(obj["gamma"]), int(obj["rho"]))
        return cls(params, [(int(v), int(c)) for v, c in obj["edges"]])

    @classmethod
    def from_json(cls, text: str) -> "TannerGraph":
        return cls.from_json_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Random construction: socket matching plus seeded swap repair
# ---------------------------------------------------------------------------


class _Tally(defaultdict):
    """Counts of a key array, each key ranked by its first touch.

    A key first read after the array's count is appended by the read with
    a zero count, as in ``defaultdict(int)``.  A key of the array ranks by
    the index of its first appearance there, and a key appended later by
    the array's size plus its position in the dict: the order a dict
    filled in order of first touch would keep.  Ranks are only found,
    and then kept, for the keys counted above 1 (the set ``over``), so
    the first such key in that order is found without a scan.
    """

    def __init__(self, keys: np.ndarray):
        uniq, counts = np.unique(keys, return_counts=True)
        super().__init__(int, zip(uniq.tolist(), counts.tolist()))
        self._keys, self.ranks, self.over = keys, {}, set()
        for k in uniq[counts > 1].tolist():
            self.add(k, 0)

    def add(self, key, d: int) -> None:
        x = self[key] = self[key] + d
        if x <= 1:
            self.over.discard(key)
            return
        self.over.add(key)
        if key not in self.ranks:
            first = np.flatnonzero(self._keys == key)
            if first.size:
                self.ranks[key] = int(first[0])
            else:  # appended since the array, so near the end of the dict
                back = next(i for i, k in enumerate(reversed(self)) if k == key)
                self.ranks[key] = self._keys.size + len(self) - 1 - back

    def by_rank(self) -> list:
        """The keys counted above 1, lowest rank first."""
        return sorted(self.over, key=self.ranks.__getitem__)


def _repair(ec, n, gamma, rho, rng, want_girth6, swap_budget):
    """Drive (duplicate edges, shared check-pairs) to zero by edge swaps.

    Swapping the check endpoints of two edges preserves both degree
    sequences exactly.  The objective (ndup, n4) is maintained
    incrementally and exactly; plateau moves are accepted with small
    probability to escape local minima.  Returns True on success,
    mutating ``ec``, the check of each slot v*gamma + j.  The swaps run
    on a Python list of the checks, written back to ``ec`` once at the
    end.

    An edge (v, c) is keyed v*m + c, and a check pair a < b shared by a
    variable a*m + b, the initial keys built with numpy.  Each swap
    picks the first edge of a bad key: a doubled edge, else a shared
    pair's first holder, keys taken in order of first touch.  The pair
    counts are only built, updated and read under ``want_girth6``.  The
    holders of a pair come from each check's list of variables, kept in
    step with the swaps.
    """
    E, m = n * gamma, n * gamma // rho
    edge_cnt = _Tally(np.arange(E) // gamma * m + ec)
    members = (np.argsort(ec) // gamma).reshape(m, rho).tolist()
    chk = ec.tolist()

    ndup = sum(edge_cnt[k] - 1 for k in edge_cnt.over)
    pair_cnt, n4 = None, 0
    if want_girth6:
        # each variable's check pairs (i, j), i < j, in slot order
        rows, (i, j) = ec.reshape(n, gamma), np.triu_indices(gamma, 1)
        a, b = rows[:, i].ravel(), rows[:, j].ravel()
        pair_cnt = _Tally((np.minimum(a, b) * m + np.maximum(a, b))[a != b])
        n4 = sum(x * (x - 1) // 2 for x in map(pair_cnt.get, pair_cnt.over))

    def pairs_of(v, c_val, exclude_slot):
        out = []
        for s in range(v * gamma, (v + 1) * gamma):
            if s == exclude_slot:
                continue
            x = chk[s]
            if x == c_val:
                continue
            out.append(x * m + c_val if x < c_val else c_val * m + x)
        return out

    def try_swap(e, f, allow_plateau):
        nonlocal ndup, n4
        v1, c1 = e // gamma, chk[e]
        v2, c2 = f // gamma, chk[f]
        if v1 == v2 or c1 == c2:
            return False
        d_dup = min(edge_cnt[v1 * m + c2], 1) + min(edge_cnt[v2 * m + c1], 1)
        if edge_cnt[v1 * m + c1] > 1:
            d_dup -= 1
        if edge_cnt[v2 * m + c2] > 1:
            d_dup -= 1
        touched = defaultdict(int)
        if want_girth6:
            for p in pairs_of(v1, c1, e) + pairs_of(v2, c2, f):
                touched[p] -= 1
            for p in pairs_of(v1, c2, e) + pairs_of(v2, c1, f):
                touched[p] += 1
        # a pair counted x times closes C(x, 2) 4-cycles; the change is exact
        d4 = sum(d * pair_cnt[p] + d * (d - 1) // 2 for p, d in touched.items())
        new = (ndup + d_dup, n4 + d4)
        cur = (ndup, n4)
        if new > cur or (new == cur and not allow_plateau):
            return False
        for p, d in touched.items():
            if d:
                pair_cnt.add(p, d)
        edge_cnt.add(v1 * m + c1, -1)
        edge_cnt.add(v2 * m + c2, -1)
        edge_cnt.add(v1 * m + c2, 1)
        edge_cnt.add(v2 * m + c1, 1)
        members[c1][members[c1].index(v1)] = v2
        members[c2][members[c2].index(v2)] = v1
        chk[e], chk[f] = c2, c1
        ndup, n4 = new
        return True

    def first_slot(v, c):
        return v * gamma + chk[v * gamma:(v + 1) * gamma].index(c)

    def find_bad_edge():
        if edge_cnt.over:
            return first_slot(*divmod(edge_cnt.by_rank()[0], m))
        a, b = divmod(pair_cnt.by_rank()[0], m)
        return first_slot(min(set(members[a]).intersection(members[b])), b)

    # success is the objective at zero, however the search ends
    stalls = 0
    for _ in range(swap_budget):
        if (ndup == 0 and n4 == 0) or stalls > 500:
            break
        e = find_bad_edge()
        for _ in range(40):
            f = int(rng.integers(0, E))
            if try_swap(e, f, allow_plateau=rng.random() < 0.35):
                stalls = 0
                break
        else:
            stalls += 1
    ec[:] = chk
    return ndup == 0 and n4 == 0


def build_random_regular(
    params: CodeParams,
    seed,
    *,
    reject_4cycles: bool = False,
    max_restarts: int | None = None,
) -> TannerGraph:
    """Sample a simple (gamma, rho)-biregular graph, deterministic per seed.

    Check sockets are matched uniformly against variable sockets
    (configuration model); parallel edges, and 4-cycles when
    ``reject_4cycles`` is set, are then removed by degree-preserving edge
    swaps, with a whole restart when repair stalls.

    Raises GraphConstructionError for parameters that admit no simple
    graph (or, with ``reject_4cycles``, no graph of girth >= 6), and when
    the restart cap is exhausted; raises ValueError for a cap below 1.
    """
    n, m, gamma, rho = params.n, params.m, params.gamma, params.rho
    if gamma > m:
        raise GraphConstructionError(
            f"infeasible: variable degree gamma={gamma} exceeds check count m={m}"
        )
    if rho > n:
        raise GraphConstructionError(
            f"infeasible: check degree rho={rho} exceeds variable count n={n}"
        )
    if reject_4cycles and n * comb(gamma, 2) > comb(m, 2):
        raise GraphConstructionError(
            "infeasible: girth >= 6 requires n*C(gamma,2) <= C(m,2), "
            f"but {n * comb(gamma, 2)} > {comb(m, 2)}"
        )
    if max_restarts is None:
        max_restarts = 10 * n
    if max_restarts < 1:
        raise ValueError(f"max_restarts must be at least 1, got {max_restarts}")
    rng = np.random.default_rng(seed)
    ev = np.repeat(np.arange(n), gamma)
    for _ in range(max_restarts):
        ec = np.repeat(np.arange(m), rho)
        rng.shuffle(ec)
        if _repair(ec, n, gamma, rho, rng, reject_4cycles, swap_budget=80 * n * gamma):
            return TannerGraph(params, np.column_stack((ev, ec)))
    raise GraphConstructionError(
        f"could not construct a simple graph for n={n}, gamma={gamma}, rho={rho} "
        f"within {max_restarts} restarts"
    )


# ---------------------------------------------------------------------------
# GF(2) linear algebra and encoding
# ---------------------------------------------------------------------------


def gf2_rref(M: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns (R, pivot_cols) where R keeps only the nonzero rows, row i
    having its pivot in column pivot_cols[i].
    """
    R = (np.asarray(M, dtype=np.uint8) & 1).copy()
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(R[r:, col])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        mask = R[:, col].astype(bool).copy()
        mask[r] = False
        R[mask] ^= R[r]
        pivots.append(col)
        r += 1
    return R[:r], pivots


def _xor_basis_rank(rows) -> int:
    """Rank over GF(2) of rows given as int bitsets: each row is reduced
    by a basis keyed by leading bit until it vanishes or adds a new key."""
    basis = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            b = basis.get(lead)
            if b is None:
                basis[lead] = r
                break
            r ^= b
    return len(basis)


def gf2_rank(M: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2); ``gf2_rref`` is its oracle."""
    R = np.packbits(np.asarray(M, dtype=np.uint8) & 1, axis=1)
    return _xor_basis_rank(int.from_bytes(row.tobytes(), "big") for row in R)


def code_dimension(g: TannerGraph) -> int:
    """Realized dimension k = n - rank(H) over GF(2).  H's rows are built
    as int bitsets straight from ``check_nbrs``; the dense H never is."""
    rows = (sum(1 << v for v in nbrs) for nbrs in g.check_nbrs.tolist())
    return g.n - _xor_basis_rank(rows)


def encode(g: TannerGraph, message) -> Word:
    """Map a k-bit message to a codeword via systematic solve of H x = 0.

    The free columns of the reduced parity-check matrix carry the message
    bits; pivot columns are back-substituted.
    """
    H = g.parity_check_matrix()
    R, pivots = gf2_rref(H)
    pivot_set = set(pivots)
    free = [j for j in range(g.n) if j not in pivot_set]
    k = len(free)
    msg = np.asarray(message, dtype=np.uint8)
    if msg.ndim != 1 or msg.shape[0] != k:
        raise ValueError(
            f"dimension mismatch: expected a message of length k={k}, "
            f"got {msg.shape[0] if msg.ndim == 1 else msg.shape}"
        )
    if ((msg != 0) & (msg != 1)).any():
        raise ValueError("message entries must be 0 or 1")
    x = np.zeros(g.n, dtype=np.uint8)
    x[free] = msg
    if pivots:
        x[pivots] = (R[:, free] @ msg) & 1
    return x


# ---------------------------------------------------------------------------
# alist serialization
# ---------------------------------------------------------------------------


def write_alist(g: TannerGraph) -> str:
    """Standard alist text: header, max degrees, degree lists, 1-indexed
    neighbor lists (variables first, then checks)."""
    lines = [f"{g.n} {g.m}", f"{g.gamma} {g.rho}"]
    lines.append(" ".join([str(g.gamma)] * g.n))
    lines.append(" ".join([str(g.rho)] * g.m))
    for v in range(g.n):
        lines.append(" ".join(str(int(c) + 1) for c in g.var_nbrs[v]))
    for c in range(g.m):
        lines.append(" ".join(str(int(v) + 1) for v in g.check_nbrs[c]))
    return "\n".join(lines) + "\n"


def _ints(raw: str, lineno: int) -> list[int]:
    out = []
    for col, tok in enumerate(raw.split(), start=1):
        try:
            out.append(int(tok))
        except ValueError:
            raise AlistFormatError(
                f"column {col}: expected an integer, got {tok!r}", line=lineno
            ) from None
    return out


def read_alist(data) -> TannerGraph:
    """Parse alist text into a graph, enforcing (gamma, rho)-regularity.

    Neighbor rows padded with zeros (the usual convention for irregular
    alists) are accepted; the nonzero entries must match the declared
    degree exactly.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 4:
        raise AlistFormatError("expected at least 4 header lines", line=len(lines))

    header = _ints(lines[0], 1)
    if len(header) != 2:
        raise AlistFormatError("header must be 'n m'", line=1)
    n, m = header
    if n <= 0 or m <= 0:
        raise AlistFormatError("n and m must be positive", line=1)

    maxdeg = _ints(lines[1], 2)
    if len(maxdeg) != 2:
        raise AlistFormatError("expected 'max_var_degree max_check_degree'", line=2)
    gamma, rho = maxdeg

    var_degs = _ints(lines[2], 3)
    if len(var_degs) != n:
        raise AlistFormatError(f"expected {n} variable degrees, got {len(var_degs)}", line=3)
    if any(d != gamma for d in var_degs):
        raise AlistFormatError(
            f"degree inconsistency: variable degrees must all equal {gamma}", line=3
        )
    chk_degs = _ints(lines[3], 4)
    if len(chk_degs) != m:
        raise AlistFormatError(f"expected {m} check degrees, got {len(chk_degs)}", line=4)
    if any(d != rho for d in chk_degs):
        raise AlistFormatError(
            f"degree inconsistency: check degrees must all equal {rho}", line=4
        )

    if len(lines) != 4 + n + m:
        raise AlistFormatError(
            f"expected {4 + n + m} lines for n={n}, m={m}, got {len(lines)}",
            line=len(lines),
        )

    def neighbor_row(lineno: int, degree: int, upper: int) -> list[int]:
        vals = _ints(lines[lineno - 1], lineno)
        nz = [x for x in vals if x != 0]
        if any(x != 0 for x in vals[len(nz):]):
            raise AlistFormatError("zero padding must be trailing", line=lineno)
        if len(nz) != degree:
            raise AlistFormatError(
                f"degree inconsistency: {len(nz)} neighbors listed, declared {degree}",
                line=lineno,
            )
        for x in nz:
            if not (1 <= x <= upper):
                raise AlistFormatError(
                    f"neighbor index {x} out of range 1..{upper}", line=lineno
                )
        if len(set(nz)) != len(nz):
            raise AlistFormatError("repeated neighbor in row", line=lineno)
        return [x - 1 for x in nz]

    edges = []
    for v in range(n):
        for c in neighbor_row(5 + v, gamma, m):
            edges.append((v, c))
    edge_set = set(edges)
    for c in range(m):
        for v in neighbor_row(5 + n + c, rho, n):
            if (v, c) not in edge_set:
                raise AlistFormatError(
                    f"check row lists edge ({v + 1},{c + 1}) absent from variable rows",
                    line=5 + n + c,
                )

    try:
        params = CodeParams(n, gamma, rho)
        if params.m != m:
            raise ValueError(f"declared m={m} but n*gamma/rho={params.m}")
        return TannerGraph(params, edges)
    except ValueError as exc:
        raise AlistFormatError(str(exc)) from exc
