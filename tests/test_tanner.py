import hashlib
import itertools
import json
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import faultmem as fm
from faultmem.exceptions import AlistFormatError, GraphConstructionError
from faultmem.tanner import as_word, gf2_rank, gf2_rref, read_alist, write_alist


def all_words(n):
    """(2^n, n) matrix of every length-n binary word."""
    idx = np.arange(2 ** n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def brute_kernel(H):
    """Kernel of H over GF(2) by exhaustive enumeration (oracle)."""
    W = all_words(H.shape[1])
    ok = ((W @ H.T) % 2 == 0).all(axis=1)
    return {tuple(w) for w in W[ok]}


def independent_H(g):
    """Parity-check matrix rebuilt from the edge list alone."""
    H = np.zeros((g.m, g.n), dtype=np.uint8)
    for v, c in g.edges():
        H[c, v] = 1
    return H


# -- construction -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        fm.CodeParams(5, 3, 6)  # 15 not divisible by 6
    with pytest.raises(ValueError):
        fm.CodeParams(6, 1, 3)
    with pytest.raises(ValueError):
        fm.CodeParams(6, 3, 3)  # rho must exceed gamma
    p = fm.CodeParams(6, 2, 3)
    assert p.m == 4 and abs(p.rate_bound - (1 / 3)) < 1e-15


def test_small_forced_graph():
    g = fm.build_random_regular(fm.CodeParams(6, 2, 3), seed=1)
    assert g.m == 4
    assert len(g.edges()) == 12
    assert (np.sort(g.var_nbrs, axis=1) == g.var_nbrs).all()
    for v in range(6):
        assert len(set(g.var_nbrs[v].tolist())) == 2
    for c in range(4):
        assert len(set(g.check_nbrs[c].tolist())) == 3


def test_construction_audit_seed7():
    g = fm.build_random_regular(fm.CodeParams(12, 3, 6), seed=7)
    edges = g.edges()
    assert len(edges) == 36
    assert len(set(edges)) == 36  # simple
    vdeg = Counter(v for v, _ in edges)
    cdeg = Counter(c for _, c in edges)
    assert all(vdeg[v] == 3 for v in range(12))
    assert all(cdeg[c] == 6 for c in range(6))
    assert 12 * 3 == 6 * 6


def test_infeasible_params_raise():
    # gamma exceeds the check count: no simple graph exists
    with pytest.raises(GraphConstructionError):
        fm.build_random_regular(fm.CodeParams(4, 5, 10), seed=0)


def test_determinism_and_seed_sensitivity():
    p = fm.CodeParams(24, 3, 6)
    g1 = fm.build_random_regular(p, seed=5)
    g2 = fm.build_random_regular(p, seed=5)
    g3 = fm.build_random_regular(p, seed=6)
    assert g1.edges() == g2.edges()
    assert g1.edges() != g3.edges()


def test_girth6_flag():
    g = fm.build_random_regular(fm.CodeParams(36, 3, 6), seed=3,
                                reject_4cycles=True)
    assert not g.has_four_cycle()
    # n*C(gamma,2) > C(m,2): girth 6 impossible, fail fast
    with pytest.raises(GraphConstructionError):
        fm.build_random_regular(fm.CodeParams(24, 3, 6), seed=3,
                                reject_4cycles=True)


def test_cross_position_indices_consistent(seed7_graph):
    g = seed7_graph
    for v in range(g.n):
        for j in range(g.gamma):
            c = int(g.var_nbrs[v, j])
            k = int(g.var_edge_pos[v, j])
            assert int(g.check_nbrs[c, k]) == v
            assert int(g.check_edge_pos[c, k]) == j


def per_edge_adjacency(params, edges):
    """(var_nbrs, check_nbrs, var_edge_pos, check_edge_pos) built edge by
    edge through dicts of each node's neighbors and each edge's slots
    (oracle for the sort-based construction)."""
    n, m, gamma, rho = params.n, params.m, params.gamma, params.rho
    by_var, by_chk = defaultdict(list), defaultdict(list)
    for v, c in edges:
        by_var[int(v)].append(int(c))
        by_chk[int(c)].append(int(v))
    var_nbrs = np.array([sorted(by_var[v]) for v in range(n)], dtype=np.int32)
    check_nbrs = np.array([sorted(by_chk[c]) for c in range(m)], dtype=np.int32)
    slot_in_check = {(int(v), c): k for c in range(m)
                     for k, v in enumerate(check_nbrs[c])}
    slot_in_var = {(v, int(c)): j for v in range(n)
                   for j, c in enumerate(var_nbrs[v])}
    var_edge_pos = np.empty((n, gamma), dtype=np.int32)
    for v in range(n):
        for j, c in enumerate(var_nbrs[v]):
            var_edge_pos[v, j] = slot_in_check[(v, int(c))]
    check_edge_pos = np.empty((m, rho), dtype=np.int32)
    for c in range(m):
        for k, v in enumerate(check_nbrs[c]):
            check_edge_pos[c, k] = slot_in_var[(int(v), c)]
    return var_nbrs, check_nbrs, var_edge_pos, check_edge_pos


_ADJACENCY = ("var_nbrs", "check_nbrs", "var_edge_pos", "check_edge_pos")


# the benchmark graphs (girth 6) and random graphs of other (gamma, rho)
@pytest.mark.parametrize("params, seed, girth6", [
    ((36, 3, 6), 7, True),
    ((40, 4, 5), 13, True),
    ((4000, 3, 6), 4000, True),
    ((12, 2, 3), 1, False),
    ((30, 3, 5), 2, False),
    ((24, 4, 6), 3, False),
    ((21, 2, 7), 4, False),
    ((50, 5, 10), 5, False),
])
def test_sorted_adjacency_equals_per_edge_oracle(params, seed, girth6):
    p = fm.CodeParams(*params)
    edges = np.array(fm.build_random_regular(p, seed,
                                             reject_4cycles=girth6).edges())
    rng = np.random.default_rng(seed)
    for shuffle in range(3):
        order = edges[rng.permutation(len(edges))]
        want = per_edge_adjacency(p, order.tolist())
        for given in (order, order.tolist()):
            g = fm.TannerGraph(p, given)
            for name, expected in zip(_ADJACENCY, want):
                got = getattr(g, name)
                assert got.dtype == np.int32, name
                assert got.flags.c_contiguous and not got.flags.writeable, name
                assert np.array_equal(got, expected), name
            assert g.edges() == sorted(map(tuple, order.tolist()))


# a hand-built (6,2,3) graph: variable i's checks are _SIX[2i], _SIX[2i+1]
_SIX = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 2),
        (3, 1), (3, 3), (4, 0), (4, 3), (5, 1), (5, 2)]


def _six_with(swaps):
    """_SIX with the edge at each position in ``swaps`` replaced."""
    return [swaps.get(i, edge) for i, edge in enumerate(_SIX)]


@pytest.mark.parametrize("edges, message", [
    (_SIX[:-1], "expected 12 edges, got 11"),
    (_SIX[:-1] + [_SIX[4]], "parallel edges are not allowed"),
    # the first out-of-range edge in input order, not the lowest
    (_six_with({3: (7, 0), 7: (0, 9)}), r"edge \(7,0\) out of range"),
    (_six_with({5: (-1, 2)}), r"edge \(-1,2\) out of range"),
    # variables before checks, the lowest id named
    (_six_with({6: (1, 1)}), "variable 1 has degree 3, expected 2"),
    (_six_with({1: (0, 2)}), "check 1 has degree 2, expected 3"),
])
def test_malformed_edges_are_rejected(edges, message):
    p = fm.CodeParams(6, 2, 3)
    fm.TannerGraph(p, _SIX)  # the unmodified edges are a valid graph
    with pytest.raises(ValueError, match=f"^{message}$"):
        fm.TannerGraph(p, edges)


def test_four_cycle_test_equals_pair_scan():
    def shares_two_checks(g):
        rows = [set(r) for r in g.var_nbrs.tolist()]
        return any(len(a & b) >= 2 for a, b in itertools.combinations(rows, 2))

    seen = set()
    for params in ((12, 3, 6), (20, 3, 4), (24, 4, 6), (40, 3, 6)):
        for seed in range(6):
            for girth6 in (False, True):
                try:
                    g = fm.build_random_regular(fm.CodeParams(*params), seed,
                                                reject_4cycles=girth6)
                except GraphConstructionError:
                    continue
                assert g.has_four_cycle() == shares_two_checks(g)
                seen.add(g.has_four_cycle())
    assert seen == {False, True}


def test_restart_cap_below_one_is_rejected():
    for cap in (0, -3):
        with pytest.raises(ValueError,
                           match=f"max_restarts must be at least 1, got {cap}"):
            fm.build_random_regular(fm.CodeParams(12, 3, 6), 7, max_restarts=cap)
    g = fm.build_random_regular(fm.CodeParams(12, 3, 6), 7, max_restarts=1)
    assert g.n == 12


# -- codeword membership ----------------------------------------------------


def test_zero_word_is_codeword(seed7_graph):
    assert seed7_graph.is_codeword(np.zeros(12, np.uint8))


def test_single_flip_not_codeword(seed7_graph):
    w = np.zeros(12, np.uint8)
    w[4] = 1
    assert not seed7_graph.is_codeword(w)


def test_is_codeword_matches_matrix_oracle(seed7_graph):
    g = seed7_graph
    H = independent_H(g)
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.integers(0, 2, size=g.n).astype(np.uint8)
        assert g.is_codeword(w) == (not ((H @ w) % 2).any())


def test_word_length_mismatch(seed7_graph):
    with pytest.raises(ValueError):
        seed7_graph.is_codeword(np.zeros(11, np.uint8))
    with pytest.raises(ValueError):
        as_word([0, 2, 0], 3)


# -- encoding ---------------------------------------------------------------


def test_encode_zero_message(seed7_graph):
    k = fm.code_dimension(seed7_graph)
    assert not fm.encode(seed7_graph, np.zeros(k, np.uint8)).any()


def test_encode_postcondition_and_linearity(seed7_graph):
    g = seed7_graph
    k = fm.code_dimension(g)
    rng = np.random.default_rng(1)
    m1 = rng.integers(0, 2, size=k).astype(np.uint8)
    m2 = rng.integers(0, 2, size=k).astype(np.uint8)
    c1, c2 = fm.encode(g, m1), fm.encode(g, m2)
    assert g.is_codeword(c1) and g.is_codeword(c2)
    assert g.is_codeword(c1 ^ c2)


def test_encode_spans_exact_kernel(seed7_graph):
    g = seed7_graph
    k = fm.code_dimension(g)
    encoded = {tuple(fm.encode(g, msg)) for msg in all_words(k)}
    assert encoded == brute_kernel(independent_H(g))


def test_encode_dimension_mismatch(seed7_graph):
    k = fm.code_dimension(seed7_graph)
    with pytest.raises(ValueError, match="dimension"):
        fm.encode(seed7_graph, np.zeros(k + 1, np.uint8))


def test_rank_and_rate_bounds():
    for (n, gamma, rho, seed) in [(12, 3, 6, 7), (24, 3, 4, 2), (20, 4, 5, 9)]:
        g = fm.build_random_regular(fm.CodeParams(n, gamma, rho), seed)
        k = fm.code_dimension(g)
        assert k >= g.n - g.m
        assert k / g.n >= g.params.rate_bound - 1e-12


def test_gf2_rref_is_reduced():
    rng = np.random.default_rng(3)
    M = rng.integers(0, 2, size=(8, 14)).astype(np.uint8)
    R, pivots = gf2_rref(M)
    assert len(pivots) == gf2_rank(M)
    for i, p in enumerate(pivots):
        col = R[:, p]
        assert col[i] == 1 and col.sum() == 1


@st.composite
def gf2_matrices(draw):
    """0/1 matrices whose rows include duplicates and XORs of other rows,
    at widths on and off multiples of 8 and 64."""
    ncols = draw(st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 130]))
    base = draw(st.lists(st.lists(st.integers(0, 1), min_size=ncols,
                                  max_size=ncols), max_size=8))
    rows = [np.array(r, np.uint8) for r in base]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        rows.append(rows[i].copy() if draw(st.booleans()) else rows[i] ^ rows[j])
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], np.uint8).reshape(len(rows), ncols)


@given(gf2_matrices())
def test_gf2_rank_equals_rref_pivot_count(M):
    assert gf2_rank(M) == len(gf2_rref(M)[1])


@pytest.mark.parametrize("M, rank", [
    (np.zeros((0, 5), np.uint8), 0), (np.zeros((0, 64), np.uint8), 0),
    (np.zeros((3, 0), np.uint8), 0), (np.zeros((4, 1), np.uint8), 0),
    (np.zeros((5, 9), np.uint8), 0), (np.zeros((1, 129), np.uint8), 0),
    (np.array([[1]], np.uint8), 1), (np.array([[0], [1], [1]], np.uint8), 1),
    (np.eye(65, dtype=np.uint8), 65)])
def test_gf2_rank_edge_shapes(M, rank):
    assert gf2_rank(M) == len(gf2_rref(M)[1]) == rank


@pytest.mark.parametrize("n, gamma, rho, seed, girth6", [
    (12, 3, 6, 7, False), (24, 3, 4, 2, False), (20, 4, 5, 9, False),
    (36, 3, 6, 7, True), (40, 4, 5, 13, True), (30, 9, 10, 1, False)])
def test_code_dimension_matches_rref_oracle(n, gamma, rho, seed, girth6,
                                            monkeypatch):
    g = fm.build_random_regular(fm.CodeParams(n, gamma, rho), seed,
                                reject_4cycles=girth6)
    k = g.n - len(gf2_rref(g.parity_check_matrix())[1])

    def dense(self):
        raise AssertionError("code_dimension built the dense H")

    monkeypatch.setattr(fm.TannerGraph, "parity_check_matrix", dense)
    assert fm.code_dimension(g) == k


# -- alist ------------------------------------------------------------------


def test_alist_roundtrip(seed7_graph):
    g2 = read_alist(write_alist(seed7_graph))
    assert g2.edges() == seed7_graph.edges()


def test_alist_roundtrip_bytes(girth6_graph):
    g2 = read_alist(write_alist(girth6_graph).encode())
    assert g2.edges() == girth6_graph.edges()


HAND_ALIST = """6 4
2 3
2 2 2 2 2 2
3 3 3 3
1 2
1 3
1 4
2 3
2 4
3 4
1 2 3
1 4 5
2 4 6
3 5 6
"""


def test_alist_handwritten_kernel():
    g = read_alist(HAND_ALIST)
    assert g.n == 6 and g.m == 4
    kernel = brute_kernel(independent_H(g))
    for w in all_words(6):
        assert g.is_codeword(w) == (tuple(w) in kernel)
    # and membership matches the hand-enumerated kernel size 2^k
    assert len(kernel) == 2 ** fm.code_dimension(g)


def test_alist_degree_inconsistency():
    bad = HAND_ALIST.replace("2 2 2 2 2 2", "2 2 2 2 2 1")
    with pytest.raises(AlistFormatError, match="degree"):
        read_alist(bad)


def test_alist_row_degree_mismatch():
    bad = HAND_ALIST.replace("1 2\n", "1 2 3\n", 1)
    with pytest.raises(AlistFormatError):
        read_alist(bad)


def test_alist_parse_error_reports_line():
    bad = HAND_ALIST.replace("1 4 5", "1 x 5")
    with pytest.raises(AlistFormatError) as err:
        read_alist(bad)
    assert err.value.line == 12


def test_alist_padded_rows_accepted():
    padded = HAND_ALIST.replace("1 2\n", "1 2 0\n", 1)
    g = read_alist(padded)
    assert g.n == 6


def test_alist_inconsistent_check_rows():
    bad = HAND_ALIST.replace("1 2 3\n", "1 2 4\n", 1)
    with pytest.raises(AlistFormatError):
        read_alist(bad)


# -- json / hashing ---------------------------------------------------------


def test_json_roundtrip(seed7_graph):
    g2 = fm.TannerGraph.from_json(seed7_graph.to_json())
    assert g2.edges() == seed7_graph.edges()
    obj = json.loads(seed7_graph.to_json())
    assert set(obj) == {"n", "gamma", "rho", "edges"}


def test_graph_hash_distinguishes():
    p = fm.CodeParams(12, 3, 6)
    g1 = fm.build_random_regular(p, seed=7)
    g2 = fm.build_random_regular(p, seed=8)
    assert g1.graph_hash() == fm.build_random_regular(p, seed=7).graph_hash()
    assert g1.graph_hash() != g2.graph_hash()


# graph_hash of the benchmark graphs, all built with reject_4cycles: a
# change to the construction that moves the RNG stream moves these
@pytest.mark.parametrize("params, seed, digest", [
    ((36, 3, 6), 7, "bcf4561332f83917"),
    ((40, 4, 5), 13, "18a328a08e6762bc"),
    ((4000, 3, 6), 4000, "30375ec6ffb3a91c"),
])
def test_benchmark_graph_hashes_are_pinned(params, seed, digest):
    g = fm.build_random_regular(fm.CodeParams(*params), seed, reject_4cycles=True)
    assert g.graph_hash() == digest


# One digest over the graph_hash of a grid of constructions, with and
# without reject_4cycles, and of the criterion-1 families (no girth
# rejection) at seeds 1000-1032, the only ones whose repair tries swaps
# onto an edge already doubled.
def test_construction_grid_hashes_are_pinned():
    grid = [((n, gamma, rho), seed, girth6)
            for n, gamma, rho in ((36, 3, 6), (40, 4, 5), (60, 3, 6),
                                  (200, 3, 6), (100, 4, 8))
            for seed in range(25) for girth6 in (False, True)]
    grid += [((n, gamma, rho), seed, False)
             for n, gamma, rho in ((16, 4, 8), (20, 5, 10))
             for seed in range(1000, 1033)]
    digest = hashlib.sha256()
    for params, seed, girth6 in grid:
        g = fm.build_random_regular(fm.CodeParams(*params), seed,
                                    reject_4cycles=girth6)
        digest.update(g.graph_hash().encode())
    assert digest.hexdigest() == (
        "dfd347dbbf14b2d74d52872ffcbc0084a3a5e24beb781b1cb3b4e4f88e0326b9")
