import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faultmem as fm
from faultmem.decoders import (EdgeMessages, GateFaultPlan, TkState,
                               _check_estimates, algorithm_a_round_many,
                               algorithm_a_round_packed, gallager_b_round,
                               majority_packed, majority_ties_packed,
                               pack_bits, pack_rows,
                               parallel_bitflip_decode,
                               parallel_bitflip_decode_many,
                               parallel_bitflip_decode_packed,
                               parallel_bitflip_round_many,
                               parallel_bitflip_round_packed, popcounts,
                               tk_round, tk_round_many, tk_round_packed,
                               unpack_bits, unpack_rows)
from faultmem.faults import PlanBatch, _pairs

from conftest import (algorithm_a_round, parallel_bitflip_round, plan_masks,
                      row_ids)

# (n, gamma, rho) of small random graphs, odd and even gamma
GRAPH_PARAMS = ((12, 3, 6), (12, 4, 6), (20, 4, 5), (12, 5, 6), (16, 6, 8))


def reference_refresh(g, state, xor_flips=(), maj_flips=()):
    """Straight-line reimplementation of the estimate-majority refresh:
    explicit per-edge messages, chain-parity faults, majority with tie
    retention.  The oracle for algorithm_a_round."""
    est = {}
    for c in range(g.m):
        for k in range(g.rho):
            x = 0
            for k2 in range(g.rho):
                if k2 != k:
                    x ^= int(state[g.check_nbrs[c, k2]])
            flips = sum(1 for (cc, kk, _p) in xor_flips
                        if cc == c and kk == k) % 2
            est[(c, k)] = x ^ flips
    new = np.empty(g.n, np.uint8)
    for v in range(g.n):
        s = sum(est[(int(g.var_nbrs[v, j]), int(g.var_edge_pos[v, j]))]
                for j in range(g.gamma))
        if s > g.gamma // 2:
            val = 1
        elif g.gamma - s > g.gamma // 2:
            val = 0
        else:
            val = int(state[v])
        if v in maj_flips:
            val ^= 1
        new[v] = val
    return new


def reference_round_many(g, states, xor_parity=None, maj_flip=None):
    """The uint8 refresh of a (T, n) batch, one byte per bit: count the
    ones among each variable's gamma estimates, then take the majority,
    keeping the old value on a tie.  The oracle for the packed round;
    xor_parity is (..., m, rho), the estimates slot-major (..., rho, m)."""
    gamma = g.gamma
    est = _check_estimates(states[..., g.check_nbrs.T],
                           None if xor_parity is None else np.swapaxes(xor_parity, -1, -2))
    recv = est[..., g.var_edge_pos, g.var_nbrs]
    ones = recv.sum(axis=-1, dtype=np.int16)
    new = np.where(ones > gamma // 2, 1,
                   np.where(gamma - ones > gamma // 2, 0, states)).astype(np.uint8)
    if maj_flip is not None:
        new ^= maj_flip
    return new


def reference_bitflip(g, state):
    """Text-rule reimplementation: flip each variable in more unsatisfied
    than satisfied constraints."""
    unsat = [int(sum(state[v] for v in g.check_nbrs[c]) % 2) for c in range(g.m)]
    new = state.copy()
    for v in range(g.n):
        u = sum(unsat[int(c)] for c in g.var_nbrs[v])
        if u > g.gamma - u:
            new[v] ^= 1
    return new


def reference_decode(g, state, max_rounds):
    """Flip rounds one word at a time until a round confirms a fixpoint:
    (word, rounds_used, converged)."""
    cur = np.array(state, dtype=np.uint8)
    for r in range(1, max_rounds + 1):
        nxt = reference_bitflip(g, cur)
        if np.array_equal(nxt, cur):
            return cur, r, True
        cur = nxt
    return cur, max_rounds, False


def random_codeword(g, rng):
    k = fm.code_dimension(g)
    return fm.encode(g, rng.integers(0, 2, size=k).astype(np.uint8))


# -- fixpoints --------------------------------------------------------------


def test_codeword_fixpoints(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(2)
    for _ in range(5):
        cw = random_codeword(g, rng)
        assert np.array_equal(algorithm_a_round(g, cw), cw)
        assert np.array_equal(parallel_bitflip_round(g, cw), cw)
        tk = TkState.from_word(g, cw)
        assert np.array_equal(tk_round(g, tk).copies, tk.copies)
        out = gallager_b_round(g, EdgeMessages.from_word(g, cw))
        assert np.array_equal(out.var_to_check, EdgeMessages.from_word(g, cw).var_to_check)


def test_single_error_restored_girth6(girth6_graph):
    g = girth6_graph
    zero = np.zeros(g.n, np.uint8)
    for v in range(g.n):
        w = zero.copy()
        w[v] = 1
        assert np.array_equal(algorithm_a_round(g, w), zero)
        assert np.array_equal(parallel_bitflip_round(g, w), zero)


def test_even_gamma_tie_keeps_value():
    g = fm.build_random_regular(fm.CodeParams(12, 4, 6), seed=4)
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(200):
        w = rng.integers(0, 2, size=g.n).astype(np.uint8)
        est = np.empty((g.n, g.gamma), np.uint8)
        for v in range(g.n):
            for j in range(g.gamma):
                c = int(g.var_nbrs[v, j])
                others = [int(u) for u in g.check_nbrs[c] if u != v]
                est[v, j] = sum(int(w[u]) for u in others) % 2
        sums = est.sum(axis=1)
        tied = np.flatnonzero(sums * 2 == g.gamma)
        if tied.size == 0:
            continue
        found += 1
        out = algorithm_a_round(g, w)
        assert (out[tied] == w[tied]).all()
    assert found > 10  # ties actually exercised


# -- gate faults ------------------------------------------------------------


def test_refresh_matches_reference_with_xor_fault(seed7_graph):
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    w[[2, 9]] = 1
    fault = {(3, 1, 2)}
    plan = GateFaultPlan(frozenset(fault))
    assert np.array_equal(algorithm_a_round(g, w, plan),
                          reference_refresh(g, w, xor_flips=fault))


def test_two_faults_same_chain_cancel(seed7_graph):
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    w[[1, 5]] = 1
    plan = GateFaultPlan(frozenset({(2, 0, 0), (2, 0, 3)}))
    assert np.array_equal(algorithm_a_round(g, w, plan),
                          algorithm_a_round(g, w))


def test_majority_fault_complements_output(seed7_graph):
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    plan = GateFaultPlan(maj_flips=frozenset({4}))
    out = algorithm_a_round(g, w, plan)
    expected = np.zeros(g.n, np.uint8)
    expected[4] = 1
    assert np.array_equal(out, expected)


def test_random_faulty_rounds_match_reference(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(11)
    for _ in range(30):
        w = rng.integers(0, 2, size=g.n).astype(np.uint8)
        xor = {(int(rng.integers(0, g.m)), int(rng.integers(0, g.rho)),
                int(rng.integers(0, g.rho - 2))) for _ in range(3)}
        maj = {int(rng.integers(0, g.n)) for _ in range(2)}
        plan = GateFaultPlan(frozenset(xor), frozenset(maj))
        assert np.array_equal(algorithm_a_round(g, w, plan),
                              reference_refresh(g, w, xor, maj))


def test_empty_plan_is_reliable(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(8)
    w = rng.integers(0, 2, size=g.n).astype(np.uint8)
    assert np.array_equal(algorithm_a_round(g, w, GateFaultPlan.empty()),
                          algorithm_a_round(g, w))
    tk = TkState(rng.integers(0, 2, size=(g.n, g.gamma)).astype(np.uint8))
    assert np.array_equal(tk_round(g, tk, GateFaultPlan.empty()).copies,
                          tk_round(g, tk).copies)


def test_gate_plan_validation(seed7_graph):
    with pytest.raises(ValueError):
        GateFaultPlan(frozenset({(0, 0, 99)})).validate(seed7_graph)
    with pytest.raises(ValueError):
        GateFaultPlan(maj_flips=frozenset({99})).validate(seed7_graph)


# -- parallel bit flipping --------------------------------------------------


def test_bitflip_matches_text_rule(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.integers(0, 2, size=g.n).astype(np.uint8)
        assert np.array_equal(parallel_bitflip_round(g, w),
                              reference_bitflip(g, w))


def test_bitflip_two_errors_match_reference(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(6)
    for _ in range(50):
        w = np.zeros(g.n, np.uint8)
        w[rng.choice(g.n, 2, replace=False)] = 1
        assert np.array_equal(parallel_bitflip_round(g, w),
                              reference_bitflip(g, w))


def test_decode_codeword_confirms_fixpoint(seed7_graph):
    g = seed7_graph
    cw = np.zeros(g.n, np.uint8)
    out, rounds, converged = parallel_bitflip_decode(g, cw, 5)
    assert np.array_equal(out, cw) and rounds == 1 and converged


def test_decode_beyond_guarantee_reports_honestly(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(9)
    w = rng.integers(0, 2, size=g.n).astype(np.uint8)
    out, rounds, converged = parallel_bitflip_decode(g, w, 30)
    assert rounds <= 30
    if converged:
        assert np.array_equal(parallel_bitflip_round(g, out), out)


@settings(max_examples=60)
@given(params=st.sampled_from(GRAPH_PARAMS), seed=st.integers(0, 2**32),
       rows=st.integers(1, 8), max_rounds=st.integers(1, 6))
@example(params=(12, 3, 6), seed=0, rows=6, max_rounds=1)
def test_decode_many_rows_equal_reference_decode(params, seed, rows,
                                                 max_rounds):
    # rows with few errors converge, dense random rows mostly do not
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    states = np.zeros((rows, g.n), np.uint8)
    for t in range(rows):
        flips = rng.integers(0, g.n + 1) if t % 2 else rng.integers(0, 3)
        states[t, rng.choice(g.n, flips, replace=False)] = 1
    before = states.copy()
    words, rounds, converged = parallel_bitflip_decode_many(g, states,
                                                            max_rounds)
    assert np.array_equal(states, before)
    for t in range(rows):
        word, used, conv = reference_decode(g, states[t], max_rounds)
        assert np.array_equal(words[t], word)
        assert (rounds[t], converged[t]) == (used, conv)
        single = parallel_bitflip_decode(g, states[t], max_rounds)
        assert np.array_equal(single[0], word) and single[1:] == (used, conv)


def test_batched_round_equals_loop(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(10)
    states = rng.integers(0, 2, size=(40, g.n)).astype(np.uint8)
    batch = parallel_bitflip_round_many(g, states)
    for i in range(40):
        assert np.array_equal(batch[i], parallel_bitflip_round(g, states[i]))


# (n, gamma, rho) with gamma 2..7, for the bit-sliced round
PACKED_GRAPH_PARAMS = ((12, 2, 4), (12, 3, 6), (20, 4, 5), (12, 5, 6),
                       (16, 6, 8), (16, 7, 8), (30, 7, 10))


def pack_states(states):
    """(S, n) 0/1 states as (ceil(S/64), n) uint64 words, state s in bit
    s % 64 of word s // 64; the unused high bits are zero."""
    words = np.zeros((-(-states.shape[0] // 64), states.shape[1]), np.uint64)
    for s, state in enumerate(states):
        words[s // 64] |= state.astype(np.uint64) << np.uint64(s % 64)
    return words


def unpack_states(words, count):
    return np.array([(words[s // 64] >> np.uint64(s % 64)) & np.uint64(1)
                     for s in range(count)], dtype=np.uint8)


@settings(max_examples=80)
@given(params=st.sampled_from(PACKED_GRAPH_PARAMS), seed=st.integers(0, 2**32),
       count=st.integers(1, 200), density=st.floats(0.0, 1.0))
@example(params=(16, 7, 8), seed=3, count=130, density=0.5)
@example(params=(20, 4, 5), seed=4, count=65, density=0.2)
def test_packed_round_equals_uint8_round(params, seed, count, density):
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    states = (rng.random((count, g.n)) < density).astype(np.uint8)
    words = pack_states(states)
    expected = parallel_bitflip_round_many(g, states)
    out = parallel_bitflip_round_packed(g, words)
    assert out.dtype == np.uint64 and out.shape == words.shape
    assert np.array_equal(unpack_states(out, count), expected)
    # leading axes are batch axes
    stacked = parallel_bitflip_round_packed(g, np.stack([words, ~words]))
    assert np.array_equal(stacked[0], out)
    assert np.array_equal(unpack_states(stacked[1], count),
                          parallel_bitflip_round_many(g, 1 - states))


@settings(max_examples=60)
@given(params=st.sampled_from(GRAPH_PARAMS), seed=st.integers(0, 2**32),
       count=st.sampled_from((1, 63, 64, 65, 130)) | st.integers(1, 140),
       max_rounds=st.integers(1, 6), live_share=st.floats(0.0, 1.0))
@example(params=(12, 3, 6), seed=1, count=63, max_rounds=1, live_share=1.0)
@example(params=(20, 4, 5), seed=2, count=65, max_rounds=2, live_share=0.7)
@example(params=(16, 6, 8), seed=3, count=130, max_rounds=2, live_share=0.5)
@example(params=(12, 5, 6), seed=4, count=1, max_rounds=1, live_share=1.0)
def test_packed_decode_equals_decode_many(params, seed, count, max_rounds,
                                          live_share):
    # rows with few errors converge, dense random rows mostly do not; the
    # rows that are not live and the bits past the last row hold garbage
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    states = np.zeros((count, g.n), np.uint8)
    for t in range(count):
        flips = rng.integers(0, g.n + 1) if t % 2 else rng.integers(0, 3)
        states[t, rng.choice(g.n, flips, replace=False)] = 1
    expected, _rounds, converged = parallel_bitflip_decode_many(g, states,
                                                                max_rounds)
    if max_rounds == 1 and count >= 63:
        assert not converged.all()
    live_rows = rng.random(count) < live_share
    live = pack_bits(live_rows)
    assert np.array_equal(unpack_bits(live)[:count], live_rows)
    garbage = rng.integers(0, 2**64, size=(live.size, g.n), dtype=np.uint64)
    words = (pack_rows(states) & live[:, None]) | (garbage & ~live[:, None])
    before = words.copy()
    out, conv = parallel_bitflip_decode_packed(g, words, live, max_rounds)
    assert np.array_equal(words, before)
    assert out.dtype == conv.dtype == np.uint64
    assert out.shape == words.shape and conv.shape == live.shape
    conv_rows = unpack_bits(conv)
    assert not conv_rows[count:].any()
    assert np.array_equal(conv_rows[:count], converged & live_rows)
    assert np.array_equal(unpack_rows(out, count)[live_rows], expected[live_rows])


@settings(max_examples=40)
@given(count=st.integers(1, 200), n=st.integers(1, 300), density=st.floats(0, 1),
       seed=st.integers(0, 2**32))
@example(count=130, n=300, density=1.0, seed=1)
def test_popcounts_and_flag_words(count, n, density, seed):
    rng = np.random.default_rng(seed)
    states = (rng.random((count, n)) < density).astype(np.uint8)
    counts = popcounts(pack_rows(states))
    assert counts.dtype == np.int64 and counts.shape == (-(-count // 64) * 64,)
    assert np.array_equal(counts[:count], states.sum(axis=1))
    assert not counts[count:].any()
    # leading axes are flattened into rows of words
    stacked = popcounts(np.stack([pack_rows(states), pack_rows(1 - states)]))
    assert np.array_equal(stacked.reshape(2, -1)[:, :count],
                          [states.sum(axis=1), n - states.sum(axis=1)])
    flags = states[:, 0].astype(bool)
    assert np.array_equal(pack_bits(flags), pack_rows(states[:, :1])[:, 0])
    assert np.array_equal(unpack_bits(pack_bits(flags))[:count], flags)


# (n, gamma, rho) with gamma 2..8, for the bit-sliced refresh
REFRESH_GRAPH_PARAMS = ((12, 2, 4), (12, 3, 6), (20, 4, 5), (12, 5, 6),
                        (16, 6, 8), (16, 7, 8), (18, 8, 9))


@settings(max_examples=60)
@given(count=st.integers(1, 200), trailing=st.sampled_from(((), (7,), (4, 5))),
       seed=st.integers(0, 2**32))
@example(count=64, trailing=(4, 5), seed=1)
@example(count=65, trailing=(7,), seed=2)
@example(count=130, trailing=(), seed=3)
def test_pack_rows_equals_loop_packing(count, trailing, seed):
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 2, size=(count,) + trailing).astype(np.uint8)
    words = pack_rows(states)
    width = -(-count // 64)
    assert words.dtype == np.uint64 and words.shape == (width,) + trailing
    flat = words.reshape(width, -1)
    assert np.array_equal(flat, pack_states(states.reshape(count, -1)))
    # the bits past the last row are zero
    assert not unpack_states(flat, 64 * width)[count:].any()
    assert np.array_equal(unpack_rows(words, count), states)
    # unpacking reads the first rows only, whatever the bits past them hold
    noisy = rng.integers(0, 2**63, size=words.shape, dtype=np.uint64) * np.uint64(2)
    noisy |= rng.integers(0, 2, size=words.shape, dtype=np.uint64)
    for rows in (1, int(rng.integers(1, 64 * width + 1))):
        assert np.array_equal(unpack_rows(noisy, rows).reshape(rows, -1),
                              unpack_states(noisy.reshape(width, -1), rows))


def random_gate_batch(g, rng, rows, ragged):
    """A PlanBatch of random gate faults for ``rows`` trials: the same
    number of distinct ids in every row, some rows holding two gates of
    one chain (whose flips cancel), or ragged rows whose fault counts
    differ and may all be zero."""
    chain = g.rho - 2
    total_xor = g.m * g.rho * chain
    if ragged:
        xor = rng.random((rows, total_xor)) < rng.choice([0.0, 0.01, 0.2])
        maj = rng.random((rows, g.n)) < rng.choice([0.0, 0.05, 0.3])
        return PlanBatch(rows, None, xor.nonzero(), maj.nonzero())
    kx = int(rng.integers(0, 5))
    km = int(rng.integers(0, 4))
    xor = maj = None
    if kx:
        xor = np.stack([rng.choice(total_xor, kx, replace=False)
                        for _ in range(rows)])
        if chain >= 2 and kx >= 2:
            # the first two gates of one chain in every other row
            for row in xor[::2]:
                pair = row[0] - row[0] % chain + np.arange(2)
                row[:] = np.concatenate([pair, np.setdiff1d(row, pair)[:kx - 2]])
        xor.sort(axis=1)
        assert all(len(set(row)) == kx for row in xor.tolist())
    if km:
        maj = np.stack([rng.choice(g.n, km, replace=False) for _ in range(rows)])
    return PlanBatch(rows, None, _pairs(xor), _pairs(maj))


@settings(max_examples=100)
@given(params=st.sampled_from(REFRESH_GRAPH_PARAMS), seed=st.integers(0, 2**32),
       count=st.integers(1, 200), density=st.floats(0.0, 1.0),
       ragged=st.booleans(), rounds=st.integers(1, 3))
@example(params=(18, 8, 9), seed=5, count=130, density=0.5, ragged=False, rounds=2)
@example(params=(20, 4, 5), seed=6, count=65, density=0.3, ragged=True, rounds=1)
@example(params=(12, 2, 4), seed=7, count=64, density=0.5, ragged=False, rounds=3)
@example(params=(16, 7, 8), seed=8, count=1, density=0.2, ragged=False, rounds=2)
def test_packed_refresh_equals_uint8_round(params, seed, count, density, ragged,
                                           rounds):
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    states = (rng.random((count, g.n)) < density).astype(np.uint8)
    plans = random_gate_batch(g, rng, count, ragged)
    _flips, xor_parity, maj_flip = plan_masks(plans, g, count)
    _reg, xor_words, maj_words = plans.packed(g)

    expected, words = states, pack_rows(states)
    for _ in range(rounds):
        expected = reference_round_many(g, expected, xor_parity, maj_flip)
        words = algorithm_a_round_packed(g, words, xor_words, maj_words)
        assert words.dtype == np.uint64 and words.shape == (-(-count // 64), g.n)
        assert np.array_equal(unpack_rows(words, count), expected)

    once = reference_round_many(g, states, xor_parity, maj_flip)
    assert np.array_equal(algorithm_a_round_many(g, states, xor_parity, maj_flip),
                          once)
    # a leading batch axis, the masks broadcasting over it
    packed = pack_rows(states)
    stacked = algorithm_a_round_packed(g, np.stack([packed, ~packed]),
                                       xor_words, maj_words)
    assert np.array_equal(unpack_rows(stacked[0], count), once)
    assert np.array_equal(unpack_rows(stacked[1], count),
                          reference_round_many(g, 1 - states, xor_parity,
                                               maj_flip))
    # one mask shared by every row
    shared_xor = rng.integers(0, 2, (g.m, g.rho)).astype(np.uint8)
    shared_maj = rng.integers(0, 2, g.n).astype(np.uint8)
    assert np.array_equal(
        algorithm_a_round_many(g, states, shared_xor, shared_maj),
        reference_round_many(g, states, shared_xor, shared_maj))
    # the one-state round with the gate plan of row 0
    chain = g.rho - 2
    plan = GateFaultPlan(
        frozenset((idx // chain // g.rho, idx // chain % g.rho, idx % chain)
                  for idx in row_ids(plans.xor, 0)),
        frozenset(row_ids(plans.maj, 0)))
    assert np.array_equal(algorithm_a_round(g, states[0], plan),
                          reference_round_many(
                              g, states[:1],
                              xor_parity[:1], maj_flip[:1])[0])


# -- refresh / bit-flipping agreement ----------------------------------------


@pytest.mark.parametrize("gamma,rho", [(3, 6), (4, 6)])
def test_refresh_equals_bitflip_exhaustive(gamma, rho):
    g = fm.build_random_regular(fm.CodeParams(12, gamma, rho), seed=7)
    from faultmem.tanner import as_word
    from faultmem.decoders import algorithm_a_round_many
    idx = np.arange(2 ** g.n, dtype=np.uint32)
    states = ((idx[:, None] >> np.arange(g.n)) & 1).astype(np.uint8)
    assert np.array_equal(algorithm_a_round_many(g, states),
                          parallel_bitflip_round_many(g, states))


# -- bit-copy scheme --------------------------------------------------------


def test_tk_flipped_variable_restored(girth6_graph):
    g = girth6_graph
    zero = np.zeros(g.n, np.uint8)
    tk = TkState.from_word(g, zero)
    tk.copies[7, :] ^= 1
    out = tk_round(g, tk)
    assert (out.copies[7] == 0).all()


def test_tk_readout_majority_and_ties():
    g = fm.build_random_regular(fm.CodeParams(12, 4, 6), seed=4)
    copies = np.zeros((g.n, 4), np.uint8)
    copies[3] = [1, 1, 1, 0]
    copies[5] = [1, 1, 0, 0]  # tie
    st = TkState(copies)
    prev = np.zeros(g.n, np.uint8)
    prev[5] = 1
    out = st.readout(prev=prev)
    assert out[3] == 1 and out[5] == 1
    with pytest.raises(ValueError):
        st.readout()


def test_single_corrupt_edge_message_restored(girth6_graph):
    g = girth6_graph
    msgs = EdgeMessages.from_word(g, np.zeros(g.n, np.uint8))
    msgs.var_to_check[13] = 1
    out = gallager_b_round(g, msgs)
    assert out.var_to_check[13] == 0


def test_tk_equals_gallager_b_with_faults():
    rng = np.random.default_rng(42)
    for trial in range(25):
        g = fm.build_random_regular(fm.CodeParams(12, 3, 6), seed=trial)
        tk = TkState(rng.integers(0, 2, size=(g.n, g.gamma)).astype(np.uint8))
        em = EdgeMessages.from_copies(g, tk)
        for _ in range(5):
            xor = frozenset({(int(rng.integers(0, g.m)), int(rng.integers(0, g.rho)),
                              int(rng.integers(0, g.rho - 2)))
                             for _ in range(int(rng.integers(0, 4)))})
            maj = frozenset(int(v) for v in
                            rng.choice(g.n, int(rng.integers(0, 3)), replace=False))
            plan = GateFaultPlan(xor, maj)
            tk = tk_round(g, tk, plan)
            em = gallager_b_round(g, em, plan)
            assert np.array_equal(tk.copies.reshape(-1), em.var_to_check)


@settings(max_examples=60)
@given(params=st.sampled_from(GRAPH_PARAMS), seed=st.integers(0, 2**32),
       rows=st.integers(1, 5), xor_max=st.integers(0, 4),
       maj_max=st.integers(0, 3))
def test_tk_round_many_rows_equal_gallager_b(params, seed, rows, xor_max,
                                             maj_max):
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    copies = rng.integers(0, 2, size=(rows, g.n, g.gamma)).astype(np.uint8)
    plans = [GateFaultPlan(
        frozenset((int(rng.integers(0, g.m)), int(rng.integers(0, g.rho)),
                   int(rng.integers(0, g.rho - 2)))
                  for _ in range(int(rng.integers(0, xor_max + 1)))),
        frozenset(int(v) for v in
                  rng.choice(g.n, int(rng.integers(0, maj_max + 1)),
                             replace=False)))
        for _ in range(rows)]
    xor_parity = maj_flip = None
    if any(p.xor_flips for p in plans):
        xor_parity = np.stack([p.xor_parity(g) if p.xor_flips
                               else np.zeros((g.m, g.rho), np.uint8)
                               for p in plans])
    if any(p.maj_flips for p in plans):
        maj_flip = np.stack([p.maj_mask(g) if p.maj_flips
                             else np.zeros(g.n, np.uint8) for p in plans])
    new = tk_round_many(g, copies, xor_parity, maj_flip)
    for t, plan in enumerate(plans):
        em = gallager_b_round(g, EdgeMessages(copies[t].reshape(-1).copy(),
                                              np.zeros(g.n * g.gamma, np.uint8)),
                              plan)
        assert np.array_equal(new[t].reshape(-1), em.var_to_check)


@settings(max_examples=80)
@given(params=st.sampled_from(REFRESH_GRAPH_PARAMS[:-1]),  # gamma 2..7
       seed=st.integers(0, 2**32), count=st.sampled_from((1, 63, 64, 65, 130)),
       density=st.floats(0.0, 1.0), ragged=st.booleans(), rounds=st.integers(1, 3))
@example(params=(12, 2, 4), seed=1, count=130, density=0.5, ragged=False, rounds=3)
@example(params=(20, 4, 5), seed=2, count=65, density=0.5, ragged=False, rounds=2)
@example(params=(16, 6, 8), seed=3, count=64, density=0.5, ragged=True, rounds=2)
@example(params=(16, 7, 8), seed=4, count=1, density=0.3, ragged=False, rounds=1)
def test_packed_tk_round_equals_uint8_round(params, seed, count, density, ragged,
                                            rounds):
    # copy j of every variable is plane j of the packed words; the packed
    # readout keeps the previous readout on a tie, as TkState.readout does
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    copies = (rng.random((count, g.n, g.gamma)) < density).astype(np.uint8)
    prev = rng.integers(0, 2, (count, g.n)).astype(np.uint8)
    plans = random_gate_batch(g, rng, count, ragged)
    _flips, xor_parity, maj_flip = plan_masks(plans, g, count)
    _reg, xor_words, maj_words = plans.packed(g)

    expected, words = copies, pack_rows(copies.transpose(0, 2, 1))
    readout = pack_rows(prev)
    for _ in range(rounds):
        expected = tk_round_many(g, expected, xor_parity, maj_flip)
        words = tk_round_packed(g, words, xor_words, maj_words)
        assert words.dtype == np.uint64
        assert words.shape == (-(-count // 64), g.gamma, g.n)
        assert np.array_equal(unpack_rows(words, count),
                              expected.transpose(0, 2, 1))
        prev = TkState(expected).readout(prev=prev)
        readout = majority_packed(words, readout)
        assert np.array_equal(unpack_rows(readout, count), prev)


def test_tk_initialization_equal_copies(seed7_graph):
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    w[3] = 0
    tk = TkState.from_word(g, w)
    assert (tk.copies == tk.copies[:, :1]).all()


@settings(max_examples=60)
@given(gamma=st.integers(3, 6), words=st.integers(1, 3), n=st.integers(1, 40),
       seed=st.integers(0, 2**32))
@example(gamma=4, words=1, n=40, seed=1)
@example(gamma=6, words=2, n=3, seed=2)
def test_register_flip_readout_needs_no_majority(gamma, words, n, seed):
    # complementing all gamma copies of a register keeps a tie a tie and
    # flips every other majority, so the readout after the flip is the
    # last readout with the flipped registers off its exact ties
    # complemented
    rng = np.random.default_rng(seed)

    def random_words(*shape):
        return rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)

    copies, prev, reg = (random_words(words, gamma, n), random_words(words, n),
                         random_words(words, n))
    state, ties = majority_ties_packed(copies, prev)
    assert np.array_equal(state, majority_packed(copies, prev))
    ones = sum(unpack_rows(copies[:, j], 64 * words).astype(int)
               for j in range(gamma))
    if gamma % 2:
        assert ties is None
        ties = np.zeros_like(state)
    else:
        assert np.array_equal(unpack_rows(ties, 64 * words), 2 * ones == gamma)
    assert np.array_equal(majority_packed(copies ^ reg[:, None], state),
                          state ^ (reg & ~ties))
