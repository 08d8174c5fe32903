import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faultmem as fm
from faultmem.decoders import (EdgeMessages, _check_estimates,
                               algorithm_a_round_packed, broadcast_bits,
                               gallager_b_round, majority_ties_packed,
                               pack_rows, parallel_bitflip_decode_many,
                               parallel_bitflip_round_many,
                               parallel_bitflip_verdict_packed, popcounts,
                               tk_readout_packed, tk_round_many,
                               tk_round_packed, unpack_bits, unpack_rows)
from faultmem.faults import (PlanBatch, _pairs, draw_adversarial_batch,
                             draw_independent_batch, trial_keys)

from conftest import (algorithm_a_round, gate_batch, gate_words,
                      parallel_bitflip_round, plan_masks, row_ids, tk_copies,
                      tk_words, var_planes, xor_gate_id)

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
    xor_parity and the estimates are slot-major, (..., rho, m)."""
    gamma = g.gamma
    est = _check_estimates(states[..., g.check_nbrs.T], xor_parity)
    recv = est[..., g.var_edge_pos, g.var_nbrs]
    ones = recv.sum(axis=-1, dtype=np.int16)
    new = np.where(ones > gamma // 2, 1,
                   np.where(gamma - ones > gamma // 2, 0, states)).astype(np.uint8)
    if maj_flip is not None:
        new ^= maj_flip
    return new


def reference_readout(copies, prev):
    """The uint8 readout of (T, n, gamma) copy sets: the per-variable
    majority over the copies, a tie (even copy counts only) keeping the
    previous readout ``prev``.  The oracle for majority_ties_packed."""
    ones = copies.sum(axis=-1, dtype=np.int64)
    gamma = copies.shape[-1]
    return np.where(2 * ones == gamma, prev, 2 * ones > gamma).astype(np.uint8)


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
        words = tk_words(np.repeat(cw[None, :, None], g.gamma, axis=2))
        assert np.array_equal(tk_round_packed(g, words), words)
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
    assert np.array_equal(algorithm_a_round(g, w, [xor_gate_id(g, 3, 1, 2)]),
                          reference_refresh(g, w, xor_flips=fault))


def test_two_faults_same_chain_cancel(seed7_graph):
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    w[[1, 5]] = 1
    same_chain = [xor_gate_id(g, 2, 0, 0), xor_gate_id(g, 2, 0, 3)]
    assert np.array_equal(algorithm_a_round(g, w, same_chain),
                          algorithm_a_round(g, w))


def test_majority_fault_complements_output(seed7_graph):
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    out = algorithm_a_round(g, w, maj_ids={4})
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
        ids = {xor_gate_id(g, *gate) for gate in xor}
        assert np.array_equal(algorithm_a_round(g, w, ids, maj),
                              reference_refresh(g, w, xor, maj))


def test_empty_plan_is_reliable(seed7_graph):
    # a plan without gate faults packs to no masks, and all-zero masks
    # and empty id lists are the reliable round
    g = seed7_graph
    rng = np.random.default_rng(8)
    w = rng.integers(0, 2, size=g.n).astype(np.uint8)
    assert gate_words(g) == (None, None)
    zero_xor = np.zeros((1, g.gamma, g.n), np.uint64)
    zero_maj = np.zeros((1, g.n), np.uint64)
    words = pack_rows(w[None])
    assert np.array_equal(algorithm_a_round_packed(g, words, zero_xor, zero_maj),
                          algorithm_a_round_packed(g, words))
    copies = rng.integers(0, 2, size=(1, g.n, g.gamma)).astype(np.uint8)
    words = tk_words(copies)
    assert np.array_equal(tk_round_packed(g, words, zero_xor, zero_maj),
                          tk_round_packed(g, words))
    msgs = EdgeMessages(copies.reshape(-1), np.zeros(copies.size, np.uint8))
    assert np.array_equal(gallager_b_round(g, msgs, (), ()).var_to_check,
                          gallager_b_round(g, msgs).var_to_check)


def test_gate_plan_validation(seed7_graph):
    g = seed7_graph
    msgs = EdgeMessages.from_word(g, np.zeros(g.n, np.uint8))
    gates = g.m * g.rho * (g.rho - 2)
    for bad in ({"xor_ids": [gates]}, {"xor_ids": [-1]},
                {"maj_ids": [99]}, {"maj_ids": [-1]}):
        with pytest.raises(ValueError, match="out of range"):
            gallager_b_round(g, msgs, **bad)
    for twice in ({"xor_ids": [5, 5]}, {"maj_ids": [3, 3]}):
        with pytest.raises(ValueError, match="twice"):
            gallager_b_round(g, msgs, **twice)
    # the largest ids are in range
    gallager_b_round(g, msgs, [gates - 1], [g.n - 1])


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
    out, rounds, converged = parallel_bitflip_decode_many(g, cw[None], 5)
    assert np.array_equal(out[0], cw) and rounds[0] == 1 and converged[0]


def test_decode_beyond_guarantee_reports_honestly(seed7_graph):
    g = seed7_graph
    rng = np.random.default_rng(9)
    w = rng.integers(0, 2, size=g.n).astype(np.uint8)
    out, rounds, converged = parallel_bitflip_decode_many(g, w[None], 30)
    assert rounds[0] <= 30
    if converged[0]:
        assert np.array_equal(parallel_bitflip_round(g, out[0]), out[0])


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
# greedy's slab shape: 128 trials' 64-candidate pools, 128 words
@example(params=(36, 3, 6), seed=7, count=8192, density=0.01)
def test_packed_round_equals_uint8_round(params, seed, count, density):
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    states = (rng.random((count, g.n)) < density).astype(np.uint8)
    words = pack_states(states)
    expected = parallel_bitflip_round_many(g, states)
    out = algorithm_a_round_packed(g, words)
    assert out.dtype == np.uint64 and out.shape == words.shape
    assert np.array_equal(unpack_states(out, count), expected)
    # leading axes are batch axes
    stacked = algorithm_a_round_packed(g, np.stack([words, ~words]))
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
    decoded, _rounds, converged = parallel_bitflip_decode_many(g, states,
                                                               max_rounds)
    verdict = ~converged | decoded.any(axis=1)
    if max_rounds == 1 and count >= 63:
        assert not converged.all()
    live_rows = rng.random(count) < live_share
    live = pack_rows(live_rows)
    assert np.array_equal(unpack_bits(live)[:count], live_rows)
    garbage = rng.integers(0, 2**64, size=(live.size, g.n), dtype=np.uint64)
    words = (pack_rows(states) & live[:, None]) | (garbage & ~live[:, None])
    before = words.copy()
    # one cycle of W words: the verdict of every live state
    failed = parallel_bitflip_verdict_packed(g, words[None], live[None], max_rounds)
    assert np.array_equal(words, before)
    assert failed.dtype == np.uint64 and failed.shape == (1, live.size)
    failed_rows = unpack_bits(failed[0])
    assert not failed_rows[count:].any()
    assert np.array_equal(failed_rows[:count], verdict & live_rows)
    # a span of W cycles of one word, trial b's state at cycle s being row
    # 64 s + b: each trial's first failing cycle is the oracle's
    failed = parallel_bitflip_verdict_packed(g, words[:, None], live[:, None],
                                             max_rounds)
    assert np.array_equal(words, before) and failed.shape == (live.size, 1)
    hit = unpack_bits(failed[:, 0]).reshape(-1, 64)
    want = np.zeros(64 * live.size, dtype=bool)
    want[:count] = verdict & live_rows
    want = want.reshape(-1, 64)
    assert np.array_equal(hit.any(axis=0), want.any(axis=0))
    assert np.array_equal(hit.argmax(axis=0), want.argmax(axis=0))


def _weight_two_states(g):
    """Every pattern of one or two flipped variables, one per row."""
    pairs = [(a, b) for a in range(g.n) for b in range(a, g.n)]
    states = np.zeros((len(pairs), g.n), np.uint8)
    for t, (a, b) in enumerate(pairs):
        states[t, [a, b]] = 1
    return states


@pytest.mark.parametrize("max_rounds", (1, 2))
def test_packed_decode_zero_at_the_cap_stays_unconverged(girth6_graph, max_rounds):
    # the verdict passes a state once a round leaves it all zero, but a
    # state that reaches zero only in the last allowed round is not
    # confirmed by the oracle, so it must fail; one round more confirms
    # it, and it passes
    g = girth6_graph
    states = _weight_two_states(g)
    words, _rounds, converged = parallel_bitflip_decode_many(g, states, max_rounds)
    at_cap = ~converged & ~words.any(axis=1)
    sooner = converged & ~words.any(axis=1) & states.any(axis=1)
    assert at_cap.any() and (max_rounds == 1 or sooner.any())
    live = pack_rows(np.ones(len(states), dtype=bool))[None]
    for cap in (max_rounds, max_rounds + 1):
        decoded, _rounds, converged = parallel_bitflip_decode_many(g, states, cap)
        assert converged[at_cap].all() == (cap > max_rounds)
        failed = unpack_bits(parallel_bitflip_verdict_packed(
            g, pack_rows(states)[None], live, cap)[0])[:len(states)]
        assert np.array_equal(failed, ~converged | decoded.any(axis=1))
        assert failed[at_cap].all() == (cap == max_rounds)


@pytest.mark.parametrize("max_rounds", range(3, 9))
def test_packed_verdict_stops_at_two_cycles(girth6_graph, max_rounds,
                                            monkeypatch):
    # weight-2 patterns on the girth-6 (36,3,6) graph: some are restored,
    # most spread, and some return to their state of two rounds before
    # without being a fixpoint, so they can never converge.  The verdicts
    # must be the oracle's, and the rows on a 2-cycle, decided alone, must
    # stop in the round that closes their cycle, before the cap
    g = girth6_graph
    states = _weight_two_states(g)
    history = [states]
    for _ in range(max_rounds):
        history.append(parallel_bitflip_round_many(g, history[-1]))
    h = np.stack(history)
    moved = (h[1:] != h[:-1]).any(axis=2)
    # closes[k]: round k + 2 moved the row back to its state of round k
    closes = (h[2:] == h[:-2]).all(axis=2) & moved[1:]
    before_cap = closes[:max_rounds - 2]
    cycling = before_cap.any(axis=0)
    assert cycling.any()
    decoded, _rounds, converged = parallel_bitflip_decode_many(g, states, max_rounds)
    assert not converged[cycling].any()
    live = pack_rows(np.ones(len(states), dtype=bool))[None]
    failed = unpack_bits(parallel_bitflip_verdict_packed(
        g, pack_rows(states)[None], live, max_rounds)[0])[:len(states)]
    assert np.array_equal(failed, ~converged | decoded.any(axis=1))

    rounds = [0]
    real = fm.decoders.algorithm_a_round_packed

    def counted(*args):
        rounds[0] += 1
        return real(*args)

    monkeypatch.setattr(fm.decoders, "algorithm_a_round_packed", counted)
    failed = unpack_bits(parallel_bitflip_verdict_packed(
        g, pack_rows(states)[None], pack_rows(cycling)[None], max_rounds)[0])
    assert np.array_equal(failed[:len(states)], cycling)
    last_close = 2 + before_cap.argmax(axis=0)[cycling].max()
    assert rounds[0] == last_close < max_rounds


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
    # a flag vector packs to one word per 64 flags, the unused bits zero
    flags = states[:, 0].astype(bool)
    words = pack_rows(flags)
    assert words.dtype == np.uint64 and words.shape == (-(-count // 64),)
    assert np.array_equal(words, pack_rows(states[:, :1])[:, 0])
    padded = np.zeros(64 * words.size, dtype=bool)
    padded[:count] = flags
    assert np.array_equal(unpack_bits(words), padded)


def test_popcounts_of_rows_longer_than_a_slab():
    # popcounts unpacks the nonzero words a slab at a time: rows whose
    # nonzero words run across slab bounds, and full rows of set bits,
    # must count every word once
    rng = np.random.default_rng(4)
    states = np.zeros((130, 5000), np.uint8)
    states[:64] = rng.random((64, 5000)) < 0.5
    states[64:128] = 1
    states[128:, ::7] = 1
    counts = popcounts(pack_rows(states))
    assert np.array_equal(counts[:130], states.sum(axis=1))
    assert not counts[130:].any()


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
    # a leading batch axis, the masks broadcasting over it
    packed = pack_rows(states)
    stacked = algorithm_a_round_packed(g, np.stack([packed, ~packed]),
                                       xor_words, maj_words)
    assert np.array_equal(unpack_rows(stacked[0], count), once)
    assert np.array_equal(unpack_rows(stacked[1], count),
                          reference_round_many(g, 1 - states, xor_parity,
                                               maj_flip))
    # one mask shared by every row
    shared_xor = rng.integers(0, 2, (g.rho, g.m)).astype(np.uint8)
    shared_maj = rng.integers(0, 2, g.n).astype(np.uint8)
    assert np.array_equal(
        unpack_rows(algorithm_a_round_packed(
            g, packed, broadcast_bits(var_planes(g, shared_xor)),
            broadcast_bits(shared_maj)), count),
        reference_round_many(g, states, shared_xor, shared_maj))
    # the one-state round with the gate plan of row 0
    assert np.array_equal(algorithm_a_round(g, states[0], row_ids(plans.xor, 0),
                                            row_ids(plans.maj, 0)),
                          reference_round_many(
                              g, states[:1],
                              xor_parity[:1], maj_flip[:1])[0])


@settings(max_examples=40)
@given(params=st.sampled_from(GRAPH_PARAMS), seed=st.integers(0, 2**32),
       count=st.sampled_from((1, 64, 65)), ragged=st.booleans())
@example(params=(20, 4, 5), seed=1, count=65, ragged=False)
def test_rounds_commute_with_adding_a_codeword(params, seed, count, ragged):
    # a check's estimate of a variable is the XOR of its other variables,
    # which adding a codeword shifts by the variable's own bit; so both
    # rounds, gate faults included, commute with adding a codeword, and the
    # engine can store the zero word without changing any output
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    cw = np.zeros(g.n, np.uint8)
    while not cw.any():
        cw = random_codeword(g, rng)
    shift = broadcast_bits(cw)
    _reg, xor_words, maj_words = random_gate_batch(g, rng, count, ragged).packed(g)
    words = pack_rows(rng.integers(0, 2, (count, g.n)).astype(np.uint8))
    assert np.array_equal(
        algorithm_a_round_packed(g, words ^ shift, xor_words, maj_words),
        algorithm_a_round_packed(g, words, xor_words, maj_words) ^ shift)
    copies = tk_words(rng.integers(0, 2, (count, g.n, g.gamma)).astype(np.uint8))
    assert np.array_equal(
        tk_round_packed(g, copies ^ shift, xor_words, maj_words),
        tk_round_packed(g, copies, xor_words, maj_words) ^ shift)


# -- refresh / bit-flipping agreement ----------------------------------------


@pytest.mark.parametrize("gamma,rho", [(3, 6), (4, 6)])
def test_refresh_equals_bitflip_exhaustive(gamma, rho):
    g = fm.build_random_regular(fm.CodeParams(12, gamma, rho), seed=7)
    idx = np.arange(2 ** g.n, dtype=np.uint32)
    states = ((idx[:, None] >> np.arange(g.n)) & 1).astype(np.uint8)
    refreshed = unpack_rows(algorithm_a_round_packed(g, pack_rows(states)),
                            len(states))
    assert np.array_equal(refreshed, parallel_bitflip_round_many(g, states))


# -- bit-copy scheme --------------------------------------------------------


def test_tk_flipped_variable_restored(girth6_graph):
    g = girth6_graph
    copies = np.zeros((1, g.n, g.gamma), np.uint8)
    copies[0, 7, :] ^= 1
    out = tk_copies(tk_round_packed(g, tk_words(copies)), 1)
    assert (out[0, 7] == 0).all()


@pytest.mark.parametrize("params,seed,restored", (
    ((40, 4, 5), 13, True), ((600, 5, 10), 1, True), ((120, 6, 8), 3, True),
    ((36, 3, 6), 7, False)), ids=("gamma4", "gamma5", "gamma6", "gamma3"))
def test_tk_single_flipped_copy(params, seed, restored):
    # with no faults, one flipped copy gives each copy sharing a check with
    # it one wrong estimate (never two at girth 6); the flip threshold is
    # gamma//2 of the gamma-1 other estimates, so that one estimate flips a
    # copy only at gamma = 3, where the flipped copy spreads instead
    g = fm.build_random_regular(fm.CodeParams(*params), seed,
                                reject_4cycles=True)
    cases = g.n * g.gamma  # case v*gamma + j flips copy j of variable v
    copies = np.zeros((cases, g.n * g.gamma), np.uint8)
    copies[np.arange(cases), np.arange(cases)] = 1
    out = tk_round_packed(g, tk_words(copies.reshape(cases, g.n, g.gamma)))
    wrong = unpack_rows(out, cases).any(axis=(1, 2))
    assert (~wrong).all() if restored else wrong.all()


def test_tk_readout_majority_and_ties():
    g = fm.build_random_regular(fm.CodeParams(12, 4, 6), seed=4)
    copies = np.zeros((1, g.n, 4), np.uint8)
    copies[0, 3] = [1, 1, 1, 0]
    copies[0, 5] = [1, 1, 0, 0]  # tie
    prev = np.zeros((1, g.n), np.uint8)
    prev[0, 5] = 1
    out, ties = majority_ties_packed(tk_words(copies), pack_rows(prev))
    out, ties = unpack_rows(out, 1)[0], unpack_rows(ties, 1)[0]
    assert out[3] == 1 and out[5] == 1
    assert ties.nonzero()[0].tolist() == [5]


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
        copies = rng.integers(0, 2, size=(1, g.n, g.gamma)).astype(np.uint8)
        words = tk_words(copies)
        em = EdgeMessages(copies.reshape(-1), np.zeros(copies.size, np.uint8))
        for _ in range(5):
            xor = {xor_gate_id(g, int(rng.integers(0, g.m)),
                               int(rng.integers(0, g.rho)),
                               int(rng.integers(0, g.rho - 2)))
                   for _ in range(int(rng.integers(0, 4)))}
            maj = {int(v) for v in
                   rng.choice(g.n, int(rng.integers(0, 3)), replace=False)}
            words = tk_round_packed(g, words, *gate_words(g, xor, maj))
            em = gallager_b_round(g, em, xor, maj)
            assert np.array_equal(tk_copies(words, 1).reshape(-1), em.var_to_check)


@settings(max_examples=60)
@given(params=st.sampled_from(GRAPH_PARAMS), seed=st.integers(0, 2**32),
       rows=st.integers(1, 5), xor_max=st.integers(0, 4),
       maj_max=st.integers(0, 3))
def test_tk_round_many_rows_equal_gallager_b(params, seed, rows, xor_max,
                                             maj_max):
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    copies = rng.integers(0, 2, size=(rows, g.n, g.gamma)).astype(np.uint8)
    xor_rows, maj_rows = [], []
    for _ in range(rows):
        xor_rows.append({xor_gate_id(g, int(rng.integers(0, g.m)),
                                     int(rng.integers(0, g.rho)),
                                     int(rng.integers(0, g.rho - 2)))
                         for _ in range(int(rng.integers(0, xor_max + 1)))})
        maj_rows.append({int(v) for v in
                         rng.choice(g.n, int(rng.integers(0, maj_max + 1)),
                                    replace=False)})
    _flips, xor_parity, maj_flip = plan_masks(gate_batch(xor_rows, maj_rows), g, rows)
    new = tk_round_many(g, copies, xor_parity if xor_parity.any() else None,
                        maj_flip if maj_flip.any() else None)
    for t in range(rows):
        em = gallager_b_round(g, EdgeMessages(copies[t].reshape(-1).copy(),
                                              np.zeros(g.n * g.gamma, np.uint8)),
                              xor_rows[t], maj_rows[t])
        assert np.array_equal(new[t].reshape(-1), em.var_to_check)


@settings(max_examples=20)
@given(params=st.sampled_from(((12, 3, 6), (20, 4, 5), (16, 6, 8), (40, 4, 5))),
       seed=st.integers(0, 2**32), rows=st.sampled_from((1, 64, 65)),
       draw=st.sampled_from(("independent", "random", "cluster")))
@example(params=(12, 3, 6), seed=1, rows=1, draw="cluster")
@example(params=(20, 4, 5), seed=2, rows=64, draw="random")
@example(params=(40, 4, 5), seed=3, rows=65, draw="independent")
def test_packed_tk_round_rows_equal_gallager_b(params, seed, rows, draw):
    # the engine's kernel on the engine's plans, row by row against the
    # per-edge oracle fed the same flat gate ids
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    keys = trial_keys(seed, np.arange(rows))
    if draw == "independent":
        plans = draw_independent_batch(fm.IndependentRates(0.0, 0.05, 0.1), g,
                                       keys, 0)
    else:
        budget = fm.AdversarialBudget(alpha_xor=0.02, alpha_maj=0.1)
        plans = draw_adversarial_batch(budget, g, draw, keys, 0,
                                       np.zeros((rows, g.n), np.uint8))
        assert plans.xor[1].size and plans.maj[1].size
    copies = rng.integers(0, 2, size=(rows, g.n, g.gamma)).astype(np.uint8)
    _reg, xor_words, maj_words = plans.packed(g)
    new = tk_copies(tk_round_packed(g, tk_words(copies), xor_words, maj_words),
                    rows)
    for r in range(rows):
        em = gallager_b_round(g, EdgeMessages(copies[r].reshape(-1),
                                              np.zeros(g.n * g.gamma, np.uint8)),
                              row_ids(plans.xor, r), row_ids(plans.maj, r))
        assert np.array_equal(new[r].reshape(-1), em.var_to_check)


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
    # copy j of every variable is plane j of the packed words; the engine's
    # readout keeps the previous readout on a tie, as reference_readout does
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    copies = (rng.random((count, g.n, g.gamma)) < density).astype(np.uint8)
    prev = rng.integers(0, 2, (count, g.n)).astype(np.uint8)
    plans = random_gate_batch(g, rng, count, ragged)
    _flips, xor_parity, maj_flip = plan_masks(plans, g, count)
    _reg, xor_words, maj_words = plans.packed(g)

    expected, words = copies, tk_words(copies)
    readout = pack_rows(prev)
    for _ in range(rounds):
        expected = tk_round_many(g, expected, xor_parity, maj_flip)
        words = tk_round_packed(g, words, xor_words, maj_words)
        assert words.dtype == np.uint64
        assert words.shape == (-(-count // 64), g.gamma, g.n)
        assert np.array_equal(unpack_rows(words, count),
                              expected.transpose(0, 2, 1))
        prev = reference_readout(expected, prev)
        readout = tk_readout_packed(words, readout)[0]
        assert np.array_equal(unpack_rows(readout, count), prev)


@settings(max_examples=40)
@given(params=st.sampled_from(((12, 4, 6), (20, 4, 5), (40, 4, 5), (16, 6, 8))),
       seed=st.integers(0, 2**32), count=st.sampled_from((1, 63, 64, 65, 130)),
       density=st.floats(0.0, 1.0), ragged=st.booleans())
# both examples draw XOR and majority faults
@example(params=(40, 4, 5), seed=3, count=65, density=0.5, ragged=True)
@example(params=(16, 6, 8), seed=1, count=130, density=0.3, ragged=False)
def test_tk_readout_at_even_gamma_needs_no_count(params, seed, count, density,
                                                 ragged):
    # at even gamma a round leaves every variable's copies all equal or
    # exactly half set, gate faults included, so the readout of all-set
    # and half-set copies equals the bit-sliced majority with its ties
    g = fm.build_random_regular(fm.CodeParams(*params), seed % 50)
    rng = np.random.default_rng(seed)
    copies = (rng.random((count, g.n, g.gamma)) < density).astype(np.uint8)
    prev = pack_rows(rng.integers(0, 2, (count, g.n)).astype(np.uint8))
    _reg, xor_words, maj_words = random_gate_batch(g, rng, count,
                                                   ragged).packed(g)
    words = tk_round_packed(g, tk_words(copies), xor_words, maj_words)
    ones = tk_copies(words, count).sum(axis=2)
    assert np.isin(ones, (0, g.gamma // 2, g.gamma)).all()
    readout, ties = tk_readout_packed(words, prev)
    want, want_ties = majority_ties_packed(words, prev)
    assert np.array_equal(readout, want) and np.array_equal(ties, want_ties)


def test_tk_initialization_equal_copies(seed7_graph):
    # every copy of a variable, i.e. each of its outgoing edge messages,
    # starts at the stored bit
    g = seed7_graph
    w = np.zeros(g.n, np.uint8)
    w[3] = 1
    copies = EdgeMessages.from_word(g, w).var_to_check.reshape(g.n, g.gamma)
    assert (copies == w[:, None]).all()


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
    ones = sum(unpack_rows(copies[:, j], 64 * words).astype(int)
               for j in range(gamma))
    if gamma % 2:
        assert ties is None
        ties = np.zeros_like(state)
    else:
        assert np.array_equal(unpack_rows(ties, 64 * words), 2 * ones == gamma)
    assert np.array_equal(majority_ties_packed(copies ^ reg[:, None], state)[0],
                          state ^ (reg & ~ties))
