import numpy as np
import pytest
from hypothesis import settings

import faultmem as fm
from faultmem.decoders import (algorithm_a_round_packed, pack_rows,
                               parallel_bitflip_round_many, unpack_rows)
from faultmem.faults import PlanBatch
from faultmem.tanner import as_word

# Property tests draw their examples from a fixed derandomized stream, so
# every run of the suite checks the same cases.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("deterministic")

# Frozen certified-expander instances: (n, gamma, rho, seed, alpha, epsilon).
# All are girth-6 constructions; the (4,5) pair certifies pair expansion at
# delta = 3.48 and covers two-error patterns, the rest cover single errors.
CERTIFIED_INSTANCES = (
    (36, 3, 6, 7, 1.9 / 36, 0.25),
    (32, 3, 4, 11, 2.9 / 32, 1 / 12),
    (40, 4, 5, 13, 2.9 / 40, 0.12),
    (30, 4, 5, 17, 2.9 / 30, 0.12),
    (36, 3, 6, 101, 2.9 / 36, 1 / 12),
)


def build_instance(inst):
    n, gamma, rho, seed, alpha, eps = inst
    g = fm.build_random_regular(fm.CodeParams(n, gamma, rho), seed,
                                reject_4cycles=True)
    return g, fm.ExpansionProfile(alpha, gamma, eps)


def xor_gate_id(g, check, slot, pos):
    """The flat id of XOR gate ``pos`` of the chain behind check
    ``check``'s edge ``slot``, PlanBatch's convention."""
    return (check * g.rho + slot) * (g.rho - 2) + pos


def gate_batch(xor_rows, maj_rows):
    """A PlanBatch of gate faults, row r failing the flat XOR gate ids in
    ``xor_rows[r]`` and the majority gates of ``maj_rows[r]``; a class
    without a fault in any row is None."""
    def pairs(rows):
        cells = [(r, i) for r, ids in enumerate(rows) for i in sorted(ids)]
        if not cells:
            return None
        return tuple(np.array(col, dtype=np.int64) for col in zip(*cells))
    return PlanBatch(len(xor_rows), None, pairs(xor_rows), pairs(maj_rows))


def gate_words(g, xor_ids=(), maj_ids=()):
    """(xor_words, maj_words) of one state failing the flat XOR gate ids
    and majority gates given, packed through a one-row PlanBatch."""
    return gate_batch([xor_ids], [maj_ids]).packed(g)[1:]


def algorithm_a_round(g, state, xor_ids=(), maj_ids=()):
    """One faulty refresh of one state, the failed XOR gates as flat ids
    and the failed majority gates as variables: the packed round on a
    batch of one."""
    words = pack_rows(as_word(state, g.n)[None, :])
    return unpack_rows(algorithm_a_round_packed(
        g, words, *gate_words(g, xor_ids, maj_ids)), 1)[0]


def tk_words(copies):
    """(T, n, gamma) 0/1 copy sets as tk_round_packed's (ceil(T/64),
    gamma, n) words, plane j holding every variable's j-th copy."""
    return pack_rows(copies.transpose(0, 2, 1))


def tk_copies(words, rows):
    """The first ``rows`` (n, gamma) copy sets of tk_round_packed words."""
    return unpack_rows(words, rows).transpose(0, 2, 1)


def parallel_bitflip_round(g, state):
    """One reliable flip round of one state, over
    parallel_bitflip_round_many."""
    w = as_word(state, g.n)
    return parallel_bitflip_round_many(g, w[None, :])[0]


def row_ids(pair, row):
    """The set of ids that row ``row`` of one PlanBatch class holds (empty
    for a class drawn as None), read from its ragged (row, id) pairs."""
    if pair is None:
        return set()
    return {i for r, i in zip(pair[0].tolist(), pair[1].tolist()) if r == row}


def plan_masks(batch, g, rows):
    """The (rows, n) register flips, (rows, rho, m) slot-major chain
    parities and (rows, n) majority complements of a PlanBatch as 0/1
    uint8 arrays, built pair by pair from its ragged (row, id) pairs: the
    oracle for PlanBatch.packed.  A row's ids count once each; a chain's
    parity is the parity of its failed gates."""
    flips = np.zeros((rows, g.n), np.uint8)
    parity = np.zeros((rows, g.rho, g.m), np.uint8)
    mask = np.zeros((rows, g.n), np.uint8)
    chain = g.rho - 2
    for name, out in (("reg", flips), ("xor", parity), ("maj", mask)):
        pair = getattr(batch, name)
        if pair is None:
            continue
        for r, idx in set(zip(pair[0].tolist(), pair[1].tolist())):
            if name == "xor":
                parity[r, idx // chain % g.rho, idx // chain // g.rho] ^= 1
            else:
                out[r, idx] = 1
    return flips, parity, mask


@pytest.fixture(scope="session")
def certified_instances():
    return [build_instance(inst) for inst in CERTIFIED_INSTANCES]


@pytest.fixture(scope="session")
def seed7_graph():
    """The (12,3,6) seed-7 graph used across worked examples."""
    return fm.build_random_regular(fm.CodeParams(12, 3, 6), 7)


@pytest.fixture(scope="session")
def girth6_graph():
    """A girth-6 (36,3,6) graph: single errors correct in one round."""
    return fm.build_random_regular(fm.CodeParams(36, 3, 6), 7,
                                   reject_4cycles=True)


# one pass/fail line per acceptance criterion at the end of the run
_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        if report.when == "call":
            _ACCEPTANCE_RESULTS[name] = report.outcome
        elif report.when == "setup" and report.outcome != "passed":
            _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{tag}: {name}")
