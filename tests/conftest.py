import numpy as np
import pytest
from hypothesis import settings

import faultmem as fm
from faultmem.decoders import (GateFaultPlan, algorithm_a_round_many,
                               parallel_bitflip_round_many)
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


def algorithm_a_round(g, state, faults=None):
    """One faulty refresh of one state: broadcast values, form check
    estimates through the XOR chains, take per-variable majorities (ties
    keep the previous value), then complement the outputs of failed
    majority gates.  The one-state oracle over algorithm_a_round_many."""
    w = as_word(state, g.n)
    if faults is None:
        faults = GateFaultPlan.empty()
    faults.validate(g)
    return algorithm_a_round_many(g, w[None, :], faults.xor_parity(g),
                                  faults.maj_mask(g))[0]


def parallel_bitflip_round(g, state):
    """One reliable flip round of one state, over
    parallel_bitflip_round_many."""
    w = as_word(state, g.n)
    return parallel_bitflip_round_many(g, w[None, :])[0]


def plan_masks(batch, g, rows):
    """The (rows, n) register flips, (rows, m, rho) chain parities and
    (rows, n) majority complements of a PlanBatch as 0/1 uint8 arrays,
    built row by row from its plan objects: the oracle for
    PlanBatch.packed."""
    flips = np.zeros((rows, g.n), np.uint8)
    parity = np.zeros((rows, g.m, g.rho), np.uint8)
    mask = np.zeros((rows, g.n), np.uint8)
    for row in range(rows):
        reg_plan, gate_plan = batch.plan(row, g)
        flips[row] = reg_plan.apply(flips[row])
        if gate_plan.xor_flips:
            parity[row] = gate_plan.xor_parity(g)
        if gate_plan.maj_flips:
            mask[row] = gate_plan.maj_mask(g)
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
