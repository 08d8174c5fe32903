"""In-memory spans around faultmem's public layer functions.

The tracer replaces a module or class attribute with a wrapper that
records one span per call (id, parent id, layer key, phase, start, end)
and, for some names, counts taken from the call's arguments or result.
Wrapping happens where callers look the name up: ``faultmem.memsim``
calls ``algorithm_a_round_many`` through its own globals, so that is the
attribute wrapped.  A name that no longer exists is recorded as absent
instead of failing, because later refactors rename or delete some of
them.  ``uninstall`` restores every original attribute.

Spans live in flat arrays (a span id is its index) so that the million
spans of a long traced run stay small.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, layer key, counter hook); an attribute written
# "Class.method" is looked up on that class of the module.
WRAPPED = (
    ("faultmem.memsim", "monte_carlo", "memsim.engine", None),
    ("faultmem.memsim", "run_memory", "memsim.run_memory", None),
    ("faultmem.memsim", "algorithm_a_round_many", "decoders.round", "rows"),
    ("faultmem.memsim", "tk_round", "decoders.tk_round", None),
    ("faultmem.memsim", "parallel_bitflip_decode", "memsim.detect", "detect"),
    ("faultmem.memsim", "draw_adversarial_greedy_many", "faults.draw", "plans"),
    ("faultmem.faults", "draw_adversarial", "faults.draw", "plan"),
    ("faultmem.faults", "draw_independent", "faults.draw", "plan"),
    ("faultmem.faults", "rng_for", "faults.rng_for", None),
    ("faultmem.faults", "parallel_bitflip_round_many", "faults.lookahead", "states"),
    ("faultmem.faults", "AdversarialBudget.check_plans", "faults.check_plans", None),
    ("faultmem.cli", "main", "cli", None),
    ("faultmem.cli", "load_experiment_config", "cli.config", None),
    ("faultmem.tanner", "build_random_regular", "tanner.build", None),
    ("faultmem.tanner", "code_dimension", "tanner.rank", None),
    ("faultmem.expansion", "check_expansion_exhaustive", "expansion.certify", "certify"),
    ("faultmem.expansion", "probe_expansion_randomized", "expansion.certify", "certify"),
)

PHASES = ("setup", "sim")
_MISSING = object()


def _count_plan(counts, plan) -> None:
    reg, gate = plan
    counts["plans"] += 1
    counts["injected.register"] += len(reg.flips)
    counts["injected.xor"] += len(gate.xor_flips)
    counts["injected.maj"] += len(gate.maj_flips)


def _hook_plan(counts, args, kwargs, result):
    _count_plan(counts, result)


def _hook_plans(counts, args, kwargs, result):
    for plan in result:
        _count_plan(counts, plan)


def _hook_rows(counts, args, kwargs, result):
    counts["rows"] += int(args[1].shape[0])


def _hook_states(counts, args, kwargs, result):
    counts["states"] += int(args[1].shape[0])


def _hook_detect(counts, args, kwargs, result):
    # every workload stores the all-zero codeword, so a detection that
    # does not converge, or converges to a nonzero word, found a failure
    word, rounds, converged = result
    counts["rounds"] += int(rounds)
    counts["nonconverged"] += int(not converged)
    counts["hits"] += int((not converged) or bool(word.any()))


def _hook_certify(counts, args, kwargs, result):
    counts["subsets_checked"] += int(result.subsets_checked)


HOOKS = {"plan": _hook_plan, "plans": _hook_plans, "rows": _hook_rows,
         "states": _hook_states, "detect": _hook_detect,
         "certify": _hook_certify}


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_index: dict[str, int] = {}
        self.parent = array("q")
        self.key = array("H")
        self.phase_of = array("B")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple, defaultdict] = {}  # (key, phase) -> counters
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.phase = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def set_phase(self, name: str) -> None:
        self.phase = PHASES.index(name)

    def _key_id(self, key: str) -> int:
        if key not in self._key_index:
            self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return self._key_index[key]

    def span(self, key: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``key``; returns its result."""
        return self._traced(fn, self._key_id(key), key, None)(*args, **kwargs)

    def counters(self, key: str, phase: str) -> defaultdict:
        return self.counts.setdefault((key, phase), defaultdict(int))

    def _traced(self, orig, key_id, key, hook):
        tracer = self
        stack = self._stack
        parent_arr, key_arr, phase_arr = self.parent, self.key, self.phase_of
        start_arr, end_arr = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start_arr)
            parent_arr.append(stack[-1] if stack else -1)
            key_arr.append(key_id)
            phase_arr.append(tracer.phase)
            end_arr.append(0.0)
            stack.append(sid)
            start_arr.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                end_arr[sid] = clock()
                stack.pop()
            counts = tracer.counters(key, PHASES[tracer.phase])
            counts["calls"] += 1
            if hook is not None:
                try:
                    HOOKS[hook](counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    tracer.hook_errors.append(f"{key}/{hook}: {exc!r}")
            return result

        traced.__wrapped__ = orig
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPPED; ``modules`` maps a module name to
        the imported module."""
        self.absent = []
        for mod_name, attr, key, hook in WRAPPED:
            owner, name = modules[mod_name], attr
            if "." in attr:
                cls_name, name = attr.split(".", 1)
                owner = getattr(owner, cls_name, None)
            if isinstance(owner, type):
                orig = vars(owner).get(name, _MISSING)
            else:
                orig = getattr(owner, name, _MISSING)
            if orig is _MISSING or not callable(orig):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._originals.append((owner, name, orig))
            setattr(owner, name, self._traced(orig, self._key_id(key), key, hook))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._originals):
            setattr(owner, name, orig)
        self._originals = []

    @staticmethod
    def all_keys() -> set:
        return {key for _, _, key, _ in WRAPPED}

    def absent_keys(self) -> set:
        """Layer keys none of whose names could be wrapped."""
        wrapped = {key for mod, attr, key, _ in WRAPPED
                   if f"{mod}.{attr}" not in self.absent}
        return self.all_keys() - wrapped

    def times(self, phase: str) -> dict:
        """Per layer key over the phase's spans: (self seconds, inclusive
        seconds, spans).  Self time is a span's duration minus the
        durations of its direct children."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        key = np.frombuffer(self.key, dtype=np.uint16)
        here = np.frombuffer(self.phase_of, dtype=np.uint8) == PHASES.index(phase)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        selft = dur - child
        out = {}
        for k, name in enumerate(self.keys):
            mask = here & (key == k)
            if mask.any():
                out[name] = (float(selft[mask].sum()), float(dur[mask].sum()),
                             int(mask.sum()))
        return out

    def root_seconds(self, phase: str) -> float:
        """Wall time covered by the phase's top-level spans."""
        if not self.start:
            return 0.0
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        top = (np.frombuffer(self.parent, dtype=np.int64) < 0) & (
            np.frombuffer(self.phase_of, dtype=np.uint8) == PHASES.index(phase))
        return float(dur[top].sum())
