"""faultmem benchmark: one workload per run, host time only.

    python3 bench/run.py --workload desk-adversarial --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it measures the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it wraps each layer's public functions
and reports the per-layer metrics.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; a sidecar
with machine info, output digests and simulated statistics goes to
bench/out/.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MODULES = ("faultmem", "faultmem.memsim", "faultmem.faults", "faultmem.tanner",
           "faultmem.expansion", "faultmem.cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5          # set-up repeats per run; setup_s is their median
PROBE_TIMEOUT_S = 120
CALIBRATION_LOOP = 200_000
CALIBRATION_REF_S = 0.010  # calibration time that reported seconds refer to


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_faultmem() -> dict:
    """Import the package from this checkout's sources, never from an
    installed copy, with every numerical library on one thread (the
    variables only take effect before numpy is first imported)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "faultmem"
    if not (package / "__init__.py").is_file():
        fail(f"no faultmem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        modules = {name: importlib.import_module(name) for name in MODULES}
    except ImportError as exc:
        fail(f"cannot import faultmem: {exc}")
    if Path(modules["faultmem"].__file__).resolve().parent != package:
        fail(f"faultmem imported from {modules['faultmem'].__file__}")
    return modules


def namespace(modules: dict) -> types.SimpleNamespace:
    """The faultmem modules by short name (``m.memsim``); workloads look
    functions up on them at call time, so the tracer's wrappers apply."""
    return types.SimpleNamespace(**{name.rpartition(".")[2]: mod
                                    for name, mod in modules.items()})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, then print the clock reading (internal)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Host speed calibration
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop, run next to every timed call.

    The shared 2-vCPU host switches, for seconds to minutes at a time,
    between a fast state and one about 1.5x slower.  Every reported time
    is a measured wall time scaled by CALIBRATION_REF_S over the mean of
    the calibration runs just before and after it, which cancels most of
    that; the raw times stay in the sidecar.
    """
    started = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i & 7
    return time.perf_counter() - started


def timed(fn):
    """(result, wall seconds, calibration seconds) of one call."""
    before = calibrate()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    return result, wall, (before + calibrate()) / 2


def scaled(samples) -> list[float]:
    """Wall seconds of (wall, calibration) samples at the reference speed."""
    return [wall * CALIBRATION_REF_S / cal for wall, cal in samples]


# ---------------------------------------------------------------------------
# Set-up time, from interpreter start to the first simulated cycle
# ---------------------------------------------------------------------------


def setup_probe(workload_cls, m, seed: int) -> int:
    """Set up once and print the clock; the measuring process reports
    any set-up check that fails."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        workload_cls(m, seed, work).setup()
    print(f"setup_end {time.perf_counter()!r}")
    return 0


def measure_setup(workload: str, seed: int) -> list[tuple]:
    """(set-up seconds, calibration seconds) of fresh interpreters.
    perf_counter reads the system-wide monotonic clock on Linux, so the
    child's reading at the end of set-up minus ours at spawn covers
    interpreter start too."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]

    def probe():
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_end "):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
        return float(lines[-1].split()[1]) - spawned

    samples = []
    for _ in range(SETUP_PROBES):
        seconds, _wall, cal = timed(probe)
        samples.append((seconds, cal))
    return samples


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: dict[tuple, list] = {}

    def record(self, where: tuple, problems: list) -> None:
        if problems:
            self.failed_ops.setdefault(where, []).extend(problems)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def run_experiment(ops, ledger: Ledger, index: int, tracer=None):
    """Run every operation once, timing only its call; returns
    ({label: (wall seconds, calibration seconds)}, {label: OpOutput or None})."""
    samples, outputs = {}, {}
    for label, call, finish in ops:
        ledger.attempted += 1
        outputs[label] = None
        try:
            raw, wall, cal = timed(
                (lambda: tracer.span("bench.op", call)) if tracer else call)
            samples[label] = (wall, cal)
            outputs[label] = finish(raw)
        except Exception:  # raising, or output that cannot be read, fails it
            ledger.record((index, label), [traceback.format_exc()])
            continue
        ledger.record((index, label), outputs[label].violations)
    return samples, outputs


def digest(out) -> str | None:
    return hashlib.sha256(out.payload).hexdigest() if out is not None else None


def check_repeats(first: dict, outputs: dict, ledger: Ledger, index: int) -> None:
    """Each repeat of an operation with the same seed must give identical
    deterministic outputs."""
    for label, out in outputs.items():
        if out is not None and first.get(label) is not None \
                and digest(out) != digest(first[label]):
            ledger.record((index, label), ["output digest differs from the "
                                           "first repeat of this run"])


def repeat_seconds(samples: dict) -> float:
    """Seconds of one repeat at the reference speed: the sum over
    operations of the median of their scaled times."""
    return sum(statistics.median(scaled(times)) for times in samples.values())


def measure(ops, seconds: float, ledger: Ledger, tracer=None, modules=None):
    """Repeat the workload's operations until the next repeat would pass
    ``seconds``.  With a tracer, untraced and traced repeats alternate.
    Returns ({"plain"|"traced": {label: [(wall, calibration) per repeat]}},
    outputs of the first repeat)."""
    walls = {"plain": {}, "traced": {}}
    first = None
    deadline = time.perf_counter() + seconds
    index = 0
    last = 0.0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(modules)
            tracer.set_phase("sim")
        try:
            samples, outputs = run_experiment(ops, ledger, index,
                                               tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for label, sample in samples.items():
            walls["traced" if traced else "plain"].setdefault(label, []).append(sample)
        if not traced:
            last = sum(wall + 2 * cal for wall, cal in samples.values())
        if first is None:
            first = outputs
        else:
            check_repeats(first, outputs, ledger, index)
        index += 1
        kinds_done = index >= (2 if tracer else 1)
        if kinds_done and time.perf_counter() + last > deadline:
            break
    return walls, first


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def machine_info(modules: dict) -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "faultmem").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "faultmem": getattr(modules["faultmem"], "__version__", None),
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
    }


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(walls, first, setup_samples, ledger) -> dict:
    trial_cycles = sum(out.trial_cycles for out in first.values() if out)
    run_s = repeat_seconds(walls["plain"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "trial_cycle_us": metric(run_s / max(trial_cycles, 1) * 1e6, "us"),
        "run_s": metric(run_s, "s"),
        "setup_s": metric(statistics.median(scaled(setup_samples)), "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "success_rate": metric((ledger.attempted - ledger.failed)
                               / ledger.attempted, "ratio"),
    }


def layer_metrics(tracer, walls, first, budgets) -> dict:
    """Per-layer metrics of the traced repeats (counts per repeat)."""
    repeats = max((len(times) for times in walls["traced"].values()), default=1)
    sim = tracer.times("sim")
    setup = tracer.times("setup")
    wall = tracer.root_seconds("sim")

    def self_s(key):
        return sim.get(key, (0.0, 0.0, 0))[0]

    def calls(key):
        return sim.get(key, (0.0, 0.0, 0))[2]

    def count(key, name, phase="sim"):
        return tracer.counts.get((key, phase), {}).get(name, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def share(*keys):
        return per(sum(self_s(k) for k in keys), wall)

    draw_calls = calls("faults.draw")
    plans = count("faults.draw", "plans")
    rows = count("decoders.round", "rows")
    detect_calls = calls("memsim.detect")
    config = [setup.get("cli.config", (0, 0, 0)), sim.get("cli.config", (0, 0, 0))]
    config_n = sum(c[2] for c in config)
    budget = {cls: max(b[cls] for b in budgets.values())
              for cls in ("register", "xor", "maj")}
    values = {
        "faults.share": (share("faults.draw", "faults.rng_for",
                               "faults.check_plans", "faults.lookahead"), "ratio"),
        "faults.draw.calls": (draw_calls / repeats, "count"),
        "faults.draw.us_per_call": (per(self_s("faults.draw"), draw_calls, 1e6), "us"),
        "faults.draw.share": (share("faults.draw"), "ratio"),
        "faults.rng_for.calls": (calls("faults.rng_for") / repeats, "count"),
        "faults.rng_for.us_per_call": (per(self_s("faults.rng_for"),
                                           calls("faults.rng_for"), 1e6), "us"),
        "faults.check_plans.calls": (calls("faults.check_plans") / repeats, "count"),
        "faults.lookahead.states": (count("faults.lookahead", "states") / repeats,
                                    "count"),
        "faults.lookahead.share": (share("faults.lookahead"), "ratio"),
        "decoders.round.calls": (calls("decoders.round") / repeats, "count"),
        "decoders.round.rows": (rows / repeats, "count"),
        "decoders.round.us_per_row": (per(self_s("decoders.round"), rows, 1e6), "us"),
        "decoders.round.share": (share("decoders.round"), "ratio"),
        "decoders.tk_round.calls": (calls("decoders.tk_round") / repeats, "count"),
        "decoders.tk_round.us_per_call": (per(self_s("decoders.tk_round"),
                                              calls("decoders.tk_round"), 1e6), "us"),
        "decoders.tk_round.share": (share("decoders.tk_round"), "ratio"),
        "memsim.detect.calls": (detect_calls / repeats, "count"),
        "memsim.detect.rounds": (count("memsim.detect", "rounds") / repeats, "count"),
        "memsim.detect.nonconverged": (count("memsim.detect", "nonconverged")
                                       / repeats, "count"),
        "memsim.detect.hit_ratio": (per(count("memsim.detect", "hits"),
                                        detect_calls), "ratio"),
        "memsim.detect.share": (share("memsim.detect"), "ratio"),
        "memsim.engine.self_share": (share("memsim.engine", "memsim.run_memory"),
                                     "ratio"),
        "memsim.run_memory.calls": (calls("memsim.run_memory") / repeats, "count"),
        "memsim.trial_cycles": (sum(o.trial_cycles for o in first.values() if o),
                                "count"),
        "tanner.build_s": (setup.get("tanner.build", (0, 0, 0))[1], "s"),
        "tanner.rank_s": (setup.get("tanner.rank", (0, 0, 0))[1], "s"),
        "expansion.certify_s": (setup.get("expansion.certify", (0, 0, 0))[1], "s"),
        "expansion.subsets_checked": (count("expansion.certify", "subsets_checked",
                                            "setup"), "count"),
        "cli.config_s": (per(sum(c[1] for c in config), config_n), "s"),
        "cli.self_share": (share("cli"), "ratio"),
        "trace.overhead": (per(repeat_seconds(walls["traced"]),
                               repeat_seconds(walls["plain"])), "ratio"),
    }
    for cls in ("register", "xor", "maj"):
        values[f"faults.budget.{cls}"] = (budget[cls], "count")
        values[f"faults.injected.{cls}"] = (
            per(count("faults.draw", f"injected.{cls}"), plans), "count")
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def absent_metrics(names, all_keys, absent_keys) -> list:
    """Metrics whose layer (the longest layer key prefixing the name) had
    none of its functions wrapped; they read 0 and are listed as absent.
    The injected-fault counts come from the draw functions."""
    owners = {k: k for k in all_keys}
    owners["faults.injected"] = "faults.draw"

    def layer(name):
        hits = [k for k in owners if name.startswith(k)
                and name[len(k):len(k) + 1] in (".", "_")]
        return owners[max(hits, key=len)] if hits else None

    return sorted(name for name in names if layer(name) in absent_keys)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def print_report(name, seed, setup_problems, budgets, first, ledger,
                 tracer=None, absent=()) -> None:
    print(f"workload {name} seed {seed}")
    for label, counts in budgets.items():
        print(f"  budget per use [{label}]: " + ", ".join(
            f"{cls}={n:g}" for cls, n in counts.items()))
    for label, out in first.items():
        if out is not None:
            print(f"  {label}: sha256={digest(out)} stats={json.dumps(out.stats)}")
    combined = hashlib.sha256("".join(f"{label}={digest(out)};"
                                      for label, out in first.items()).encode())
    print(f"  outputs sha256={combined.hexdigest()}")
    for problem in setup_problems:
        print(f"  SETUP CHECK FAILED: {problem}")
    for where, problems in ledger.failed_ops.items():
        for problem in problems:
            print(f"  FAILED {where}: {problem.strip()}")
    if tracer is not None:
        for name_missing in tracer.absent:
            print(f"  absent (not traced): {name_missing}")
        for name_missing in absent:
            print(f"  absent metric (reads 0): {name_missing}")
        for error in sorted(set(tracer.hook_errors)):
            print(f"  counter not taken: {error}")


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_faultmem()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of "
             f"{sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    m = namespace(modules)
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(workload_cls, m, args.seed)

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        workload = workload_cls(m, args.seed, work)
        if tracer:
            tracer.set_phase("setup")
            tracer.install(modules)
        try:
            setup_problems = workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_samples = [] if tracer else measure_setup(args.workload, args.seed)

        ledger = Ledger()
        ops = workload.ops()
        walls, first = measure(ops, args.seconds, ledger, tracer, modules)
        for label, out in first.items():
            if out is None:
                continue
            try:
                problems = workload.rerun_check(label, out)
            except Exception:  # a re-run that raises fails the operation
                problems = [traceback.format_exc()]
            ledger.record((0, label), problems)

    budgets = workload.budgets()
    absent = []
    if tracer:
        metrics = layer_metrics(tracer, walls, first, budgets)
        absent = absent_metrics(metrics, tracer.all_keys(), tracer.absent_keys())
    else:
        metrics = end_to_end_metrics(walls, first, setup_samples, ledger)
    machine = machine_info(modules)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print_report(args.workload, args.seed, setup_problems, budgets, first,
                 ledger, tracer, absent)
    sidecar = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "budgets": budgets, "setup_problems": setup_problems,
        "setup_samples_s": setup_samples, "walls_s": walls,
        "digests": {label: digest(out) for label, out in first.items()},
        "simulated": {label: out.stats for label, out in first.items() if out},
        "absent": tracer.absent if tracer else [], "absent_metrics": absent,
        "failures": {f"{i}:{label}": p for (i, label), p in ledger.failed_ops.items()},
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": ledger.failed == 0 and not setup_problems,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
