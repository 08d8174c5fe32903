"""Command-line front end: experiment config, subcommand dispatch, and
plot-ready result emission.

Subcommands: generate, certify, simulate, bounds, compare-tk.  Exit code
0 on success, 2 on validation errors, 1 on runtime errors.  Structured
results go to JSON (deterministic: sorted keys, no timestamps), plot
series to CSV.  Paths inside a config file resolve relative to that
file; paths given as flags resolve relative to $FAULTMEM_OUTPUT_DIR when
set, else the working directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import expansion, memsim, metrics, tanner
from .exceptions import (AlistFormatError, BudgetViolationError, ConfigError,
                         FaultMemError)
from .faults import (AdversarialBudget, AdversarialModel, IndependentModel,
                     IndependentRates)

OUTPUT_DIR_ENV = "FAULTMEM_OUTPUT_DIR"


def _out_path(arg: str) -> Path:
    p = Path(arg)
    if p.is_absolute():
        return p
    base = os.environ.get(OUTPUT_DIR_ENV)
    return (Path(base) / p) if base else p


def _new_file(path: Path):
    """``path`` opened for writing text, its parent directories created."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", newline="")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; 'a:b' and 'a:b:step' expand inclusively."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            parts = [int(x) for x in tok.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ConfigError(f"bad range {tok!r}")
            if step < 1 or stop < start:
                raise ConfigError(f"bad range {tok!r}")
            out.extend(range(start, stop + 1, step))
        else:
            out.append(int(tok))
    return out


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _cost_model(text: str) -> metrics.GateCostModel:
    if text == "default":
        return metrics.DEFAULT_COST
    if text.startswith("constant:"):
        return metrics.constant_cost(int(text.split(":", 1)[1]))
    raise ConfigError(f"unknown cost model {text!r}; use 'default' or 'constant:K'")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(memsim.RunConfig):
    """A run as a config file describes it: the RunConfig, how many trials
    to run from which root seed, and where the results go."""

    trials: int
    root_seed: int
    output_json: Path | None
    output_traces: Path | None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.root_seed < 1 << 64:
            raise ConfigError(f"root_seed must lie in [0, 2^64), got {self.root_seed}")


_REQUIRED = object()


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {json.dumps(value)}")
    return value


# what each field kind accepts: JSON booleans, JSON integers, or any JSON
# number (integer or not); a JSON boolean is never a number
_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a number")}


def _field(obj: dict, key: str, kind, name: str, default=_REQUIRED):
    """obj[key], which must be a JSON value of ``kind`` (bool, int or
    float, an int being a float too), as that kind; an absent key gives
    ``default`` or, without one, is a missing required field."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required field {name!r}")
        return default
    value = obj[key]
    types, wanted = _KINDS[kind]
    if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"config field {name!r} must be {wanted}, got "
                          f"{json.dumps(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"config field {name!r} is out of range") from None


def _read_alist(path: Path) -> tanner.TannerGraph:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read alist file {path}: {exc}") from exc
    return tanner.read_alist(text)


def load_experiment_config(path: Path) -> ExperimentConfig:
    """Parse and fully validate a config document before any work starts."""
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    base = path.resolve().parent

    def rel(obj: dict, key: str, name: str) -> Path | None:
        if key not in obj:
            return None
        if not isinstance(obj[key], str):
            raise ConfigError(f"config field {name!r} must be a path string, "
                              f"got {json.dumps(obj[key])}")
        q = Path(obj[key])
        return q if q.is_absolute() else base / q

    try:
        doc = _object(doc, "config")
        code = _object(doc["code"], "config field 'code'")
        if "alist" in code:
            graph = _read_alist(rel(code, "alist", "code.alist"))
        else:
            params = tanner.CodeParams(*(_field(code, key, int, f"code.{key}")
                                         for key in ("n", "gamma", "rho")))
            graph = tanner.build_random_regular(
                params, _field(code, "seed", int, "code.seed", 0),
                reject_4cycles=_field(code, "reject_4cycles", bool,
                                      "code.reject_4cycles", False))

        decoder = doc["decoder"]
        fm = _object(doc["fault_model"], "config field 'fault_model'")
        kind = fm.get("type")

        def rate(key: str) -> float:
            return _field(fm, key, float, f"fault_model.{key}", 0.0)

        if kind == "adversarial":
            budget = AdversarialBudget(rate("alpha_m"), rate("alpha_xor"),
                                       rate("alpha_maj"))
            model = AdversarialModel(budget, fm.get("strategy", "random"))
        elif kind == "independent":
            model = IndependentModel(IndependentRates(rate("p_m"), rate("p_xor"),
                                                      rate("p_maj")))
        else:
            raise ConfigError(
                "fault_model.type must be 'adversarial' or 'independent'")

        profile = None
        if doc.get("profile") is not None:
            prof = _object(doc["profile"], "config field 'profile'")
            profile = expansion.ExpansionProfile(
                _field(prof, "alpha", float, "profile.alpha"), graph.gamma,
                _field(prof, "epsilon", float, "profile.epsilon"))

        out = _object(doc.get("output", {}), "config field 'output'")
        return ExperimentConfig(
            graph, decoder, model, _field(doc, "cycles", int, "cycles"), profile,
            _field(doc, "check_accounting", bool, "check_accounting", False),
            trials=_field(doc, "trials", int, "trials", 1),
            root_seed=_field(doc, "root_seed", int, "root_seed", 0),
            output_json=rel(out, "json", "output.json"),
            output_traces=rel(out, "traces_csv", "output.traces_csv"))
    except KeyError as exc:
        raise ConfigError(f"config is missing required field {exc}") from exc
    except (ValueError, AlistFormatError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    params = tanner.CodeParams(args.n, args.gamma, args.rho)
    g = tanner.build_random_regular(params, args.seed,
                                    reject_4cycles=args.reject_4cycles,
                                    max_restarts=args.max_restarts)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(tanner.write_alist(g))
    if args.json_out:
        _write_json(_out_path(args.json_out), g.to_json_obj())
    # realized storage capability next to its rate bound
    print(f"wrote {out} (n={g.n}, m={g.m}, gamma={g.gamma}, rho={g.rho}, "
          f"k={tanner.code_dimension(g)}, k_bound={g.n * params.rate_bound:g}, "
          f"hash={g.graph_hash()})")
    return 0


def cmd_certify(args) -> int:
    g = _read_alist(Path(args.alist))
    profile = expansion.ExpansionProfile(args.alpha, g.gamma, args.epsilon)
    if args.mode == "exhaustive":
        cert = expansion.check_expansion_exhaustive(g, profile,
                                                    work_budget=args.budget)
    else:
        cert = expansion.probe_expansion_randomized(g, profile, args.trials,
                                                    args.seed)
    if args.out:
        _write_json(_out_path(args.out), cert.to_json_obj())
    print(f"{cert.verdict} (mode={cert.mode}, subsets_checked={cert.subsets_checked}"
          + (f", witness={list(cert.witness)}" if cert.witness else "") + ")")
    return 0


def _trace_cells(result) -> tuple[list[str], np.ndarray]:
    """One run's distinct trace cells and, per trial and cycle, the index
    of its cell: "alpha_v_pre,alpha_v_post,failed" with the alphas written
    as repr(c / n), n the run's code length, or ",," where the trial has
    stopped.  The key of a
    cell, ((pre + 1) * (n + 2) + post + 1) * 2 + failed, stays below
    2 (n + 2)^2, inside int64 for every n below 2^31 - 2."""
    n = result.config.graph.n
    pre, post = result.corrupt.astype(np.int64)
    trials, cycles = pre.shape
    failure = np.array([-1 if c is None else c
                        for c in result.failure_cycle_by_trial])
    failed = np.arange(1, cycles + 1) == failure[:, None]
    keys = ((pre + 1) * (n + 2) + post + 1) * 2 + failed
    # a 1-D input, whose inverse is 1-D under every numpy >= 1.24
    distinct, index = np.unique(keys.ravel(), return_inverse=True)
    cells = []
    for key in distinct.tolist():
        counts, bit = divmod(key, 2)
        a, b = divmod(counts, n + 2)
        cells.append(f"{(a - 1) / n!r},{(b - 1) / n!r},{bit}" if a else ",,")
    return cells, index.reshape(trials, cycles)


def _write_traces(path: Path, header: list[str], results: list) -> None:
    """Write the per-cycle trace CSV of ``results`` (MonteCarloResults
    over the same trials and cycles): ``header``, then one
    row per trial and cycle that some run executed, holding for each run
    the cells alpha_v_pre, alpha_v_post and failed of that trial and
    cycle, three empty cells once the run's trial has stopped.  The bytes
    are csv.writer's: the alphas are c / n, and rows end in CRLF.

    Each run's distinct cells are formatted once (_trace_cells), and the
    runs are combined through their cell indices: each distinct
    combination is formatted once, and every key stays below the square
    of the number of cells, whatever n.  Each trial's rows are joined in
    one call, and the file is written in one call."""
    runs = [_trace_cells(result) for result in results]
    table, index = runs[0]
    for cells, cell_index in runs[1:]:
        combined, index = np.unique((index * len(cells) + cell_index).ravel(),
                                    return_inverse=True)
        table = [table[k // len(cells)] + "," + cells[k % len(cells)]
                 for k in combined.tolist()]
        index = index.reshape(cell_index.shape)
    trials, cycles = index.shape
    rows = (np.array([f",{c}," for c in range(1, cycles + 1)], dtype=object)
            + np.array([row + "\r\n" for row in table], dtype=object)[index])
    lengths = np.max([(result.corrupt[0] >= 0).sum(axis=1)
                      for result in results], axis=0).tolist()
    text = [",".join(header) + "\r\n"]
    for t, length in enumerate(lengths):
        # every row starts ",cycle,", so joining on the trial number
        # puts it in front of every row after the first
        prefix = str(t)
        text.append(prefix + prefix.join(rows[t, :length].tolist()))
    with _new_file(path) as fh:
        fh.write("".join(text))


def cmd_simulate(args) -> int:
    cfg = load_experiment_config(Path(args.config))
    result = memsim.monte_carlo(cfg, cfg.trials, cfg.root_seed)
    obj = result.to_json_obj()
    obj["config"] = {
        "decoder": cfg.decoder,
        "cycles": cfg.cycles,
        "trials": cfg.trials,
        "root_seed": cfg.root_seed,
        "graph_hash": cfg.graph.graph_hash(),
    }
    if cfg.output_json:
        _write_json(cfg.output_json, obj)
    if cfg.output_traces:
        _write_traces(cfg.output_traces,
                      ["trial", "cycle", "alpha_v_pre", "alpha_v_post", "failed"],
                      [result])
    print(f"failure_rate={result.failure_rate:.6g} "
          f"[{result.ci_low:.6g}, {result.ci_high:.6g}] "
          f"({result.failures}/{result.trials} trials)")
    return 0


def cmd_bounds(args) -> int:
    gammas = _int_list(args.gamma)
    rhos = _int_list(args.rho)
    if not gammas or not rhos:
        raise ConfigError("gamma and rho lists must be non-empty")
    cost = _cost_model(args.cost)
    # every row of both tables is computed before either file is opened,
    # so a bad input exits with no file written
    rows = [["gamma", "rho", "redundancy", "redundancy_tk",
             "alpha_total_lower", "alpha_total_upper"]]
    for gamma in gammas:
        for rho in rhos:
            if rho <= gamma:
                continue
            bounds = expansion.alpha_total_bounds(gamma, rho)
            rows.append([
                gamma, rho,
                repr(metrics.redundancy(gamma, rho, cost)),
                repr(metrics.redundancy_tk(gamma, rho, cost)),
                "" if bounds.lower is None else repr(bounds.lower),
                repr(bounds.upper),
            ])
    tables = [(_out_path(args.out), rows)]
    if args.chernoff_out:
        ps = _float_list(args.chernoff_p)
        deltas = _float_list(args.chernoff_delta)
        ns = _int_list(args.chernoff_n)
        if not (ps and deltas and ns):
            raise ConfigError("chernoff tables need p, delta, and n lists")
        rows = [["p", "delta", "n", "exact_bound", "loose_bound"]]
        for p in ps:
            for d in deltas:
                for n in ns:
                    exact, loose = metrics.chernoff_tail(p, d, n)
                    rows.append([p, d, n, repr(exact), repr(loose)])
        tables.append((_out_path(args.chernoff_out), rows))
    for path, rows in tables:
        with _new_file(path) as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {path}")
    return 0


def cmd_compare_tk(args) -> int:
    cfg = load_experiment_config(Path(args.config))
    if isinstance(cfg.fault_model, AdversarialModel) and cfg.fault_model.state_dependent:
        raise ConfigError(
            "compare-tk needs state-independent fault streams; the greedy "
            "strategy adapts to the decoder and cannot be shared")
    results = {
        decoder: memsim.monte_carlo(replace(cfg, decoder=decoder),
                                    cfg.trials, cfg.root_seed)
        for decoder in ("algorithm_a", "tk")
    }
    out = _out_path(args.out)
    _write_traces(out, ["trial", "cycle"] + [
        f"{column}_{decoder}" for decoder in results
        for column in ("alpha_v_pre", "alpha_v_post", "failed")],
        list(results.values()))
    summary = {decoder: {"failure_rate": result.failure_rate,
                         "failures": result.failures}
               for decoder, result in results.items()}
    if args.summary:
        _write_json(_out_path(args.summary), summary)
    print(f"wrote {out}; failure rates: "
          f"algorithm_a={summary['algorithm_a']['failure_rate']:.6g}, "
          f"tk={summary['tk']['failure_rate']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="faultmem",
        description="Fault-tolerant LDPC memory simulator and bounds toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a regular Tanner graph, write alist")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--gamma", type=int, required=True)
    g.add_argument("--rho", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--json-out")
    g.add_argument("--reject-4cycles", action="store_true")
    g.add_argument("--max-restarts", type=int, default=None)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("certify", help="certify or refute subset expansion")
    c.add_argument("--alist", required=True)
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--epsilon", type=float, required=True)
    c.add_argument("--mode", choices=("exhaustive", "randomized"),
                   default="exhaustive")
    c.add_argument("--trials", type=int, default=10000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=2_000_000)
    c.add_argument("--out")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("simulate", help="run a memory experiment from a config")
    s.add_argument("--config", required=True)
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bounds", help="emit redundancy/alpha_total/Chernoff tables")
    b.add_argument("--gamma", required=True, help="comma list or a:b[:s] ranges")
    b.add_argument("--rho", required=True, help="comma list or a:b[:s] ranges")
    b.add_argument("--cost", default="default", help="'default' or 'constant:K'")
    b.add_argument("--out", required=True)
    b.add_argument("--chernoff-p", default="")
    b.add_argument("--chernoff-delta", default="")
    b.add_argument("--chernoff-n", default="")
    b.add_argument("--chernoff-out")
    b.set_defaults(func=cmd_bounds)

    k = sub.add_parser("compare-tk",
                       help="run both decoders on identical fault streams")
    k.add_argument("--config", required=True)
    k.add_argument("--out", required=True)
    k.add_argument("--summary")
    k.set_defaults(func=cmd_compare_tk)

    return p


VALIDATION_ERRORS = (ConfigError, ValueError, AlistFormatError,
                     BudgetViolationError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FaultMemError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
