import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faultmem as fm
from faultmem import cli
from faultmem.cli import main
from faultmem.exceptions import ConfigError
from faultmem.memsim import RunConfig

from conftest import CERTIFIED_INSTANCES, build_instance


def run_cli(args):
    return main([str(a) for a in args])


def write_config(path, **overrides):
    doc = {
        "code": {"n": 36, "gamma": 3, "rho": 6, "seed": 7,
                 "reject_4cycles": True},
        "decoder": "algorithm_a",
        "fault_model": {"type": "adversarial", "alpha_m": 0.0,
                        "strategy": "random"},
        "cycles": 10,
        "trials": 5,
        "root_seed": 1,
        "profile": {"alpha": 1.9 / 36, "epsilon": 0.25},
        "output": {"json": "result.json"},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


# -- generate ---------------------------------------------------------------


def test_generate_roundtrip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.alist", tmp_path / "b.alist"
    args = ["generate", "--n", 12, "--gamma", 3, "--rho", 6, "--seed", 7]
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = fm.read_alist(out1.read_text())
    assert g.n == 12 and g.m == 6


def test_generate_invalid_divisibility(tmp_path, capsys):
    rc = run_cli(["generate", "--n", 5, "--gamma", 3, "--rho", 6,
                  "--out", tmp_path / "x.alist"])
    assert rc == 2
    assert "divisible" in capsys.readouterr().err


def test_generate_json_sidecar(tmp_path):
    out = tmp_path / "g.alist"
    jout = tmp_path / "g.json"
    assert run_cli(["generate", "--n", 12, "--gamma", 3, "--rho", 6,
                    "--seed", 7, "--out", out, "--json-out", jout]) == 0
    obj = json.loads(jout.read_text())
    assert obj["n"] == 12 and len(obj["edges"]) == 36


def test_generate_prints_code_dimension_at_n4000(tmp_path, capsys):
    out = tmp_path / "g.alist"
    assert run_cli(["generate", "--n", 4000, "--gamma", 3, "--rho", 6,
                    "--seed", 4000, "--reject-4cycles", "--out", out]) == 0
    k = fm.code_dimension(fm.read_alist(out.read_text()))
    assert f", k={k}, " in capsys.readouterr().out


@pytest.mark.parametrize("cap", [0, -1])
def test_generate_rejects_restart_cap_below_one(tmp_path, capsys, cap):
    out = tmp_path / "g.alist"
    rc = run_cli(["generate", "--n", 12, "--gamma", 3, "--rho", 6,
                  "--max-restarts", cap, "--out", out])
    assert rc == 2
    assert (f"error: max_restarts must be at least 1, got {cap}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FAULTMEM_OUTPUT_DIR", str(tmp_path))
    assert run_cli(["generate", "--n", 12, "--gamma", 3, "--rho", 6,
                    "--seed", 1, "--out", "sub/g.alist"]) == 0
    assert (tmp_path / "sub" / "g.alist").exists()


# -- certify ----------------------------------------------------------------


def make_alist(tmp_path, n=36, gamma=3, rho=6, seed=7, girth6=True):
    path = tmp_path / "g.alist"
    args = ["generate", "--n", n, "--gamma", gamma, "--rho", rho,
            "--seed", seed, "--out", path]
    if girth6:
        args.append("--reject-4cycles")
    assert run_cli(args) == 0
    return path


def test_certify_exhaustive_matches_library(tmp_path, capsys):
    alist = make_alist(tmp_path)
    cert_path = tmp_path / "cert.json"
    rc = run_cli(["certify", "--alist", alist, "--alpha", 2.9 / 36,
                  "--epsilon", 1 / 12, "--mode", "exhaustive",
                  "--out", cert_path])
    assert rc == 0
    assert "certified" in capsys.readouterr().out
    obj = json.loads(cert_path.read_text())
    g = fm.read_alist(alist.read_text())
    lib = fm.check_expansion_exhaustive(
        g, fm.ExpansionProfile(2.9 / 36, 3, 1 / 12))
    assert obj["verdict"] == lib.verdict == "certified"
    assert obj["subsets_checked"] == lib.subsets_checked


def test_certify_epsilon_out_of_range(tmp_path, capsys):
    alist = make_alist(tmp_path)
    rc = run_cli(["certify", "--alist", alist, "--alpha", 0.05,
                  "--epsilon", 0.3])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err


def test_certify_randomized_inconclusive(tmp_path, capsys):
    alist = make_alist(tmp_path)
    rc = run_cli(["certify", "--alist", alist, "--alpha", 2.9 / 36,
                  "--epsilon", 1 / 12, "--mode", "randomized",
                  "--trials", 300, "--seed", 4])
    assert rc == 0
    assert "inconclusive" in capsys.readouterr().out


_VACUOUS = ("alpha*n = 0.36 is below 1, so no subset size is covered and "
            "the check would be vacuous")


@pytest.mark.parametrize("extra, named", [
    # alpha*n = 0.36 on the n=36 graph: no subset size is covered
    (["--alpha", 0.01], _VACUOUS),
    (["--alpha", 0.01, "--mode", "randomized"], _VACUOUS),
    (["--alpha", 0.05, "--budget", 0], "work budget must be at least 1, got 0"),
    (["--alpha", 0.05, "--budget", -5], "work budget must be at least 1, got -5"),
])
def test_certify_rejects_vacuous_checks(tmp_path, capsys, extra, named):
    alist = make_alist(tmp_path)
    capsys.readouterr()
    cert_path = tmp_path / "cert.json"
    rc = run_cli(["certify", "--alist", alist, "--epsilon", 0.25,
                  "--out", cert_path] + extra)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {named}\n"
    assert not cert_path.exists()


# -- simulate ---------------------------------------------------------------


def test_simulate_fault_free(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert "failure_rate=0" in capsys.readouterr().out
    res = json.loads((tmp_path / "result.json").read_text())
    assert res["failures"] == 0 and res["failure_rate"] == 0.0


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, fault_model={"type": "independent", "p_m": 0.05})
    assert run_cli(["simulate", "--config", cfg]) == 0
    first = (tmp_path / "result.json").read_bytes()
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "result.json").read_bytes() == first


def test_simulate_traces_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg,
                 fault_model={"type": "adversarial", "alpha_m": 1.5 / 36,
                              "strategy": "repeat"},
                 output={"json": "r.json", "traces_csv": "traces.csv"})
    assert run_cli(["simulate", "--config", cfg]) == 0
    with (tmp_path / "traces.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "cycle", "alpha_v_pre", "alpha_v_post", "failed"]
    assert len(rows) == 1 + 5 * 10
    assert float(rows[1][2]) > 0  # decay visible pre-correction


def test_simulate_validation_failures(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    write_config(cfg, decoder="nonsense")
    assert run_cli(["simulate", "--config", cfg]) == 2
    write_config(cfg, fault_model={"type": "weird"})
    assert run_cli(["simulate", "--config", cfg]) == 2
    write_config(cfg, code={"n": 5, "gamma": 3, "rho": 6})
    assert run_cli(["simulate", "--config", cfg]) == 2
    cfg.write_text("{not json")
    assert run_cli(["simulate", "--config", cfg]) == 2


def test_simulate_accounting_needs_profile_and_adversary(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    message = "check_accounting needs a profile and an adversarial model"
    write_config(cfg, check_accounting=True,
                 fault_model={"type": "independent", "p_m": 0.01})
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    write_config(cfg, check_accounting=True, profile=None)
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_loaded_config_is_a_run_config_checked_when_built(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path)
    cfg = cli.load_experiment_config(path)
    assert isinstance(cfg, RunConfig)
    for bad in ({"trials": 0}, {"cycles": 0}, {"decoder": "bogus"},
                {"fault_model": fm.IndependentModel(fm.IndependentRates(0.0)),
                 "check_accounting": True}):
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, **bad)
    tk = dataclasses.replace(cfg, decoder="tk")
    assert (tk.decoder, tk.graph, tk.trials) == ("tk", cfg.graph, cfg.trials)


_CODE = {"n": 36, "gamma": 3, "rho": 6, "seed": 7, "reject_4cycles": True}


@pytest.mark.parametrize("doc, named", [
    ({"code": {**_CODE, "reject_4cycles": "false"}}, "'code.reject_4cycles'"),
    ({"code": {**_CODE, "reject_4cycles": 0}}, "'code.reject_4cycles'"),
    ({"check_accounting": "no"}, "'check_accounting'"),
    ({"cycles": 2.9}, "'cycles'"),
    ({"trials": 3.7}, "'trials'"),
    ({"trials": True}, "'trials'"),
    ({"root_seed": "1"}, "'root_seed'"),
    ({"code": {**_CODE, "n": 36.0}}, "'code.n'"),
    ({"code": {**_CODE, "gamma": True}}, "'code.gamma'"),
    ({"code": {**_CODE, "rho": "6"}}, "'code.rho'"),
    ({"code": {**_CODE, "seed": 7.5}}, "'code.seed'"),
    ({"fault_model": {"type": "adversarial", "alpha_m": "0.01"}},
     "'fault_model.alpha_m'"),
    ({"fault_model": {"type": "independent", "p_m": True}}, "'fault_model.p_m'"),
    ({"profile": {"alpha": False, "epsilon": 0.25}}, "'profile.alpha'"),
    ({"profile": {"alpha": 0.05, "epsilon": "0.25"}}, "'profile.epsilon'"),
])
def test_config_fields_of_the_wrong_json_type_exit_2(tmp_path, capsys, doc, named):
    # flags must be JSON booleans, counts and seeds JSON integers and
    # rates JSON numbers: nothing is coerced
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **doc)
    assert run_cli(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "result.json").exists()


def test_config_accepts_integral_rates(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, fault_model={"type": "adversarial", "alpha_m": 0,
                                   "strategy": "random"})
    budget = cli.load_experiment_config(cfg).fault_model.budget
    assert budget.alpha_m == 0.0 and isinstance(budget.alpha_m, float)


def test_simulate_alist_config_and_relative_paths(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    alist = make_alist(tmp_path)
    cfg = sub / "cfg.json"
    write_config(cfg, code={"alist": "../g.alist"})
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert (sub / "result.json").exists()


def test_simulate_decoder_none_fails_eventually(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, decoder="none",
                 fault_model={"type": "adversarial", "alpha_m": 1.5 / 36,
                              "strategy": "greedy"},
                 cycles=60, trials=3,
                 output={"json": "none.json"})
    assert run_cli(["simulate", "--config", cfg]) == 0
    res = json.loads((tmp_path / "none.json").read_text())
    assert res["failures"] == 3


# -- bounds -----------------------------------------------------------------


def test_bounds_gamma9_minimum_at_18(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--gamma", "9", "--rho", "10:36",
                    "--out", out]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    reds = {int(r["rho"]): float(r["redundancy"]) for r in rows}
    assert min(reds, key=reds.get) == 18
    for r in rows:
        if r["alpha_total_lower"]:
            assert float(r["alpha_total_lower"]) <= float(r["alpha_total_upper"])


def test_bounds_gamma34_emits(tmp_path):
    out = tmp_path / "b34.csv"
    assert run_cli(["bounds", "--gamma", "34", "--rho", "40,68,100",
                    "--out", out]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(float(r["alpha_total_lower"]) > 0 for r in rows)


def test_bounds_empty_rho_rejected(tmp_path, capsys):
    rc = run_cli(["bounds", "--gamma", "9", "--rho", "", "--out",
                  tmp_path / "x.csv"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["--gamma", "1:3", "--rho", "6", "--out", "b.csv"],
    ["--gamma", "3", "--rho", "6", "--out", "b.csv", "--chernoff-p", "0.1",
     "--chernoff-delta", "0.2,0.95", "--chernoff-n", "10",
     "--chernoff-out", "ch.csv"],
])
def test_bounds_bad_input_leaves_no_file(tmp_path, capsys, argv):
    argv = [tmp_path / a if a.endswith(".csv") else a for a in argv]
    assert run_cli(["bounds"] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "b.csv").exists()
    assert not (tmp_path / "ch.csv").exists()


def test_bounds_chernoff_table(tmp_path):
    out = tmp_path / "b.csv"
    ch = tmp_path / "ch.csv"
    assert run_cli(["bounds", "--gamma", "3", "--rho", "6", "--out", out,
                    "--chernoff-p", "0.01,0.05", "--chernoff-delta", "0.01",
                    "--chernoff-n", "1000", "--chernoff-out", ch]) == 0
    with ch.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for r in rows:
        assert float(r["exact_bound"]) <= float(r["loose_bound"])


def test_bounds_creates_the_chernoff_table_directory(tmp_path):
    out = tmp_path / "main" / "b.csv"
    ch = tmp_path / "tables" / "deep" / "c.csv"
    assert run_cli(["bounds", "--gamma", "3", "--rho", "6", "--out", out,
                    "--chernoff-p", "0.01", "--chernoff-delta", "0.01",
                    "--chernoff-n", "1000", "--chernoff-out", ch]) == 0
    assert out.exists()
    with ch.open() as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_bounds_constant_cost_model(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["bounds", "--gamma", "3", "--rho", "4:10", "--out", out,
                    "--cost", "constant:1"]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    sweep = {int(r["rho"]): float(r["redundancy"]) for r in rows}
    expect = {rho: fm.redundancy(3, rho, fm.constant_cost(1))
              for rho in range(4, 11)}
    assert sweep == pytest.approx(expect)


# -- compare-tk -------------------------------------------------------------


def test_compare_tk_paired_traces(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg,
                 code={"n": 40, "gamma": 4, "rho": 5, "seed": 13,
                       "reject_4cycles": True},
                 profile={"alpha": 2.9 / 40, "epsilon": 0.12},
                 fault_model={"type": "adversarial", "alpha_m": 1.2 / 40,
                              "strategy": "repeat"},
                 cycles=8, trials=3)
    out = tmp_path / "paired.csv"
    summary = tmp_path / "summary.json"
    assert run_cli(["compare-tk", "--config", cfg, "--out", out,
                    "--summary", summary]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 8
    # identical fault streams: identical pre-correction decay
    for r in rows:
        assert r["alpha_v_pre_algorithm_a"] == r["alpha_v_pre_tk"]
    s = json.loads(summary.read_text())
    assert set(s) == {"algorithm_a", "tk"}


def test_compare_tk_checks_the_accounting(tmp_path, capsys):
    # root seed 0, the first of seeds 0-29 whose run breaks the accounting
    # bound: with the check on compare-tk stops, without it completes
    cfg = tmp_path / "cfg.json"
    doc = dict(code={"n": 40, "gamma": 4, "rho": 5, "seed": 13,
                     "reject_4cycles": True},
               profile={"alpha": 2.9 / 40, "epsilon": 0.12}, decoder="tk",
               fault_model={"type": "adversarial", "alpha_m": 1.5 / 40,
                            "alpha_xor": 3.5 / 480, "strategy": "random"},
               trials=65, root_seed=0)
    out = tmp_path / "paired.csv"
    write_config(cfg, check_accounting=True, **doc)
    assert run_cli(["compare-tk", "--config", cfg, "--out", out]) == 1
    assert "runtime error: cycle" in capsys.readouterr().err
    assert not out.exists()
    write_config(cfg, **doc)
    assert run_cli(["compare-tk", "--config", cfg, "--out", out]) == 0


def test_module_entry_point(tmp_path):
    out = tmp_path / "b.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "faultmem", "bounds", "--gamma", "3",
         "--rho", "6", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def package_env() -> dict:
    """The environment with this checkout's faultmem first on PYTHONPATH."""
    src = str(Path(fm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# a wrong JSON shape or value in a config, or an alist that cannot be
# read, is a validation error: exit 2 with one "error:" line naming the
# field or the value
_BAD_INPUTS = [
    ("simulate", [], "config must be a JSON object"),
    ("simulate", {"code": {"n": None, "gamma": 3, "rho": 6}}, "'code.n'"),
    ("simulate", {"fault_model": ["adversarial"]}, "'fault_model'"),
    ("simulate", {"profile": 3}, "'profile'"),
    ("simulate", {"output": {"json": 5}}, "'output.json'"),
    ("simulate", {"code": {"alist": "missing.alist"}}, "missing.alist"),
    ("certify", None, "missing.alist"),
    ("simulate", {"decoder": "x"}, "unknown decoder 'x'; expected one of ("),
    ("simulate", {"cycles": 0}, "cycles must be at least 1, got 0"),
    ("simulate", {"trials": 0}, "trials must be at least 1, got 0"),
]


@pytest.mark.parametrize("command, doc, named", _BAD_INPUTS)
def test_bad_input_exits_2_without_traceback(tmp_path, command, doc, named):
    if command == "certify":
        argv = ["certify", "--alist", "missing.alist", "--alpha", "0.05",
                "--epsilon", "0.1"]
    else:
        cfg = tmp_path / "cfg.json"
        if isinstance(doc, dict):
            write_config(cfg, **doc)
        else:
            cfg.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(cfg)]
    proc = subprocess.run([sys.executable, "-m", "faultmem"] + argv,
                          capture_output=True, text=True, env=package_env(),
                          cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_import_leaves_out_scipy_stats_and_optimize(tmp_path):
    env = package_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, faultmem, faultmem.cli; "
         "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # no scipy module at all for the package, an adversarial run, and
    # independent runs: monte_carlo, simulate and compare-tk
    write_config(tmp_path / "cfg.json",
                 fault_model={"type": "independent", "p_m": 0.01,
                              "p_xor": 1e-3, "p_maj": 1e-3})
    script = """
import sys, faultmem as fm, faultmem.cli
g = fm.build_random_regular(fm.CodeParams(36, 3, 6), 7, reject_4cycles=True)
greedy = fm.AdversarialModel(fm.AdversarialBudget(1.5 / 36), "greedy")
fm.monte_carlo(fm.RunConfig(g, "algorithm_a", greedy, 5), 3, 1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
rates = fm.IndependentRates(p_m=0.01)
fm.monte_carlo(fm.RunConfig(g, "algorithm_a", fm.IndependentModel(rates), 5), 3, 1)
assert faultmem.cli.main(["simulate", "--config", "cfg.json"]) == 0
assert faultmem.cli.main(["compare-tk", "--config", "cfg.json", "--out", "paired.csv"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print([m in sys.modules for m in ("scipy.special", "scipy.stats", "scipy.optimize")])
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # the commands print their summaries between
    assert lines[0] == "[]" and lines[-2:] == ["[]", "[False, False, False]"]


def test_compare_tk_rejects_greedy(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, fault_model={"type": "adversarial", "alpha_m": 0.05,
                                   "strategy": "greedy"})
    rc = run_cli(["compare-tk", "--config", cfg, "--out", tmp_path / "x.csv"])
    assert rc == 2
    assert "greedy" in capsys.readouterr().err


# -- pinned outputs ---------------------------------------------------------

# sha256 of the simulate JSON (decoder 'tk') and of the compare-tk CSV and
# summary on the certified (40,4,5) instance, 70 trials x 30 cycles (two
# words of trials), under each fault model with gate faults: any change to
# these bytes is a change of results
_PINNED_MODELS = {
    "adversarial": ({"type": "adversarial", "alpha_m": 1.2 / 40,
                     "alpha_xor": 1.5 / 480, "alpha_maj": 1.5 / 40,
                     "strategy": "repeat"},
                    "867d02e5bd1bfee7e4b3a023889fa476acacdd4e5d0dfe69038784f54c8a5494",
                    "dbaa67b7d77cc3e0535c24ace171d733b3321a669055e97606d23211477553c9",
                    "856aeb5ee8909cfef4f288f57fe8e3bb014c6ae9900287b430fea243aec2a426"),
    "independent": ({"type": "independent", "p_m": 0.004, "p_xor": 3e-4,
                     "p_maj": 1e-3},
                    "9a7d810bea5633c8bad2fa6d403e810b5cf57bc3b69bca41dfc29240efff4409",
                    "11cf406c7e3a8ca72486406f12ba2446dadd2255ab5d5a92e338b02ef42b07cd",
                    "f9dc674122557f89bdce343dc356572616679a14b862df286e27d59f604822d8"),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_MODELS))
def test_tk_outputs_are_pinned(tmp_path, kind):
    model, result, paired, summary = _PINNED_MODELS[kind]
    cfg = tmp_path / "cfg.json"
    write_config(cfg, code={"n": 40, "gamma": 4, "rho": 5, "seed": 13,
                            "reject_4cycles": True},
                 profile={"alpha": 2.9 / 40, "epsilon": 0.12},
                 decoder="tk", fault_model=model, cycles=30, trials=70,
                 root_seed=3)
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert run_cli(["compare-tk", "--config", cfg, "--out", tmp_path / "paired.csv",
                    "--summary", tmp_path / "summary.json"]) == 0
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("result.json", "paired.csv", "summary.json")]
    assert digests == [result, paired, summary]


# -- trace CSV writer -------------------------------------------------------


def csv_writer_traces(header, runs):
    """The trace CSV as csv.writer writes it: per trial and cycle, three
    cells per run, empty once that run's trial has stopped."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for t, reps in enumerate(zip(*runs)):
        for c in range(max(rep.cycles_executed for rep in reps)):
            w.writerow([t, c + 1, *(
                cell for rep in reps for cell in (
                    ("", "", "") if c >= rep.cycles_executed else
                    (rep.alpha_pre[c], rep.alpha_post[c],
                     int(rep.failed and rep.failure_cycle == c + 1))))])
    return buf.getvalue().encode()


@pytest.mark.parametrize("instance", (0, 2), ids=("n36", "n40"))
def test_trace_writer_equals_csv_writer(tmp_path, instance):
    # trial pairs in which algorithm_a fails first, tk fails first, both
    # fail at different cycles and both survive, and single-run traces
    g, prof = build_instance(CERTIFIED_INSTANCES[instance])

    def reports(decoder, p_m, p_gate):
        model = fm.IndependentModel(fm.IndependentRates(p_m, p_gate, p_gate))
        return fm.monte_carlo(RunConfig(g, decoder, model, 30, profile=prof),
                              20, 3, keep_reports=True).reports

    def split(reps):
        return ([r for r in reps if r.failed], [r for r in reps if not r.failed])

    a_failed, a_alive = split(reports("algorithm_a", 0.02, 1e-3)
                              + reports("algorithm_a", 0.0003, 3e-5))
    tk_failed, tk_alive = split(reports("tk", 0.004, 1e-4)
                                + reports("tk", 1e-4, 1e-5))
    pairs = [(a_failed[0], tk_alive[0]), (a_alive[0], tk_failed[0]),
             (a_alive[1], tk_alive[1]), (a_failed[1], tk_failed[1]),
             (a_failed[2], tk_failed[2])]
    # the shorter trace of each of the first two pairs is padded
    assert pairs[0][0].cycles_executed < pairs[0][1].cycles_executed
    assert pairs[1][1].cycles_executed < pairs[1][0].cycles_executed
    runs = [list(run) for run in zip(*pairs)]
    header = ["trial", "cycle"] + [f"{column}_{decoder}"
                                   for decoder in ("algorithm_a", "tk")
                                   for column in ("alpha_v_pre", "alpha_v_post",
                                                  "failed")]
    cli._write_traces(tmp_path / "paired.csv", header, runs, g.n)
    assert (tmp_path / "paired.csv").read_bytes() == csv_writer_traces(header, runs)
    header = ["trial", "cycle", "alpha_v_pre", "alpha_v_post", "failed"]
    for run in runs:
        cli._write_traces(tmp_path / "single.csv", header, [run], g.n)
        assert (tmp_path / "single.csv").read_bytes() == csv_writer_traces(header, [run])
