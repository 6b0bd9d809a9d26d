"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tovds
from tovds import cli
from tovds.cli import main

M0_CONFIG = {
    "eos": {"type": "polytrope", "A": 1.0, "gamma": 1.5},
    "center": {"u_c": 1e-3},
    "Lambda": 1.3962634015954636e-09,  # beta = 1e-3 for this center
    "units": "geom",
    "ctrl": {"rel_tol": 1e-10, "abs_tol": 1e-12},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_artifacts_and_determinism(tmp_path):
    cfg = write_config(tmp_path, M0_CONFIG)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "profile.csv").read_bytes()
    csv2 = (out2 / "profile.csv").read_bytes()
    assert csv1 == csv2
    outcome = json.loads((out1 / "outcome.json").read_text())
    assert outcome["tag"] == "MonotoneShort"
    assert outcome["payload"]["r_plus"] > 0
    summary = (out1 / "summary.txt").read_text()
    assert "MonotoneShort" in summary and "r_plus" in summary
    header = csv1.decode().splitlines()[1]
    assert header == "r,m,u,P,rho,kappa,Q,dPdr"


def test_solve_json_format(tmp_path):
    cfg = write_config(tmp_path, M0_CONFIG)
    out = tmp_path / "runj"
    assert main(["solve", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "profile.json").read_text())
    assert doc["units"] == "geom"
    assert set(doc["rows"][0]) == {"r", "m", "u", "P", "rho", "kappa", "Q", "dPdr"}


def test_einstein_static_flagged(tmp_path):
    rho_c = 0.1
    P_c = rho_c**1.5
    Lam = 4 * math.pi * (rho_c + 3 * P_c)
    L = 8 * math.pi * rho_c + Lam
    cfg = {
        "eos": {"type": "polytrope", "A": 1.0, "gamma": 1.5},
        "center": {"rho_c": rho_c},
        "Lambda": Lam,
        "r_max": 0.9 * math.sqrt(3.0 / L),
    }
    out = tmp_path / "static"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "constant-pressure special case detected" in summary
    assert "Unterminated" in summary


# beta = 0.05 and beta = 1.2 for the M0 center (alpha = 1e-3); the HorizonDegenerate
# star is capped at 60 homology lengths a
NON_MONOTONE_CONFIG = dict(M0_CONFIG, Lambda=6.981317007977318e-08)
HORIZON_CONFIG = dict(M0_CONFIG, Lambda=1.6755160819145562e-06, r_max=1605.711704537494)


@pytest.mark.parametrize("cfg, tag, keys", [
    (NON_MONOTONE_CONFIG, "NonMonotone", {"first_rise_r", "end_r", "initial_rise"}),
    (HORIZON_CONFIG, "HorizonDegenerate",
     {"horizon_r", "u_end", "Q_end", "lambda_r2", "simultaneous_vacuum", "first_rise_r"}),
], ids=["non_monotone", "horizon_degenerate"])
def test_solve_artifacts_of_each_tag(tmp_path, cfg, tag, keys):
    out = tmp_path / "run"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["tag"] == tag
    payload = outcome["payload"]
    assert set(payload) == keys
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0] == f"outcome: {tag}"
    if tag == "NonMonotone":
        assert 0.0 < payload["first_rise_r"] < payload["end_r"]
        assert summary[1:] == [f"first pressure rise at r = {payload['first_rise_r']!r}",
                               f"integration ended at r = {payload['end_r']!r}"]
    else:
        # a rise before the horizon is a diagnostic, not an outcome field
        assert 0.0 < payload["first_rise_r"] < payload["horizon_r"]
        assert summary[1:] == [f"horizon at r = {payload['horizon_r']!r}"]
        assert not any(line.startswith("first pressure rise") for line in summary)


def test_missing_gamma_exits_2(tmp_path, capsys):
    cfg = {"eos": {"type": "polytrope", "A": 1.0}, "center": {"u_c": 1e-3}}
    code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "gamma" in err["message"]


def _series_eos(coeffs):
    return {"eos": {"type": "polytrope", "A": 1.0, "gamma": 1.5, "omega_coeffs": coeffs}}


@pytest.mark.parametrize("change", [
    {"Lambda": math.nan},
    {"center": {"u_c": math.inf}},
    {"Lambda": 10**400},                  # an integer beyond the float range
    _series_eos(["x"]),
    _series_eos([True, 0.3]),
    _series_eos([1, "0.3"]),
    _series_eos([math.nan]),
    {"ctrl": {"max_steps": True}},
    {"r_max": 1e-12},                     # below the germ radius
    {"ctrl": {"h_init": 2.0, "h_max": 1.0}},
    _series_eos([2.0]),                   # Omega(0) != 1
    {"eos": {"type": "polytrope", "A": 1.0, "gamma": 2.5}},
], ids=["nan_lambda", "inf_center", "huge_int", "coeff_string", "coeff_bool",
        "coeff_numeric_string", "coeff_nan", "max_steps_bool", "r_max_below_germ",
        "h_init_above_h_max", "omega_0_not_1", "gamma_above_2"])
def test_solve_bad_number_exits_2(tmp_path, capsys, change):
    cfg = dict(M0_CONFIG, **change)
    code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"


@pytest.mark.parametrize("eos", [
    dict(M0_CONFIG["eos"], delta_omega=0.1),
    {"type": "fermi", "K": 1.0, "delta_omega": 0.05},
], ids=["polytrope", "fermi"])
def test_eos_margin_below_the_vacuum_exits_2(tmp_path, capsys, eos):
    # the EOS is evaluated on eta >= 0 only, so no block sets delta_omega
    cfg = dict(M0_CONFIG, eos=eos)
    code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "delta_omega" in err["message"]


def test_germ_slope_overflow_exits_1(tmp_path, capsys):
    # beta ~ 6e33: the start slope at the germ and the germ's state map
    # overflow; the solve fails with a numerical error that names the
    # star's scaled alpha and beta, not a traceback
    cfg = {"eos": {"type": "polytrope", "A": 0.001349306088439885, "gamma": 1.157},
           "center": {"u_c": 1.7324720909284593e-08}, "units": "geom",
           "Lambda": 0.015631472754373966}
    code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    out, err = capsys.readouterr()
    assert json.loads(out.strip().splitlines()[-1]) == {
        "error": "numerical",
        "message": "solver failed: domain_error: right-hand side undefined at start: "
                   "math range error (x is the scaled radius R) for alpha = 1.7324720909284593e-08 "
                   "and beta = 5.964049517594313e+33",
    }
    assert "Traceback" not in err


def test_overflowing_density_exits_1(tmp_path, capsys):
    # rho_c**gamma overflows in the EOS check up to the center: a numerical
    # error naming the first density checked, not a traceback
    cfg = {"eos": {"type": "polytrope", "A": 1.0, "gamma": 2.0}, "center": {"rho_c": 1e200},
           "units": "geom"}
    code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    out, err = capsys.readouterr()
    assert [json.loads(line) for line in out.strip().splitlines()] == [{
        "error": "numerical",
        "message": "EOS not admissible at rho = 1e+194: P or dP/drho overflows",
    }]
    assert "Traceback" not in err


def test_unknown_key_exits_2(tmp_path):
    cfg = dict(M0_CONFIG)
    cfg["surprise"] = 1
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "x")]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_sweep_artifacts(tmp_path):
    cfg = {
        "gamma": 1.5,
        "alpha_grid": {"start": 1e-3, "stop": 1e-2, "num": 3, "spacing": "log"},
        "beta_grid": [1e-3, 1e-2],
    }
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "alpha,beta,outcome,R_plus,extra"
    assert len(lines) == 2 + 6
    doc = json.loads((out / "sweep.json").read_text())
    assert len(doc["cells"]) == 6
    assert all(c["outcome"] == "MonotoneShort" for c in doc["cells"])


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = {
        "gamma": 1.5,
        "alpha_grid": [1e-3, 1e-2],
        "beta_grid": [1e-3, 1e-2],
    }
    # the series Omega case has each worker process fit the table pieces it visits
    series = {"type": "polytrope", "A": 1.0, "gamma": 1.5, "omega_coeffs": [1.0, 0.3, -0.1]}
    for name, case in (("default", cfg), ("series", dict(cfg, eos=series))):
        out1 = tmp_path / name / "s1"
        out2 = tmp_path / name / "s2"
        path = write_config(tmp_path, case, name=f"{name}.json")
        assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", [
    ["sweep", "--config", "CONFIG"],
    ["verify", "--criteria", "8"],
])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_1_exits_2(tmp_path, capsys, monkeypatch, command, jobs):
    # refused before any output, cell or worker process
    monkeypatch.setattr(tovds.analysis, "ProcessPoolExecutor", None)
    path = write_config(tmp_path, {"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3]})
    argv = [path if arg == "CONFIG" else arg for arg in command]
    code = main(argv + ["--out", str(tmp_path / "out"), "--jobs", jobs])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "config", "message": f"--jobs must be at least 1, got {jobs}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change", [
    {"alpha_grid": ["x"]},                                    # not a number
    {"beta_grid": [1e-3, 1.5]},                               # outside [0, 1]
    {"alpha_grid": {"start": 0.5, "stop": 2.0, "num": 3}},    # generated past 1
    {"beta_grid": [True, 1e-3]},                              # JSON boolean in a grid
    {"alpha_grid": {"start": 1e-3, "stop": 1e-2, "num": True}},
    {"alpha_grid": []},
    {"alpha_grid": {"start": 1e-3, "stop": 0, "num": 3}},    # log spacing down to 0
    {"eos": {"type": "polytrope", "A": 1.0, "gamma": 1.9}},   # disagrees with gamma 1.5
], ids=["non_numeric", "outside_unit", "generated_outside_unit", "bool_in_grid",
        "bool_num", "empty", "log_stop_zero", "eos_gamma_mismatch"])
def test_sweep_bad_grid_exits_2(tmp_path, capsys, change):
    cfg = dict({"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3]}, **change)
    code = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"


def test_sweep_grid_past_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    # a num of 10^12 is a config error, refused before the grid is formed
    # or a sweep runs
    def forbidden(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(np, "logspace", forbidden)
    monkeypatch.setattr(cli, "regime_sweep", forbidden)
    cfg = {"gamma": 1.5, "alpha_grid": {"start": 1e-3, "stop": 1e-2, "num": 10**12},
           "beta_grid": [1e-3]}
    code = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "config",
                   "message": "'num' in alpha_grid must be an integer from 1 to 1000"}
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("key, value", [("units", "geom"), ("constants", {"c": 2.0})])
def test_sweep_config_takes_no_units(tmp_path, capsys, key, value):
    # the scaled problem has no units: a sweep config that sets them is refused
    cfg = {"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3], key: value}
    code = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "config", "message": f"unknown key(s) in config: ['{key}']"}


def test_sweep_has_no_units_option(tmp_path, capsys):
    cfg = write_config(tmp_path, {"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3]})
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--units", "si"])
    assert info.value.code == 2
    assert "unrecognized arguments: --units si" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"mu": ["x"]}, {"mu": [True]}, {"mu": "3"}, {"mu": []}, {"mu": [-1.0]},
    {"mu": 1.5, "R_cap": 1e-7},           # below the germ radius
], ids=["non_numeric", "bool", "string", "empty", "negative", "R_cap_below_germ"])
def test_lane_emden_bad_mu_exits_2(tmp_path, capsys, cfg):
    code = main(["lane-emden", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "le")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"


def test_lane_emden_table(tmp_path, capsys):
    cfg = {"mu": [1.0, 3.0]}
    out = tmp_path / "le"
    assert main(["lane-emden", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "lane_emden.json").read_text())
    assert abs(doc["rows"][0]["xi1"] - math.pi) < 1e-8
    assert abs(doc["rows"][1]["xi1"] - 6.896848619) < 1e-5
    printed = capsys.readouterr().out
    assert "3.14159265" in printed


def test_lane_emden_none_case(tmp_path):
    cfg = {"mu": 1.0, "lambda": 0.75, "R_cap": 60.0}
    out = tmp_path / "le2"
    assert main(["lane-emden", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "lane_emden.json").read_text())
    assert doc["rows"][0]["xi1"] is None


def test_metric_report_cmd(tmp_path):
    cfg = write_config(tmp_path, M0_CONFIG)
    out = tmp_path / "metric"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "metric_report.json").read_text())
    assert doc["pass"] is True
    g00_rows = [r for r in doc["rows"] if r["quantity"] == "g00"]
    assert len(g00_rows) == 6
    assert all(r["pass"] for r in g00_rows)
    assert doc["brackets_star"] is True
    assert doc["horizons"]["r_I"] < doc["r_plus"] < doc["horizons"]["r_E"]


def test_metric_rejects_nonshort_model(tmp_path):
    rho_c = 0.1
    P_c = rho_c**1.5
    Lam = 4 * math.pi * (rho_c + 3 * P_c)
    L = 8 * math.pi * rho_c + Lam
    cfg = {
        "eos": {"type": "polytrope", "A": 1.0, "gamma": 1.5},
        "center": {"rho_c": rho_c},
        "Lambda": Lam,
        "r_max": 0.9 * math.sqrt(3.0 / L),
    }
    assert main(["metric", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "m")]) == 1


def test_verify_subset(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out), "--criteria", "1,11"]) == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["pass"] is True
    assert [c["number"] for c in doc["criteria"]] == [1, 11]
    printed = capsys.readouterr().out
    assert "PASS" in printed and "2/2 criteria passed" in printed


def test_verify_bad_criteria_exits_2(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "v"), "--criteria", "1,99"]) == 2


def test_fermi_eos_config_solves(tmp_path):
    cfg = {
        "eos": {"type": "fermi", "K": 1.0},
        "center": {"rho_c": 0.05},
        "Lambda": 0.0,
        "ctrl": {"rel_tol": 1e-10, "abs_tol": 1e-12},
    }
    out = tmp_path / "fermi"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["tag"] == "MonotoneShort"


@pytest.mark.parametrize("argv, cfg", [
    (["solve"], M0_CONFIG),
    (["sweep"], {"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3]}),
    (["metric"], M0_CONFIG),
    (["lane-emden"], {"mu": 1.0}),
    (["verify", "--criteria", "1"], None),
], ids=["solve", "sweep", "metric", "lane-emden", "verify"])
def test_every_option_is_read(tmp_path, argv, cfg):
    # a subcommand's options are only those its command reads: parse into a
    # namespace that records attribute reads, then run the command on it
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    argv = argv + ["--out", str(tmp_path / "out")]
    if cfg is not None:
        argv += ["--config", write_config(tmp_path, cfg)]
    args = cli._build_parser().parse_args(argv, namespace=Recording())
    reads.clear()
    assert cli._COMMANDS[argv[0]](args) == 0
    parsed = set(vars(args)) - {"command"}
    assert parsed - reads == set()


# Run in a fresh interpreter, where the test oracles have not imported scipy:
# after each step it prints the scipy modules loaded so far.
_LOADED_SCIPY = """
import json, sys
from tovds.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # a series Omega takes the quadrature and the direct inversion, and its
    # vacuum event the root search: the paths that used scipy
    series = dict(M0_CONFIG, eos={"type": "polytrope", "A": 1.0, "gamma": 1.5,
                                  "omega_coeffs": [1.0, 0.3, -0.1]})
    runs = [["solve", "--config", write_config(tmp_path, series), "--out", str(tmp_path / "s")],
            ["verify", "--out", str(tmp_path / "v")]]
    env = dict(os.environ, PYTHONPATH=str(Path(tovds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, json.dumps(runs)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"import": [], "solve": [], "verify": []}
    outcome = json.loads((tmp_path / "s" / "outcome.json").read_text())
    assert outcome["tag"] == "MonotoneShort"
