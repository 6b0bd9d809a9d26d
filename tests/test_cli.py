"""Command-line interface: artifacts, exit codes, determinism."""

import json
import math

import pytest

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
], ids=["nan_lambda", "inf_center", "huge_int", "coeff_string", "coeff_bool",
        "coeff_numeric_string", "coeff_nan", "max_steps_bool"])
def test_solve_bad_number_exits_2(tmp_path, capsys, change):
    cfg = dict(M0_CONFIG, **change)
    code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"


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


@pytest.mark.parametrize("change", [
    {"alpha_grid": ["x"]},                                    # not a number
    {"beta_grid": [1e-3, 1.5]},                               # outside [0, 1]
    {"alpha_grid": {"start": 0.5, "stop": 2.0, "num": 3}},    # generated past 1
    {"beta_grid": [True, 1e-3]},                              # JSON boolean in a grid
    {"alpha_grid": {"start": 1e-3, "stop": 1e-2, "num": True}},
    {"alpha_grid": []},
], ids=["non_numeric", "outside_unit", "generated_outside_unit", "bool_in_grid",
        "bool_num", "empty"])
def test_sweep_bad_grid_exits_2(tmp_path, capsys, change):
    cfg = dict({"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3]}, **change)
    code = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "config"


@pytest.mark.parametrize("mu", [["x"], [True], "3", []], ids=["non_numeric", "bool", "string", "empty"])
def test_lane_emden_bad_mu_exits_2(tmp_path, capsys, mu):
    code = main(["lane-emden", "--config", write_config(tmp_path, {"mu": mu}),
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
