"""Acceptance gate: every criterion at its pinned tolerance.

Prints one pass/fail line per criterion; criterion 12 is additionally
exercised end-to-end by running the CLI verify twice and byte-comparing
its report artifact.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tovds
from tovds import acceptance
from tovds.acceptance import CRITERIA, run_criteria
from tovds.errors import AnalysisError


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_criteria()}


def test_all_criteria_present(results):
    assert sorted(results) == sorted(CRITERIA) == list(range(1, 13))


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(results, number):
    r = results[number]
    print(r.format_line())
    assert r.passed, f"criterion {number} ({r.name}) failed: {r.measured} [{r.tolerance}]"


@pytest.mark.parametrize("number, callee", [(1, "lane_emden_first_zero"),
                                            (5, "continuity_report")])
def test_raising_criterion_keeps_its_record(results, monkeypatch, number, callee):
    # a check that raises reports the number, name and tolerance of its
    # passing record, with the error as its measurement
    def fail(*args, **kwargs):
        raise AnalysisError("injected")

    monkeypatch.setattr(acceptance, callee, fail)
    (r,) = run_criteria(numbers={number})
    passing = results[number]
    assert (r.number, r.name, r.tolerance) == (passing.number, passing.name, passing.tolerance)
    assert not r.passed
    assert r.measured == {"error": "AnalysisError: injected"}
    assert r.runtime_s > 0.0


def test_verify_cli_byte_identical(tmp_path):
    # run the full verify twice through the CLI and compare the artifact; the
    # child imports the same tovds as this process, installed or not
    src = str(Path(tovds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(out):
        proc = subprocess.run(
            [sys.executable, "-m", "tovds.cli", "verify", "--out", str(out)],
            capture_output=True, text=True, timeout=900, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return (out / "verify_report.json").read_bytes()

    rep1 = run(tmp_path / "v1")
    rep2 = run(tmp_path / "v2")
    assert rep1 == rep2
    doc = json.loads(rep1)
    assert doc["pass"] is True
    assert len(doc["criteria"]) == len(CRITERIA)


# Every criterion's measured values as verify reported them before Omega_u
# took its closed form.  A nonzero float must stay within a factor of 10 of
# its pin, either way, and an exact value (a tag, a flag, a count, a zero)
# at it, so a change that makes a criterion much worse, or much better,
# shows here long before it fails the criterion's tolerance.  CHANGES.md
# names every change to these pins.
PINS = {
    1: {"abs_err": 9.769962616701378e-15, "xi1": 3.1415926535897833},
    2: {"min_dUdR_in_window": 0.011306167565452777, "sup_err": 7.832068327218167e-13},
    3: {"max_rel_drift": 4.729092682172816e-12, "outcome": "Unterminated"},
    4: {"du_dr_minus": -4.685772176774222e-06, "minus_B": -4.685772176790177e-06,
        "rel_err": 3.4049270840587934e-12},
    5: {"rel_err_order0": 0.0, "rel_err_order1": 1.5260858627168921e-09,
        "rel_err_order2": 9.162400852924203e-06},
    6: {"brackets_star": True, "double_root_err": 0.0, "factorization_res": 3.3306690738754696e-16,
        "res_E": 1.1102230246251565e-16, "res_I": 5.784410042293853e-17},
    7: {"exponent_g1.4": 2.501476920173828, "exponent_g1.5": 2.0011441353839023,
        "exponent_g1.7": 1.4294546643817008, "worst_amplitude_rel": 0.007956409727987453,
        "worst_exponent_rel": 0.0006182650671905154},
    8: {"R_plus_corner": 4.36450694044243, "all_monotone_short": True,
        "radius_rel_dev": 0.002672336232076106},
    9: {"largest_tested_shift": 0.03225442224785529, "outcome": "MonotoneShort",
        "radius_shift_rel": 0.00028507884519889224},
    10: {"n_models": 10, "n_monotone_short": 10},
    11: {"fermi_rel": 4.693979947609758e-15, "roundtrip_rel": 1.0408340855860843e-15,
         "slope_err": 5.714089770236797e-07, "u_closed_form_rel": 3.882841710103731e-16},
    12: {"outcome_json_identical": True, "profile_csv_identical": True},
}


def test_measured_values_hold_their_pins(results):
    for number, pins in PINS.items():
        measured = results[number].measured
        assert measured.keys() == pins.keys(), number
        for key, pin in pins.items():
            got = measured[key]
            if isinstance(pin, float) and pin != 0.0:
                assert 0.1 <= got / pin <= 10.0, (number, key, got, pin)
            else:
                assert (type(got), got) == (type(pin), pin), (number, key)
