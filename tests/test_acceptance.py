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
