"""One sha256 over everything a fixed set of solves returns: the bit-identity check.

A change that claims to keep every answer bit for bit should print the same
digest as its parent.  Run from the repository root:

    PYTHONPATH=src python3 tests/trajectory_digest.py

It prints the digest and how many integrations, sweeps, stars, boundary
analyses and Lane-Emden zeros went into it, then one digest per part: the
sweeps, the Omega == 1 stars, the series-Omega stars and the Lane-Emden
zeros, so that a change shows which part moved.  Each part's digest is
over the same bytes, integrations included, that the whole-set digest takes
in for that part.  pytest does not collect this file.

Hashed, in this order:
- every DenseSolution that integrate_adaptive returns, as the solve gets it:
  xs, ys, the step slopes, the events (x, y, index, name, terminal), status,
  message, x_end, y_end, the step, right-hand side and rejection counts, and
  the type and text of a failure;
- 256 sweep cells: gamma in {1.3, 1.5, 1.8, 2.0}, alpha and beta on
  logspace(-4, 0, 8), each grid's JSON with its cells and epsilon0;
- the 12 "digest stars" of tests/star_sets.py: Omega == 1 and
  OmegaSeries((1, 0.3, -0.1)) at gamma 1.5, u_c in {1e-3, 1e-2, 5e-2},
  Lambda in {1e-9, 1e-6}, each with its outcome JSON and all eight profile
  columns, or the type and text of its error; for each MonotoneShort star,
  the JSON of the continuity report of its metric patch and every field of
  its boundary exponent fit, or the type and text of the fit's error;
- 4 Lane-Emden first zeros.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from star_sets import STAR_LAMBDA, STAR_OMEGAS, STAR_U_C, digest_eos
from tovds import analysis, integrate, metric, model
from tovds.errors import TovdsError
from tovds.model import PROFILE_COLUMNS, ModelInput

SWEEP_GAMMAS = (1.3, 1.5, 1.8, 2.0)
SWEEP_GRID = np.logspace(-4.0, 0.0, 8)
LANE_EMDEN = ((1.0, 0.0), (1.5, 0.0), (3.0, 0.0), (1.5, 0.01))


def _floats(h, *values) -> None:
    for v in values:
        h.update(b"-" if v is None else np.ascontiguousarray(v, dtype=float).tobytes())


def _text(h, *values) -> None:
    for v in values:
        h.update(repr(v).encode() + b"\0")


def _dense(h, d) -> None:
    _floats(h, d.xs, d.ys, d.slopes, d.x_end, d.y_end)
    for ev in d.events:
        _floats(h, ev.x, ev.y)
        _text(h, ev.index, ev.name, ev.terminal)
    failure = None if d.failure is None else (type(d.failure).__name__, str(d.failure))
    _text(h, d.status, d.message, d.n_steps, d.n_rhs, d.n_rejected, failure)


def _boundary(h, profile, outcome) -> None:
    report = metric.continuity_report(metric.MetricPatch.from_model(profile, outcome.boundary))
    _text(h, json.dumps(report.to_json_dict(), sort_keys=True))
    try:
        fit = analysis.boundary_exponent_fit(profile)
    except TovdsError as exc:
        _text(h, type(exc).__name__, str(exc))
    else:
        _text(h, *dataclasses.astuple(fit))


class _Hashes:
    """The whole-set sha256 and one per part, each part's fed the bytes the
    whole takes in while that part runs."""

    def __init__(self):
        self.whole = hashlib.sha256()
        self.parts = {}

    def start(self, part: str) -> None:
        self.part = self.parts[part] = hashlib.sha256()

    def update(self, data: bytes) -> None:
        self.whole.update(data)
        self.part.update(data)


def digest() -> tuple:
    """(hex digest, counts, {part: hex digest}) of the whole solve set."""
    h = _Hashes()
    counts = {"integrations": 0, "sweeps": 0, "stars": 0, "boundaries": 0, "lane_emden": 0}
    original = integrate.integrate_adaptive

    def hashed(*args, **kwargs):
        d = original(*args, **kwargs)
        _dense(h, d)
        counts["integrations"] += 1
        return d

    owners = [m for m in (model, analysis) if getattr(m, "integrate_adaptive", None) is original]
    for m in owners:
        m.integrate_adaptive = hashed
    try:
        h.start("sweeps")
        for gamma in SWEEP_GAMMAS:
            sweep = analysis.regime_sweep(gamma, SWEEP_GRID, SWEEP_GRID)
            _text(h, json.dumps(sweep.to_json_dict(), sort_keys=True))
            counts["sweeps"] += 1
        for omega in STAR_OMEGAS:
            h.start("Omega == 1 stars" if omega.coeffs == (1.0,) else "series-Omega stars")
            eos = digest_eos(omega)
            for u_c in STAR_U_C:
                for Lambda in STAR_LAMBDA:
                    try:
                        profile, outcome = model.solve_star(ModelInput(eos=eos, Lambda=Lambda, u_c=u_c))
                    except TovdsError as exc:
                        _text(h, type(exc).__name__, str(exc))
                    else:
                        _text(h, json.dumps(outcome.to_json_dict(), sort_keys=True))
                        _floats(h, *(getattr(profile, c) for c in PROFILE_COLUMNS))
                        if outcome.kind == model.MONOTONE_SHORT:
                            _boundary(h, profile, outcome)
                            counts["boundaries"] += 1
                    counts["stars"] += 1
        h.start("Lane-Emden")
        for mu, lam in LANE_EMDEN:
            _text(h, analysis.lane_emden_first_zero(mu, lam))
            counts["lane_emden"] += 1
    finally:
        for m in owners:
            m.integrate_adaptive = original
    return h.whole.hexdigest(), counts, {k: v.hexdigest() for k, v in h.parts.items()}


if __name__ == "__main__":
    hexdigest, counts, parts = digest()
    print(hexdigest)
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    for part, part_digest in parts.items():
        print(f"{part}: {part_digest}")
