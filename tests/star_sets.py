"""The named answer sets that tests/answer_diff.py compares, each defined once.

- "digest stars": 12 physical stars, Omega == 1 and OmegaSeries((1, 0.3,
  -0.1)) at gamma 1.5, A = 1, u_c in STAR_U_C and Lambda in {1e-9, 1e-6};
- "sweeps": 256 cells, gamma in {1.3, 1.5, 1.8, 2.0} on logspace(-4, 0, 8)^2;
- "Lane-Emden": 4 first zeros, (mu, lam) in {(1, 0), (1.5, 0), (3, 0), (1.5, 0.01)};
- "criterion-8 grid": verify criterion 8's sweep, gamma 1.5 on logspace(-3, -2, 10)^2;
- "series and Fermi stars": 54 physical stars, SERIES at gamma 1.4, 1.5 and
  1.6 and the Fermi fits at K = 0.5, 1 and 2, each at u_c in STAR_U_C and
  Lambda in {1e-9, 1e-6, 1e-4}; and 66 u samples, each EOS's u_of_density at
  11 densities on logspace(-6, -1).

records() runs them on the tovds that is importable: per set, its records
(label, tag, R_+, M_+, bits, work), each sweep's epsilon0 and the (label, u)
samples.  The tag is the outcome or the TovdsError's type; a Lane-Emden
record is tagged "zero" or "no zero" and carries the zero as R_+.  bits is a
sha256 of all the solve returned: each DenseSolution from integrate_adaptive
(a sweep cell's from its own regime_sweep solve), its outcome or cell JSON or
error text, a star's profile columns, and a MonotoneShort digest star's
continuity report and exponent fit.  work is [accepted steps, n_rhs], summed
over the same DenseSolutions.
"""

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from unittest import mock

import numpy as np

from tovds import analysis, integrate, metric, model
from tovds.eos import EosSpec, FermiEosParams, OmegaSeries, fermi_fit_eos
from tovds.errors import TovdsError
from tovds.model import PROFILE_COLUMNS, ModelInput

SERIES = OmegaSeries((1.0, 0.3, -0.1))
STAR_U_C = (1e-3, 1e-2, 5e-2)
TIGHT = {"rel_tol": 1e-14, "abs_tol": 1e-16}  # in place of a solve's own, for its error


def _chunks(v):
    """Arrays by their bytes, dataclasses and sequences by item, an exception by type and text."""
    if isinstance(v, np.ndarray):
        yield np.ascontiguousarray(v).tobytes()
    elif dataclasses.is_dataclass(v):
        yield from _chunks([getattr(v, f.name) for f in dataclasses.fields(v)])
    elif isinstance(v, (list, tuple)):
        for item in v:
            yield from _chunks(item)
    else:
        yield repr((type(v).__name__, str(v)) if isinstance(v, Exception) else v).encode() + b"\0"


def _bits(*parts) -> str:
    return hashlib.sha256(b"".join(_chunks(parts))).hexdigest()


def _work(denses) -> list:
    """[accepted steps, n_rhs] of a DenseSolution, or summed over a list of them or of such lists."""
    if isinstance(denses, integrate.DenseSolution):
        return [denses.n_steps, denses.n_rhs]
    return [sum(w) for w in zip([0, 0], *map(_work, denses))]


@contextmanager
def _hooked(tolerances=None):
    """Yields solved, a list of lists: integrate_adaptive, in model and analysis, adds each DenseSolution
    to solved[-1], solving at the given tolerances if any; solve_scaled, once per sweep cell, opens a list."""
    original, scaled, solved = integrate.integrate_adaptive, analysis.solve_scaled, []

    def integrate_adaptive(rhs, y0, span, ctrl, events=()):
        ctrl = dataclasses.replace(ctrl, **tolerances) if tolerances else ctrl
        solved[-1].append(original(rhs, y0, span, ctrl, events=events))
        return solved[-1][-1]

    def solve_scaled(*args, **kwargs):
        solved.append([])
        return scaled(*args, **kwargs)

    with mock.patch.multiple(model, integrate_adaptive=integrate_adaptive), \
            mock.patch.multiple(analysis, integrate_adaptive=integrate_adaptive, solve_scaled=solve_scaled):
        yield solved


def _solved(solved: list, label: str, solve, *args) -> tuple:
    """(label, tag, R_+, M_+, bits, work) of solve(*args), which gives (tag, R_+, M_+, parts)."""
    n = len(solved)
    solved.append([])
    try:
        tag, R, M, parts = solve(*args)
    except TovdsError as exc:
        tag, R, M, parts = type(exc).__name__, None, None, [str(exc)]
    denses, solved[n:] = solved[n:], []
    return label, tag, R, M, _bits(denses, tag, parts), _work(denses)


def _star(inp: ModelInput, boundary: bool = False) -> tuple:
    profile, outcome = model.solve_star(inp)
    b, columns = outcome.boundary, [getattr(profile, c) for c in PROFILE_COLUMNS]
    parts = [json.dumps(outcome.to_json_dict(), sort_keys=True), columns]
    if boundary and outcome.kind == model.MONOTONE_SHORT:
        report = metric.continuity_report(metric.MetricPatch.from_model(profile, b))
        parts.append(json.dumps(report.to_json_dict(), sort_keys=True))
        try:
            parts.append(analysis.boundary_exponent_fit(profile))
        except TovdsError as exc:
            parts.append(exc)
    return outcome.kind, b and b.r_plus, b and b.m_plus, parts


def _zero(mu: float, lam: float) -> tuple:
    zero = analysis.lane_emden_first_zero(mu, lam)
    return "no zero" if zero is None else "zero", zero, None, []


def _cell(gamma: float, alpha: float, beta: float) -> tuple:
    c = analysis.regime_sweep(gamma, [alpha], [beta]).cells[0]
    return c.outcome, c.R_plus, c.M_plus, []


def _sweeps(solved: list, gammas, grid, wanted) -> dict:
    """The records and epsilon0 of one sweep per gamma, or the wanted cells as one-cell sweeps."""
    label = "gamma={} alpha={!r} beta={!r}".format
    if wanted is not None:
        return {"stars": [_solved(solved, label(g, a, b), _cell, g, a, b) for g in gammas
                          for a in grid.tolist() for b in grid.tolist() if label(g, a, b) in wanted],
                "epsilon0": None, "u": []}
    rows, eps0 = [], []
    for gamma in gammas:
        n = len(solved)
        sweep = analysis.regime_sweep(gamma, grid, grid)
        eps0.append(sweep.epsilon0_estimate)
        cells = zip(sweep.cells, sweep.to_json_dict()["cells"], solved[n:], strict=True)
        rows += [(label(gamma, c.alpha, c.beta), c.outcome, c.R_plus, c.M_plus,
                  _bits(denses, json.dumps(j, sort_keys=True)), _work(denses))
                 for c, j, denses in cells]
        del solved[n:]
    return {"stars": rows, "epsilon0": eps0, "u": []}


def records(wanted=None) -> dict:
    """{set name: {"stars": [...], "epsilon0": list or None, "u": [...]}}; with
    wanted, a collection of labels, only those records, solved at TIGHT."""
    def rows(jobs):
        return {"stars": [_solved(solved, *job) for job in jobs if wanted is None or job[0] in wanted],
                "epsilon0": None, "u": []}
    eos = [(f"series gamma={g}", EosSpec(A=1.0, gamma=g, omega=SERIES)) for g in (1.4, 1.5, 1.6)]
    eos += [(f"fermi K={K}", fermi_fit_eos(FermiEosParams(K=K))) for K in (0.5, 1.0, 2.0)]
    with _hooked(None if wanted is None else TIGHT) as solved:
        sets = {"digest stars": rows((f"Omega={o.coeffs} u_c={u_c} Lambda={lam}", _star, ModelInput(
                    eos=EosSpec(A=1.0, gamma=1.5, omega=o), Lambda=lam, u_c=u_c), True)
                    for o in (OmegaSeries((1.0,)), SERIES) for u_c in STAR_U_C for lam in (1e-9, 1e-6)),
                "sweeps": _sweeps(solved, (1.3, 1.5, 1.8, 2.0), np.logspace(-4.0, 0.0, 8), wanted),
                "Lane-Emden": rows((f"mu={mu} lam={lam}", _zero, mu, lam)
                                   for mu, lam in ((1.0, 0.0), (1.5, 0.0), (3.0, 0.0), (1.5, 0.01))),
                "criterion-8 grid": _sweeps(solved, (1.5,), np.logspace(-3.0, -2.0, 10), wanted),
                "series and Fermi stars": rows((f"{name} u_c={u_c} Lambda={lam}", _star, ModelInput(
                    eos=e, Lambda=lam, u_c=u_c)) for name, e in eos for u_c in STAR_U_C
                    for lam in (1e-9, 1e-6, 1e-4))}
    sets["series and Fermi stars"]["u"] = [(f"{name} rho={rho!r}", e.u_of_density(rho))
                                           for name, e in eos for rho in np.logspace(-6.0, -1.0, 11).tolist()]
    return sets
