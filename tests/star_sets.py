"""The named star sets that answer checks run, each defined once.

- "digest stars": the 12 physical stars of tests/trajectory_digest.py,
  Omega == 1 and OmegaSeries((1, 0.3, -0.1)) at gamma 1.5, A = 1, each u_c
  of STAR_U_C and Lambda of STAR_LAMBDA;
- "criterion-8 grid": the 10 x 10 regime sweep of verify criterion 8,
  gamma 1.5 on logspace(-3, -2, 10)^2;
- "series and Fermi stars": 54 physical stars, OmegaSeries((1, 0.3, -0.1))
  at gamma 1.4, 1.5 and 1.6 and the Fermi fits at K = 0.5, 1 and 2, each at
  u_c in {1e-3, 1e-2, 5e-2} and Lambda in {1e-9, 1e-6, 1e-4}, with each
  EOS's u_of_density at 11 densities on logspace(-6, -1).

records() runs every set on the tovds that is importable and returns, per
set, its records: (label, tag, R_+, M_+) per star or cell, the sweep's
epsilon0 estimate, and (label, u) per u_of_density sample.  A star that
raises a TovdsError is tagged with the error's type.  tests/answer_diff.py
compares these records between two source trees.
"""

from __future__ import annotations

import numpy as np

from tovds import analysis, model
from tovds.eos import EosSpec, FermiEosParams, OmegaSeries, fermi_fit_eos
from tovds.errors import TovdsError
from tovds.model import ModelInput

SERIES = OmegaSeries((1.0, 0.3, -0.1))
STAR_OMEGAS = (OmegaSeries((1.0,)), SERIES)
STAR_U_C = (1e-3, 1e-2, 5e-2)
STAR_LAMBDA = (1e-9, 1e-6)

CRITERION8_GAMMA = 1.5
CRITERION8_GRID = np.logspace(-3.0, -2.0, 10)

SERIES_GAMMAS = (1.4, 1.5, 1.6)
FERMI_KS = (0.5, 1.0, 2.0)
CHECK_U_C = (1e-3, 1e-2, 5e-2)
CHECK_LAMBDA = (1e-9, 1e-6, 1e-4)
U_SAMPLE_RHO = np.logspace(-6.0, -1.0, 11)


def digest_eos(omega: OmegaSeries) -> EosSpec:
    return EosSpec(A=1.0, gamma=1.5, omega=omega)


def series_and_fermi_eos() -> list:
    """(label, EosSpec) of the six EOS of the series and Fermi set."""
    eos = [(f"series gamma={g}", EosSpec(A=1.0, gamma=g, omega=SERIES)) for g in SERIES_GAMMAS]
    eos += [(f"fermi K={K}", fermi_fit_eos(FermiEosParams(K=K))) for K in FERMI_KS]
    return eos


def _star(label: str, inp: ModelInput) -> tuple:
    try:
        _, outcome = model.solve_star(inp)
    except TovdsError as exc:
        return label, type(exc).__name__, None, None
    b = outcome.boundary
    return label, outcome.kind, b and b.r_plus, b and b.m_plus


def records() -> dict:
    """{set name: {"stars": [...], "epsilon0": float or None, "u": [...]}}."""
    digest = [_star(f"Omega={omega.coeffs} u_c={u_c} Lambda={lam}",
                    ModelInput(eos=digest_eos(omega), Lambda=lam, u_c=u_c))
              for omega in STAR_OMEGAS for u_c in STAR_U_C for lam in STAR_LAMBDA]

    sweep = analysis.regime_sweep(CRITERION8_GAMMA, CRITERION8_GRID, CRITERION8_GRID,
                                  eos=EosSpec(A=1.0, gamma=CRITERION8_GAMMA))
    cells = [(f"alpha={c.alpha!r} beta={c.beta!r}", c.outcome, c.R_plus, c.M_plus)
             for c in sweep.cells]

    stars, us = [], []
    for name, eos in series_and_fermi_eos():
        stars += [_star(f"{name} u_c={u_c} Lambda={lam}", ModelInput(eos=eos, Lambda=lam, u_c=u_c))
                  for u_c in CHECK_U_C for lam in CHECK_LAMBDA]
        us += [(f"{name} rho={rho!r}", eos.u_of_density(rho)) for rho in U_SAMPLE_RHO.tolist()]

    return {
        "digest stars": {"stars": digest, "epsilon0": None, "u": []},
        "criterion-8 grid": {"stars": cells, "epsilon0": sweep.epsilon0_estimate, "u": []},
        "series and Fermi stars": {"stars": stars, "epsilon0": None, "u": us},
    }
