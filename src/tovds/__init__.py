"""Static relativistic stars with a positive cosmological constant.

Solves the hydrostatic-equilibrium system for barotropic fluids, classifies
solutions (monotone-short, non-monotone, horizon-degenerate, unterminated),
patches the interior metric onto the static vacuum exterior with verified
C^2 continuity, and validates the scaled-limit equations at desk scale.
"""

from .constants import Constants
from .eos import EosSpec, FermiEosParams, OmegaSeries, fermi_eos, fermi_fit_eos
from .integrate import EventSpec, StepControl, integrate_adaptive
from .model import ModelInput, SolutionProfile, solve_scaled, solve_star
from .metric import MetricPatch, continuity_report, horizons
from .analysis import (
    boundary_exponent_fit,
    lane_emden_first_zero,
    lane_emden_solution,
    mu1_exact,
    perturbation_compare,
    regime_sweep,
)

__version__ = "0.1.0"
