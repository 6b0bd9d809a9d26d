"""Static relativistic stars with a positive cosmological constant.

Solves the hydrostatic-equilibrium system for barotropic fluids, classifies
solutions (monotone-short, non-monotone, horizon-degenerate, unterminated),
patches the interior metric onto the static vacuum exterior with verified
C^2 continuity, and validates the scaled-limit equations at desk scale.
"""

from .constants import GEOMETRIZED, SI, Constants
from .eos import (
    EosSpec,
    FermiEosParams,
    OmegaOne,
    OmegaSeries,
    fermi_eos,
    fermi_fit_eos,
)
from .integrate import DenseSolution, EventSpec, StepControl, integrate_adaptive
from .model import (
    BoundaryQuantities,
    ModelInput,
    ModelOutcome,
    SolutionProfile,
    boundary_quantities,
    d2u_at_boundary,
    smallness_condition,
    solve_scaled,
    solve_star,
    vacuum_continuation_lambda0,
)
from .metric import HorizonPair, MetricPatch, continuity_report, horizons
from .analysis import (
    ExponentFit,
    SweepResult,
    boundary_exponent_fit,
    lane_emden_first_zero,
    mu1_exact,
    perturbation_compare,
    regime_sweep,
    scaled_limit_convergence,
)
from .odecore import ScalingParams

__version__ = "0.1.0"
