"""Exception hierarchy shared across the package."""


class TovdsError(Exception):
    """Base class for all package errors."""


class ConfigError(TovdsError):
    """Invalid or inconsistent run configuration."""


class EosError(TovdsError):
    """Base class for equation-of-state errors."""


class EosDomainError(EosError):
    """Argument outside the domain where the EOS transforms are defined."""


class NonPhysicalEosError(EosError):
    """Configured Omega yields P <= 0 or dP/drho outside (0, c^2), or
    1 + zeta Omega roots too close together for Omega_u's closed form."""


class RootFindError(TovdsError):
    """A bracketed root search failed to converge."""


class DomainSignalError(TovdsError):
    """Raised by a right-hand side when the state leaves its domain.

    The integrator catches this class, shrinks the step, and if the
    boundary cannot be stepped around returns a partial solution with
    status ``domain_error``.
    """


class KappaNonPositiveError(DomainSignalError):
    """kappa(r, m) <= 0: horizon contact inside an ODE right-hand side."""


class ModelError(TovdsError):
    """Solver failure; carries the partial solution when one exists."""

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile


class AnalysisError(TovdsError):
    """An analysis routine could not produce its result."""
