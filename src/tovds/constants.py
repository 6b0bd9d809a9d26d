"""Physical constants.

All formulas in the package carry c and G explicitly; the default unit
system is geometrized (c = G = 1), with SI available for cross-checks.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Constants:
    c: float = 1.0  # speed of light
    G: float = 1.0  # gravitational constant

    def __post_init__(self):
        for name in ("c", "G"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def c2(self) -> float:
        return self.c * self.c


GEOMETRIZED = Constants(c=1.0, G=1.0)
SI = Constants(c=299792458.0, G=6.67430e-11)

UNIT_SYSTEMS = {"geom": GEOMETRIZED, "si": SI}
