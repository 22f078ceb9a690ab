"""Physical parameters of the model problem.

With lengths scaled by the domain size L and time by t0 = mu L / S_b, the
steady problem depends only on L_b/L and the unsteady problem additionally on
mu^2/(rho L S_b).  The canonical runs therefore fix S_b = rho = 1 and vary mu.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import TWO_PI


def finite_real(v):
    """True for a finite real number; bools and strings are not numbers here."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) \
        and bool(np.isfinite(v))


@dataclass
class PhysParams:
    rho: float = 1.0
    mu: float = 1.0
    elastic: float = 1.0          # boundary elastic coefficient S_b
    interface_length: float = TWO_PI

    def __post_init__(self):
        for name in ("rho", "mu", "elastic", "interface_length"):
            v = getattr(self, name)
            if not (finite_real(v) and v > 0):
                raise ParameterError(f"{name}: must be positive and finite, got {v!r}")
