"""Fourier symbols of the implicit leading-order operators: the K0
convolution multiplier of the second-kind unsteady scheme and the
small-scale-decomposition symbols of the unsteady SSD schemes."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

def k0_convolution_symbol(beta, k):
    """Fourier multiplier 1/sqrt(beta^2 + k^2) of f -> (1/pi) int K0(beta|a-a'|) f da'."""
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    k = np.asarray(k, dtype=float)
    return 1.0 / np.sqrt(beta * beta + k * k)


@dataclass
class SsdSymbolParams:
    """Per-step inputs of the implicit leading-order symbols.

    lam is 1/sqrt(mu*dt/rho); s_min = min_a s_a; s_max_excess = max_a(s_a - 1).
    The integrator recomputes these each step from the previous state.
    """

    elastic: float
    rho: float
    dt: float
    lam: float
    s_min: float
    s_max_excess: float

    def __post_init__(self):
        if not (self.lam > 0 and self.s_min > 0):
            raise ParameterError("need lam > 0 and s_min > 0")
        for name in ("elastic", "rho", "dt", "lam", "s_min", "s_max_excess"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} is not finite")

    @classmethod
    def from_state(cls, s_alpha, elastic, mu, rho, dt):
        lam = 1.0 / np.sqrt(mu * dt / rho)
        s_min = float(np.min(s_alpha))
        return cls(elastic=elastic, rho=rho, dt=dt, lam=lam,
                   s_min=s_min,
                   s_max_excess=float(np.max(s_alpha - 1.0)))


def _bracket_t(k, beta):
    # ((beta k)^2 ... ) written to avoid overflow at large |k|
    k = np.abs(np.asarray(k, dtype=float))
    return (beta**2 * k**2 + k**4) / np.sqrt(beta**2 + k**2) - k**3


def _bracket_s(k, beta):
    k = np.abs(np.asarray(k, dtype=float))
    return k**3 - k**4 / np.sqrt(beta**2 + k**2)


def ssd_symbol_t(k, p):
    """Leading-order multiplier of the implicit s_alpha update (first order).

    Nonpositive for all k; 0 at k = 0.
    """
    beta = p.lam * p.s_min
    return -(p.elastic * p.dt) / (2.0 * p.rho * p.s_min**2) * _bracket_t(k, beta)


def ssd_symbol_s(k, p):
    """Leading-order multiplier of the implicit tangent-angle update (first order).

    Sign matches -sgn(s_max_excess); 0 at k = 0.
    """
    beta = p.lam * p.s_min
    return -(p.elastic * p.dt * p.s_max_excess) / (2.0 * p.rho * p.s_min**2) \
        * _bracket_s(k, beta)


def ssd_symbol_second_order(k, p):
    """Midpoint-rule leading-order multipliers (T, S) of the second-order scheme:
    half the first-order symbols, S over s_min once more (its prefactor
    carries s_min^3, against s_min^2 at first order).

    Call with p built from lam_bar = sqrt(2 rho / (mu dt)) and the half-step
    state.
    """
    return 0.5 * ssd_symbol_t(k, p), 0.5 * ssd_symbol_s(k, p) / p.s_min
