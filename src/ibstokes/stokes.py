"""Fluid solves on the periodic grid, steady and unsteady Stokes flow.

The solves are velocity-only: per rfft2 mode the force is multiplied by
the periodic Stokeslet symbol G(k) = gain(k) (I - k k^T/|k|^2), the viscous
gain times the Leray projection (which removes exactly the part a pressure
gradient balances, so the pressure itself is never formed).  The steady
and unsteady solves share one spectral core and differ only in their
multipliers.

The per-grid operators (wavenumbers, and the symbol's three components
Gxx, Gxy, Gyy with the unsteady keep factor, keyed on the steady or
unsteady scalars) are built once and cached as read-only arrays.  A
fluid is its rfft2 half spectrum, and a solve is one rfft2 of each force
component plus one 2x2 symbol product per mode, written into the output
spectra through one scratch array; a fluid's velocity fields cost one
irfft2 per component when first read.  So a solve that advances from a
solve's fluid, a reloaded one or the fluid at rest (a zero spectrum)
transforms only the force.  The module also holds
the Fourier multiplier of the periodized log kernel on the interface,
which the second-kind schemes' leading terms use.  Beyond those read-only
caches it keeps no state: ``ibstokes cost`` counts the solves from
outside.
"""

from functools import cached_property, lru_cache

import numpy as np

from . import spectral
from .errors import ParameterError


class FluidState:
    """A fluid on the N x N periodic grid, held as its rfft2 half spectrum
    ``spectrum`` = (rfft2(u), rfft2(v)), read-only.  The fields u, v are
    its inverse transform, formed when first read and never written in
    place.  A solve's fluid and a reloaded one hold the spectrum the run
    carries, so a solve that advances from either transforms only the
    force, and a reloaded fluid is the run's bit for bit.  The fluid at
    rest holds zero fields too, so it is never transformed."""

    def __init__(self, spectrum):
        self.spectrum = tuple(_read_only(a) for a in spectrum)

    @classmethod
    def rest(cls, n):
        fluid = cls((np.zeros((n, n // 2 + 1), dtype=complex),) * 2)
        fluid.u, fluid.v = np.zeros((n, n)), np.zeros((n, n))
        return fluid

    def max_speed(self):
        speed2 = self.u * self.u
        speed2 += self.v * self.v
        return float(np.sqrt(np.max(speed2)))

    @cached_property
    def u(self):
        return _irfft2(self.spectrum[0])

    @cached_property
    def v(self):
        return _irfft2(self.spectrum[1])


def _irfft2(a):
    """The N x N grid field of the (N, N/2 + 1) half spectrum ``a``: the one
    inverse transform of every fluid."""
    n = len(a)
    return np.fft.irfft2(a, s=(n, n))


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=8)
def grid_wavenumbers(n, length):
    """Wavenumbers (KX, KY) on the rfft2 half spectrum, with the Nyquist mode
    zeroed on both axes (odd-symmetry operators), and the full |k|^2 for even
    symbols.  KX and KY are (N, N/2 + 1) broadcast views of one axis vector
    each; only |k|^2 is a full array.  Cached per grid; all three are
    read-only."""
    k = spectral.wavenumbers(n, length)
    kd = spectral.odd_wavenumbers(n, length)
    # the half axis holds modes 0..N/2; numpy's full layout stores N/2 as
    # -N/2, which has the same square and is zeroed in kd
    half = n // 2 + 1
    kx = np.broadcast_to(kd[:, None], (n, half))
    ky = np.broadcast_to(kd[None, :half], (n, half))
    k2_full = (k**2)[:, None] + (k[:half] ** 2)[None, :]
    return kx, ky, _read_only(k2_full)


def _stokeslet_symbol(gain, n, length):
    """(Gxx, Gxy, Gyy) = gain (I - k k^T/|k|^2) per half-spectrum mode,
    read-only; gain I where the odd-symmetry wavenumbers vanish (k = 0 and
    the zeroed Nyquist modes)."""
    kx, ky, _ = grid_wavenumbers(n, length)
    k2 = kx**2 + ky**2
    scaled = np.divide(gain, k2, out=np.zeros_like(k2), where=k2 > 0)
    return (_read_only(gain - kx * kx * scaled), _read_only(-kx * ky * scaled),
            _read_only(gain - ky * ky * scaled))


@lru_cache(maxsize=16)
def _unsteady_multipliers(n, length, a, mu, theta):
    """(keep, Gxx, Gxy, Gyy) of the theta-scheme with a = rho/dt: the
    symbol's gain is 1/(a + theta mu |k|^2).  Read-only."""
    _, _, k2 = grid_wavenumbers(n, length)
    denom = a + theta * mu * k2
    return (_read_only((a - (1.0 - theta) * mu * k2) / denom),
            *_stokeslet_symbol(1.0 / denom, n, length))


@lru_cache(maxsize=8)
def _steady_symbol(n, length, mu):
    """(Gxx, Gxy, Gyy) with gain 1/(mu |k|^2), zero at k = 0.  Read-only."""
    _, _, k2 = grid_wavenumbers(n, length)
    gain = np.divide(1.0, mu * k2, out=np.zeros_like(k2), where=k2 > 0)
    return _stokeslet_symbol(gain, n, length)


def divergence_inf_norm(fluid, length=1.0):
    """max |D_hx u + D_hy v|, the discrete incompressibility residual."""
    div = spectral.derivative_2d(fluid.u, "x", length) \
        + spectral.derivative_2d(fluid.v, "y", length)
    return float(np.max(np.abs(div)))


def _spectral_solve(fluid, force, grid, keep, symbol):
    """Per rfft2 mode, u_hat_new = G f_hat + keep u_hat, with ``keep`` and
    the symbol G = (Gxx, Gxy, Gyy) arrays on the half spectrum.  ``fluid``
    None is a fluid at rest: its term is skipped.  The new fluid is
    u_hat_new; its fields are formed when first read."""
    n = grid.n
    if force.shape != (n, n, 2) or (fluid is not None
                                    and fluid.spectrum[0].shape != (n, n // 2 + 1)):
        raise ParameterError("field shapes inconsistent with grid")
    gxx, gxy, gyy = symbol
    fu, fv = np.fft.rfft2(force[..., 0]), np.fft.rfft2(force[..., 1])
    un = np.multiply(gxx, fu)
    vn = np.multiply(gxy, fu)
    scratch = fu        # spent: each remaining product goes through it
    un += np.multiply(gxy, fv, out=scratch)
    vn += np.multiply(gyy, fv, out=scratch)
    if fluid is not None:
        fluid_u, fluid_v = fluid.spectrum
        un += np.multiply(keep, fluid_u, out=scratch)
        vn += np.multiply(keep, fluid_v, out=scratch)
    return FluidState((un, vn))


def unsteady_stokes_step(fluid, force, rho, mu, dt, grid, theta=1.0):
    """One implicit step of the unsteady Stokes equations with a given force.

    theta = 1 is backward Euler in the viscosity (the default scheme);
    theta = 0.5 is the trapezoidal update used by the second-order scheme.
    Per mode:

        (rho/dt + theta mu |k|^2) u_hat_new = (rho/dt - (1-theta) mu |k|^2) u_hat
                                              + P f_hat

    which at k = 0 advances the mean by the mean force alone.  ``fluid`` None
    starts from rest.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    keep, *symbol = _unsteady_multipliers(grid.n, grid.length, rho / dt, mu, theta)
    return _spectral_solve(fluid, force, grid, keep, symbol)


def steady_stokes_grid_solve(force, mu, grid):
    """Solve 0 = -grad p + mu lap u + f on the torus for u.

    A mean force has no steady solution; the k = 0 force mode is discarded
    (inside the implicit operators the probe forces carry an aliasing-level
    mean), so the velocity has zero mean.
    """
    return _spectral_solve(None, force, grid, None, _steady_symbol(grid.n, grid.length, mu))


def _log_kernel_multiplier(n, interface_length, domain_length):
    """Multiplier of f -> int -ln((L_b/(pi L))|sin(pi (a-a')/L_b)|) f da', the
    periodized log kernel with its distances in units of the domain length L,
    the unit of the log in the periodic Green's function of the grid solves.

    pi/|kappa| for kappa != 0 and -L_b ln(L_b/(2 pi L)) at kappa = 0 (which
    vanishes when L_b = 2 pi L).
    """
    kappa = spectral.wavenumbers(n, interface_length)
    mult = np.zeros(n)
    nz = kappa != 0
    mult[nz] = np.pi / np.abs(kappa[nz])
    mult[0] = -interface_length * np.log(interface_length / (2.0 * np.pi * domain_length))
    return mult
