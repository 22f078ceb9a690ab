"""Periodic spectral operators for interface data and 2D grid fields:
derivatives, the antiderivative and diagonal Fourier multipliers.

Conventions follow the discrete Fourier transform with wavenumbers
k in {-N/2+1, ..., N/2}.  Every multiplier is an FFT-ordered, conjugate-
symmetric array, applied by ``fourier_map`` alone: one rfft/irfft pair
through its half spectrum.  numpy's FFT stores the unpaired Nyquist mode at
index N/2 with the opposite sign convention; the odd-symmetry multipliers
(ik, 1/ik) zero that mode so results stay real and skew-symmetry is
preserved.  Even multipliers keep it.  ``odd_wavenumbers`` is that rule.
The derivative's and the antiderivative's multipliers are cached read-only per
size (n, period), as ``stokes`` caches its symbols: a call costs its transforms.
"""

from functools import lru_cache

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * np.pi


def _read_only(a):
    a.flags.writeable = False
    return a


def _check_1d(f):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size == 0 or f.size % 2 != 0:
        raise ParameterError(f"need a nonempty even-length 1D sample array, got shape {f.shape}")
    return f


def integer_modes(n):
    """FFT-ordered integer mode numbers m in {-n/2, ..., n/2-1} (numpy layout)."""
    return np.fft.fftfreq(n, d=1.0 / n)


def wavenumbers(n, period=TWO_PI):
    """FFT-ordered physical wavenumbers 2*pi*m/period."""
    return TWO_PI * integer_modes(n) / period


def odd_wavenumbers(n, period=TWO_PI):
    """``wavenumbers`` with the unpaired Nyquist mode zeroed: the wavenumbers
    of every odd-symmetry multiplier (ik, 1/ik)."""
    k = wavenumbers(n, period)
    k[n // 2] = 0.0
    return k


def fourier_map(mult):
    """x -> real(ifft(mult * fft(x))) along the last axis of x, for the
    conjugate-symmetric FFT-ordered multiplier ``mult``: one real transform
    pair through its half spectrum."""
    n = len(mult)
    half = mult[:n // 2 + 1]
    return lambda x: np.fft.irfft(half * np.fft.rfft(x), n)


@lru_cache(maxsize=16)
def derivative_multiplier(n, period=TWO_PI):
    """ik on the odd wavenumbers, the first derivative; read-only, built once per (n, period)."""
    return _read_only(1j * odd_wavenumbers(n, period))


@lru_cache(maxsize=16)
def antiderivative_multiplier(n, period=TWO_PI):
    """1/(ik) on the odd wavenumbers, zero where k vanishes (the mean and the
    Nyquist mode).  Read-only, built once per (n, period)."""
    k = odd_wavenumbers(n, period)
    return _read_only(np.divide(1.0, 1j * k, out=np.zeros(n, dtype=complex), where=k != 0))


def derivative_1d(f, *, period=TWO_PI):
    """Spectral first derivative of periodic samples (even length) over the
    parameter domain of length ``period``."""
    f = _check_1d(f)
    return fourier_map(derivative_multiplier(f.size, period))(f)


def apply_symbol_1d(f, symbol):
    """Apply a diagonal Fourier multiplier, a precomputed FFT-ordered array.

    The symbol must satisfy symbol(-k) = conj(symbol(k)) and be real at k=0
    and Nyquist, so that the output is real.
    """
    f = _check_1d(f)
    n = f.size
    sig = np.asarray(symbol)
    if sig.shape != (n,):
        raise ParameterError(f"symbol array has shape {sig.shape}, expected ({n},)")
    paired = np.arange(1, n // 2)
    mismatch = np.max(np.abs(sig[-paired] - np.conj(sig[paired]))) if paired.size else 0.0
    scale = max(np.max(np.abs(sig)), 1e-300)
    if mismatch > 1e-12 * scale or abs(sig[0].imag) > 1e-12 * scale \
            or abs(sig[n // 2].imag) > 1e-12 * scale:
        raise ParameterError("symbol is not conjugate-symmetric; real output impossible")
    return fourier_map(sig)(f)


def antiderivative(f, value_at_zero=0.0, period=TWO_PI):
    """Spectral antiderivative g with g' = f and g(0) = value_at_zero.

    The mean of f contributes a linear-in-alpha term mean(f)*alpha, so g is
    periodic only when f has zero mean.
    """
    f = _check_1d(f)
    g = fourier_map(antiderivative_multiplier(f.size, period))(f)
    alpha = period * np.arange(f.size) / f.size
    return g - g[0] + np.mean(f) * alpha + value_at_zero


def derivative_2d(field, axis, length=1.0):
    """Per-axis spectral derivative of an N x N periodic grid field.

    ``axis`` is "x" (first index) or "y" (second index).
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2 or field.shape[0] != field.shape[1] or field.shape[0] == 0:
        raise ParameterError(f"need a square N x N grid, got shape {field.shape}")
    derivative = fourier_map(derivative_multiplier(field.shape[0], length))
    if axis == "x":
        return derivative(field.T).T
    if axis == "y":
        return derivative(field)
    raise ParameterError(f"axis must be 'x' or 'y', got {axis!r}")
