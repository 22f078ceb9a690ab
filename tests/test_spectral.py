import numpy as np
import pytest

from ibstokes import spectral
from ibstokes.errors import ParameterError


def grid(n, period=2 * np.pi):
    return period * np.arange(n) / n


def _multipliers(n, seed):
    """A conjugate-symmetric multiplier with a nonzero Nyquist entry (the
    transform of a real sequence) and an odd one, imaginary with its Nyquist
    entry zeroed."""
    rng = np.random.default_rng(seed)
    general = np.fft.fft(rng.standard_normal(n))
    r = rng.standard_normal(n)
    odd = 1j * (r - r[-np.arange(n)])
    odd[n // 2] = 0.0
    assert abs(general[n // 2]) > 1e-3 and np.max(np.abs(odd)) > 0.1
    return general, odd


@pytest.mark.parametrize("n", [8, 256])
def test_fourier_map_is_complex_fft_multiplier(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    rows = rng.standard_normal((3, n))
    for mult in _multipliers(n, seed=n + 1):
        apply = spectral.fourier_map(mult)
        expect = np.real(np.fft.ifft(mult * np.fft.fft(x)))
        assert np.max(np.abs(apply(x) - expect)) <= 1e-14 * np.max(np.abs(expect))
        expect = np.real(np.fft.ifft(mult * np.fft.fft(rows, axis=-1), axis=-1))
        assert np.max(np.abs(apply(rows) - expect)) <= 1e-14 * np.max(np.abs(expect))


class TestDerivative1D:
    def test_sin_exact(self):
        a = grid(64)
        d = spectral.derivative_1d(np.sin(a))
        assert np.max(np.abs(d - np.cos(a))) <= 1e-12

    def test_constant(self):
        d = spectral.derivative_1d(np.ones(64))
        assert np.max(np.abs(d)) <= 1e-13

    def test_pure_mode_exact(self):
        a = grid(128)
        for k in (1, 5, 17):
            d = spectral.derivative_1d(np.cos(k * a))
            assert np.max(np.abs(d + k * np.sin(k * a))) <= 1e-12 * max(k, 1)

    def test_period_scaling(self):
        lb = 0.4 * np.pi
        a = grid(32, lb)
        kappa = 2 * np.pi / lb
        d = spectral.derivative_1d(np.sin(kappa * a), period=lb)
        assert np.max(np.abs(d - kappa * np.cos(kappa * a))) <= 1e-11

    def test_bad_inputs(self):
        with pytest.raises(ParameterError, match=r"even-length 1D sample array, got shape \(63,\)"):
            spectral.derivative_1d(np.ones(63))
        with pytest.raises(ParameterError, match=r"need a nonempty .* got shape \(0,\)"):
            spectral.derivative_1d(np.ones(0))
        with pytest.raises(TypeError):  # the period is keyword-only
            spectral.derivative_1d(np.ones(8), 2 * np.pi)


class TestApplySymbol:
    def test_identity(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(32)
        out = spectral.apply_symbol_1d(f, np.ones(32))
        assert np.max(np.abs(out - f)) <= 1e-13

    def test_abs_k_on_single_mode(self):
        a = grid(64)
        out = spectral.apply_symbol_1d(np.cos(2 * a), np.abs(spectral.wavenumbers(64)))
        assert np.max(np.abs(out - 2 * np.cos(2 * a))) <= 1e-12

    def test_bessel_style_symbol(self):
        # 1/sqrt(beta^2+k^2) at beta=1 on cos(a): value 1/sqrt(2)
        a = grid(64)
        k = spectral.wavenumbers(64)
        out = spectral.apply_symbol_1d(np.cos(a), 1.0 / np.sqrt(1.0 + k**2))
        assert np.max(np.abs(out - np.cos(a) / np.sqrt(2.0))) <= 1e-12

    def test_asymmetric_symbol_rejected(self):
        f = np.ones(16)
        with pytest.raises(ParameterError, match="symbol is not conjugate-symmetric"):
            spectral.apply_symbol_1d(f, 1j * spectral.wavenumbers(16)**2)  # even imaginary part


class TestAntiderivative:
    def test_cos(self):
        a = grid(64)
        g = spectral.antiderivative(np.cos(a), 0.0)
        assert np.max(np.abs(g - np.sin(a))) <= 1e-12

    def test_constant_ramp(self):
        a = grid(32)
        g = spectral.antiderivative(np.full(32, 2.5), 0.0)
        assert np.max(np.abs(g - 2.5 * a)) <= 1e-12

    def test_closed_form_oracle(self):
        # integral of cos(a) + 2 from 0 with g(0)=1 -> 1 + sin(a) + 2a
        a = grid(64)
        g = spectral.antiderivative(np.cos(a) + 2.0, 1.0)
        assert np.max(np.abs(g - (1.0 + np.sin(a) + 2.0 * a))) <= 1e-11

    def test_roundtrip_with_linear_term(self):
        rng = np.random.default_rng(3)
        n = 64
        a = grid(n)
        # keep it band-limited: drop the modes above n/3
        fh = np.fft.fft(rng.standard_normal(n))
        fh[np.abs(spectral.integer_modes(n)) > n / 3] = 0.0
        f = np.real(np.fft.ifft(fh))
        g = spectral.antiderivative(f, 0.3)
        mean = f.mean()
        back = spectral.derivative_1d(g - mean * a) + mean
        assert np.max(np.abs(back - f)) <= 1e-10

    def test_period_scaling(self):
        lb = 0.4 * np.pi
        a = grid(64, lb)
        kappa = 2 * np.pi / lb
        g = spectral.antiderivative(np.cos(kappa * a), 0.0, period=lb)
        assert np.max(np.abs(g - np.sin(kappa * a) / kappa)) <= 1e-12


class TestDerivative2D:
    def test_single_mode_x(self):
        n = 32
        x = np.arange(n) / n
        fx = np.sin(2 * np.pi * x)[:, None] * np.ones(n)[None, :]
        d = spectral.derivative_2d(fx, "x")
        expect = 2 * np.pi * np.cos(2 * np.pi * x)[:, None] * np.ones(n)[None, :]
        assert np.max(np.abs(d - expect)) <= 1e-11

    def test_constant(self):
        assert np.max(np.abs(spectral.derivative_2d(np.ones((16, 16)), "y"))) == 0.0

    def test_mixed_mode_y_oracle(self):
        # d/dy [sin(2 pi x) cos(4 pi y)] = -4 pi sin(2 pi x) sin(4 pi y)
        n = 64
        x = np.arange(n) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        f = np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y)
        d = spectral.derivative_2d(f, "y")
        expect = -4 * np.pi * np.sin(2 * np.pi * X) * np.sin(4 * np.pi * Y)
        assert np.max(np.abs(d - expect)) <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError, match=r"need a square N x N grid, got shape \(8, 16\)"):
            spectral.derivative_2d(np.ones((8, 16)), "x")
