import numpy as np
import pytest

from ibstokes import spectral, stokes
from ibstokes.errors import ParameterError
from ibstokes.grids import GridSpec
from ibstokes.stokes import FluidState


def fluid_of(u, v):
    """The fluid whose grid fields are u, v: their rfft2 half spectrum."""
    return FluidState((np.fft.rfft2(u), np.fft.rfft2(v)))


def shear_force(n, amplitude=1.0):
    """f = (A sin(2 pi y), 0), mean-free and divergence-free."""
    y = np.arange(n) / n
    f = np.zeros((n, n, 2))
    f[..., 0] = amplitude * np.sin(2 * np.pi * y)[None, :]
    return f


def random_force(rng, n):
    f = rng.standard_normal((n, n, 2))
    return f - f.mean(axis=(0, 1))


def leray(n, length=1.0):
    """The projection P = I - k k^T/|k|^2 as (N, N/2 + 1, 2, 2) matrices on the
    rfft2 half spectrum: the cached unsteady symbol at rho/dt = 1, mu = 0,
    whose gain is 1."""
    _, pxx, pxy, pyy = stokes._unsteady_multipliers(n, length, 1.0, 0.0, 1.0)
    return np.stack([np.stack([pxx, pxy], -1), np.stack([pxy, pyy], -1)], -2)


def half_spectrum(n, length):
    """(KX, KY) with the Nyquist mode zeroed, and the full |k|^2, written out."""
    m = np.fft.fftfreq(n, 1.0 / n)
    k = 2 * np.pi / length * m
    kd = np.where(m == -(n // 2), 0.0, k)
    half = n // 2 + 1
    return kd[:, None], kd[None, :half], k[:, None] ** 2 + k[None, :half] ** 2


def textbook_solve(force, fluid, keep, gain, n, length):
    """Project each mode of the force, then apply the gain (and keep)."""
    kx, ky, _ = half_spectrum(n, length)
    fu, fv = np.fft.rfft2(force[..., 0]), np.fft.rfft2(force[..., 1])
    k2 = kx**2 + ky**2
    dot = (kx * fu + ky * fv) / np.where(k2 > 0, k2, 1.0)
    un, vn = gain * (fu - kx * dot), gain * (fv - ky * dot)
    if fluid is not None:
        un += keep * np.fft.rfft2(fluid.u)
        vn += keep * np.fft.rfft2(fluid.v)
    return np.fft.irfft2(un, s=(n, n)), np.fft.irfft2(vn, s=(n, n))


class TestLeray:
    def test_divergence_free_unchanged(self):
        # P^2 = P
        p = leray(32)
        assert np.max(np.abs(p @ p - p)) <= 1e-15

    def test_symmetric_and_orthogonal_to_k(self):
        n = 32
        p = leray(n, 2.0)
        assert np.array_equal(p, np.swapaxes(p, -1, -2))
        kx, ky, _ = stokes.grid_wavenumbers(n, 2.0)
        k = np.stack(np.broadcast_arrays(kx, ky), -1)[..., None]
        # k . P = 0 and P k = 0, relative to |k| = 2 pi N/(2 length)
        assert np.max(np.abs(p @ k)) <= 1e-15 * np.pi * n

    def test_gradient_mode_killed(self):
        n = 16
        p = leray(n)
        kx, ky, _ = stokes.grid_wavenumbers(n, 1.0)
        # f_hat = k on a single mode of the rfft2 half spectrum
        f = np.array([kx[2, 3], ky[2, 3]])
        assert np.max(np.abs(p[2, 3] @ f)) <= 1e-14

    def test_identity_where_the_wavenumbers_vanish(self):
        # k = 0 and the zeroed Nyquist corner pass through
        n = 16
        p = leray(n)
        for mode in [(0, 0), (n // 2, n // 2)]:
            assert np.array_equal(p[mode], np.eye(2))

    @pytest.mark.parametrize("n, length", [(16, 1.0), (32, 1.0), (32, 2.0)])
    def test_solves_match_projection_then_gain(self, n, length):
        grid = GridSpec.make(n, length=length)
        rng = np.random.default_rng(n)
        force = random_force(rng, n)
        fluid = fluid_of(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        _, _, k2 = half_spectrum(n, length)
        mu, rho, dt = 0.5, 1.0, 0.05
        cases = [(stokes.steady_stokes_grid_solve(force, mu, grid),
                  textbook_solve(force, None, None,
                                 np.where(k2 > 0, 1.0 / (mu * np.where(k2 > 0, k2, 1.0)), 0.0),
                                 n, length))]
        for theta in (1.0, 0.5):
            denom = rho / dt + theta * mu * k2
            keep = (rho / dt - (1.0 - theta) * mu * k2) / denom
            cases.append((stokes.unsteady_stokes_step(fluid, force, rho, mu, dt, grid, theta),
                          textbook_solve(force, fluid, keep, 1.0 / denom, n, length)))
        for got, (u, v) in cases:
            assert np.max(np.abs(got.u - u)) <= 1e-14 * np.max(np.abs(u))
            assert np.max(np.abs(got.v - v)) <= 1e-14 * np.max(np.abs(v))


class TestUnsteadyStep:
    def test_viscous_decay(self):
        n = 32
        grid = GridSpec.make(n)
        y = np.arange(n) / n
        u0 = np.sin(2 * np.pi * y)[None, :] * np.ones((n, 1))
        fluid = fluid_of(u0, np.zeros((n, n)))
        out = stokes.unsteady_stokes_step(fluid, np.zeros((n, n, 2)), 1.0, 1.0, 0.1, grid)
        expect = u0 / (1.0 + 0.1 * (2 * np.pi) ** 2)
        assert np.max(np.abs(out.u - expect)) <= 1e-12
        e0 = np.sum(u0**2)
        e1 = np.sum(out.u**2 + out.v**2)
        assert e1 < e0

    def test_gradient_force_leaves_fluid_at_rest(self):
        n = 32
        grid = GridSpec.make(n)
        x = np.arange(n) / n
        phi = np.cos(2 * np.pi * x)[:, None] * np.ones(n)[None, :]
        f = np.zeros((n, n, 2))
        f[..., 0] = spectral.derivative_2d(phi, "x")
        f[..., 1] = spectral.derivative_2d(phi, "y")
        fluid = FluidState.rest(n)
        out = stokes.unsteady_stokes_step(fluid, f, 1.0, 1.0, 0.1, grid)
        assert np.max(np.abs(out.u)) <= 1e-13
        assert np.max(np.abs(out.v)) <= 1e-13

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_single_mode_hand_solve(self, theta):
        # from u0 = 0.7 sin(2 pi y) under f = (sin(2 pi y), 0) the mode obeys
        # (rho/dt + theta mu k^2) u1 = (rho/dt - (1-theta) mu k^2) u0 + f
        n = 64
        grid = GridSpec.make(n)
        rho, mu, dt = 1.0, 1.0, 0.1
        y = np.arange(n) / n
        mode = np.sin(2 * np.pi * y)[None, :] * np.ones((n, 1))
        fluid = fluid_of(0.7 * mode, np.zeros((n, n)))
        out = stokes.unsteady_stokes_step(fluid, shear_force(n), rho, mu, dt, grid, theta=theta)
        k2 = (2 * np.pi) ** 2
        keep = (rho / dt - (1 - theta) * mu * k2) / (rho / dt + theta * mu * k2)
        gain = 1.0 / (rho / dt + theta * mu * k2)
        assert np.max(np.abs(out.u - (keep * 0.7 + gain) * mode)) <= 1e-13
        assert np.max(np.abs(out.v)) <= 1e-14

    def test_mean_force_moves_mean_mode(self):
        n = 16
        grid = GridSpec.make(n)
        f = np.zeros((n, n, 2))
        f[..., 0] = 3.0
        out = stokes.unsteady_stokes_step(FluidState.rest(n), f, 2.0, 1.0, 0.1, grid)
        assert np.max(np.abs(out.u - 0.15)) <= 1e-13

    def test_divergence_free_output(self):
        n = 64
        grid = GridSpec.make(n)
        rng = np.random.default_rng(1)
        force = random_force(rng, n)
        out = stokes.unsteady_stokes_step(FluidState.rest(n), force, 1.0, 0.01, 0.05, grid)
        assert stokes.divergence_inf_norm(out) <= 1e-10 * out.max_speed()
        # no field is a fluid at rest
        none = stokes.unsteady_stokes_step(None, force, 1.0, 0.01, 0.05, grid)
        assert np.array_equal(none.u, out.u) and np.array_equal(none.v, out.v)

    def test_bad_dt(self):
        grid = GridSpec.make(16)
        with pytest.raises(ParameterError):
            stokes.unsteady_stokes_step(FluidState.rest(16), np.zeros((16, 16, 2)),
                                        1.0, 1.0, 0.0, grid)

    @pytest.mark.parametrize("force_shape, fluid", [
        ((16, 17, 2), FluidState.rest(16)),
        ((16, 16, 2), FluidState.rest(8)),
        ((16, 16, 2), FluidState((np.zeros((16, 8), complex),) * 2)),
    ], ids=["force", "fluid-n8", "fluid-spectrum-16x8"])
    def test_shapes_inconsistent_with_grid(self, force_shape, fluid):
        grid = GridSpec.make(16)
        with pytest.raises(ParameterError, match="inconsistent with grid"):
            stokes.unsteady_stokes_step(fluid, np.zeros(force_shape), 1.0, 0.01, 0.05, grid)


class TestSteadyGridSolve:
    def test_zero_force(self):
        grid = GridSpec.make(16)
        out = stokes.steady_stokes_grid_solve(np.zeros((16, 16, 2)), 1.0, grid)
        assert np.max(np.abs(out.u)) == 0.0

    def test_gradient_force_gives_zero_velocity(self):
        n = 32
        grid = GridSpec.make(n)
        x = np.arange(n) / n
        phi = np.sin(2 * np.pi * x)[:, None] * np.ones(n)[None, :]
        f = np.zeros((n, n, 2))
        f[..., 0] = spectral.derivative_2d(phi, "x")
        f[..., 1] = spectral.derivative_2d(phi, "y")
        out = stokes.steady_stokes_grid_solve(f, 1.0, grid)
        assert np.max(np.abs(out.u)) <= 1e-13
        assert np.max(np.abs(out.v)) <= 1e-13

    def test_single_mode_hand_solve(self):
        n = 64
        grid = GridSpec.make(n)
        mu = 0.5
        out = stokes.steady_stokes_grid_solve(shear_force(n), mu, grid)
        y = np.arange(n) / n
        expect = np.sin(2 * np.pi * y)[None, :] / (mu * (2 * np.pi) ** 2)
        assert np.max(np.abs(out.u - expect * np.ones((n, 1)))) <= 1e-13

    def test_mean_force_dropped(self):
        # a mean force has no steady solution; its k = 0 mode is discarded
        grid = GridSpec.make(16)
        f = np.zeros((16, 16, 2))
        f[..., 1] = 0.01
        out = stokes.steady_stokes_grid_solve(f, 1.0, grid)
        assert np.max(np.abs(out.u)) == 0.0
        assert np.max(np.abs(out.v)) == 0.0

    def test_divergence_free_output(self):
        n = 64
        grid = GridSpec.make(n)
        rng = np.random.default_rng(2)
        out = stokes.steady_stokes_grid_solve(random_force(rng, n), 1.0, grid)
        assert stokes.divergence_inf_norm(out) <= 1e-10 * out.max_speed()


class TestCachedOperators:
    CACHED = (stokes.grid_wavenumbers, stokes._unsteady_multipliers, stokes._steady_symbol)

    def test_cached_arrays_are_read_only(self):
        arrays = list(stokes.grid_wavenumbers(16, 1.0)) \
            + list(stokes._unsteady_multipliers(16, 1.0, 20.0, 0.01, 1.0)) \
            + list(stokes._steady_symbol(16, 1.0, 1.0))
        for a in arrays:
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def solves(self, grid, mu, dt, seed):
        """A steady and an unsteady solve, plus a trapezoidal one from the
        latter's output, of one grid's random force."""
        rng = np.random.default_rng(seed)
        force = random_force(rng, grid.n)
        steady = stokes.steady_stokes_grid_solve(force, mu, grid)
        fluid = stokes.unsteady_stokes_step(None, force, 1.0, mu, dt, grid)
        trap = stokes.unsteady_stokes_step(fluid, force, 1.0, mu, dt, grid, theta=0.5)
        return [steady.u, steady.v, fluid.u, fluid.v, trap.u, trap.v]

    def test_interleaved_grids_match_each_grid_alone(self):
        # the third case shares the first one's grid, not its mu and dt
        cases = [(GridSpec.make(16, length=1.0), 1.0, 0.1, 0),
                 (GridSpec.make(32, length=2.0), 0.01, 0.05, 1),
                 (GridSpec.make(16, length=1.0), 0.5, 0.2, 2)]
        alone = []
        for case in cases:
            for fn in self.CACHED:
                fn.cache_clear()
            alone.append(self.solves(*case))
        for fn in self.CACHED:
            fn.cache_clear()
        for _ in range(2):
            for case, want in zip(cases, alone):
                for got, ref in zip(self.solves(*case), want):
                    assert np.array_equal(got, ref)

