import numpy as np
import pytest

from ibstokes import spectral, stokes
from ibstokes.errors import ParameterError
from ibstokes.grids import GridSpec
from ibstokes.stokes import FluidState


def shear_force(n, amplitude=1.0):
    """f = (A sin(2 pi y), 0), mean-free and divergence-free."""
    y = np.arange(n) / n
    f = np.zeros((n, n, 2))
    f[..., 0] = amplitude * np.sin(2 * np.pi * y)[None, :]
    return f


def random_force(rng, n):
    f = rng.standard_normal((n, n, 2))
    return f - f.mean(axis=(0, 1))


class TestLeray:
    def test_divergence_free_unchanged(self):
        n = 32
        ops = stokes._leray_operators(n, 1.0)
        kx, ky = ops[:2]
        rng = np.random.default_rng(0)
        fu = np.fft.rfft2(rng.standard_normal((n, n)))
        fv = np.fft.rfft2(rng.standard_normal((n, n)))
        pu, pv = stokes._project(fu, fv, *ops)
        qu, qv = stokes._project(pu, pv, *ops)
        assert np.max(np.abs(qu - pu)) <= 1e-12 * np.max(np.abs(pu))
        assert np.max(np.abs(qv - pv)) <= 1e-12 * np.max(np.abs(pv))
        # result is orthogonal to k
        assert np.max(np.abs(kx * pu + ky * pv)) <= 1e-9 * np.max(np.abs(pu))

    def test_gradient_mode_killed(self):
        n = 16
        ops = stokes._leray_operators(n, 1.0)
        kx, ky = ops[:2]
        # f_hat = k on a single mode of the rfft2 half spectrum
        fu = np.zeros((n, n // 2 + 1), complex)
        fv = np.zeros((n, n // 2 + 1), complex)
        fu[2, 3], fv[2, 3] = kx[2, 3], ky[2, 3]
        pu, pv = stokes._project(fu, fv, *ops)
        assert np.max(np.abs(pu)) <= 1e-14
        assert np.max(np.abs(pv)) <= 1e-14


class TestUnsteadyStep:
    def test_viscous_decay(self):
        n = 32
        grid = GridSpec.make(n)
        y = np.arange(n) / n
        u0 = np.sin(2 * np.pi * y)[None, :] * np.ones((n, 1))
        fluid = FluidState(u0.copy(), np.zeros((n, n)))
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
        fluid = FluidState(0.7 * mode, np.zeros((n, n)))
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
    CACHED = (stokes.grid_wavenumbers, stokes._leray_operators,
              stokes._unsteady_multipliers, stokes._steady_gain)

    def test_cached_arrays_are_read_only(self):
        arrays = list(stokes.grid_wavenumbers(16, 1.0)) \
            + list(stokes._leray_operators(16, 1.0)) \
            + list(stokes._unsteady_multipliers(16, 1.0, 20.0, 0.01, 1.0)) \
            + [stokes._steady_gain(16, 1.0, 1.0)]
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

