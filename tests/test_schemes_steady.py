import numpy as np
import pytest

from ibstokes import coupling, diagnostics, schemes, spectral
from ibstokes.errors import BlowupError
from ibstokes.geometry import InterfaceState, elastic_force, enclosed_area, theta_derivative
from ibstokes.grids import GridSpec
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig, StepState
from ibstokes.stokes import FluidState

STEADY = ["explicit_steady", "ssd1_steady", "ssd2_steady", "ifrk4_steady", "stable_steady"]


def model(n=64, mu=1.0, rest_radius=0.2, n_boundary=None):
    phys = PhysParams(rho=1.0, mu=mu, elastic=1.0,
                      interface_length=2 * np.pi * rest_radius)
    grid = GridSpec.make(n, n_boundary=n_boundary)
    return phys, grid


def equilibrium_state(n_boundary):
    """Circle with s_alpha = 1: zero elastic force, exact fixed point."""
    ang = 2 * np.pi * np.arange(n_boundary) / n_boundary
    refs = np.array([[1.5, 0.5], [-0.5, 0.5]])
    iface = InterfaceState(np.ones(n_boundary), np.full(n_boundary, np.pi / 2), refs)
    return StepState(iface, FluidState.rest(n_boundary // 2), 0.0, 0, None)


def march(phys, grid, cfg, n_steps, state=None):
    if state is None:
        state = schemes.initial_state(phys, grid)
    for s in schemes.simulate(state, phys, grid, cfg, n_steps):
        state = s
    return state


@pytest.mark.parametrize("scheme", STEADY)
def test_equilibrium_fixed_point(scheme):
    phys = PhysParams(rho=1.0, mu=1.0, elastic=1.0)  # interface length 2 pi
    grid = GridSpec.make(32)
    state = equilibrium_state(grid.n_boundary)
    cfg = SchemeConfig(scheme=scheme, dt=0.5)
    new = schemes.step(state, phys, grid, cfg)
    assert np.max(np.abs(new.interface.s_alpha - 1.0)) <= 1e-10
    assert np.max(np.abs(new.interface.phi - np.pi / 2)) <= 1e-10
    assert np.max(np.abs(new.interface.ref_points - state.interface.ref_points)) <= 1e-10


class TestExplicitSteady:
    def test_energy_decreases_at_small_dt(self):
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="explicit_steady", dt=0.1)
        state = schemes.initial_state(phys, grid)
        energies = [diagnostics.record_state(state, phys, grid).total]
        for s in schemes.simulate(state, phys, grid, cfg, 100):
            energies.append(diagnostics.record_state(s, phys, grid).total)
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_blows_up_at_large_dt(self):
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="explicit_steady", dt=1.0)
        verdict, _, _ = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid, cfg, 50)
        assert verdict == "unstable"

    def test_blowup_error_carries_step_index(self):
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="explicit_steady", dt=5.0)
        state = schemes.initial_state(phys, grid)
        with pytest.raises(BlowupError) as err:
            for s in schemes.simulate(state, phys, grid, cfg, 100):
                pass
        assert err.value.step >= 1


class TestSsd1Steady:
    def test_stable_at_large_dt(self):
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="ssd1_steady", dt=10.0)
        verdict, recs, final = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid, cfg, 20)
        assert verdict == "stable"
        # final shape is an approximate circle
        from ibstokes.geometry import radius_variation
        assert radius_variation(final.interface.curve) <= 2e-2

    def test_high_mode_contraction_factor(self):
        # frozen-coefficient analysis: with the Hilbert leading term
        # -(S_b/4mu) H D s as the right-hand side, the implicit update
        # contracts a mode-32 perturbation of s_alpha by 1/(1 + dt (S_b/4mu) 32)
        nb = 128
        phys = PhysParams(rho=1.0, mu=1.0, elastic=1.0)
        eps = 1e-6
        ang = 2 * np.pi * np.arange(nb) / nb
        iface = InterfaceState(1.0 + eps * np.cos(32 * ang), np.full(nb, np.pi / 2),
                               np.array([[1.5, 0.5], [-0.5, 0.5]]))
        eta, _ = schemes._steady_rates(iface, phys)
        dt = 0.1
        rhs = spectral.apply_symbol_1d(iface.s_alpha, -eta)
        s_new = iface.s_alpha + schemes._increment(-eta, rhs, dt, 1)
        m32 = np.abs(np.fft.fft(s_new))[32] / nb
        expect = (eps / 2) / (1.0 + dt * 0.25 * 32)
        assert m32 == pytest.approx(expect, rel=0.05)

    def test_consistency_with_explicit(self):
        phys, grid = model(32)
        dt = 1e-3
        a = march(phys, grid, SchemeConfig(scheme="explicit_steady", dt=dt), 10)
        b = march(phys, grid, SchemeConfig(scheme="ssd1_steady", dt=dt), 10)
        assert np.max(np.abs(a.interface.s_alpha - b.interface.s_alpha)) <= 1e-5
        assert np.max(np.abs(a.interface.phi - b.interface.phi)) <= 1e-5

    def test_area_balance_one_step(self):
        # the mean stretch is set so that the rebuilt curve's area changes by
        # the flux of the step's normal velocity: A1 - A0 = -dt sum U0 s0 dalpha
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="ssd1_steady", dt=4.0)
        state = schemes.initial_state(phys, grid)
        iface = state.interface
        u, _ = schemes._step_map(state, phys, grid, cfg)(
            elastic_force(iface.s_alpha, theta_derivative(iface), phys.elastic, iface.length))
        flux = cfg.dt * np.sum(u[:iface.n_nodes] * iface.s_alpha) * iface.dalpha
        a0 = enclosed_area(state.interface.curve)
        a1 = enclosed_area(schemes.step(state, phys, grid, cfg).interface.curve)
        assert abs((a1 - a0) + flux) <= 1e-12 * a0

    def test_area_kept_at_large_dt(self):
        phys, grid = model(64)
        state = schemes.initial_state(phys, grid)
        final = march(phys, grid, SchemeConfig(scheme="ssd1_steady", dt=10.0), 20, state)
        a0 = enclosed_area(state.interface.curve)
        assert abs(enclosed_area(final.interface.curve) - a0) <= 0.01 * a0


class TestSsd2Steady:
    def test_matches_ssd1_at_small_dt(self):
        phys, grid = model(32)
        dt = 1e-3
        a = march(phys, grid, SchemeConfig(scheme="ssd1_steady", dt=dt), 10)
        b = march(phys, grid, SchemeConfig(scheme="ssd2_steady", dt=dt), 10)
        # both reduce to the explicit limit; differences are O(dt^2) per step
        assert np.max(np.abs(a.interface.s_alpha - b.interface.s_alpha)) <= 1e-5
        assert np.max(np.abs(a.interface.phi - b.interface.phi)) <= 1e-5

    def test_stable_at_large_dt_with_energy_decrease(self):
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="ssd2_steady", dt=10.0)
        state = schemes.initial_state(phys, grid)
        energies = [diagnostics.record_state(state, phys, grid).total]
        for s in schemes.simulate(state, phys, grid, cfg, 20):
            energies.append(diagnostics.record_state(s, phys, grid).total)
        assert all(np.isfinite(energies))
        assert all(b <= a + 1e-3 * energies[0] for a, b in zip(energies, energies[1:]))


class TestIfrk4Steady:
    def test_pure_linear_mode_is_exact(self):
        # with the nonlinear part zeroed the integrating factor reproduces
        # exp(-eta dt) exactly
        rate = np.array([0.0, 1.0, 4.0, 25.0])
        y0 = np.array([1.0, 1.0, 2.0, -3.0], dtype=complex)
        out = schemes._ifrk4_diagonal(y0, rate, 0.7, lambda y: 0.0 * y)
        assert np.max(np.abs(out - y0 * np.exp(-rate * 0.7))) <= 1e-14

    @staticmethod
    def error_ratios(n_boundary):
        """Successive curve-error ratios of ifrk4_steady on the grid path at
        N = 64, T = 0.4, dt 0.05 -> 0.00625."""
        phys, grid = model(64, n_boundary=n_boundary)
        T = 0.4
        dts = (0.05, 0.025, 0.0125, 0.00625)
        sols = {}
        for dt in dts:
            cfg = SchemeConfig(scheme="ifrk4_steady", dt=dt)
            sols[dt] = march(phys, grid, cfg, round(T / dt)).interface.curve.as_array()
        w = phys.interface_length / grid.n_boundary
        errs = [np.sqrt(np.sum((sols[a] - sols[b]) ** 2) * w) for a, b in zip(dts, dts[1:])]
        return [errs[i] / errs[i + 1] for i in range(2)]

    def test_temporal_self_convergence_fourth_order(self):
        # N_b = N/2, an interface no finer than the grid: the ratios read
        # 12.9 / 13.0
        for r in self.error_ratios(32):
            assert 10.0 <= r <= 24.0  # fourth order: ratio about 16

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: at the default N_b = 2N the continuum integrating-factor rate "
        "turns the modes the 4-point delta cannot see into a stiff explicit term "
        "(ratios 1.95 / 5.90)"))
    def test_temporal_self_convergence_fourth_order_default_n_boundary(self):
        for r in self.error_ratios(None):
            assert 10.0 <= r <= 24.0

    def test_stable_at_large_dt(self):
        phys, grid = model(64)
        cfg = SchemeConfig(scheme="ifrk4_steady", dt=10.0)
        verdict, _, final = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid, cfg, 20)
        assert verdict == "stable"


class TestStableSteady:
    def test_energy_monotone_for_all_dt(self):
        phys, grid = model(32)
        for dt in (0.1, 1.0, 10.0):
            cfg = SchemeConfig(scheme="stable_steady", dt=dt)
            state = schemes.initial_state(phys, grid)
            energies = [diagnostics.record_state(state, phys, grid).total]
            for s in schemes.simulate(state, phys, grid, cfg, 10):
                energies.append(diagnostics.record_state(s, phys, grid).total)
            e0 = energies[0]
            assert all(b <= a + 1e-12 * e0 for a, b in zip(energies, energies[1:])), \
                f"energy rose at dt={dt}"

    def test_agreement_with_explicit_at_small_dt(self):
        phys, grid = model(32)
        dt = 1e-3
        a = march(phys, grid, SchemeConfig(scheme="explicit_steady", dt=dt), 10)
        b = march(phys, grid, SchemeConfig(scheme="stable_steady", dt=dt), 10)
        assert np.max(np.abs(a.interface.s_alpha - b.interface.s_alpha)) <= 1e-5
        assert np.max(np.abs(a.interface.phi - b.interface.phi)) <= 1e-5

    def test_implicit_solve_residual(self):
        # the dense Step-1 system is affine: verify the solved update
        # satisfies the defining relation by re-applying the operator
        phys, grid = model(32)
        cfg = SchemeConfig(scheme="stable_steady", dt=1.0)
        state = schemes.initial_state(phys, grid)
        new = schemes.step(state, phys, grid, cfg)
        # re-deriving the velocities from the solution must reproduce the
        # s update: s_new = s_old + dt*(D V - D theta U)
        from ibstokes.geometry import elastic_force, tangent_normal, theta_derivative
        from ibstokes.stokes import steady_stokes_grid_solve
        iface = state.interface
        tau, nrm = tangent_normal(iface)
        dth = theta_derivative(iface)
        force = phys.elastic * (
            spectral.derivative_1d(new.interface.s_alpha, period=iface.length)[:, None] * tau
            + ((new.interface.s_alpha - 1.0) * dth)[:, None] * nrm)
        stencils = coupling.delta_stencils(state.interface.curve, grid)
        fl = steady_stokes_grid_solve(coupling.spread(stencils, force, grid, iface.dalpha),
                                      phys.mu, grid)
        uv = coupling.interpolate(stencils, (fl.u, fl.v))
        u_n = uv[:, 0] * nrm[:, 0] + uv[:, 1] * nrm[:, 1]
        u_t = uv[:, 0] * tau[:, 0] + uv[:, 1] * tau[:, 1]
        rhs = spectral.derivative_1d(u_t, period=iface.length) - dth * u_n
        resid = new.interface.s_alpha - (iface.s_alpha + cfg.dt * rhs)
        assert np.max(np.abs(resid)) <= 1e-9


def test_all_steady_schemes_agree_with_explicit_after_10_tiny_steps():
    phys, grid = model(32)
    dt = 1e-4
    ref = march(phys, grid, SchemeConfig(scheme="explicit_steady", dt=dt), 10)
    w = phys.interface_length / grid.n_boundary
    for scheme in STEADY[1:]:
        got = march(phys, grid, SchemeConfig(scheme=scheme, dt=dt), 10)
        dx = got.interface.curve.as_array() - ref.interface.curve.as_array()
        err = np.sqrt(np.sum(dx**2) * w)
        assert err <= 1e-5, f"{scheme} drifted {err:.2e} from the explicit reference"
