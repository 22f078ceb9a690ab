from dataclasses import replace

import numpy as np
import pytest

from ibstokes import diagnostics, schemes, spectral, stokes
from ibstokes.bessel import SsdSymbolParams, ssd_symbol_s, ssd_symbol_t
from ibstokes.geometry import InterfaceState
from ibstokes.grids import GridSpec
from ibstokes.io import RunConfig
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig, StepState, _rescaling_coefficient
from ibstokes.stokes import FluidState

UNSTEADY = ["explicit_unsteady", "ssd1_unsteady", "ssd2_unsteady",
            "stable_unsteady", "second_order_unsteady"]


def model(n=64, mu=0.01, rest_radius=0.2):
    phys = PhysParams(rho=1.0, mu=mu, elastic=1.0,
                      interface_length=2 * np.pi * rest_radius)
    grid = GridSpec.make(n)
    return phys, grid


def march(phys, grid, cfg, n_steps, state=None):
    if state is None:
        state = schemes.initial_state(phys, grid)
    for s in schemes.simulate(state, phys, grid, cfg, n_steps):
        state = s
    return state


def unrescaled(phys, grid):
    """Initial state whose SSD rescaling coefficients are fixed at 1."""
    return replace(schemes.initial_state(phys, grid), c_v=1.0, c_u=1.0)


@pytest.mark.parametrize("scheme", UNSTEADY)
def test_equilibrium_fixed_point(scheme):
    phys = PhysParams(rho=1.0, mu=0.05, elastic=1.0)
    grid = GridSpec.make(32)
    nb = grid.n_boundary
    iface = InterfaceState(np.ones(nb), np.full(nb, np.pi / 2),
                           np.array([[1.5, 0.5], [-0.5, 0.5]]))
    state = StepState(iface, FluidState.rest(32), 0.0, 0, None,
                      c_v=1.0, c_u=1.0)
    cfg = SchemeConfig(scheme=scheme, dt=0.1)
    new = schemes.step(state, phys, grid, cfg)
    assert np.max(np.abs(new.interface.s_alpha - 1.0)) <= 1e-10
    assert np.max(np.abs(new.interface.phi - np.pi / 2)) <= 1e-10
    assert new.fluid.max_speed() <= 1e-12


class TestExplicitUnsteady:
    def test_rest_stays_at_rest_without_force(self):
        # equilibrium covers zero force; also check the fluid stays quiet
        phys, grid = model(32, mu=0.1)
        nb = grid.n_boundary
        iface = InterfaceState(np.ones(nb), np.full(nb, np.pi / 2),
                               np.array([[0.7, 0.5], [0.3, 0.5]]),
                               length=2 * np.pi)
        state = StepState(iface, FluidState.rest(32), 0.0, 0, None)
        cfg = SchemeConfig(scheme="explicit_unsteady", dt=0.01)
        phys2 = PhysParams(rho=1.0, mu=0.1, elastic=1.0)
        new = schemes.step(state, phys2, grid, cfg)
        assert new.fluid.max_speed() <= 1e-12

    def test_stability_dichotomy(self):
        phys, grid = model(64, mu=0.01)
        ok, _, _ = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid,
            SchemeConfig(scheme="explicit_unsteady", dt=0.005), 100)
        bad, _, _ = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid,
            SchemeConfig(scheme="explicit_unsteady", dt=0.05), 100)
        assert ok == "stable" and bad == "unstable"

    def test_energy_trend_down(self):
        phys, grid = model(64, mu=0.01)
        cfg = SchemeConfig(scheme="explicit_unsteady", dt=0.005)
        state = schemes.initial_state(phys, grid)
        recs = [diagnostics.record_state(state, phys, grid)]
        for s in schemes.simulate(state, phys, grid, cfg, 100):
            recs.append(diagnostics.record_state(s, phys, grid))
        assert recs[-1].total < recs[0].total


class TestStableUnsteady:
    def test_energy_monotone_for_all_dt(self):
        phys, grid = model(32, mu=0.01)
        for dt in (0.005, 0.05, 1.0):
            cfg = SchemeConfig(scheme="stable_unsteady", dt=dt)
            state = schemes.initial_state(phys, grid)
            energies = [diagnostics.record_state(state, phys, grid).total]
            for s in schemes.simulate(state, phys, grid, cfg, 10):
                energies.append(diagnostics.record_state(s, phys, grid).total)
            e0 = energies[0]
            assert all(b <= a + 1e-12 * e0 for a, b in zip(energies, energies[1:])), \
                f"energy rose at dt={dt}"

    def test_divergence_free_every_step(self):
        from ibstokes.stokes import divergence_inf_norm
        phys, grid = model(32, mu=0.01)
        cfg = SchemeConfig(scheme="stable_unsteady", dt=0.05)
        state = schemes.initial_state(phys, grid)
        for s in schemes.simulate(state, phys, grid, cfg, 5):
            assert divergence_inf_norm(s.fluid) <= 1e-10 * max(s.fluid.max_speed(), 1e-30)


class TestSsd1Unsteady:
    def test_consistency_with_explicit(self):
        phys, grid = model(32)
        dt = 1e-4
        a = march(phys, grid, SchemeConfig(scheme="explicit_unsteady", dt=dt), 10)
        b = march(phys, grid, SchemeConfig(scheme="ssd1_unsteady", dt=dt), 10,
                  unrescaled(phys, grid))
        dx = a.interface.curve.as_array() - b.interface.curve.as_array()
        err = np.sqrt(np.sum(dx**2) * a.interface.dalpha)
        assert err <= 1e-6

    def test_stable_at_dt_one(self):
        phys, grid = model(64, mu=0.01)
        cfg = SchemeConfig(scheme="ssd1_unsteady", dt=1.0)
        verdict, _, final = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid, cfg, 20)
        assert verdict == "stable"
        assert np.isfinite(final.c_v) and final.c_v > 0
        assert np.isfinite(final.c_u) and final.c_u > 0

    def test_area_drift_bound(self):
        # fixed-horizon run T=2 at dt=1/4: area loss within 5 percent
        phys, grid = model(64, mu=0.01)
        cfg = SchemeConfig(scheme="ssd1_unsteady", dt=0.25)
        state = schemes.initial_state(phys, grid)
        a0 = diagnostics.record_state(state, phys, grid).area
        state = march(phys, grid, cfg, 8)
        a1 = diagnostics.record_state(state, phys, grid).area
        assert abs(a0 - a1) <= 0.05 * a0


class TestSsd2Unsteady:
    def test_consistency_with_ssd1(self):
        phys, grid = model(32)
        dt = 1e-3
        a = march(phys, grid, SchemeConfig(scheme="ssd1_unsteady", dt=dt), 10,
                  unrescaled(phys, grid))
        b = march(phys, grid, SchemeConfig(scheme="ssd2_unsteady", dt=dt), 10,
                  unrescaled(phys, grid))
        assert np.max(np.abs(a.interface.s_alpha - b.interface.s_alpha)) <= 1e-5
        assert np.max(np.abs(a.interface.phi - b.interface.phi)) <= 1e-5

    def test_stable_at_dt_one_small_viscosity(self):
        # the coarser N=64 curve inverts in the first step at this dt; the
        # reported behavior is at N=128
        phys, grid = model(128, mu=0.005)
        cfg = SchemeConfig(scheme="ssd2_unsteady", dt=1.0)
        state = schemes.initial_state(phys, grid)
        energies = [diagnostics.record_state(state, phys, grid).total]
        for s in schemes.simulate(state, phys, grid, cfg, 20):
            energies.append(diagnostics.record_state(s, phys, grid).total)
        assert all(np.isfinite(energies))
        # observed decrease with the documented cumulative slack
        assert all(b <= a + 1e-3 * energies[0] for a, b in zip(energies, energies[1:]))


class TestSecondOrder:
    def test_temporal_convergence_second_order(self):
        phys, grid = model(64, mu=0.01)

        def run(dt):
            cfg = SchemeConfig(scheme="second_order_unsteady", dt=dt)
            st = march(phys, grid, cfg, round(1.0 / dt))
            return {"X": (st.interface.curve.as_array(), st.interface.dalpha)}

        res = diagnostics.run_convergence_study(run, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert res["X"]["rate"] == pytest.approx(2.0, abs=0.5)

    def test_stable_where_explicit_is_not(self):
        phys, grid = model(64, mu=0.01)
        second, _, _ = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid,
            SchemeConfig(scheme="second_order_unsteady", dt=0.02), 50)
        explicit, _, _ = diagnostics.stability_probe(
            schemes.initial_state(phys, grid), phys, grid,
            SchemeConfig(scheme="explicit_unsteady", dt=0.02), 50)
        assert second == "stable" and explicit == "unstable"


class TestRescaling:
    def test_equilibrium_start_disables_rescaling(self):
        # a vanishing leading term gives C = 1, which the run's records show
        zero = np.zeros(8)
        assert _rescaling_coefficient(None, zero, lambda: (zero, 0.0)) == 1.0
        assert _rescaling_coefficient(None, np.ones(8), lambda: (1e-16 * np.ones(8), 1.0)) == 1.0

    def test_self_ratio_is_one(self):
        x = np.sin(np.arange(8))
        assert _rescaling_coefficient(None, x, lambda: (x, 1.0)) == 1.0
        # a stored coefficient wins, so a stored 1 runs unrescaled
        assert _rescaling_coefficient(0.5, x, lambda: (2 * x, 1.0)) == 0.5
        assert _rescaling_coefficient(1.0, x, lambda: (2 * x, 1.0)) == 1.0

    @pytest.mark.parametrize("scheme", ["ssd1_unsteady", "ssd2_unsteady"])
    @pytest.mark.parametrize("radius, n, dt", [(0.25, 16, 0.1), (0.3, 32, 0.05)])
    def test_circle_start_is_unrescaled(self, scheme, radius, n, dt):
        # a stretched circle has constant s_alpha and phi: both leading terms
        # are round-off (C_V's 6e-12 and 4e-11 here), measured against the
        # size of their operators, and must not set C_V or C_U
        config = RunConfig(scheme=scheme, n=n, dt=dt, ellipse_a=radius, ellipse_b=radius)
        state = schemes.step(config.initial_state(), config.phys(), config.grid(),
                             config.scheme_config())
        assert (state.c_v, state.c_u) == (1.0, 1.0)

    def test_coefficients_frozen_after_first_step(self):
        phys, grid = model(32, mu=0.01)
        cfg = SchemeConfig(scheme="ssd1_unsteady", dt=0.1)
        state = schemes.initial_state(phys, grid)
        assert (state.c_v, state.c_u) == (None, None)
        state = schemes.step(state, phys, grid, cfg)
        c_v1, c_u1 = state.c_v, state.c_u
        state = schemes.step(state, phys, grid, cfg)
        assert (state.c_v, state.c_u) == (c_v1, c_u1)
        assert c_v1 > 0 and np.isfinite(c_v1)
        assert c_u1 > 0 and np.isfinite(c_u1)


def test_all_unsteady_schemes_agree_with_explicit_after_10_tiny_steps():
    phys, grid = model(32)
    dt = 1e-4
    ref = march(phys, grid, SchemeConfig(scheme="explicit_unsteady", dt=dt), 10)
    w = phys.interface_length / grid.n_boundary
    for scheme in UNSTEADY[1:]:
        got = march(phys, grid, SchemeConfig(scheme=scheme, dt=dt), 10, unrescaled(phys, grid))
        dx = got.interface.curve.as_array() - ref.interface.curve.as_array()
        err = np.sqrt(np.sum(dx**2) * w)
        assert err <= 1e-5, f"{scheme} drifted {err:.2e} from the explicit reference"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 17: stable_unsteady at dt = 1 amplifies a 1e-10 nudge of s_alpha "
    "about 1.9x per step (1.4e-7 / 9.1e-5 / 1.5e-3 after 10 / 20 / 30 steps)"))
def test_stable_unsteady_damps_a_nudge_at_dt_1():
    config = RunConfig(scheme="stable_unsteady", n=64, mu=0.01, dt=1.0)
    start = config.initial_state()
    iface = start.interface
    z = np.random.default_rng(0).standard_normal(iface.n_nodes)
    nudged = replace(start, interface=InterfaceState(
        iface.s_alpha * (1.0 + 1e-10 * z), iface.phi, iface.ref_points, iface.length))
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    s, s_nudged = (march(phys, grid, cfg, 20, state).interface.s_alpha
                   for state in (start, nudged))
    assert np.max(np.abs(s_nudged - s)) <= 1e-6 * np.max(np.abs(s))


def test_ssd_symbols_recomputed_per_step():
    # the symbol parameters follow the previous step's state
    s = np.array([1.1, 1.3, 1.2, 1.4])
    p = SsdSymbolParams.from_state(s, 1.0, 0.01, 1.0, 0.1)
    assert p.s_min == pytest.approx(1.1)
    assert p.s_max_excess == pytest.approx(0.4)
    assert ssd_symbol_t(3.0, p) < 0
    assert ssd_symbol_s(3.0, p) < 0


@pytest.mark.parametrize("scheme", UNSTEADY)
def test_each_fluid_solve_transforms_only_the_force(scheme, monkeypatch):
    # one rfft2 and one irfft2 per component per fluid solve, on every step
    # from the fluid at rest on: each fluid carries its half spectrum into
    # the next solve, so none is transformed again
    config = RunConfig(scheme=scheme, n=16, mu=0.01,
                       dt=0.005 if scheme == "explicit_unsteady" else 0.05)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    counts = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((np.fft, "rfft2"), (np.fft, "irfft2"), (stokes, "_spectral_solve")):
        count(owner, name)
    state = config.initial_state()
    for _ in range(3):
        counts.update(rfft2=0, irfft2=0, _spectral_solve=0)
        state = schemes.step(state, phys, grid, cfg)
        assert counts["_spectral_solve"] > 0
        assert counts["rfft2"] == counts["irfft2"] == 2 * counts["_spectral_solve"], counts
