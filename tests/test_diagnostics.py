import numpy as np
import pytest

from ibstokes import diagnostics, schemes
from ibstokes.diagnostics import (fit_rate, kinetic_energy, potential_energy,
                                  run_convergence_study, stability_probe)
from ibstokes.geometry import init_ellipse
from ibstokes.grids import GridSpec
from ibstokes.io import RunConfig
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig
from ibstokes.stokes import FluidState


class TestEnergies:
    def test_kinetic_zero_velocity(self):
        assert kinetic_energy(FluidState.rest(16), 1.0, 1.0 / 16) == 0.0

    def test_kinetic_uniform_flow(self):
        n = 32
        f = FluidState(np.ones((n, n)), np.zeros((n, n)))
        assert kinetic_energy(f, 2.0, 1.0 / n) == pytest.approx(1.0)

    def test_kinetic_shear_mode(self):
        # u = (sin 2 pi y, 0): K = rho/2 * mean(sin^2) = 1/4
        n = 64
        y = np.arange(n) / n
        u = np.sin(2 * np.pi * y)[None, :] * np.ones((n, 1))
        f = FluidState(u, np.zeros((n, n)))
        assert kinetic_energy(f, 1.0, 1.0 / n) == pytest.approx(0.25, abs=1e-12)

    def test_kinetic_none_fluid(self):
        assert kinetic_energy(None, 1.0, 0.1) == 0.0

    def test_potential_rest(self):
        assert potential_energy(np.ones(64), 1.0, 2 * np.pi / 64) == 0.0

    def test_potential_uniform_stretch(self):
        # s = 1.5 over a 2 pi parameter domain: (1/2)(0.25)(2 pi) = pi/4
        assert potential_energy(np.full(64, 1.5), 1.0, 2 * np.pi / 64) \
            == pytest.approx(np.pi / 4)

    def test_potential_ellipse_against_refined_quadrature(self):
        coarse, _ = init_ellipse(0.32, 0.24, (0.5, 0.5), 256, rest_radius=0.2)
        fine, _ = init_ellipse(0.32, 0.24, (0.5, 0.5), 4096, rest_radius=0.2)
        p_c = potential_energy(coarse.s_alpha, 1.0, coarse.dalpha)
        p_f = potential_energy(fine.s_alpha, 1.0, fine.dalpha)
        assert abs(p_c - p_f) <= 1e-6

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        n = 32
        u = rng.standard_normal((n, n))
        f1 = FluidState(u, 0 * u)
        f3 = FluidState(3 * u, 0 * u)
        assert kinetic_energy(f3, 1.0, 1.0 / n) \
            == pytest.approx(9 * kinetic_energy(f1, 1.0, 1.0 / n))
        s = 1.0 + rng.standard_normal(64) * 0.1
        p1 = potential_energy(s, 1.0, 0.1)
        p2 = potential_energy(1.0 + 2 * (s - 1.0), 1.0, 0.1)
        assert p2 == pytest.approx(4 * p1)


class TestConvergenceHarness:
    def test_synthetic_exact_second_order(self):
        # manufactured integrator with error exactly C dt^2
        def run(dt):
            return {"y": (np.array([np.exp(-1.0) + 0.37 * dt**2]), 1.0)}

        res = run_convergence_study(run, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert res["y"]["rate"] == pytest.approx(2.0, abs=0.01)

    def test_real_midpoint_integrator(self):
        # explicit midpoint on y' = -y reproduces its analytic order
        def run(dt):
            y = 1.0
            for _ in range(round(1.0 / dt)):
                y = y + dt * -(y + 0.5 * dt * -y)
            return {"y": (np.array([y]), 1.0)}

        res = run_convergence_study(run, [1 / 16, 1 / 32, 1 / 64, 1 / 128])
        assert res["y"]["rate"] == pytest.approx(2.0, abs=0.05)

    def test_requires_halving_chain(self):
        with pytest.raises(ValueError):
            run_convergence_study(lambda dt: {"y": (np.array([dt]), 1.0)},
                                  [0.1, 0.07])

    def test_fit_rate_pairs(self):
        rate, pairs = fit_rate([0.2, 0.1, 0.05], [4e-2, 1e-2, 2.5e-3])
        assert rate == pytest.approx(2.0, abs=1e-9)
        assert pairs == pytest.approx([2.0, 2.0])


class TestStabilityProbe:
    def probe(self, dt, steps=50, n=64):
        phys = PhysParams(rho=1.0, mu=1.0, elastic=1.0,
                          interface_length=2 * np.pi * 0.2)
        grid = GridSpec.make(n)
        cfg = SchemeConfig(scheme="explicit_steady", dt=dt)
        state = schemes.initial_state(phys, grid)
        return stability_probe(state, phys, grid, cfg, steps)

    def test_stable_small_dt(self):
        verdict, records, final = self.probe(0.1)
        assert verdict == "stable"
        assert final is not None
        assert all(r.stable for r in records)

    def test_unstable_large_dt(self):
        verdict, records, _ = self.probe(1.0)
        assert verdict == "unstable"
        assert not records[-1].stable

    @staticmethod
    def probe_run(**settings):
        config = RunConfig(**settings)
        return stability_probe(config.initial_state(), config.phys(), config.grid(),
                               config.scheme_config(), config.n_steps())

    def test_energy_rise_is_unstable(self):
        # ssd1_unsteady at dt = 2 raises no error: its energy passes 10x the
        # initial value at step 2 with the curve still in the box
        verdict, records, final = self.probe_run(scheme="ssd1_unsteady", n=32, dt=2.0, t_end=8)
        assert verdict == "unstable"
        assert final is not None and final.step == 2
        assert not records[-1].stable
        assert records[-1].total > 10 * records[0].total
        assert diagnostics._curve_in_box(final.curve, 1.0)

    def test_curve_out_of_box_is_unstable(self):
        # a curve centred four lengths out of the box fails the box check at
        # the first step, with its energy still falling
        verdict, records, final = self.probe_run(scheme="ssd1_unsteady", n=16, dt=0.1,
                                                 t_end=1, center_x=5.0)
        assert verdict == "unstable"
        assert final is not None and final.step == 1
        assert not records[-1].stable
        assert records[-1].total < records[0].total

    def test_deterministic(self):
        v1, r1, _ = self.probe(0.1, steps=10)
        v2, r2, _ = self.probe(0.1, steps=10)
        assert v1 == v2
        assert [x.csv_row() for x in r1] == [x.csv_row() for x in r2]


def test_record_fields_consistent():
    phys = PhysParams(rho=1.0, mu=0.01, elastic=1.0, interface_length=2 * np.pi * 0.2)
    grid = GridSpec.make(32)
    state = schemes.initial_state(phys, grid)
    rec = diagnostics.record_state(state, phys, grid)
    assert rec.total == rec.kinetic + rec.potential
    assert rec.kinetic >= 0 and rec.potential >= 0
    assert rec.min_salpha == pytest.approx(1.2, abs=1e-9)
    assert rec.max_salpha == pytest.approx(1.6, abs=1e-9)
