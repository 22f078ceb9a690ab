from dataclasses import replace

import numpy as np
import pytest

from ibstokes import diagnostics, schemes
from ibstokes.diagnostics import (DiagnosticsRecord, fit_rate, kinetic_energy,
                                  potential_energy, run_convergence_study, stability_probe)
from ibstokes.geometry import InterfaceState, init_ellipse
from ibstokes.grids import GridSpec
from ibstokes.io import RunConfig
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig
from ibstokes.stokes import FluidState


def fluid_of(u, v):
    """The fluid whose grid fields are u, v: their rfft2 half spectrum."""
    return FluidState((np.fft.rfft2(u), np.fft.rfft2(v)))


class TestEnergies:
    def test_kinetic_zero_velocity(self):
        assert kinetic_energy(FluidState.rest(16), 1.0, 1.0 / 16) == 0.0

    def test_kinetic_uniform_flow(self):
        n = 32
        f = fluid_of(np.ones((n, n)), np.zeros((n, n)))
        assert kinetic_energy(f, 2.0, 1.0 / n) == pytest.approx(1.0)

    def test_kinetic_shear_mode(self):
        # u = (sin 2 pi y, 0): K = rho/2 * mean(sin^2) = 1/4
        n = 64
        y = np.arange(n) / n
        u = np.sin(2 * np.pi * y)[None, :] * np.ones((n, 1))
        f = fluid_of(u, np.zeros((n, n)))
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
        coarse = init_ellipse(0.32, 0.24, (0.5, 0.5), 256, rest_radius=0.2)
        fine = init_ellipse(0.32, 0.24, (0.5, 0.5), 4096, rest_radius=0.2)
        p_c = potential_energy(coarse.s_alpha, 1.0, coarse.dalpha)
        p_f = potential_energy(fine.s_alpha, 1.0, fine.dalpha)
        assert abs(p_c - p_f) <= 1e-6

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        n = 32
        u = rng.standard_normal((n, n))
        f1 = fluid_of(u, 0 * u)
        f3 = fluid_of(3 * u, 0 * u)
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


# (mu, dt) at which each scheme refines cleanly to N = 256 over T = 0.2
SPATIAL_CASES = [
    ("explicit_steady", 1.0, 0.005),
    ("ssd1_steady", 1.0, 0.05),
    ("ifrk4_steady", 1.0, 0.02),
    ("stable_steady", 1.0, 0.05),
    pytest.param("ssd1_unsteady", 0.01, 0.01, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 10: ssd1_unsteady at N = 256, dt = 0.01 breaks "
            "(e(128) = 7e-2 against e(64) = 1.4e-3)"))),
]


@pytest.mark.parametrize("scheme, mu, dt", SPATIAL_CASES)
def test_spatial_self_convergence_first_order(scheme, mu, dt):
    # the grid as the harness's variable: h = 1/N for N = 32 -> 256 at
    # N_b = 2N, each final curve compared at the 64 material points every
    # N shares; the 4-point delta makes it first order, ratios e(N)/e(2N)
    # read 1.80-1.94
    def run_fn(h):
        config = RunConfig(scheme=scheme, n=round(1 / h), mu=mu, dt=dt, t_end=0.2)
        state = config.initial_state()
        for state in schemes.simulate(state, config.phys(), config.grid(),
                                      config.scheme_config(), config.n_steps()):
            pass
        shared = state.interface.curve.as_array()[::config.n_boundary // 64]
        return {"X": (shared, state.interface.length / 64)}

    ratios = 2.0 ** np.array(run_convergence_study(run_fn, [1 / 32, 1 / 64, 1 / 128])
                             ["X"]["pair_rates"])
    assert np.all((ratios >= 1.6) & (ratios <= 2.6)), ratios


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
        assert diagnostics._curve_in_box(final.interface.curve, (0.5, 0.5), 1.0)

    @staticmethod
    def shift_each_step(monkeypatch, dx):
        """Make every step's interface sit dx to the right of where the scheme
        put it: both anchors move, so its curve moves with them."""
        def moved(state, by):
            iface = state.interface
            return replace(state, interface=InterfaceState(
                iface.s_alpha, iface.phi, iface.ref_points + [by, 0.0], iface.length))

        def shifted(state, phys, grid, cfg):
            # each step starts from where the scheme put the last one
            start = moved(state, -dx) if state.step else state
            return moved(schemes.step(start, phys, grid, cfg), dx)
        monkeypatch.setattr(diagnostics, "step", shifted)

    def test_curve_out_of_box_is_unstable(self, monkeypatch):
        # a curve carried 1.6 domain lengths from where it started fails the
        # box check at the first step, with its energy still falling
        self.shift_each_step(monkeypatch, 1.6)
        verdict, records, final = self.probe_run(scheme="ssd1_unsteady", n=16, dt=0.1,
                                                 t_end=1, center_x=5.0)
        assert verdict == "unstable"
        assert final is not None and final.step == 1
        assert not records[-1].stable
        assert records[-1].total < records[0].total

    @pytest.mark.parametrize("dx", [0.0, 1.0])
    def test_box_is_centred_on_the_start(self, dx, monkeypatch):
        # a clean run centred four lengths out of the unit cell is judged
        # from where it started: it stays stable, also carried one length on
        self.shift_each_step(monkeypatch, dx)
        verdict, records, final = self.probe_run(scheme="ssd1_unsteady", n=16, dt=0.1,
                                                 t_end=1, center_x=5.0)
        assert verdict == "stable"
        assert final.step == 10
        assert all(r.stable for r in records)

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


def _records(scheme, steps=10, **settings):
    config = RunConfig(scheme=scheme, n=32, **settings)
    phys, grid = config.phys(), config.grid()
    states = [config.initial_state()]
    states += schemes.simulate(states[0], phys, grid, config.scheme_config(), steps)
    return states, [diagnostics.record_state(s, phys, grid) for s in states]


def test_stable_steady_records_anchor_drift():
    # the samples of the start state gave its anchors, which its rebuilt
    # curve meets to round-off; the stable scheme's steps then move the
    # anchors apart from the rebuilt curve
    _, records = _records("stable_steady", dt=1.0, mu=1.0)
    assert records[0].anchor_drift <= 1e-14
    assert max(r.anchor_drift for r in records[1:]) > 1e-2
    assert all((r.c_v, r.c_u) == (None, None) for r in records)


@pytest.mark.parametrize("scheme", ["ssd1_unsteady", "stable_unsteady"])
def test_records_carry_the_rescaling_coefficients(scheme):
    states, records = _records(scheme, steps=3, dt=0.05)
    assert [(r.c_v, r.c_u) for r in records] == [(s.c_v, s.c_u) for s in states]
    assert (records[0].c_v, records[0].c_u) == (None, None)
    if scheme == "ssd1_unsteady":
        assert all(r.c_v > 0 and r.c_u > 0 for r in records[1:])
    else:
        assert all((r.c_v, r.c_u) == (None, None) for r in records)


def test_csv_columns():
    names = DiagnosticsRecord.CSV_HEADER.split(",")
    assert names[8:] == ["max_salpha", "anchor_drift", "c_v", "c_u", "stable"]
    _, records = _records("ssd1_unsteady", steps=1, dt=0.05)
    row = records[1].csv_row().split(",")
    assert [float(v) for v in row[9:12]] == [records[1].anchor_drift, records[1].c_v,
                                             records[1].c_u]
    failed = DiagnosticsRecord.failure(2).csv_row().split(",")
    assert failed == ["2"] + ["nan"] * (len(names) - 2) + ["0"]
