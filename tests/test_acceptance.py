"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9a (first-kind steady scheme, dt = 4, area loss <= 5%) holds
because ssd1_steady sets its mean stretch mode from the discrete area
balance; see choice (b) in the step_semi_implicit docstring.

Beside them: criterion 3's energy bound on the stable schemes' GMRES path,
a strict xfail that pins stable_steady's area loss at criterion 9a's
setting (ROADMAP item 6), and two that pin ssd1_unsteady's area loss in
runs the stability probe calls stable (ROADMAP item 10).

Set IBSTOKES_ACCEPT_FULL=1 to include the long N=512 convergence leg.
"""

import os
import time

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from ibstokes import bessel, coupling, diagnostics, schemes, spectral, stokes
from ibstokes.bessel import SsdSymbolParams
from ibstokes.coupling import inner_product_gamma, inner_product_omega
from ibstokes.geometry import CurveSamples, radius_variation
from ibstokes.grids import GridSpec
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig
from ibstokes.stokes import FluidState

FULL = os.environ.get("IBSTOKES_ACCEPT_FULL") == "1"


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def model(n, mu, rest_radius=0.2):
    phys = PhysParams(rho=1.0, mu=mu, elastic=1.0,
                      interface_length=2 * np.pi * rest_radius)
    grid = GridSpec.make(n)
    return phys, grid


def test_criterion_1_adjointness():
    rng = np.random.default_rng(42)
    grid = GridSpec.make(64)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        nb = 128
        ang = 2 * np.pi * np.arange(nb) / nb
        r = 0.2 + 0.1 * rng.random()
        curve = CurveSamples(
            0.5 + r * np.cos(ang) + 0.02 * rng.standard_normal(nb) / 4,
            0.5 + r * np.sin(ang) + 0.02 * rng.standard_normal(nb) / 4)
        g = rng.standard_normal(nb)
        u = rng.standard_normal((64, 64))
        stencils = coupling.delta_stencils(curve, grid)
        dalpha = 2 * np.pi / nb     # the curve's spacing over the parameter interval
        lhs = inner_product_omega(u, coupling.spread(stencils, g, grid, dalpha), grid.h)
        rhs = inner_product_gamma(coupling.interpolate(stencils, (u,))[:, 0], g, dalpha)
        scale = np.linalg.norm(u) * np.linalg.norm(g)
        worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"max normalized adjointness defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_discrete_divergence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (32, 64):
        grid = GridSpec.make(n)
        f = rng.standard_normal((n, n, 2))
        f -= f.mean(axis=(0, 1))
        out_s = stokes.steady_stokes_grid_solve(f, 0.7, grid)
        worst = max(worst, stokes.divergence_inf_norm(out_s) / out_s.max_speed())
        out_u = stokes.unsteady_stokes_step(FluidState.rest(n), f, 1.0, 0.01, 0.05, grid)
        worst = max(worst, stokes.divergence_inf_norm(out_u) / out_u.max_speed())
    # and along a coupled run
    phys, grid = model(32, 0.01)
    cfg = SchemeConfig(scheme="explicit_unsteady", dt=0.005)
    state = schemes.initial_state(phys, grid)
    for s in schemes.simulate(state, phys, grid, cfg, 10):
        worst = max(worst, stokes.divergence_inf_norm(s.fluid)
                    / max(s.fluid.max_speed(), 1e-30))
    report(2, worst <= 1e-10, f"max relative divergence {worst:.2e}")


def _energy_monotone(scheme, dt, mu, n, n_steps):
    phys, grid = model(n, mu)
    cfg = SchemeConfig(scheme=scheme, dt=dt)
    state = schemes.initial_state(phys, grid)
    energies = [diagnostics.record_state(state, phys, grid).total]
    for s in schemes.simulate(state, phys, grid, cfg, n_steps):
        energies.append(diagnostics.record_state(s, phys, grid).total)
    e0 = energies[0]
    worst = max(b - a for a, b in zip(energies, energies[1:]))
    return worst <= 1e-12 * e0, worst / e0


def test_criterion_3_unconditional_stability():
    results = []
    for dt in (0.1, 1.0, 10.0):
        ok, rise = _energy_monotone("stable_steady", dt, 1.0, 64, 100)
        results.append((f"steady dt={dt}", ok, rise))
    for dt in (0.005, 0.05, 1.0):
        ok, rise = _energy_monotone("stable_unsteady", dt, 0.01, 64, 100)
        results.append((f"unsteady dt={dt}", ok, rise))
    all_ok = all(ok for _, ok, _ in results)
    detail = "; ".join(f"{lbl}: max rise {rise:.1e}*E0" for lbl, ok, rise in results)
    report(3, all_ok, detail)


@pytest.mark.parametrize("scheme, dt, mu", [("stable_steady", 10.0, 1.0),
                                            ("stable_unsteady", 1.0, 0.01)])
def test_stable_energy_monotone_through_gmres(scheme, dt, mu, monkeypatch):
    # criterion 3 runs the dense path (N_b = 128); N_b = 32 > DENSE_MAX = 16
    # sends both implicit systems through GMRES
    monkeypatch.setattr(schemes, "DENSE_MAX", 16)
    ok, rise = _energy_monotone(scheme, dt, mu, 16, 20)
    assert ok, f"{scheme} dt={dt} through GMRES: max rise {rise:.1e}*E0"


def test_criterion_4_steady_stability_dichotomy():
    phys, grid = model(128, 1.0)

    def probe(scheme, dt, steps):
        cfg = SchemeConfig(scheme=scheme, dt=dt)
        return diagnostics.stability_probe(schemes.initial_state(phys, grid),
                                           phys, grid, cfg, steps)

    v1, _, _ = probe("explicit_steady", 0.1, 200)
    v2, _, _ = probe("explicit_steady", 1.0, 50)
    v3, _, f3 = probe("ssd1_steady", 10.0, 20)
    v4, _, f4 = probe("ifrk4_steady", 10.0, 20)
    circ3 = radius_variation(f3.interface.curve) if f3 else np.inf
    circ4 = radius_variation(f4.interface.curve) if f4 else np.inf
    ok = (v1 == "stable" and v2 == "unstable" and v3 == "stable" and v4 == "stable"
          and circ3 <= 2e-2 and circ4 <= 2e-2)
    report(4, ok, f"explicit@0.1={v1}, explicit@1={v2}, ssd1@10={v3} (circ {circ3:.1e}), "
                  f"ifrk4@10={v4} (circ {circ4:.1e})")


def test_criterion_5_unsteady_stability_dichotomy():
    phys, grid = model(128, 0.01)

    def probe(scheme, dt, steps):
        cfg = SchemeConfig(scheme=scheme, dt=dt)
        v, _, _ = diagnostics.stability_probe(schemes.initial_state(phys, grid),
                                              phys, grid, cfg, steps)
        return v

    v1 = probe("explicit_unsteady", 0.005, 200)
    v2 = probe("explicit_unsteady", 0.05, 100)
    v3 = probe("ssd1_unsteady", 1.0, 20)
    ok = v1 == "stable" and v2 == "unstable" and v3 == "stable"
    report(5, ok, f"explicit@0.005={v1}, explicit@0.05={v2}, ssd1@1={v3}")


def _convergence_rate(n, mu, dts, t_end=1.0):
    phys, grid = model(n, mu)

    def run(dt):
        cfg = SchemeConfig(scheme="second_order_unsteady", dt=dt)
        st = schemes.initial_state(phys, grid)
        for s in schemes.simulate(st, phys, grid, cfg, round(t_end / dt)):
            st = s
        return {"X": (st.interface.curve.as_array(), st.interface.dalpha),
                "u": (np.stack([st.fluid.u, st.fluid.v], -1), grid.h**2)}

    return diagnostics.run_convergence_study(run, dts)


def test_criterion_6_temporal_convergence():
    dts = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    details = []
    ok = True
    for mu in (0.05, 0.01):
        res = _convergence_rate(256, mu, dts)
        rate = res["X"]["rate"]
        ok = ok and abs(rate - 2.0) <= 0.4
        details.append(f"mu={mu}: X-rate {rate:.2f}")
    if FULL:
        res = _convergence_rate(512, 0.005, dts)
        u_rate = res["u"]["rate"]
        ok = ok and abs(u_rate - 1.96) <= 0.4
        details.append(f"mu=0.005 (N=512): u-rate {u_rate:.2f}")
    else:
        details.append("N=512 leg skipped (set IBSTOKES_ACCEPT_FULL=1)")
    report(6, ok, "; ".join(details))


def test_criterion_7_k0_kernel_identity():
    worst = 0.0
    for beta in (0.5, 2.0, 10.0):
        for k in (1, 2, 4, 8):
            for a in (0.0, 0.4):
                tail = min(50.0 / beta, 200.0)
                val, _ = quad(lambda u: special.k0(beta * abs(u)) * np.cos(k * (a - u)),
                              -tail, tail, points=[0.0], limit=400)
                val /= np.pi
                expect = np.cos(k * a) * bessel.k0_convolution_symbol(beta, k)
                worst = max(worst, abs(val - expect))
    report(7, worst <= 1e-6, f"max kernel-identity defect {worst:.2e}")


def test_criterion_8_ssd_symbol_asymptotics():
    worst = 0.0
    s_exc = 0.4
    # high-viscosity limit: both symbols approach the steady-flow rates
    mu = 1e4
    p = SsdSymbolParams(elastic=1.0, rho=1.0, dt=0.1,
                        lam=1.0 / np.sqrt(mu * 0.1), s_min=1.0,
                        s_max_excess=s_exc)
    for k in range(1, 9):
        t = bessel.ssd_symbol_t(k, p)
        s = bessel.ssd_symbol_s(k, p)
        worst = max(worst, abs(t / (-(1.0 / (4 * mu)) * k) - 1.0))
        worst = max(worst, abs(s / (-(s_exc / (4 * mu)) * k) - 1.0))
    # low-viscosity limit
    mu, dt = 1e-6, 0.1
    p = SsdSymbolParams(elastic=1.0, rho=1.0, dt=dt,
                        lam=1.0 / np.sqrt(mu * dt), s_min=1.0,
                        s_max_excess=s_exc)
    for k in range(1, 9):
        t = bessel.ssd_symbol_t(k, p)
        expect_t = -(np.sqrt(dt) / (2.0 * np.sqrt(mu))) * k**2
        worst = max(worst, abs(t / expect_t - 1.0))
        s = bessel.ssd_symbol_s(k, p)
        beta = p.lam
        expect_s = -(s_exc * dt / 2.0) * (k**3 - k**4 / np.sqrt(beta**2 + k**2))
        worst = max(worst, abs(s / expect_s - 1.0))
    report(8, worst <= 0.01, f"max relative deviation from asymptotics {worst:.2e}")


def _area_loss(scheme, n, dt, n_steps, mu):
    phys, grid = model(n, mu)
    cfg = SchemeConfig(scheme=scheme, dt=dt)
    state = schemes.initial_state(phys, grid)
    a0 = diagnostics.record_state(state, phys, grid).area
    for s in schemes.simulate(state, phys, grid, cfg, n_steps):
        state = s
    a1 = diagnostics.record_state(state, phys, grid).area
    return (a0 - a1) / a0


def test_criterion_9a_area_steady():
    # the mean stretch is the mode the first-kind update leaves explicit;
    # left so, it over-contracts at dt = 4 (19% loss), so ssd1_steady sets
    # it from the discrete area balance
    loss = _area_loss("ssd1_steady", 64, 4.0, 5, 1.0)
    report("9a", abs(loss) <= 0.05, f"ssd1_steady dt=4 T=20 area loss {100 * loss:.1f}%")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: stable_steady loses 5.6% of its area at criterion 9a's setting"))
def test_stable_steady_area_at_criterion_9a_setting():
    loss = _area_loss("stable_steady", 64, 4.0, 5, 1.0)
    assert abs(loss) <= 0.05, f"stable_steady dt=4 T=20 area loss {100 * loss:.2f}%"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: ssd1_unsteady loses 47.7% of its area at criterion 5's setting"))
def test_ssd1_unsteady_area_at_criterion_5_setting():
    loss = _area_loss("ssd1_unsteady", 128, 1.0, 20, 0.01)
    assert loss <= 0.05, f"ssd1_unsteady N=128 dt=1 T=20 area loss {100 * loss:.2f}%"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: ssd1_unsteady at N = 256, dt = 0.01 loses 40.6% of its area "
    "in 10 steps to a high-mode instability that raises no BlowupError"))
def test_ssd1_unsteady_area_at_n256_small_step():
    loss = _area_loss("ssd1_unsteady", 256, 0.01, 10, 0.01)
    assert loss <= 0.05, f"ssd1_unsteady N=256 dt=0.01 T=0.1 area loss {100 * loss:.2f}%"


def test_criterion_9b_area_unsteady():
    loss = _area_loss("ssd1_unsteady", 64, 0.25, 8, 0.01)
    report("9b", abs(loss) <= 0.05, f"ssd1_unsteady dt=1/4 T=2 area loss {100 * loss:.1f}%")


def test_criterion_10_cost_scaling():
    def per_step_seconds(scheme, n, steps):
        phys, grid = model(n, 0.01)
        cfg = SchemeConfig(scheme=scheme, dt=0.05)
        state = schemes.initial_state(phys, grid)
        state = schemes.step(state, phys, grid, cfg)  # warm-up
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            st = state
            for _ in range(steps):
                st = schemes.step(st, phys, grid, cfg)
            best = min(best, (time.perf_counter() - t0) / steps)
        return best

    ns = [64, 128, 256]
    times = [per_step_seconds("ssd1_unsteady", n, 6) for n in ns]
    exponent = float(np.polyfit(np.log(ns), np.log(times), 1)[0])
    stable_time = per_step_seconds("stable_unsteady", 128, 2)
    ratio = stable_time / times[1]
    ok = exponent <= 2.4 and ratio >= 10.0
    report(10, ok, f"ssd1 per-step exponent {exponent:.2f} "
                   f"(times {['%.1f ms' % (t * 1e3) for t in times]}), "
                   f"stable/ssd1 cost ratio at N=128: {ratio:.0f}x")
