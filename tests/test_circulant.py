"""Circulant algebra behind the stable schemes' dense systems, and the
matrix-free second-kind solves checked against it."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import circulant

import ibstokes
from ibstokes import bessel, schemes, spectral, stokes
from ibstokes.bessel import SsdSymbolParams, ssd_symbol_s, ssd_symbol_t
from ibstokes.geometry import elastic_force, theta_derivative
from ibstokes.errors import SolverStallError
from ibstokes.io import RunConfig


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _random_multiplier(n, seed=0):
    # the transform of a real sequence is conjugate-symmetric
    mult = np.fft.fft(np.random.default_rng(seed).standard_normal(n))
    assert abs(mult[n // 2]) > 1e-3
    return mult


def _ssd2_unsteady_multipliers(n=32):
    """The kernel multiplier and -kappa^2 of the first ssd2_unsteady step."""
    config = RunConfig(scheme="ssd2_unsteady", n=n, dt=0.05, mu=0.01)
    phys, iface = config.phys(), config.initial_state().interface
    p = SsdSymbolParams.from_state(iface.s_alpha, phys.elastic, phys.mu, phys.rho, config.dt)
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    beta = p.lam * p.s_min
    mult = np.pi * bessel.k0_convolution_symbol(beta, kappa) \
        - stokes._log_kernel_multiplier(iface.n_nodes, iface.length, config.domain_length)
    return mult, -kappa**2, kappa, beta, iface.length, config.domain_length


@pytest.mark.parametrize("n", [8, 256])
def test_first_column_build_matches_fft_of_identity(n):
    mult = _random_multiplier(n)
    old = np.real(np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0))
    assert _rel(schemes._circulant_from_multiplier(mult), old) <= 1e-14


@pytest.mark.parametrize("n", [8, 256])
def test_circulant_applies_multiplier(n):
    mult = _random_multiplier(n, seed=1)
    x = np.random.default_rng(2).standard_normal(n)
    expect = np.real(np.fft.ifft(mult * np.fft.fft(x)))
    assert _rel(schemes._circulant_from_multiplier(mult) @ x, expect) <= 1e-14


@pytest.mark.parametrize("n", [1, 7, 8, 255, 256])
def test_circulant_build_is_scipy_circulant_bitwise(n):
    mult = _random_multiplier(n, seed=3) if n > 1 else np.array([2.5 + 0j])
    built = schemes._circulant_from_multiplier(mult)
    assert built.flags.c_contiguous
    assert built.tobytes() == circulant(np.real(np.fft.ifft(mult))).tobytes()


def test_package_path_loads_no_scipy_linalg_or_sparse():
    # a fresh process, since this file imports scipy.linalg: the CLI, one
    # dense-path step of every scheme (N_b = 32 <= DENSE_MAX) and one GMRES
    # step of each stable scheme (DENSE_MAX = 0) need numpy alone
    code = textwrap.dedent("""
        import sys
        import ibstokes.cli
        from ibstokes import schemes
        from ibstokes.io import RunConfig

        def one_step(scheme):
            config = RunConfig(scheme=scheme, n=16, dt=0.01)
            schemes.step(config.initial_state(), config.phys(), config.grid(),
                         config.scheme_config())

        for scheme in schemes.ALL_SCHEMES:
            one_step(scheme)
        schemes.DENSE_MAX = 0
        one_step("stable_steady")
        one_step("stable_unsteady")
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ibstokes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_product_of_circulants_is_circulant_of_product():
    mult, d2, _, _, _, _ = _ssd2_unsteady_multipliers()
    circ = schemes._circulant_from_multiplier
    assert _rel(circ(mult * d2), circ(mult) @ circ(d2)) <= 1e-12


def test_kernel_multiplier_is_k0_minus_log_symbol():
    # criterion 7's identity: pi/sqrt(beta^2 + kappa^2) - pi/|kappa|, and at
    # kappa = 0 the mean pi/beta + L_b ln(L_b/(2 pi L))
    mult, _, kappa, beta, length, domain = _ssd2_unsteady_multipliers()
    nz = kappa != 0
    expect = np.empty_like(mult)
    expect[nz] = np.pi / np.sqrt(beta**2 + kappa[nz] ** 2) - np.pi / np.abs(kappa[nz])
    expect[0] = np.pi / beta + length * np.log(length / (2.0 * np.pi * domain))
    assert np.max(np.abs(mult - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_scaled_multiplier_is_scaled_circulant():
    config = RunConfig(scheme="ssd2_steady", n=32, dt=0.1, mu=1.0)
    iface = config.initial_state().interface
    eta, xi = schemes._steady_rates(iface, config.phys())
    gamma = float(np.max(1.0 - 1.0 / iface.s_alpha))
    assert gamma > 0
    circ = schemes._circulant_from_multiplier
    assert _rel(circ(-xi), -gamma * circ(eta)) <= 1e-14


@pytest.mark.parametrize("lead", ["steady", "random"])
def test_increment_diagonal_and_dense_branches_agree(lead):
    # (I - dt L) Delta = dt r with L a Fourier diagonal, against a dense solve
    # of the same L as its circulant; without L the step is forward Euler,
    # dt r exactly
    if lead == "steady":
        config = RunConfig(scheme="ssd1_steady", n=32, dt=0.1, mu=1.0)
        mult = -schemes._steady_rates(config.initial_state().interface, config.phys())[0]
    else:
        mult = -np.abs(_random_multiplier(64, seed=5))
    r = np.random.default_rng(6).standard_normal(len(mult))
    dt = 0.3
    diagonal = schemes._increment(mult, r, dt, 1)
    dense = np.linalg.solve(np.eye(len(r)) - dt * schemes._circulant_from_multiplier(mult), dt * r)
    assert _rel(diagonal, dense) <= 1e-12
    assert schemes._increment(None, r, dt, 1).tobytes() == (dt * r).tobytes()


def _dense_second_kind(scheme, state, phys, grid, dt, s_new, u, c_v, c_u):
    """The second kind's leading operators L_s and L_phi as dense matrices,
    assembled from circulants: the Fourier diagonal plus the kernel
    correction for s_alpha, plus the transport (V/s^{n+1}) D for the angle."""
    iface = state.interface
    nb, length = iface.n_nodes, iface.length
    circ = schemes._circulant_from_multiplier
    dth = theta_derivative(iface)
    transport = (u[nb:] / s_new)[:, None] * circ(1j * spectral.odd_wavenumbers(nb, length))
    log_mult = stokes._log_kernel_multiplier(nb, length, grid.length)
    if scheme == "ssd2_steady":
        eta, _ = schemes._steady_rates(iface, phys)
        gamma = float(np.max(1.0 - 1.0 / iface.s_alpha))
        c = phys.elastic / (4.0 * np.pi * phys.mu)
        lead_s = -circ(eta) + c * (dth[:, None] * circ(-log_mult) * dth[None, :])
        return lead_s, -gamma * circ(eta) + transport
    s0 = iface.s_alpha
    p = SsdSymbolParams.from_state(s0, phys.elastic, phys.mu, phys.rho, dt)
    kappa = spectral.wavenumbers(nb, length)
    mult = np.pi * bessel.k0_convolution_symbol(p.lam * p.s_min, kappa) - log_mult
    pref = -(phys.elastic * dt) / (2.0 * np.pi * phys.rho)
    lead_s = c_v * (circ(ssd_symbol_t(kappa, p))
                    + pref * ((dth / s0**2)[:, None] * circ(mult * -kappa**2) * dth[None, :]))
    return lead_s, circ(c_u * ssd_symbol_s(kappa, p) / np.min(s_new)) + transport


@pytest.mark.parametrize("dt", [0.05, 1.0])
@pytest.mark.parametrize("scheme", ["ssd2_steady", "ssd2_unsteady"])
def test_second_kind_increment_matches_dense_solve(scheme, dt, monkeypatch):
    # both increments of a first second-kind step, the s_alpha and the angle
    # system, against np.linalg.solve of (I - dt L) Delta = dt r with L
    # assembled densely; dt = 1 is criterion 5's
    steady = scheme == "ssd2_steady"
    config = RunConfig(scheme=scheme, n=32, dt=dt, mu=1.0 if steady else 0.01)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    state = config.initial_state()
    calls = []
    increment = schemes._increment

    def recording(lead, r, dt_, step_index):
        delta = increment(lead, r, dt_, step_index)
        calls.append((lead, r, delta))
        return delta

    monkeypatch.setattr(schemes, "_increment", recording)
    new = schemes.step(state, phys, grid, cfg)
    (lead_s, r_s, delta_s), (lead_phi, r_phi, delta_phi) = calls
    assert isinstance(lead_s, tuple) and isinstance(lead_phi, tuple)
    iface = state.interface
    s_new = iface.s_alpha + delta_s
    velocity = schemes._step_map(state, phys, grid, cfg)
    dth = theta_derivative(iface)
    u = velocity(elastic_force(iface.s_alpha if steady else s_new, dth, phys.elastic,
                               iface.length))[0]
    dense_s, dense_phi = _dense_second_kind(scheme, state, phys, grid, dt, s_new, u,
                                            new.c_v, new.c_u)
    eye = np.eye(iface.n_nodes)
    assert _rel(delta_s, np.linalg.solve(eye - dt * dense_s, dt * r_s)) <= 1e-12
    assert _rel(delta_phi, np.linalg.solve(eye - dt * dense_phi, dt * r_phi)) <= 1e-12


def test_gmres_solves_a_nonsymmetric_system_and_stalls_out_of_reach():
    rng = np.random.default_rng(7)
    n = 40
    a = 2.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    assert np.max(np.abs(a - a.T)) > 0.1
    b = rng.standard_normal(n)
    x = schemes._gmres(a.__matmul__, b, 1e-13, 1)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert _rel(x, np.linalg.solve(a, b)) <= 1e-11
    assert not np.any(schemes._gmres(a.__matmul__, np.zeros(n), 1e-13, 1))
    with pytest.raises(SolverStallError, match="GMRES stalled at relative residual .* "
                                               f"after {n} iterations at step 9"):
        schemes._gmres(a.__matmul__, b, 1e-300, 9)


def test_derivative_circulant_applies_derivative_1d():
    dmat = schemes._circulant_from_multiplier(1j * spectral.odd_wavenumbers(16, 2.0 * np.pi))
    f = np.sin(np.arange(16) * 2.0 * np.pi / 16)
    assert _rel(dmat @ f, spectral.derivative_1d(f)) <= 1e-13


def test_near_singular_dense_system_is_a_solver_stall():
    # one row a hair off the sum of two others: LAPACK solves it, and the
    # residual and the condition number name it singular
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    a[-1] = a[0] + a[1] + 1e-15 * rng.standard_normal(6)
    assert np.linalg.cond(a) >= 1e14
    with pytest.raises(SolverStallError, match="singular implicit system at step 7"):
        schemes._dense_solve(a, rng.standard_normal(6), 7)


def test_exactly_singular_dense_system_is_a_solver_stall():
    # LAPACK refuses a zero pivot; the step reports a solver failure, not a
    # numpy error
    with pytest.raises(SolverStallError, match="singular implicit system at step 7"):
        schemes._dense_solve(np.ones((6, 6)), np.arange(6.0), 7)


def test_near_singular_or_singular_system_is_a_gmres_stall():
    # the near-singular system above: its last Krylov pivot is the 1e-15 row
    # noise, and dividing by it gives |x| ~ 2e14 at a true relative
    # residual of 4e-2
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    a[-1] = a[0] + a[1] + 1e-15 * rng.standard_normal(6)
    msg = "GMRES stalled on a singular or non-finite Krylov step at step 7"
    with pytest.raises(SolverStallError, match=msg):
        schemes._gmres(a.__matmul__, rng.standard_normal(6), 1e-13, 7)
    with pytest.raises(SolverStallError, match=msg):
        schemes._gmres(np.ones((6, 6)).__matmul__, np.arange(6.0), 1e-13, 7)
