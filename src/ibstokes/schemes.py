"""Time-stepping schemes for the immersed elastic interface.

Steady flow: explicit, semi-implicit of the first and second kind,
integrating-factor RK4, and the provably energy-non-increasing two-step
scheme.  Unsteady flow: explicit, semi-implicit first/second kind, the
two-step stable scheme, and a midpoint/trapezoidal second-order scheme.

Every scheme couples to the fluid through one per-step map on the frozen
curve, force -> (U, V, fluid) (``_velocity_map``: spread, solve on the grid,
interpolate); steady and unsteady flow differ only in the fluid solve behind
it and in the leading-order symbols, so the explicit and the stable schemes
are one stepper each for both flows.

The semi-implicit updates add the implicit leading-order term and subtract
its explicit counterpart, so every scheme is consistent with the same
dynamics; only the stability properties differ.  The integrating-factor
scheme takes the continuum Hilbert rates as its factor: it is fourth order in
time while the interface is no finer than the grid (N_b <= N/2), and loses
that order at the default N_b = 2N, whose highest modes the 4-point delta
cannot see.  Implicit leading operators are diagonal in Fourier space except
for the second-kind and two-step schemes, which solve dense N_b x N_b
systems; every diagonal update, backward Euler or Crank-Nicolson, goes
through ``_semi_implicit``.  The second-kind circulants are gathered from
their first columns, and a circulant product from the multipliers' product:
O(N_b^2) assembly.  Both implicit systems of the two-step stable schemes
read A = I - diag(scale) R K F, with the force map F and the rate map R
written once and K the interface mobility in the node frames (force ->
interface velocity of the frozen curve): formed once per step, one fluid
solve per unit force, up to DENSE_MAX nodes, else applied by GMRES as one
grid solve per product, both to the relative residual LINEAR_TOL.
"""
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import circulant
from scipy.sparse.linalg import LinearOperator, gmres

from . import bessel, coupling, spectral, stokes
from .bessel import SsdSymbolParams, ssd_symbol_s, ssd_symbol_second_order, ssd_symbol_t
from .errors import BlowupError, ParameterError, SolverStallError
from .geometry import (InterfaceState, anchor_velocity, elastic_force, enclosed_area,
                       evolve_salpha_theta_rhs, init_ellipse, reconstruct_curve, tangent_normal,
                       theta_derivative, update_reference_points)
from .params import finite_real
from .stokes import FluidState, steady_stokes_grid_solve, unsteady_stokes_step

TWO_PI = 2.0 * np.pi

STEADY_SCHEMES = ("explicit_steady", "ssd1_steady", "ssd2_steady",
                  "ifrk4_steady", "stable_steady")
UNSTEADY_SCHEMES = ("explicit_unsteady", "ssd1_unsteady", "ssd2_unsteady",
                    "stable_unsteady", "second_order_unsteady")
ALL_SCHEMES = STEADY_SCHEMES + UNSTEADY_SCHEMES

DENSE_MAX = 256       # dense stable-scheme systems up to this N_b, GMRES above
LINEAR_TOL = 1e-10    # relative residual of the stable schemes' implicit solves
BLOWUP_FACTOR = 1e6   # velocity growth over the first step's speed that counts as blowup
DRIFT_TOL = 1e-2      # reconstruction anchor-mismatch warning level


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    dt: float

    def __post_init__(self):
        if self.scheme not in ALL_SCHEMES:
            raise ParameterError(f"scheme: unknown scheme {self.scheme!r}")
        if not (finite_real(self.dt) and self.dt > 0):
            raise ParameterError(f"dt: must be positive and finite, got {self.dt!r}")


@dataclass
class StepState:
    interface: InterfaceState
    curve: object
    fluid: FluidState = None      # absent for steady schemes
    t: float = 0.0
    step: int = 0
    speed_ref: float = None       # blowup-detection reference scale
    c_v: float = None             # SSD rescaling coefficients, fixed by the first SSD step;
    c_u: float = None             # a start state with c_v = c_u = 1 runs unrescaled


def _fft(x):
    spectral.counters["fft"] += 1
    return np.fft.fft(x)


def _ifft_real(xh):
    spectral.counters["fft"] += 1
    return np.real(np.fft.ifft(xh))


def _grid_uv(fluid):
    return np.stack([fluid.u, fluid.v], axis=-1)


def _project_velocity(uv, tau, nrm):
    """Split interpolated (u, v) node values into normal/tangential parts."""
    u_n = uv[:, 0] * nrm[:, 0] + uv[:, 1] * nrm[:, 1]
    u_t = uv[:, 0] * tau[:, 0] + uv[:, 1] * tau[:, 1]
    return u_n, u_t


def _fluid_solve(fluid, phys, grid, cfg):
    """The scheme's fluid solve f_grid -> fluid: steady Stokes from rest, or
    one unsteady step from ``fluid`` (None: from rest)."""
    if cfg.scheme in STEADY_SCHEMES:
        return lambda f_grid: steady_stokes_grid_solve(f_grid, phys.mu, grid)
    return lambda f_grid: unsteady_stokes_step(fluid, f_grid, phys.rho, phys.mu, cfg.dt, grid)


def _velocity_map(state, tau, nrm, phys, grid, cfg):
    """The step's map force -> (U, V, fluid) on the frozen ``state.curve``,
    U and V in the node frames ``nrm``, ``tau``: the force is spread, solved
    for and interpolated back.  Unsteady flow advances ``state.fluid`` one
    step; steady flow solves from rest and keeps no fluid (None)."""
    steady = cfg.scheme in STEADY_SCHEMES
    stencils = coupling.delta_stencils(state.curve, grid)
    solve = _fluid_solve(state.fluid, phys, grid, cfg)

    def velocity(force):
        fluid = solve(coupling.spread(stencils, force, grid))
        uv = coupling.interpolate(stencils, _grid_uv(fluid), grid)
        return (*_project_velocity(uv, tau, nrm), None if steady else fluid)
    return velocity


def _finish(state, cfg, s_new, phi_new, refs, fluid=None):
    k = state.step + 1
    if not (np.all(np.isfinite(s_new) & (s_new > 0)) and np.all(np.isfinite(phi_new))
            and np.all(np.isfinite(refs))):
        raise BlowupError(k, f"non-finite interface or collapsed arclength at step {k}")
    speed_ref = state.speed_ref
    if fluid is not None:
        speed = fluid.max_speed()
        if not np.isfinite(speed):
            raise BlowupError(k, f"non-finite velocity field at step {k}")
        if speed_ref is None:
            speed_ref = max(speed, 1e-12)
        elif speed > BLOWUP_FACTOR * speed_ref:
            raise BlowupError(k, f"velocity grew {BLOWUP_FACTOR:g}x at step {k}")
    iface = InterfaceState(s_new, phi_new, refs, state.interface.length)
    curve = reconstruct_curve(iface, drift_tol=DRIFT_TOL)
    return StepState(iface, curve, fluid, state.t + cfg.dt, k, speed_ref, state.c_v, state.c_u)


def _semi_implicit(x, rhs, lead, dt, ref=None, theta=1.0):
    """Small-scale-decomposition update of x' = rhs + lead * x: the
    Fourier-diagonal leading term is taken theta-implicit (1 backward Euler,
    1/2 Crank-Nicolson) and its explicit counterpart lead * ref, with ref = x
    unless given, is subtracted:
    (x^/dt + (1 - theta) lead x^ + r^ - lead ref^) / (1/dt - theta lead)."""
    x_hat = _fft(x)
    ref_hat = x_hat if ref is None else _fft(ref)
    return _ifft_real((x_hat / dt + (1.0 - theta) * lead * x_hat + _fft(rhs) - lead * ref_hat)
                      / (1.0 / dt - theta * lead))


def _frozen_angle_force(s, tau, nrm, dth_n, elastic, length):
    """Elastic force F(s, theta^n) of the stretch s on the frozen angle."""
    ds = spectral.derivative_1d(s, 1, period=length)
    return elastic * (ds[:, None] * tau + (s * dth_n)[:, None] * nrm) \
        - elastic * dth_n[:, None] * nrm


def step_explicit(state, phys, grid, cfg):
    """Forward Euler, in steady or unsteady flow."""
    iface = state.interface
    tau, nrm = tangent_normal(iface)
    u_n, u_t, fluid1 = _velocity_map(state, tau, nrm, phys, grid, cfg)(
        elastic_force(iface, phys.elastic))
    ds, dth = evolve_salpha_theta_rhs(iface, u_n, u_t)
    refs = update_reference_points(iface, u_n, u_t, cfg.dt)
    return _finish(state, cfg, iface.s_alpha + cfg.dt * ds, iface.phi + cfg.dt * dth,
                   refs, fluid1)


def _steady_rates(iface, phys):
    """Hilbert-transform decay rates of the steady leading terms:
    eta = (S_b/4mu)|kappa| for s_alpha and xi = gamma * eta for the angle."""
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    eta = phys.elastic / (4.0 * phys.mu) * np.abs(kappa)
    gamma = float(np.max(1.0 - 1.0 / iface.s_alpha))
    return eta, gamma * eta, gamma


def _area_balanced_stretch(s_new, phi_new, refs, length, target_area, step_index):
    """Rescale s_alpha by the one factor that gives the rebuilt curve the
    target area.  The reconstruction is linear in s_alpha up to a rigid
    translation, so the shoelace area scales with the factor squared."""
    if not np.all(np.isfinite(s_new)) or np.any(s_new <= 0):
        return s_new  # _finish reports the collapse
    trial = reconstruct_curve(InterfaceState(s_new, phi_new, refs, length), drift_tol=np.inf)
    ratio = target_area / enclosed_area(trial)
    if not ratio > 0:
        raise BlowupError(step_index, f"area balance has no positive stretch at step {step_index}")
    return s_new * np.sqrt(ratio)


def step_ssd1_steady(state, phys, grid, cfg):
    """First-kind semi-implicit steady step (small-scale decomposition).

    s_alpha and the angle take the diagonal implicit update of their
    Hilbert-transform leading terms (``_steady_rates``), as in
    Hou-Lowengrub-Shelley, with two choices beyond that:

    (a) Like the stable scheme (``step_stable``, Step 2) and
        the unsteady twin (``step_ssd1_unsteady``), the angle and anchor
        updates take the velocity of F(s^{n+1}, theta^n), which costs a
        second grid solve per step.
    (b) The mean of s_alpha (the perimeter over L_b) is the one mode the
        update leaves fully explicit, since eta(0) = 0; left so, it
        over-contracts at large dt.  It is instead set from the discrete
        area balance: s^{n+1} is rescaled by one factor so that the rebuilt
        curve encloses A^n - dt * sum_j U^n_j s^n_j dalpha, the kinematic
        identity of incompressible flow with U along the left (inward, for
        the counter-clockwise curve) normal.  The flux keeps the leakage of
        the discrete delta function in the record.  The paper's abstract
        does not say how the k = 0 mode is treated; this is the choice made
        here.
    """
    iface = state.interface
    dt = cfg.dt
    tau, nrm = tangent_normal(iface)
    velocity = _velocity_map(state, tau, nrm, phys, grid, cfg)
    u_n, u_t, _ = velocity(elastic_force(iface, phys.elastic))
    eta, xi, _ = _steady_rates(iface, phys)
    dth = theta_derivative(iface)
    rhs_s = spectral.derivative_1d(u_t, 1, period=iface.length) - dth * u_n
    s_new = _semi_implicit(iface.s_alpha, rhs_s, -eta, dt)

    u_n1, u_t1, _ = velocity(_frozen_angle_force(s_new, tau, nrm, dth, phys.elastic,
                                                 iface.length))
    # the angle update divides the explicit terms by the new s_alpha
    rhs_phi = (spectral.derivative_1d(u_n1, 1, period=iface.length) + u_t1 * dth) / s_new
    phi_new = _semi_implicit(iface.phi, rhs_phi, -xi, dt)
    refs = update_reference_points(iface, u_n1, u_t1, dt)

    target = enclosed_area(state.curve) - dt * float(np.sum(u_n * iface.s_alpha)) * iface.dalpha
    s_new = _area_balanced_stretch(s_new, phi_new, refs, iface.length, target, state.step + 1)
    return _finish(state, cfg, s_new, phi_new, refs)


def _ifrk4_diagonal(y0, rate, dt, n_func):
    """Integrating-factor RK4 for y' = -rate*y + n(t, y), diagonal rate >= 0.

    ``n_func(stage, y)`` returns the nonlinear part at stages 0, 1, 2, 3
    (times t, t+dt/2, t+dt/2, t+dt).
    """
    e_half = np.exp(-0.5 * dt * rate)
    e_full = e_half * e_half
    k1 = n_func(0, y0)
    y2 = e_half * (y0 + 0.5 * dt * k1)
    k2 = n_func(1, y2)
    y3 = e_half * y0 + 0.5 * dt * k2
    k3 = n_func(2, y3)
    y4 = e_full * y0 + dt * e_half * k3
    k4 = n_func(3, y4)
    return e_full * y0 + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def step_ifrk4_steady(state, phys, grid, cfg):
    iface = state.interface
    dt = cfg.dt
    nb = iface.n_nodes
    eta, xi, _ = _steady_rates(iface, phys)
    rate = np.concatenate([eta, xi])
    stage_vel = []

    def n_func(stage, y):
        s = _ifft_real(y[:nb])
        phi = _ifft_real(y[nb:])
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise BlowupError(state.step + 1, "stage state degenerate inside RK4")
        stage_if = InterfaceState(s, phi, iface.ref_points, iface.length)
        stage = replace(state, interface=stage_if,
                        curve=reconstruct_curve(stage_if, drift_tol=np.inf))
        tau, nrm = tangent_normal(stage_if)
        u_n, u_t, _ = _velocity_map(stage, tau, nrm, phys, grid, cfg)(
            elastic_force(stage_if, phys.elastic))
        ds, dth = evolve_salpha_theta_rhs(stage_if, u_n, u_t)
        stage_vel.append(anchor_velocity(stage_if, u_n, u_t))
        return np.concatenate([_fft(ds) + eta * y[:nb], _fft(dth) + xi * y[nb:]])

    y0 = np.concatenate([_fft(iface.s_alpha), _fft(iface.phi)])
    y1 = _ifrk4_diagonal(y0, rate, dt, n_func)
    s_new = _ifft_real(y1[:nb])
    phi_new = _ifft_real(y1[nb:])
    # the anchors ride the same RK4 stages (classical weights), keeping the
    # reconstruction at the accuracy of the interface update
    k1, k2, k3, k4 = stage_vel
    refs = iface.ref_points + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _finish(state, cfg, s_new, phi_new, refs)


def _circulant_from_multiplier(mult):
    """Real circulant applying a conjugate-symmetric Fourier multiplier, gathered
    from its first column: C[i, j] = c[(i - j) % n], c = real(ifft(mult))."""
    spectral.counters["fft"] += 1
    return circulant(np.real(np.fft.ifft(mult)))


@lru_cache(maxsize=8)
def _derivative_matrix(n, period):
    """Spectral first-derivative circulant (Nyquist mode zeroed).  It depends
    only on (N_b, L_b), so it is built once and cached, read-only."""
    mult = 1j * spectral.wavenumbers(n, period)
    mult[n // 2] = 0.0
    dmat = _circulant_from_multiplier(mult)
    dmat.flags.writeable = False
    return dmat


def _dense_solve(a, b, step_index, rtol=1e-8):
    stokes.counters["dense_solves"] += 1
    x = np.linalg.solve(a, b)
    resid = np.linalg.norm(a @ x - b)
    if not np.isfinite(resid) or resid > rtol * max(np.linalg.norm(b), 1e-30):
        if np.linalg.cond(a) >= 1e14:
            raise SolverStallError(f"singular implicit system at step {step_index}")
        raise SolverStallError(f"dense solve residual {resid:.2e} at step {step_index}")
    return x


def _angle_transport_solve(iface, lead_mat, u_n, u_t, s_new, dt, step_index):
    """Second-kind angle update: the leading term ``lead_mat`` and the
    transport (V/s^{n+1}) D theta^{n+1} implicit, the rest explicit."""
    nb = iface.n_nodes
    dmat = _derivative_matrix(nb, iface.length)
    w = u_t / s_new
    a_p = np.eye(nb) / dt - lead_mat - w[:, None] * dmat
    du = spectral.derivative_1d(u_n, 1, period=iface.length)
    b_p = iface.phi / dt + du / s_new + w * (TWO_PI / iface.length) - lead_mat @ iface.phi
    return _dense_solve(a_p, b_p, step_index)


def step_ssd2_steady(state, phys, grid, cfg):
    iface = state.interface
    dt = cfg.dt
    nb = iface.n_nodes
    tau, nrm = tangent_normal(iface)
    u_n, u_t, _ = _velocity_map(state, tau, nrm, phys, grid, cfg)(
        elastic_force(iface, phys.elastic))
    dth = theta_derivative(iface)
    eta, _, gamma = _steady_rates(iface, phys)
    lam_abs = _circulant_from_multiplier(eta)         # (S_b/4mu)|kappa|
    # periodized ln|a - a'| convolution
    log_mat = _circulant_from_multiplier(-stokes._log_kernel_multiplier(nb, iface.length))
    c = phys.elastic / (4.0 * np.pi * phys.mu)

    # s system: ds/dt = -(S_b/4mu) H D s - theta_a * U_lead(s) + explicit pair
    # with U_lead(s) = -c * int ln|a-a'| (s-1) theta_a da'; the constant parts
    # of the implicit and explicit leading terms cancel, leaving t_lin s
    t_lin = -lam_abs + c * (dth[:, None] * log_mat * dth[None, :])
    rhs_expl = spectral.derivative_1d(u_t, 1, period=iface.length) - dth * u_n
    a_s = np.eye(nb) / dt - t_lin
    b_s = iface.s_alpha / dt + rhs_expl - t_lin @ iface.s_alpha
    s_new = _dense_solve(a_s, b_s, state.step + 1)

    # angle system: implicit -gamma|kappa| leading term plus implicit transport
    phi_new = _angle_transport_solve(iface, -gamma * lam_abs, u_n, u_t, s_new, dt,
                                     state.step + 1)
    refs = update_reference_points(iface, u_n, u_t, dt)
    return _finish(state, cfg, s_new, phi_new, refs)


def _solve_linear(lin, b, step_index):
    """Solve the implicit system A x = b to LINEAR_TOL, with ``lin`` either
    the assembled matrix A (dense solve) or the linear map x -> A x (GMRES)."""
    if isinstance(lin, np.ndarray):
        return _dense_solve(lin, b, step_index, rtol=LINEAR_TOL)
    nb = len(b)
    op = LinearOperator((nb, nb), matvec=lin)
    restart = min(50, nb)
    maxiter = max(1, (10 * nb) // restart)
    x, info = gmres(op, b, rtol=LINEAR_TOL, atol=0.0, restart=restart, maxiter=maxiter)
    if info != 0:
        raise SolverStallError(f"GMRES stalled (info={info}) at step {step_index}")
    return x


def _rows(v, x):
    """diag(v) x for a vector x or the columns of a matrix x (v may be a scalar)."""
    return (v * x.T).T


def _interface_mobility(stencils, solve, grid, tau, nrm):
    """Interface mobility of a frozen curve in the node frames: M = J L S (the
    IB mobility of Balboa Usabiaga et al. 2016), column 2j + c the interface
    velocity of the unit force on node j in direction c, rotated into K,
    K[a N_b + i, b N_b + k] the a-velocity at node i of a unit b-force at
    node k, a and b in (normal, tangential).  Each node is spread once through
    its own stencils, and each column costs one fluid solve ``solve(f_grid)``.
    Spreading and interpolation are adjoint, so K is symmetric."""
    nb = len(stencils.w)
    mob = np.empty((2 * nb, 2 * nb))
    unit = np.eye(2)[None]
    for j in range(nb):
        fields = coupling.spread(stencils[j:j + 1], unit, grid)  # (N, N, 2, 2)
        for c in range(2):
            uv = coupling.interpolate(stencils, _grid_uv(solve(fields[..., c])), grid)
            mob[:, 2 * j + c] = uv.ravel()
    frames = np.stack([nrm, tau])
    return np.einsum("aid,idke,bke->aibk", frames, mob.reshape(nb, 2, nb, 2),
                     frames).reshape(2 * nb, 2 * nb)


def step_stable(state, phys, grid, cfg):
    """Two-step stable scheme (after Newren, Fogelson, Guy & Kirby) on a
    frozen curve, in steady or unsteady flow.  The fluid enters as
    ``solve(f_grid)``, the fluid driven from rest by a grid force, and in
    unsteady flow ``advance(f_grid)``, the solve from the current fluid (None
    in steady flow, which keeps no fluid and has no unforced velocity).

    Both implicit systems read A = I - diag(scale) R K F, scale dt for s_alpha
    and dt/s^{n+1} for the angle: F maps the unknown to the (normal,
    tangential) force, K that force to the interface velocity in the same
    frames, and R the velocity to the unknown's rate.  F and R are written
    once.  Up to DENSE_MAX nodes K is assembled once per step
    (``_interface_mobility``) and A formed with the derivative matrix; above
    it GMRES applies A, K as one from-rest grid solve, D as the FFT derivative."""
    iface = state.interface
    dt = cfg.dt
    nb = iface.n_nodes
    elastic = phys.elastic
    solve = _fluid_solve(None, phys, grid, cfg)
    advance = None if cfg.scheme in STEADY_SCHEMES else _fluid_solve(state.fluid, phys, grid, cfg)
    stencils = coupling.delta_stencils(state.curve, grid)
    tau, nrm = tangent_normal(iface)
    dth = theta_derivative(iface)

    def velocity(fluid):
        return coupling.interpolate(stencils, _grid_uv(fluid), grid)

    def response(force):
        """Linear interface velocity of a force (fluid from rest)."""
        return velocity(solve(coupling.spread(stencils, force, grid)))

    def frame(uv):
        return np.concatenate(_project_velocity(uv, tau, nrm))

    fft_derivative = partial(spectral.derivative_1d, period=iface.length)
    dense = nb <= DENSE_MAX
    if dense:
        derivative = _derivative_matrix(nb, iface.length).__matmul__
        mobility = _interface_mobility(stencils, solve, grid, tau, nrm).__matmul__
    else:
        derivative = fft_derivative

        def mobility(f):  # one from-rest grid solve
            return frame(response(f[:nb, None] * nrm + f[nb:, None] * tau))

    def system(scale, force, rate):
        """A = I - diag(scale) R K F: assembled, or the map x -> A x for GMRES."""
        def apply(x):
            return x - _rows(scale, rate(mobility(force(x, derivative)), derivative))
        return apply(np.eye(nb)) if dense else apply

    # Step 1: implicit s_alpha through F(s^{n+1}, theta^n), whose normal and
    # tangential parts are S_b theta_a s and S_b D s; the stretch rate is
    # D V - theta_a U
    def force_s(s, d):
        return elastic * np.concatenate([_rows(dth, s), d(s)])

    def rate_s(u, d):
        return d(u[nb:]) - _rows(dth, u[:nb])

    uv_hom = 0.0 if advance is None else velocity(advance(np.zeros((grid.n, grid.n, 2))))
    b = iface.s_alpha + dt * rate_s(frame(uv_hom + response(-elastic * dth[:, None] * nrm)),
                                    fft_derivative)
    s_new = _solve_linear(system(dt, force_s, rate_s), b, state.step + 1)

    # recover the Step-1 velocities at the solution for the reference points
    force_full = _frozen_angle_force(s_new, tau, nrm, dth, elastic, iface.length)
    if advance is None:
        fluid1, uv1 = None, response(force_full)
    else:
        fluid1 = advance(coupling.spread(stencils, force_full, grid))
        uv1 = velocity(fluid1)
    u_n1, u_t1 = _project_velocity(uv1, tau, nrm)

    # Step 2: implicit angle through F(s^{n+1}, theta^{n+1}), whose normal
    # part is S_b (s^{n+1} - 1) D phi; the angle rate is D U + theta_a V
    def force_phi(phi, d):
        f_n = elastic * _rows(s_new - 1.0, d(phi))
        return np.concatenate([f_n, np.zeros_like(f_n)])

    def rate_phi(u, d):
        return d(u[:nb]) + _rows(dth, u[nb:])

    scale = dt / s_new
    ds_new = fft_derivative(s_new)
    force0 = elastic * (ds_new[:, None] * tau
                        + ((s_new - 1.0) * (TWO_PI / iface.length))[:, None] * nrm)
    b_phi = iface.phi + scale * rate_phi(frame(uv_hom + response(force0)), fft_derivative)
    phi_new = _solve_linear(system(scale, force_phi, rate_phi), b_phi, state.step + 1)
    refs = update_reference_points(iface, u_n1, u_t1, dt)
    return _finish(state, cfg, s_new, phi_new, refs, fluid1)


def _rescaling_coefficient(stored, observed, leading, label):
    """SSD rescaling coefficient C_V or C_U: the stored value, else the
    first-step ratio max|observed| / max|leading()|, or 1 with a warning when
    the leading term vanishes."""
    if stored is not None:
        return stored
    denom = float(np.max(np.abs(leading())))
    if denom < 1e-14 * max(1.0, float(np.max(np.abs(observed)))) or denom == 0.0:
        warnings.warn(f"rescaling disabled for {label}: leading term is zero",
                      RuntimeWarning, stacklevel=2)
        return 1.0
    return float(np.max(np.abs(observed))) / denom


def _velocity_level_lead(symbol, kappa, phi, s_min):
    """Leading-order normal velocity implied by an angle-equation symbol.

    The angle equation reads theta_t = (1/s) D U + ..., so a leading term
    symbol(kappa) acting on phi corresponds to the velocity
    u_hat = s_min * symbol(kappa) * phi_hat / (i kappa).
    """
    n = len(kappa)
    out = np.zeros(n, dtype=complex)
    nz = kappa != 0
    out[nz] = s_min * symbol[nz] * _fft(phi)[nz] / (1j * kappa[nz])
    out[n // 2] = 0.0
    return _ifft_real(out)


def step_ssd1_unsteady(state, phys, grid, cfg):
    """First-kind SSD step: s_alpha through F^n, the angle through F(s^{n+1}, theta^n)."""
    iface = state.interface
    dt = cfg.dt
    tau, nrm = tangent_normal(iface)
    velocity = _velocity_map(state, tau, nrm, phys, grid, cfg)
    u_n_star, u_t_star, _ = velocity(elastic_force(iface, phys.elastic))
    p = SsdSymbolParams.from_state(iface.s_alpha, phys.elastic, phys.mu, phys.rho, dt)
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    t_hat = ssd_symbol_t(kappa, p)
    s_hat_sym = ssd_symbol_s(kappa, p)
    dth = theta_derivative(iface)
    dv_star = spectral.derivative_1d(u_t_star, 1, period=iface.length)
    rhs_s = dv_star - dth * u_n_star
    c_v = _rescaling_coefficient(state.c_v, dv_star,
                                 lambda: spectral.apply_symbol_1d(iface.s_alpha, t_hat), "C_V")
    s_new = _semi_implicit(iface.s_alpha, rhs_s, c_v * t_hat, dt)

    u_n1, u_t1, fluid1 = velocity(_frozen_angle_force(s_new, tau, nrm, dth, phys.elastic,
                                                      iface.length))
    c_u = _rescaling_coefficient(state.c_u, u_n1, lambda: _velocity_level_lead(
        s_hat_sym, kappa, iface.phi, p.s_min), "C_U")
    rhs_phi = (spectral.derivative_1d(u_n1, 1, period=iface.length) + u_t1 * dth) / s_new
    # the leading angle operator is S/min(s); the explicit counterpart must
    # carry the same factor or the homogeneous high-k multiplier becomes
    # min(s) != 1 and the update amplifies node-scale modes
    phi_new = _semi_implicit(iface.phi, rhs_phi, c_u * s_hat_sym / float(np.min(s_new)), dt)
    refs = update_reference_points(iface, u_n1, u_t1, dt)
    return _finish(replace(state, c_v=c_v, c_u=c_u), cfg, s_new, phi_new, refs, fluid1)


def step_ssd2_unsteady(state, phys, grid, cfg):
    iface = state.interface
    dt = cfg.dt
    nb = iface.n_nodes
    tau, nrm = tangent_normal(iface)
    velocity = _velocity_map(state, tau, nrm, phys, grid, cfg)
    u_n_star, u_t_star, _ = velocity(elastic_force(iface, phys.elastic))
    p = SsdSymbolParams.from_state(iface.s_alpha, phys.elastic, phys.mu, phys.rho, dt)
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    t_hat = ssd_symbol_t(kappa, p)
    s_hat_sym = ssd_symbol_s(kappa, p)
    dth = theta_derivative(iface)
    beta = p.lam * p.s_min

    # dense correction: the smooth K0(beta|d|) + ln|d| convolution (the log
    # singularities cancel, as in the second fundamental solution) acting on
    # D^2((s-1) theta_a), assembled as one circulant of the multipliers' product
    mult = np.pi * bessel.k0_convolution_symbol(beta, kappa) \
        - stokes._log_kernel_multiplier(nb, iface.length)
    kd2 = _circulant_from_multiplier(mult * -kappa**2)
    t_mat = _circulant_from_multiplier(t_hat)
    pref = -(phys.elastic * dt) / (2.0 * np.pi)
    coef = dth / iface.s_alpha**2
    s0 = iface.s_alpha

    # the leading term t_mat s + pref coef kd2 ((s - 1) theta_a) is affine in s;
    # its constant part cancels between the implicit and explicit sides
    t2_lin = t_mat + pref * (coef[:, None] * kd2 * dth[None, :])
    dv_star = spectral.derivative_1d(u_t_star, 1, period=iface.length)
    c_v = _rescaling_coefficient(
        state.c_v, dv_star, lambda: t_mat @ s0 + pref * coef * (kd2 @ ((s0 - 1.0) * dth)), "C_V")
    rhs_s = dv_star - dth * u_n_star
    a_s = np.eye(nb) / dt - c_v * t2_lin
    b_s = s0 / dt + rhs_s - c_v * (t2_lin @ s0)
    s_new = _dense_solve(a_s, b_s, state.step + 1)

    u_n1, u_t1, fluid1 = velocity(_frozen_angle_force(s_new, tau, nrm, dth, phys.elastic,
                                                      iface.length))
    c_u = _rescaling_coefficient(state.c_u, u_n1, lambda: _velocity_level_lead(
        s_hat_sym, kappa, iface.phi, p.s_min), "C_U")
    # angle system: diagonal leading term plus implicit transport (V/s) D theta
    s_mat = _circulant_from_multiplier(c_u * s_hat_sym / float(np.min(s_new)))
    phi_new = _angle_transport_solve(iface, s_mat, u_n1, u_t1, s_new, dt, state.step + 1)
    refs = update_reference_points(iface, u_n1, u_t1, dt)
    return _finish(replace(state, c_v=c_v, c_u=c_u), cfg, s_new, phi_new, refs, fluid1)


def step_second_order_unsteady(state, phys, grid, cfg):
    """Midpoint/trapezoidal scheme: a half step of the first-order method
    provides the midpoint state; the full step then advances through
    midpoint unknowns with the second-order leading symbols."""
    iface = state.interface
    dt = cfg.dt

    # fractional step to t + dt/2 with the first-order scheme; the midpoint
    # scheme runs unrescaled (the first-step rescaling heuristic under-damps
    # it and is unnecessary at second-order accuracy)
    half = step_ssd1_unsteady(replace(state, c_v=1.0, c_u=1.0), phys, grid,
                              replace(cfg, scheme="ssd1_unsteady", dt=dt / 2))
    iface_h = half.interface
    stencils_h = coupling.delta_stencils(half.curve, grid)
    tau_h, nrm_h = tangent_normal(iface_h)
    dth_h = theta_derivative(iface_h)

    p2 = replace(SsdSymbolParams.from_state(iface_h.s_alpha, phys.elastic, phys.mu, phys.rho, dt),
                 lam=np.sqrt(2.0 * phys.rho / (phys.mu * dt)))
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    t2_hat, s2_hat = ssd_symbol_second_order(kappa, p2)

    def centered_velocity(force):
        # trapezoidal solve on the midpoint curve, (U, V) of (u^n + u^{n+1})/2
        fluid = unsteady_stokes_step(state.fluid, coupling.spread(stencils_h, force, grid),
                                     phys.rho, phys.mu, dt, grid, theta=0.5)
        uv = coupling.interpolate(stencils_h, 0.5 * (_grid_uv(fluid) + _grid_uv(state.fluid)),
                                  grid)
        return (*_project_velocity(uv, tau_h, nrm_h), fluid)

    u_n_star, u_t_star, _ = centered_velocity(elastic_force(iface_h, phys.elastic))
    rhs_s = spectral.derivative_1d(u_t_star, 1, period=iface.length) - dth_h * u_n_star
    s_new = _semi_implicit(iface.s_alpha, rhs_s, t2_hat, dt, ref=iface_h.s_alpha, theta=0.5)

    s_bar = 0.5 * (s_new + iface.s_alpha)
    u_n_bar, u_t_bar, fluid1 = centered_velocity(
        _frozen_angle_force(s_bar, tau_h, nrm_h, dth_h, phys.elastic, iface.length))

    # the angle leading operator carries 1/min(s) on both the implicit
    # midpoint term and its explicit counterpart so the pair cancels to
    # O(dt^3); a pointwise 1/s on one side only would degrade the order
    rhs_phi = (spectral.derivative_1d(u_n_bar, 1, period=iface.length)
               + u_t_bar * dth_h) / iface_h.s_alpha
    phi_new = _semi_implicit(iface.phi, rhs_phi, s2_hat / float(np.min(iface_h.s_alpha)), dt,
                             ref=iface_h.phi, theta=0.5)

    # midpoint predictor for the anchors, velocities from the centered field
    refs = update_reference_points(iface_h, u_n_bar, u_t_bar, dt)
    refs = iface.ref_points + (refs - iface_h.ref_points)
    return _finish(state, cfg, s_new, phi_new, refs, fluid1)


_STEPPERS = {
    "explicit_steady": step_explicit,
    "ssd1_steady": step_ssd1_steady,
    "ssd2_steady": step_ssd2_steady,
    "ifrk4_steady": step_ifrk4_steady,
    "stable_steady": step_stable,
    "explicit_unsteady": step_explicit,
    "ssd1_unsteady": step_ssd1_unsteady,
    "ssd2_unsteady": step_ssd2_unsteady,
    "stable_unsteady": step_stable,
    "second_order_unsteady": step_second_order_unsteady,
}


def step(state, phys, grid, cfg):
    """Advance one step with the configured scheme."""
    return _STEPPERS[cfg.scheme](state, phys, grid, cfg)


def initial_state(phys, grid, a=0.32, b=0.24, center=(0.5, 0.5)):
    """Ellipse interface (rest radius from phys.interface_length) in a fluid
    at rest; steady schemes ignore the fluid field."""
    rest_radius = phys.interface_length / TWO_PI
    state, curve = init_ellipse(a, b, center, grid.n_boundary, rest_radius=rest_radius)
    return StepState(state, curve, FluidState.rest(grid.n), 0.0, 0, None)


def simulate(state, phys, grid, cfg, n_steps):
    """Yield successive StepStates; blowups propagate as BlowupError."""
    for _ in range(n_steps):
        state = step(state, phys, grid, cfg)
        yield state
