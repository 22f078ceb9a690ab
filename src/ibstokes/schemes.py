"""Time-stepping schemes for the immersed elastic interface.

Steady flow: explicit, semi-implicit of the first and second kind,
integrating-factor RK4, and the provably energy-non-increasing two-step
scheme.  Unsteady flow: explicit, semi-implicit first/second kind, the
two-step stable scheme, and a midpoint/trapezoidal second-order scheme.

Every scheme is written in three maps on the frozen curve, with forces and
velocities held as block vectors [normal; tangential] in the node frames:
the elastic force F (``geometry.elastic_force``), the velocity map K
(``_velocity_map``: rotate to xy, spread, solve on the grid, interpolate,
rotate back; it also returns the solved fluid) and the rate maps R
(``_stretch_rate``, ``_angle_rate``), the s_alpha-theta kinematics.  Steady
and unsteady flow differ only in the fluid solve behind K and in the
leading-order symbols, so the explicit and the stable schemes are one
stepper each for both flows; steady flow keeps no fluid (``_finish``).

The explicit and semi-implicit (SSD) schemes share one stepper,
``step_semi_implicit``: x^{n+1} = x^n + Delta with (I - dt L) Delta = dt r
(``_increment``), first for s_alpha, then for the angle, r the explicit rate
R K F and L the implicit leading operator, so every scheme is consistent with
the same dynamics; only the stability properties differ.  L is absent for
forward Euler and a Fourier diagonal for the first kind.  The second kind's
L is the first kind's diagonal plus a correction, a convolution: the
log-kernel (steady) or smooth-kernel (unsteady) part of the normal velocity
in s_alpha, the transport (V/s) D in the angle.  Diagonal and convolution
alike are applied by ``spectral.fourier_map``.  The second kind's
increments are solved matrix-free by GMRES (``_gmres``), right-preconditioned
by the first kind's own Fourier solve, to SECOND_KIND_TOL: O(N_b log N_b) per
iteration and no N_b x N_b array.  The trapezoidal scheme's Crank-Nicolson
pair goes through ``_increment`` too.  The integrating-factor scheme takes
the continuum Hilbert rates as its factor: it is fourth order in time while
the interface is no finer than the grid (N_b <= N/2), and loses that order
at the default N_b = 2N, whose highest modes the 4-point delta cannot see.
Both implicit systems of the two-step stable schemes read
A = I - diag(scale) R K F_lin, with F_lin the linear part of F in the unknown
and K the interface mobility: formed once per step, one fluid solve per unit
force (``_interface_mobility``), up to DENSE_MAX nodes, with D as the
derivative's circulant (``_circulant_from_multiplier``), else applied by the
same GMRES as one grid solve per product, both to the relative residual
LINEAR_TOL.
"""
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bessel, coupling, spectral, stokes
from .bessel import SsdSymbolParams, ssd_symbol_s, ssd_symbol_second_order, ssd_symbol_t
from .errors import BlowupError, ParameterError, SolverStallError
from .geometry import (InterfaceState, anchor_velocity, elastic_force, enclosed_area,
                       init_ellipse, tangent_normal, theta_derivative, update_reference_points)
from .params import finite_real
from .spectral import TWO_PI
from .stokes import FluidState, steady_stokes_grid_solve, unsteady_stokes_step

STEADY_SCHEMES = ("explicit_steady", "ssd1_steady", "ssd2_steady",
                  "ifrk4_steady", "stable_steady")
UNSTEADY_SCHEMES = ("explicit_unsteady", "ssd1_unsteady", "ssd2_unsteady",
                    "stable_unsteady", "second_order_unsteady")
ALL_SCHEMES = STEADY_SCHEMES + UNSTEADY_SCHEMES

DENSE_MAX = 256       # dense stable-scheme systems up to this N_b, GMRES above
LINEAR_TOL = 1e-10    # relative residual of the stable schemes' implicit solves
SECOND_KIND_TOL = 1e-13  # relative residual of the second-kind increments' GMRES
BLOWUP_FACTOR = 1e6   # velocity growth over the first step's speed that counts as blowup
# a value under ROUNDOFF times the size of the operator that made it is
# round-off.  An SSD leading term against its operator's size (``_size``):
# circle starts read <= 4e-14 at N <= 128, ellipses >= 1e-4.  A GMRES pivot
# against |A q_k|: singular systems read <= 5e-16, the tests' solves >= 3.6e-3
ROUNDOFF = 1e-12


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
    """One step's state; its curve is the interface's (``interface.curve``)."""
    interface: InterfaceState
    fluid: FluidState = None      # absent for steady schemes
    t: float = 0.0
    step: int = 0
    speed_ref: float = None       # blowup-detection reference scale
    c_v: float = None             # SSD rescaling coefficients, fixed by the first SSD step;
    c_u: float = None             # a start state with c_v = c_u = 1 runs unrescaled


def _node_velocity(stencils, fluid):
    """J u: the fluid's xy velocity interpolated at the nodes, (N_b, 2)."""
    return coupling.interpolate(stencils, (fluid.u, fluid.v))


def _fluid_solve(fluid, phys, grid, cfg):
    """The scheme's fluid solve f_grid -> fluid: steady Stokes from rest, or
    one unsteady step from ``fluid`` (None: from rest)."""
    if cfg.scheme in STEADY_SCHEMES:
        return lambda f_grid: steady_stokes_grid_solve(f_grid, phys.mu, grid)
    return lambda f_grid: unsteady_stokes_step(fluid, f_grid, phys.rho, phys.mu, cfg.dt, grid)


def _velocity_map(stencils, iface, grid, solve, average_with=None):
    """K, the map force -> (u, fluid) on the frozen interface ``iface``, force
    and velocity blocks [normal; tangential] in its node frames: the force is
    rotated to xy, spread through ``stencils`` with the interface's spacing,
    solved for by ``solve(f_grid)``, interpolated and rotated back.  The
    trapezoidal scheme takes the mean of that and the node velocity of
    ``average_with``, interpolated once per map."""
    tau, nrm = tangent_normal(iface)
    nb = len(tau)
    uv_with = None if average_with is None else _node_velocity(stencils, average_with)

    def velocity(force):
        fluid = solve(coupling.spread(stencils, force[:nb, None] * nrm + force[nb:, None] * tau,
                                      grid, iface.dalpha))
        uv = _node_velocity(stencils, fluid)
        if uv_with is not None:
            uv = 0.5 * (uv + uv_with)
        return np.concatenate([np.sum(uv * nrm, axis=1), np.sum(uv * tau, axis=1)]), fluid
    return velocity


def _step_map(state, phys, grid, cfg):
    """K on the step's own curve, through the scheme's fluid solve."""
    return _velocity_map(coupling.delta_stencils(state.interface.curve, grid), state.interface,
                         grid, _fluid_solve(state.fluid, phys, grid, cfg))


def _rows(v, x):
    """diag(v) x for a vector x or the columns of a matrix x (v may be a scalar)."""
    return (v * x.T).T


def _stretch_rate(u, dth, d):
    """R for s_alpha: D V - theta_a U of the block velocity u = [U; V] (a
    vector or matrix columns), ``d`` the derivative D."""
    nb = len(u) // 2
    return d(u[nb:]) - _rows(dth, u[:nb])


def _angle_rate(u, dth, d):
    """R for the angle, times s_alpha: D U + theta_a V (theta_t is this over s_alpha)."""
    nb = len(u) // 2
    return d(u[:nb]) + _rows(dth, u[nb:])


def _finish(state, cfg, s_new, phi_new, refs, fluid=None):
    """The next StepState, after the blowup checks; steady flow keeps no fluid."""
    if cfg.scheme in STEADY_SCHEMES:
        fluid = None
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
    return StepState(InterfaceState(s_new, phi_new, refs, state.interface.length), fluid,
                     state.t + cfg.dt, k, speed_ref, state.c_v, state.c_u)


def _circulant_from_multiplier(mult):
    """Real circulant applying a conjugate-symmetric Fourier multiplier, gathered
    from its first column: C[i, j] = c[(i - j) % n], c = real(ifft(mult))."""
    c = np.real(np.fft.ifft(mult))
    n = len(c)
    return c[np.subtract.outer(np.arange(n), np.arange(n)) % n]


def _dense_solve(a, b, step_index):
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:       # an exactly singular system
        raise SolverStallError(f"singular implicit system at step {step_index}") from None
    resid = np.linalg.norm(a @ x - b)
    if not np.isfinite(resid) or resid > LINEAR_TOL * max(np.linalg.norm(b), 1e-30):
        if np.linalg.cond(a) >= 1e14:
            raise SolverStallError(f"singular implicit system at step {step_index}")
        raise SolverStallError(f"dense solve residual {resid:.2e} at step {step_index}")
    return x


def _kernel_map(left, mult, right):
    """x -> left * conv(mult, right * x): a diagonal, the circulant of the
    conjugate-symmetric Fourier multiplier ``mult`` and a diagonal, applied
    by two real FFTs."""
    conv = spectral.fourier_map(mult)
    return lambda x: left * conv(right * x)


def _gmres(apply, b, tol, step_index):
    """Solve apply(x) = b to the relative residual ``tol`` by GMRES from x = 0:
    unrestarted and at most len(b) iterations, the Krylov basis orthogonalised
    by classical Gram-Schmidt with one re-orthogonalisation, and the
    Hessenberg least-squares problem reduced by Givens rotations as it grows,
    so each iteration reads its residual norm off the rotated right-hand side.
    A step whose new pivot is under ROUNDOFF times |apply(q_k)| finds nothing
    outside the basis but round-off, so the system is singular to working
    precision: it stalls rather than divide by that pivot."""
    n = len(b)
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros(n)
    basis = np.empty((n + 1, n))     # only the rows the iterations reach are touched
    basis[0] = b / beta
    rotations, cols, g = [], [], [beta]  # (cos, sin); the triangle's columns; rotated rhs
    for k in range(n):
        w = apply(basis[k])
        w_norm = float(np.linalg.norm(w))
        q = basis[:k + 1]
        h = q @ w
        w -= h @ q
        h2 = q @ w
        w -= h2 @ q
        col = (h + h2).tolist()
        h_next = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[k], h_next)
        if not (math.isfinite(rho) and rho > ROUNDOFF * w_norm):
            raise SolverStallError(f"GMRES stalled on a singular or non-finite Krylov step "
                                   f"at step {step_index}")
        c, s = col[k] / rho, h_next / rho
        col[k] = rho
        rotations.append((c, s))
        cols.append(col)
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= tol * beta:
            break
        basis[k + 1] = w / h_next
    else:
        raise SolverStallError(f"GMRES stalled at relative residual {abs(g[n]) / beta:.2e} "
                               f"after {n} iterations at step {step_index}")
    y = np.zeros(len(cols))
    for i in range(len(cols) - 1, -1, -1):     # back substitution on the triangle
        y[i] = (g[i] - sum(cols[j][i] * y[j] for j in range(i + 1, len(cols)))) / cols[i][i]
    return y @ basis[:len(cols)]


def _increment(lead, r, dt, step_index):
    """Delta = x^{n+1} - x^n of the step x^{n+1} = x^n + dt (r + L Delta), so
    (I - dt L) Delta = dt r, for the leading operator L = ``lead`` absent
    (forward Euler), a Fourier diagonal, or a pair (diagonal, correction map)
    of the second kind, L = L_diag + C.  The pair is solved matrix-free by
    GMRES to SECOND_KIND_TOL, right-preconditioned by M = (I - dt L_diag)^-1,
    the first kind's own Fourier solve: (I - dt C M) y = dt r, Delta = M y."""
    if lead is None:
        return dt * r
    diagonal, correction = lead if isinstance(lead, tuple) else (lead, None)
    precondition = spectral.fourier_map(1.0 / (1.0 - dt * diagonal))
    if correction is None:
        return precondition(dt * r)
    return precondition(_gmres(lambda y: y - dt * correction(precondition(y)), dt * r,
                               SECOND_KIND_TOL, step_index))


def _steady_rates(iface, phys):
    """Hilbert-transform decay rates of the steady leading terms:
    eta = (S_b/4mu)|kappa| for s_alpha and xi = gamma * eta for the angle."""
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    eta = phys.elastic / (4.0 * phys.mu) * np.abs(kappa)
    gamma = float(np.max(1.0 - 1.0 / iface.s_alpha))
    return eta, gamma * eta


def _area_balanced_stretch(s_new, phi_new, refs, length, target_area, step_index):
    """Rescale s_alpha by the one factor that gives the rebuilt curve the
    target area.  The reconstruction is linear in s_alpha up to a rigid
    translation, so the shoelace area scales with the factor squared."""
    if not np.all(np.isfinite(s_new)) or np.any(s_new <= 0):
        return s_new  # _finish reports the collapse
    ratio = target_area / enclosed_area(InterfaceState(s_new, phi_new, refs, length).curve)
    if not ratio > 0:
        raise BlowupError(step_index, f"area balance has no positive stretch at step {step_index}")
    return s_new * np.sqrt(ratio)


def _steady_leads(state, phys, grid, cfg, dth, dv, second_kind):
    """(L_s, C_V, lead_phi), ``lead_phi(s_new, u) = (L_phi, C_U)``, of steady
    flow: the Hilbert rates -eta and -gamma eta (``_steady_rates``), unrescaled,
    as Fourier diagonals, the second kind's L_s paired with the log-kernel
    part of the normal velocity."""
    iface = state.interface
    eta, xi = _steady_rates(iface, phys)
    lead_s = -eta
    if second_kind:
        # ds/dt = -(S_b/4mu) H D s - theta_a * U_lead(s) + explicit rate, with
        # U_lead(s) = -c * int ln|a-a'| (s-1) theta_a da'; the constant part of
        # U_lead goes with the explicit rate, leaving L_s linear in s
        c = phys.elastic / (4.0 * np.pi * phys.mu)
        lead_s = (lead_s, _kernel_map(c * dth, -stokes._log_kernel_multiplier(
            iface.n_nodes, iface.length, grid.length), dth))
    return lead_s, None, lambda s_new, u: (-xi, None)


def _size(*factors):
    """The product of max|f| over a chain of multipliers, diagonals and the
    input they act on: the scale against which a leading term is round-off."""
    return float(np.prod([np.max(np.abs(f)) for f in factors]))


def _rescaling_coefficient(stored, observed, leading):
    """SSD rescaling coefficient C_V or C_U: the stored value, else the
    first-step ratio max|observed| / max|term| of ``leading() = (term, size)``,
    or 1 when the term is round-off, under ROUNDOFF times the size of the
    operator's action on its input (``_size``)."""
    if stored is not None:
        return stored
    term, size = leading()
    denom = float(np.max(np.abs(term)))
    if denom <= ROUNDOFF * size:
        return 1.0
    return float(np.max(np.abs(observed))) / denom


def _velocity_level_lead(symbol, phi, s_min, length):
    """Leading-order normal velocity implied by an angle-equation symbol, and
    its size (``_size``).

    The angle equation reads theta_t = (1/s) D U + ..., so a leading term
    symbol(kappa) acting on phi corresponds to the velocity
    u_hat = s_min * symbol(kappa) * phi_hat / (i kappa), on an interface of
    length ``length``.
    """
    mult = symbol * spectral.antiderivative_multiplier(len(phi), length)
    return spectral.fourier_map(s_min * mult)(phi), _size(s_min, mult, phi)


def _unsteady_leads(state, phys, grid, cfg, dth, dv, second_kind):
    """(L_s, C_V, lead_phi), ``lead_phi(s_new, u) = (L_phi, C_U)``, of
    unsteady flow: C_V T and C_U S/min(s^{n+1}), T and S the SSD symbols, as
    Fourier diagonals, the second kind's L_s paired with the smooth kernel on
    D^2((s - 1) theta_a).  The first step fixes C_V from
    D V* (``dv``) and C_U from the normal velocity u."""
    iface = state.interface
    s0, nb = iface.s_alpha, iface.n_nodes
    p = SsdSymbolParams.from_state(s0, phys.elastic, phys.mu, phys.rho, cfg.dt)
    kappa = spectral.wavenumbers(nb, iface.length)
    t_hat = ssd_symbol_t(kappa, p)
    s_hat_sym = ssd_symbol_s(kappa, p)

    def lead_phi(s_new, u):
        c_u = _rescaling_coefficient(state.c_u, u[:nb], lambda: _velocity_level_lead(
            s_hat_sym, iface.phi, p.s_min, iface.length))
        # the leading angle operator is S/min(s), one Fourier diagonal that the
        # increment form takes at phi^{n+1} and subtracts at phi^n alike; a
        # pointwise 1/s on one side only makes the homogeneous high-k
        # multiplier min(s) != 1, and the update amplifies node-scale modes
        return c_u * s_hat_sym / float(np.min(s_new)), c_u

    if not second_kind:
        c_v = _rescaling_coefficient(state.c_v, dv, lambda: (
            spectral.apply_symbol_1d(s0, t_hat), _size(t_hat, s0)))
        return c_v * t_hat, c_v, lead_phi
    # correction: the smooth K0(beta|d|) + ln|d| convolution (the log
    # singularities cancel, as in the second fundamental solution) acting on
    # D^2((s - 1) theta_a), one multiplier, the kernel's times -kappa^2
    mult = np.pi * bessel.k0_convolution_symbol(p.lam * p.s_min, kappa) \
        - stokes._log_kernel_multiplier(nb, iface.length, grid.length)
    d2_mult = mult * -kappa**2
    pref = -(phys.elastic * cfg.dt) / (2.0 * np.pi * phys.rho)
    coef = dth / s0**2
    # the leading term T s + pref coef conv((s - 1) theta_a) is affine in s;
    # its constant part goes with the explicit rate, leaving L_s linear in s
    c_v = _rescaling_coefficient(state.c_v, dv, lambda: (
        spectral.apply_symbol_1d(s0, t_hat) + _kernel_map(pref * coef, d2_mult, dth)(s0 - 1.0),
        _size(t_hat, s0) + _size(pref, coef, d2_mult, (s0 - 1.0) * dth)))
    return (c_v * t_hat, _kernel_map(c_v * pref * coef, d2_mult, dth)), c_v, lead_phi


# scheme: (leading operators, none for forward Euler; second kind; angle and
# anchors at U1 = K F(s^{n+1}, theta^n), else at U* = K F^n; area balance)
_SEMI_IMPLICIT = {
    "explicit_steady": (None, False, False, False),
    "ssd1_steady": (_steady_leads, False, True, True),
    "ssd2_steady": (_steady_leads, True, False, False),
    "explicit_unsteady": (None, False, False, False),
    "ssd1_unsteady": (_unsteady_leads, False, True, False),
    "ssd2_unsteady": (_unsteady_leads, True, True, False),
}


def step_semi_implicit(state, phys, grid, cfg):
    """One explicit or SSD step, steady or unsteady: x^{n+1} = x^n + Delta
    with (I - dt L) Delta = dt r (``_increment``), for s_alpha, then the angle.

    r_s = D V* - theta_a U* with U* = K F^n, and r_phi = (D U + theta_a V)/s:
    forward Euler takes U* and s^n, the SSD schemes s^{n+1} and (but
    ``ssd2_steady``) U1 = K F(s^{n+1}, theta^n).  The anchors and the fluid
    follow U.  The second kind's L_phi holds the transport T = (V/s^{n+1}) D,
    so r_phi stays whole: with R_w the angle rate on the winding 2 pi/L_b,
    (I/dt - lead - T) Delta = R_w/s^{n+1} + T phi^n = r_phi.

    ``ssd1_steady`` makes two choices beyond Hou-Lowengrub-Shelley:

    (a) Like the stable scheme (``step_stable``, Step 2) and the unsteady
        first kind, the angle and anchor updates take the velocity of
        F(s^{n+1}, theta^n), which costs a second grid solve per step.
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
    leads, second_kind, at_u1, area_balance = _SEMI_IMPLICIT[cfg.scheme]
    iface = state.interface
    dt, nb, length = cfg.dt, iface.n_nodes, iface.length
    dth = theta_derivative(iface)
    d = partial(spectral.derivative_1d, period=length)
    velocity = _step_map(state, phys, grid, cfg)
    u_star, fluid = velocity(elastic_force(iface.s_alpha, dth, phys.elastic, length))
    dv = d(u_star[nb:])     # D V*, read by C_V and by the stretch rate
    lead_s, c_v, lead_phi = (None, None, lambda s_new, u: (None, None)) if leads is None \
        else leads(state, phys, grid, cfg, dth, dv, second_kind)
    s_new = iface.s_alpha + _increment(lead_s, dv - dth * u_star[:nb], dt, state.step + 1)

    u = u_star
    if at_u1:
        fluid = None    # U*'s fluid is not kept: free it before the next solve
        u, fluid = velocity(elastic_force(s_new, dth, phys.elastic, length))
    lead_phi, c_u = lead_phi(s_new, u)
    s_rate = iface.s_alpha if leads is None else s_new   # forward Euler: all at t^n
    if second_kind:     # the transport (V/s^{n+1}) D
        lead_phi = (lead_phi, _kernel_map(u[nb:] / s_new,
                                          1j * spectral.odd_wavenumbers(nb, length), 1.0))
    phi_new = iface.phi + _increment(lead_phi, _angle_rate(u, dth, d) / s_rate, dt,
                                     state.step + 1)
    refs = update_reference_points(iface, u, dt)
    if area_balance:
        flux = float(np.sum(u_star[:nb] * iface.s_alpha)) * iface.dalpha
        s_new = _area_balanced_stretch(s_new, phi_new, refs, length,
                                       enclosed_area(iface.curve) - dt * flux, state.step + 1)
    return _finish(replace(state, c_v=c_v, c_u=c_u), cfg, s_new, phi_new, refs, fluid)


def _ifrk4_diagonal(y0, rate, dt, n_func):
    """Integrating-factor RK4 for y' = -rate*y + n(y), diagonal rate >= 0.

    ``n_func(y)`` returns the nonlinear part at each stage's y (times t,
    t+dt/2, t+dt/2, t+dt, in that order).
    """
    e_half = np.exp(-0.5 * dt * rate)
    e_full = e_half * e_half
    k1 = n_func(y0)
    y2 = e_half * (y0 + 0.5 * dt * k1)
    k2 = n_func(y2)
    y3 = e_half * y0 + 0.5 * dt * k2
    k3 = n_func(y3)
    y4 = e_full * y0 + dt * e_half * k3
    k4 = n_func(y4)
    return e_full * y0 + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def step_ifrk4_steady(state, phys, grid, cfg):
    iface = state.interface
    dt = cfg.dt
    nb = iface.n_nodes
    half = nb // 2 + 1      # y holds the rfft half spectra of s_alpha and the angle
    eta, xi = _steady_rates(iface, phys)
    rate = np.concatenate([eta[:half], xi[:half]])
    d = partial(spectral.derivative_1d, period=iface.length)
    stage_vel = []

    def n_func(y):
        s = np.fft.irfft(y[:half], nb)
        phi = np.fft.irfft(y[half:], nb)
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise BlowupError(state.step + 1, "stage state degenerate inside RK4")
        stage_if = InterfaceState(s, phi, iface.ref_points, iface.length)
        stage = replace(state, interface=stage_if)
        dth = theta_derivative(stage_if)
        u, _ = _step_map(stage, phys, grid, cfg)(elastic_force(s, dth, phys.elastic, iface.length))
        stage_vel.append(anchor_velocity(stage_if, u))
        return np.concatenate([np.fft.rfft(_stretch_rate(u, dth, d)),
                               np.fft.rfft(_angle_rate(u, dth, d) / s)]) + rate * y

    y0 = np.concatenate([np.fft.rfft(iface.s_alpha), np.fft.rfft(iface.phi)])
    y1 = _ifrk4_diagonal(y0, rate, dt, n_func)
    s_new = np.fft.irfft(y1[:half], nb)
    phi_new = np.fft.irfft(y1[half:], nb)
    # the anchors ride the same RK4 stages (classical weights), keeping the
    # reconstruction at the accuracy of the interface update
    k1, k2, k3, k4 = stage_vel
    refs = iface.ref_points + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _finish(state, cfg, s_new, phi_new, refs)


def _solve_linear(lin, b, step_index):
    """Solve the implicit system A x = b to LINEAR_TOL, with ``lin`` either
    the assembled matrix A (dense solve) or the linear map x -> A x (GMRES)."""
    if isinstance(lin, np.ndarray):
        return _dense_solve(lin, b, step_index)
    return _gmres(lin, b, LINEAR_TOL, step_index)


def _interface_mobility(stencils, iface, grid, solve):
    """K assembled: the interface mobility M = J L S of the frozen interface
    ``iface`` (the IB mobility of Balboa Usabiaga et al. 2016) in its node
    frames.  Column a N_b + j is the block velocity [U; V] of the unit a-force
    on node j, a in (normal, tangential): node j spreads its unit normal and
    tangent once through its own stencils, and each column costs one fluid
    solve ``solve(f_grid)``.  Spreading and interpolation are adjoint, so K is
    symmetric."""
    tau, nrm = tangent_normal(iface)
    nb = len(tau)
    uv = np.empty((nb, 2, 2 * nb))    # node, xy, column
    for j in range(nb):
        units = np.stack([nrm[j], tau[j]], axis=-1)[None]    # (1, xy, a)
        fields = coupling.spread(stencils[j:j + 1], units, grid, iface.dalpha)  # (N, N, xy, a)
        for a in range(2):
            uv[..., a * nb + j] = _node_velocity(stencils, solve(fields[..., a]))
    return np.concatenate([np.sum(uv * nrm[..., None], axis=1),
                           np.sum(uv * tau[..., None], axis=1)])


def step_stable(state, phys, grid, cfg):
    """Two-step stable scheme (after Newren, Fogelson, Guy & Kirby) on a
    frozen curve, in steady or unsteady flow, written in F, K and R: the
    implicit systems use K from rest (``solve``), and the velocities that move
    the interface and the fluid use the advancing K (from the current fluid
    in unsteady flow; the same solve in steady flow).

    Both implicit systems read A = I - diag(scale) R K F_lin, scale dt for
    s_alpha and dt/s^{n+1} for the angle, with F_lin the part of the force
    linear in the unknown.  Step 1 takes F(s^{n+1}, theta^n) = F_lin s^{n+1} +
    F(0, theta^n); Step 2 takes F(s^{n+1}, theta^{n+1}) = F_lin phi^{n+1} +
    F(s^{n+1}, 2 pi/L_b).  Up to DENSE_MAX nodes K is assembled once per step
    (``_interface_mobility``) and A formed with the derivative circulant; above
    it GMRES applies A, K as one from-rest grid solve, D as the FFT derivative."""
    iface = state.interface
    dt = cfg.dt
    nb = iface.n_nodes
    elastic, length = phys.elastic, iface.length
    stencils = coupling.delta_stencils(iface.curve, grid)
    dth = theta_derivative(iface)
    solve = _fluid_solve(None, phys, grid, cfg)
    from_rest = _velocity_map(stencils, iface, grid, solve)
    advance = _velocity_map(stencils, iface, grid, _fluid_solve(state.fluid, phys, grid, cfg))
    # the unforced velocity of the current fluid (none in steady flow)
    u_hom = 0.0 if cfg.scheme in STEADY_SCHEMES else advance(np.zeros(2 * nb))[0]

    fft_derivative = partial(spectral.derivative_1d, period=length)
    dense = nb <= DENSE_MAX
    if dense:
        derivative = _circulant_from_multiplier(
            1j * spectral.odd_wavenumbers(nb, length)).__matmul__
        mobility = _interface_mobility(stencils, iface, grid, solve).__matmul__
    else:
        derivative = fft_derivative

        def mobility(f):  # one from-rest grid solve
            return from_rest(f)[0]

    def system(scale, force, rate):
        """A = I - diag(scale) R K F_lin: assembled, or the map x -> A x for GMRES."""
        def apply(x):
            return x - _rows(scale, rate(mobility(force(x, derivative)), dth, derivative))
        return apply(np.eye(nb)) if dense else apply

    # Step 1: implicit s_alpha; F_lin s = S_b [theta_a s; D s]
    def force_s(s, d):
        return elastic * np.concatenate([_rows(dth, s), d(s)])

    b = iface.s_alpha + dt * _stretch_rate(
        u_hom + from_rest(elastic_force(np.zeros(nb), dth, elastic, length))[0], dth,
        fft_derivative)
    s_new = _solve_linear(system(dt, force_s, _stretch_rate), b, state.step + 1)
    # the Step-1 velocity at the solution moves the anchors and the fluid
    u1, fluid1 = advance(elastic_force(s_new, dth, elastic, length))

    # Step 2: implicit angle; F_lin phi = S_b [(s^{n+1} - 1) D phi; 0]
    def force_phi(phi, d):
        f_n = elastic * _rows(s_new - 1.0, d(phi))
        return np.concatenate([f_n, np.zeros_like(f_n)])

    scale = dt / s_new
    b_phi = iface.phi + scale * _angle_rate(
        u_hom + from_rest(elastic_force(s_new, TWO_PI / length, elastic, length))[0], dth,
        fft_derivative)
    phi_new = _solve_linear(system(scale, force_phi, _angle_rate), b_phi, state.step + 1)
    return _finish(state, cfg, s_new, phi_new, update_reference_points(iface, u1, dt), fluid1)


def step_second_order_unsteady(state, phys, grid, cfg):
    """Midpoint/trapezoidal scheme: a half step of the first-order method
    provides the midpoint state; the full step then advances through
    midpoint unknowns with the second-order leading symbols."""
    iface = state.interface
    dt = cfg.dt

    # fractional step to t + dt/2 with the first-order scheme; the midpoint
    # scheme runs unrescaled (the first-step rescaling heuristic under-damps
    # it and is unnecessary at second-order accuracy)
    half = step_semi_implicit(replace(state, c_v=1.0, c_u=1.0), phys, grid,
                              replace(cfg, scheme="ssd1_unsteady", dt=dt / 2))
    iface_h = half.interface
    del half    # its fluid is not kept: free it before the next solve
    dth_h = theta_derivative(iface_h)
    d = partial(spectral.derivative_1d, period=iface.length)

    p2 = replace(SsdSymbolParams.from_state(iface_h.s_alpha, phys.elastic, phys.mu, phys.rho, dt),
                 lam=np.sqrt(2.0 * phys.rho / (phys.mu * dt)))
    kappa = spectral.wavenumbers(iface.n_nodes, iface.length)
    t2_hat, s2_hat = ssd_symbol_second_order(kappa, p2)

    # trapezoidal solves on the midpoint curve; the velocity is that of the
    # centred fluid (u^n + u^{n+1})/2
    centered_velocity = _velocity_map(
        coupling.delta_stencils(iface_h.curve, grid), iface_h, grid,
        lambda f_grid: unsteady_stokes_step(state.fluid, f_grid, phys.rho, phys.mu, dt, grid,
                                            theta=0.5),
        average_with=state.fluid)

    # each unknown takes the Crank-Nicolson pair of its leading term L, less
    # the explicit counterpart at the midpoint state x^{n+1/2}:
    # (I - dt L/2) Delta = dt (r + L (x^n - x^{n+1/2}))
    u_star = centered_velocity(elastic_force(iface_h.s_alpha, dth_h, phys.elastic,
                                             iface.length))[0]
    s_new = iface.s_alpha + _increment(
        0.5 * t2_hat, _stretch_rate(u_star, dth_h, d)
        + spectral.apply_symbol_1d(iface.s_alpha - iface_h.s_alpha, t2_hat), dt, state.step + 1)

    s_bar = 0.5 * (s_new + iface.s_alpha)
    u_bar, fluid1 = centered_velocity(elastic_force(s_bar, dth_h, phys.elastic, iface.length))

    # the angle leading operator carries 1/min(s) on both the implicit
    # midpoint term and its explicit counterpart so the pair cancels to
    # O(dt^3); a pointwise 1/s on one side only would degrade the order
    lead_phi = s2_hat / float(np.min(iface_h.s_alpha))
    phi_new = iface.phi + _increment(
        0.5 * lead_phi, _angle_rate(u_bar, dth_h, d) / iface_h.s_alpha
        + spectral.apply_symbol_1d(iface.phi - iface_h.phi, lead_phi), dt, state.step + 1)

    # midpoint predictor for the anchors, velocities from the centered field
    refs = update_reference_points(iface_h, u_bar, dt)
    refs = iface.ref_points + (refs - iface_h.ref_points)
    return _finish(state, cfg, s_new, phi_new, refs, fluid1)


_STEPPERS = dict.fromkeys(_SEMI_IMPLICIT, step_semi_implicit) | {
    "ifrk4_steady": step_ifrk4_steady,
    "stable_steady": step_stable,
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
    return StepState(init_ellipse(a, b, center, grid.n_boundary, rest_radius=rest_radius),
                     FluidState.rest(grid.n), 0.0, 0, None)


def simulate(state, phys, grid, cfg, n_steps):
    """Yield successive StepStates; blowups propagate as BlowupError."""
    for _ in range(n_steps):
        state = step(state, phys, grid, cfg)
        yield state
