"""Arclength-derivative / tangent-angle representation of the closed elastic
interface: construction, the elastic force in the node frames, the anchor
update, and curve reconstruction from two reference points.

Per-node forces and velocities are block vectors [normal; tangential] in
the node frames (``tangent_normal``), 2 N_b long."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .errors import ParameterError
from .spectral import TWO_PI


@dataclass
class InterfaceState:
    """Lagrangian unknowns of the interface.

    theta(alpha) = 2*pi*alpha/length + phi(alpha) with phi periodic, so theta
    winds by exactly 2*pi over one period.  ref_points holds the anchors at
    alpha = 0 and alpha = length/2 as a (2, 2) array of (x, y) rows.  The
    curve is formed from these alone (``curve``), once, when first read.
    """

    s_alpha: np.ndarray
    phi: np.ndarray
    ref_points: np.ndarray
    length: float = TWO_PI

    def __post_init__(self):
        self.s_alpha = np.asarray(self.s_alpha, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.ref_points = np.asarray(self.ref_points, dtype=float).reshape(2, 2)
        if np.any(self.s_alpha <= 0):
            raise ParameterError("s_alpha must be positive everywhere")

    @property
    def n_nodes(self):
        return self.s_alpha.size

    @property
    def dalpha(self):
        return self.length / self.n_nodes

    @property
    def alpha(self):
        return self.length * np.arange(self.n_nodes) / self.n_nodes

    @property
    def theta(self):
        return TWO_PI * self.alpha / self.length + self.phi

    @cached_property
    def curve(self):    # nothing writes an interface after construction
        return reconstruct_curve(self)


@dataclass
class CurveSamples:
    """Point samples (x_j, y_j) of the closed curve, unwrapped coordinates."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)

    @property
    def n_nodes(self):
        return self.x.size

    def as_array(self):
        return np.column_stack([self.x, self.y])


def init_ellipse(a, b, center, n_nodes, rest_radius=1.0):
    """Interface state of an axis-aligned ellipse, its curve rebuilt from it as every state's.

    The material coordinate runs over [0, 2*pi*rest_radius); rest_radius sets
    the zero-tension stretch, so a circle of that radius has s_alpha = 1.
    With the default rest_radius = 1 the parameter is the plain angle and
    s_alpha equals |dX/d(angle)|.
    """
    if not np.all(np.isfinite([a, b, *center])):
        raise ParameterError(f"ellipse axes and centre must be finite, got a={a}, b={b}, "
                             f"center={tuple(center)}")
    if a <= 1e-12 or b <= 1e-12:
        raise ParameterError(f"degenerate ellipse axes a={a}, b={b}")
    if n_nodes % 2 != 0 or n_nodes <= 0:
        raise ParameterError(f"n_nodes must be even and positive, got {n_nodes}")
    ang = TWO_PI * np.arange(n_nodes) / n_nodes
    curve = CurveSamples(center[0] + a * np.cos(ang), center[1] + b * np.sin(ang))
    return state_from_curve(curve, TWO_PI * rest_radius)


def tangent_normal(state):
    """Unit tangent and (left) normal per node, each shaped (N, 2)."""
    th = state.theta
    tau = np.column_stack([np.cos(th), np.sin(th)])
    nrm = np.column_stack([-np.sin(th), np.cos(th)])
    return tau, nrm


def theta_derivative(state):
    """D theta = 2*pi/length + D phi (the winding part differentiates exactly)."""
    return TWO_PI / state.length + spectral.derivative_1d(state.phi, period=state.length)


def elastic_force(s_alpha, dth, elastic, length):
    """Hookean force density S_b (D s_alpha tau + (s_alpha - 1) D theta n) in
    the node frames: the block S_b [(s_alpha - 1) D theta; D s_alpha].  ``dth``
    is D theta, frozen or not (an array, or the scalar 2 pi/length)."""
    return elastic * np.concatenate([(s_alpha - 1.0) * dth,
                                     spectral.derivative_1d(s_alpha, period=length)])


def anchor_velocity(state, u):
    """(x, y) velocity rows of the two anchors, a (2, 2) array, from the block
    velocity u = [U; V]."""
    n = state.n_nodes
    j = np.array([0, n // 2])
    u_normal, u_tangent = u[j], u[n + j]
    cos, sin = np.cos(state.theta[j]), np.sin(state.theta[j])
    return np.column_stack([u_tangent * cos - u_normal * sin,
                            u_tangent * sin + u_normal * cos])


def update_reference_points(state, u, dt):
    """Forward-Euler update of the two anchors from the block velocity u."""
    return state.ref_points + dt * anchor_velocity(state, u)


def reconstruct_curve(state):
    """Rebuild curve samples by integrating s_alpha * (cos theta, sin theta).

    One reconstruction is anchored at alpha = 0, a second (the same
    antiderivative rigidly translated) at alpha = length/2; the result is
    their pointwise average.  ``anchor_drift`` measures how far apart the two
    are.
    """
    th = state.theta
    gx = spectral.antiderivative(state.s_alpha * np.cos(th), state.ref_points[0, 0],
                                 period=state.length)
    gy = spectral.antiderivative(state.s_alpha * np.sin(th), state.ref_points[0, 1],
                                 period=state.length)
    mid = state.n_nodes // 2
    shift = state.ref_points[1] - np.array([gx[mid], gy[mid]])
    return CurveSamples(gx + 0.5 * shift[0], gy + 0.5 * shift[1])


def anchor_drift(state):
    """Distance between the two anchored reconstructions averaged into
    ``state.curve``, which sits half of it from the anchor at alpha = length/2;
    round-off for a state built from curve samples (``state_from_curve``)."""
    mid, curve = state.n_nodes // 2, state.curve
    return 2.0 * float(np.hypot(state.ref_points[1, 0] - curve.x[mid],
                                state.ref_points[1, 1] - curve.y[mid]))


def enclosed_area(curve):
    """Shoelace area with periodic wrap; positive for counterclockwise curves."""
    x, y = curve.x, curve.y
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def radius_variation(curve):
    """max_j |r_j - mean r| / mean r about the centroid; 0 for a perfect circle."""
    cx, cy = curve.x.mean(), curve.y.mean()
    r = np.hypot(curve.x - cx, curve.y - cy)
    return float(np.max(np.abs(r - r.mean())) / r.mean())


def state_from_curve(curve, length=TWO_PI):
    """Build an InterfaceState from curve samples (inverse of reconstruct_curve)."""
    n = curve.n_nodes
    x_a = spectral.derivative_1d(curve.x, period=length)
    y_a = spectral.derivative_1d(curve.y, period=length)
    s_alpha = np.hypot(x_a, y_a)
    theta = np.unwrap(np.arctan2(y_a, x_a))
    ang = TWO_PI * np.arange(n) / n
    refs = np.array([[curve.x[0], curve.y[0]], [curve.x[n // 2], curve.y[n // 2]]])
    return InterfaceState(s_alpha, theta - ang, refs, length)
