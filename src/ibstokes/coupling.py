"""Peskin 4-point discrete delta, the spreading/interpolation pair, and the
discrete inner products they are adjoint under.

``delta_stencils`` builds one transfer object per curve: the 4x4 weight
block of delta_h at each interface node and the grid cells it covers.
Spreading scatters interface quantities onto the grid with weights
delta_h(x - X_j) * dalpha, with the interface's spacing dalpha passed in;
interpolation gathers grid fields with weights delta_h * h^2.  Both read the
same object and never rebuild it, so the pair is adjoint by construction,
exactly in floating point; that identity is what the energy estimates of the
semi-implicit schemes rest on.  A step builds the object once for each curve
it couples through.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def peskin_phi(r):
    """The 4-point kernel, vectorized over r.

    Roundoff can push the radicands a hair negative at |r| = 1, 2; they are
    clamped at 0.
    """
    r = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(r)
    inner = r <= 1.0
    outer = (r > 1.0) & (r < 2.0)
    rad1 = np.clip(1.0 + 4.0 * r[inner] - 4.0 * r[inner] ** 2, 0.0, None)
    out[inner] = (3.0 - 2.0 * r[inner] + np.sqrt(rad1)) / 8.0
    rad2 = np.clip(-7.0 + 12.0 * r[outer] - 4.0 * r[outer] ** 2, 0.0, None)
    out[outer] = (5.0 - 2.0 * r[outer] - np.sqrt(rad2)) / 8.0
    return out


@dataclass(frozen=True)
class Stencils:
    """The delta_h weights of one curve on one grid, shared by spread and
    interpolate.

    w: weights (N_b, 4, 4) with w[j, p, q] = phi(dx_p) phi(dy_q) / h^2;
    cells: the flat grid index ix[j, p] * N + iy[j, q] of each weight, with
    ix, iy the periodic grid indices of the node's 4x4 block per axis;
    wh2: the interpolation weights w * h^2, formed once.
    """

    w: np.ndarray
    cells: np.ndarray
    wh2: np.ndarray

    def __getitem__(self, nodes):
        """The stencils of a slice of the nodes, e.g. ``stencils[j:j + 1]``
        for node j alone: spreading through it equals spreading values that
        vanish off those nodes through the whole curve's object."""
        return Stencils(self.w[nodes], self.cells[nodes], self.wh2[nodes])


def delta_stencils(curve, grid):
    """The transfer object of ``curve`` on ``grid``: 4x4 weight blocks of
    delta_h centered at each interface node."""
    h = grid.h
    n = grid.n
    gx = np.asarray(curve.x, dtype=float)[:, None] / h
    gy = np.asarray(curve.y, dtype=float)[:, None] / h
    offs = np.arange(-1, 3)
    cx = np.floor(gx).astype(int) + offs      # unwrapped cell indices, (N_b, 4)
    cy = np.floor(gy).astype(int) + offs
    ix, iy = cx % n, cy % n
    w = peskin_phi(gx - cx)[:, :, None] * peskin_phi(gy - cy)[:, None, :] / h**2
    return Stencils(w, ix[:, :, None] * n + iy[:, None, :], w * h**2)


def spread(stencils, values, grid, dalpha):
    """Scatter per-node values to the grid: sum_j g_j delta_h(x - X_j) dalpha.

    values (N_b, ...) give a field (N, N, ...).  One ``np.bincount`` over the
    flat (cell, component) indices sums each grid value in fixed node-major
    order, so output is deterministic.
    """
    values = np.asarray(values, dtype=float)
    cols = values.reshape(len(values), -1)
    k = cols.shape[1]
    # component-major, so each product runs over a node's 4x4 block
    contrib = stencils.w * (cols.T * dalpha)[:, :, None, None]        # (k, N_b, 4, 4)
    index = stencils.cells * k + np.arange(k)[:, None, None, None]
    field = np.bincount(index.ravel(), weights=contrib.ravel(), minlength=grid.n * grid.n * k)
    return field.reshape((grid.n, grid.n) + values.shape[1:])


def interpolate(stencils, field):
    """Gather grid fields at the interface: sum_x u(x) delta_h(x - X_j) h^2.

    field, a tuple of (N, N) components such as (u, v), gives node values
    (N_b, len(field)), one column per component, without stacking them.
    """
    out = np.empty((len(stencils.wh2), len(field)))
    for c, comp in enumerate(field):
        comp = np.asarray(comp, dtype=float).reshape(-1)
        out[:, c] = np.einsum("jpq,jpq->j", stencils.wh2, comp[stencils.cells])
    return out


def inner_product_gamma(f, g, dalpha):
    """Interface inner product sum f g dalpha (componentwise over trailing axes)."""
    f, g = np.asarray(f), np.asarray(g)
    if f.shape != g.shape:
        raise ParameterError(f"shape mismatch {f.shape} vs {g.shape}")
    return float(np.sum(f * g) * dalpha)


def inner_product_omega(u, v, h):
    """Grid inner product sum u v h^2 (componentwise over trailing axes)."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise ParameterError(f"shape mismatch {u.shape} vs {v.shape}")
    return float(np.sum(u * v) * h**2)
