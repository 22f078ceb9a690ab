"""Peskin 4-point discrete delta, the spreading/interpolation pair, and the
discrete inner products they are adjoint under.

``delta_stencils`` builds one transfer object per curve: the 4x4 weight block
of delta_h at each interface node and the grid cells it covers.  Each axis's
four weights are the kernel's closed form (Peskin 2002) in the node's offset
from the cell below: one square root per node and axis.  Spreading scatters
interface quantities onto the grid with weights delta_h(x - X_j) * dalpha,
with the interface's spacing dalpha passed in; interpolation gathers grid
fields with weights delta_h * h^2.  Both read the same object and never
rebuild it, so the pair is adjoint by construction, exactly in floating point;
that identity is what the energy estimates of the semi-implicit schemes rest
on.  A step builds the object once for each curve it couples through.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


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


def _kernel_weights(f):
    """phi(f + 1), phi(f), phi(f - 1), phi(f - 2) on a last axis, for offsets f
    in [0, 1): (3 - 2f -+ q)/8 and (1 + 2f +- q)/8 with q = sqrt(1 + 4f - 4f^2),
    its radicand formed as 1 + 4f(1 - f), which rounds closer."""
    q = np.sqrt(1.0 + 4.0 * f * (1.0 - f))
    a, b = 3.0 - 2.0 * f, 1.0 + 2.0 * f
    return np.stack([a - q, a + q, b + q, b - q], axis=-1) / 8.0


def delta_stencils(curve, grid):
    """The transfer object of ``curve`` on ``grid``: 4x4 weight blocks of
    delta_h centered at each interface node, from both axes' weights at once."""
    g = np.array([curve.x, curve.y], dtype=float) / grid.h     # (2, N_b)
    base = np.floor(g)
    wx, wy = _kernel_weights(g - base)
    ix, iy = (base.astype(int)[..., None] + np.arange(-1, 3)) % grid.n     # (N_b, 4) each
    w = wx[:, :, None] * wy[:, None, :] / grid.h**2
    return Stencils(w, ix[:, :, None] * grid.n + iy[:, None, :], w * grid.h**2)


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
