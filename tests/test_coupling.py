from decimal import Decimal, localcontext

import numpy as np
import pytest

from ibstokes import coupling, geometry, schemes
from ibstokes.coupling import _kernel_weights, inner_product_gamma, inner_product_omega
from ibstokes.errors import ParameterError
from ibstokes.geometry import CurveSamples
from ibstokes.grids import GridSpec
from ibstokes.io import RunConfig


def random_curve(rng, nb, jitter=0.03):
    ang = 2 * np.pi * np.arange(nb) / nb
    r = 0.25 + jitter * rng.standard_normal()
    x = 0.5 + r * np.cos(ang) + jitter * rng.standard_normal(nb) / nb
    y = 0.5 + r * np.sin(ang) + jitter * rng.standard_normal(nb) / nb
    return CurveSamples(x, y)


def spacing(curve):
    """Node spacing of a curve sampled over the parameter interval [0, 2 pi)."""
    return 2 * np.pi / curve.n_nodes


# offsets f from the cell below: both ends of [0, 1), the middle, random ones
OFFSETS = np.concatenate([[0.0, 1e-300, 1e-9, 0.5, 1.0 - 1e-9, np.nextafter(1.0, 0.0)],
                          np.random.default_rng(7).random(2000)])
CELLS = np.arange(-1, 3)        # the cells floor - 1 ... floor + 2 of the weights


def piecewise_phi(r):
    """The 4-point kernel by its two branches, in the Decimal context's precision."""
    r = abs(Decimal(r))
    if r <= 1:
        return (3 - 2 * r + (1 + 4 * r - 4 * r * r).sqrt()) / 8
    if r < 2:
        return (5 - 2 * r - max(-7 + 12 * r - 4 * r * r, Decimal(0)).sqrt()) / 8
    return Decimal(0)


class TestPeskinPhi:
    """The kernel through ``coupling._kernel_weights``, its closed form."""

    def test_branch_values(self):
        # phi(1), phi(0), phi(-1), phi(-2) at f = 0
        assert _kernel_weights(np.array(0.0)).tolist() == [0.25, 0.5, 0.25, 0.0]
        # both branches agree at |r| = 1: f just under 1 is f = 0 one cell on
        below = _kernel_weights(np.array(1.0 - 1e-12))
        assert np.max(np.abs(below - [0.0, 0.25, 0.5, 0.25])) <= 1e-9

    def test_weights_match_the_piecewise_kernel(self):
        w = _kernel_weights(OFFSETS)
        with localcontext() as context:
            context.prec = 50
            ref = np.array([[float(piecewise_phi(Decimal(f) - c)) for c in CELLS]
                            for f in OFFSETS.tolist()])
        assert np.max(np.abs(w - ref) / np.max(w, axis=1)[:, None]) <= 2e-16

    def test_partition_of_unity(self):
        assert np.max(np.abs(np.sum(_kernel_weights(OFFSETS), axis=1) - 1.0)) <= 1e-15

    def test_first_moment_vanishes(self):
        moment = np.sum((OFFSETS[:, None] - CELLS) * _kernel_weights(OFFSETS), axis=1)
        assert np.max(np.abs(moment)) <= 1e-15

    def test_sum_of_squares_is_three_eighths(self):
        squares = np.sum(_kernel_weights(OFFSETS) ** 2, axis=1)
        assert np.max(np.abs(squares - 0.375)) <= 1e-15

    def test_nonnegative(self):
        assert np.all(_kernel_weights(OFFSETS) >= 0)


class TestStencils:
    def test_weights_sum_to_inverse_h2(self):
        grid = GridSpec.make(32)
        rng = np.random.default_rng(0)
        curve = random_curve(rng, 64)
        w = coupling.delta_stencils(curve, grid).w
        sums = np.sum(w, axis=(1, 2)) * grid.h**2
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert np.min(w) >= 0.0

    def test_cells_keep_their_layout(self):
        # cells[j, p, q] = ix[j, p] * N + iy[j, q], the 4x4 block from the
        # cell below the node less one, wrapped; nodes off the domain included
        grid = GridSpec.make(16)
        curve = CurveSamples(np.array([0.0, 0.37, 0.999, -0.2, 1.7, 3 * grid.h]),
                             np.array([0.5, 0.0, 0.031, 1.3, -0.9, 1e-17]))
        ix = (np.floor(curve.x / grid.h).astype(int)[:, None] + CELLS) % 16
        iy = (np.floor(curve.y / grid.h).astype(int)[:, None] + CELLS) % 16
        cells = coupling.delta_stencils(curve, grid).cells
        assert np.array_equal(cells, ix[:, :, None] * 16 + iy[:, None, :])

    def test_weights_are_the_outer_product_of_both_axes(self):
        grid = GridSpec.make(16)
        curve = random_curve(np.random.default_rng(8), 32)
        gx, gy = curve.x / grid.h, curve.y / grid.h
        wx = _kernel_weights(gx - np.floor(gx))
        wy = _kernel_weights(gy - np.floor(gy))
        stencils = coupling.delta_stencils(curve, grid)
        assert np.array_equal(stencils.w, wx[:, :, None] * wy[:, None, :] / grid.h**2)
        assert np.array_equal(stencils.wh2, stencils.w * grid.h**2)


class TestSpreadInterpolate:
    def test_zero_input(self):
        grid = GridSpec.make(16)
        curve = random_curve(np.random.default_rng(1), 32)
        stencils = coupling.delta_stencils(curve, grid)
        assert np.max(np.abs(coupling.spread(stencils, np.zeros(32), grid, spacing(curve)))) == 0.0

    def test_force_conservation(self):
        # sum_grid spread(F) h^2 = sum_interface F dalpha, per component
        grid = GridSpec.make(32)
        rng = np.random.default_rng(2)
        curve = random_curve(rng, 64)
        f = rng.standard_normal((64, 2))
        field = coupling.spread(coupling.delta_stencils(curve, grid), f, grid, spacing(curve))
        for c in range(2):
            lhs = np.sum(field[..., c]) * grid.h**2
            rhs = np.sum(f[:, c]) * spacing(curve)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_single_node_on_gridpoint(self):
        grid = GridSpec.make(32)
        curve = CurveSamples(np.array([8 * grid.h, 0.9]), np.array([4 * grid.h, 0.33]))
        # second node parked far away with zero weight value
        field = coupling.spread(coupling.delta_stencils(curve, grid), np.array([1.0, 0.0]), grid,
                                spacing(curve))
        peak = 0.5**2 / grid.h**2 * spacing(curve)     # phi(0) = 1/2 on both axes
        assert field[8, 4] == pytest.approx(peak, rel=1e-13)

    def test_interpolate_constant(self):
        grid = GridSpec.make(32)
        stencils = coupling.delta_stencils(random_curve(np.random.default_rng(3), 64), grid)
        vals = coupling.interpolate(stencils, (np.full((32, 32), 2.7),))
        assert np.max(np.abs(vals - 2.7)) <= 1e-12

    def test_interpolate_linear_field_on_grid_line(self):
        # the 4-point kernel reproduces linears; away from the wrap seam
        # interpolation of u = x returns the x coordinate exactly
        grid = GridSpec.make(32)
        x = np.arange(32) * grid.h
        field = np.tile(x[:, None], (1, 32))
        curve = CurveSamples(np.array([0.37, 0.5]), np.array([0.4, 0.52]))
        vals = coupling.interpolate(coupling.delta_stencils(curve, grid), (field,))[:, 0]
        assert abs(vals[0] - 0.37) <= 1e-12
        assert abs(vals[1] - 0.5) <= 1e-12

    def test_adjointness_random(self):
        grid = GridSpec.make(64)
        rng = np.random.default_rng(4)
        for _ in range(10):
            curve = random_curve(rng, 128)
            g = rng.standard_normal(128)
            u = rng.standard_normal((64, 64))
            stencils = coupling.delta_stencils(curve, grid)
            lhs = inner_product_omega(u, coupling.spread(stencils, g, grid, spacing(curve)),
                                      grid.h)
            rhs = inner_product_gamma(coupling.interpolate(stencils, (u,))[:, 0], g,
                                      spacing(curve))
            scale = np.linalg.norm(u) * np.linalg.norm(g)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_adjointness_vector_quantities(self):
        grid = GridSpec.make(32)
        rng = np.random.default_rng(5)
        curve = random_curve(rng, 64)
        g = rng.standard_normal((64, 2))
        u = rng.standard_normal((32, 32, 2))
        stencils = coupling.delta_stencils(curve, grid)
        lhs = inner_product_omega(u, coupling.spread(stencils, g, grid, spacing(curve)), grid.h)
        rhs = inner_product_gamma(coupling.interpolate(stencils, (u[..., 0], u[..., 1])), g,
                                  spacing(curve))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(g)

    def test_trailing_components_match_single_component_transfers(self):
        # one code path for every trailing shape: a two-component spread is
        # bitwise the pair of one-component spreads through the same object
        grid = GridSpec.make(32)
        rng = np.random.default_rng(7)
        curve = random_curve(rng, 64)
        stencils = coupling.delta_stencils(curve, grid)
        g = rng.standard_normal((64, 2))
        field = coupling.spread(stencils, g, grid, spacing(curve))
        assert field.shape == (32, 32, 2)
        for c in range(2):
            assert np.array_equal(field[..., c],
                                  coupling.spread(stencils, g[:, c], grid, spacing(curve)))

    def test_periodic_wrap(self):
        # a node just outside the box spreads onto wrapped cells with full mass
        grid = GridSpec.make(16)
        curve = CurveSamples(np.array([-0.01, 1.005]), np.array([0.5, 0.5]))
        field = coupling.spread(coupling.delta_stencils(curve, grid), np.ones(2), grid,
                                spacing(curve))
        assert abs(np.sum(field) * grid.h**2 - 2 * spacing(curve)) <= 1e-13

    def test_deterministic(self):
        grid = GridSpec.make(32)
        rng = np.random.default_rng(6)
        curve = random_curve(rng, 64)
        g = rng.standard_normal(64)
        a = coupling.spread(coupling.delta_stencils(curve, grid), g, grid, spacing(curve))
        b = coupling.spread(coupling.delta_stencils(curve, grid), g, grid, spacing(curve))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("trailing", [(), (2,), (3,), (2, 2)])
    def test_spread_equals_add_at_reference_bitwise(self, trailing):
        # the bincount sums each grid value in the node-major order of an
        # np.add.at scatter per component, so the fields agree bit for bit
        grid = GridSpec.make(64)
        rng = np.random.default_rng(7)
        curve = random_curve(rng, 128)
        stencils = coupling.delta_stencils(curve, grid)
        values = rng.standard_normal((128,) + trailing)
        dalpha = spacing(curve)
        cols = values.reshape(128, -1)
        want = np.zeros((64 * 64, cols.shape[1]))
        for c in range(cols.shape[1]):
            np.add.at(want[:, c], stencils.cells, stencils.w * (cols[:, c, None, None] * dalpha))
        got = coupling.spread(stencils, values, grid, dalpha)
        assert got.shape == (64, 64) + trailing
        assert np.array_equal(got, want.reshape((64, 64) + trailing))


class TestInnerProducts:
    def test_constant_interface(self):
        nb = 64
        dalpha = 2 * np.pi / nb
        assert inner_product_gamma(np.ones(nb), np.ones(nb), dalpha) == pytest.approx(2 * np.pi)

    def test_discrete_orthogonality(self):
        nb = 64
        a = 2 * np.pi * np.arange(nb) / nb
        assert abs(inner_product_gamma(np.sin(a), np.cos(a), 2 * np.pi / nb)) <= 1e-12

    def test_grid_constant(self):
        n = 16
        u = np.full((n, n), 2.0)
        assert inner_product_omega(u, u, 1.0 / n) == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match=r"shape mismatch \(4,\) vs \(5,\)"):
            inner_product_gamma(np.ones(4), np.ones(5), 0.1)


def test_spread_of_elastic_force_has_zero_mean():
    # force is a derivative of a periodic quantity, so the spread field
    # integrates to ~0: the steady grid solve relies on this
    grid = GridSpec.make(32)
    state = geometry.init_ellipse(0.32, 0.24, (0.5, 0.5), 64, rest_radius=0.2)
    f = geometry.elastic_force(state.s_alpha, geometry.theta_derivative(state), 1.0,
                               state.length)
    tau, nrm = geometry.tangent_normal(state)
    f_xy = f[:64, None] * nrm + f[64:, None] * tau
    field = coupling.spread(coupling.delta_stencils(state.curve, grid), f_xy, grid, state.dalpha)
    for c in range(2):
        assert abs(np.sum(field[..., c]) * grid.h**2) <= 1e-10


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_stencil_builds_per_step(scheme, monkeypatch):
    # a step builds the transfer object once for each curve it couples
    # through: the step's own curve, every RK4 stage curve, and the
    # second-order scheme's midpoint curve
    steady = scheme in schemes.STEADY_SCHEMES
    config = RunConfig(scheme=scheme, n=16, dt=0.1 if steady else 0.01,
                       mu=1.0 if steady else 0.01)
    phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
    builds = {}
    build = coupling.delta_stencils

    def counted(curve, grid):
        key = (curve.x.tobytes(), curve.y.tobytes())
        builds[key] = builds.get(key, 0) + 1
        return build(curve, grid)

    monkeypatch.setattr(coupling, "delta_stencils", counted)
    schemes.step(config.initial_state(), phys, grid, cfg)
    expected = {"ifrk4_steady": 4, "second_order_unsteady": 2}.get(scheme, 1)
    assert sorted(builds.values()) == [1] * expected
