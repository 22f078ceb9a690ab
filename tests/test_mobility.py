"""The interface mobility K, M = J L S in the node frames, that the stable
schemes' dense implicit systems are built on."""

import numpy as np
import pytest

from ibstokes import coupling, schemes, stokes
from ibstokes.geometry import tangent_normal
from ibstokes.io import RunConfig

STABLE = ("stable_steady", "stable_unsteady")


def mobility_case(scheme, n=32):
    """Stencils and interface of the model ellipse, the scheme's from-rest
    grid solve and K."""
    steady = scheme == "stable_steady"
    config = RunConfig(scheme=scheme, n=n, dt=1.0 if steady else 0.05,
                       mu=1.0 if steady else 0.01)
    phys, grid = config.phys(), config.grid()
    state = config.initial_state()
    stencils = coupling.delta_stencils(state.interface.curve, grid)
    if steady:
        def solve(f_grid):
            return stokes.steady_stokes_grid_solve(f_grid, phys.mu, grid)
    else:
        def solve(f_grid):
            return stokes.unsteady_stokes_step(None, f_grid, phys.rho, phys.mu, config.dt, grid)
    mob = schemes._interface_mobility(stencils, state.interface, grid, solve)
    return grid, stencils, state.interface, solve, mob


@pytest.mark.parametrize("scheme", STABLE)
def test_mobility_applies_the_grid_response(scheme):
    # K maps (normal, tangential) force blocks to the velocity in the same frames
    grid, stencils, iface, solve, mob = mobility_case(scheme)
    nb = grid.n_boundary
    tau, nrm = tangent_normal(iface)
    f_n, f_t = np.random.default_rng(3).standard_normal((2, nb))
    fluid = solve(coupling.spread(stencils, f_n[:, None] * nrm + f_t[:, None] * tau, grid,
                                  iface.dalpha))
    uv = coupling.interpolate(stencils, (fluid.u, fluid.v))
    frame_uv = np.concatenate([np.sum(uv * nrm, axis=1), np.sum(uv * tau, axis=1)])
    assert mob.shape == (2 * nb, 2 * nb)
    assert np.linalg.norm(mob @ np.concatenate([f_n, f_t]) - frame_uv) \
        <= 1e-12 * np.linalg.norm(frame_uv)


@pytest.mark.parametrize("scheme", STABLE)
def test_mobility_is_symmetric(scheme):
    # M = h^2 dalpha W L W^T with a self-adjoint fluid solve, and K = Q^T M Q
    # with the orthogonal node-frame rotation Q
    *_, mob = mobility_case(scheme)
    assert np.max(np.abs(mob - mob.T)) <= 1e-12 * np.max(np.abs(mob))


@pytest.mark.parametrize("scheme", STABLE)
def test_mobility_is_the_matrix_of_the_velocity_map(scheme):
    # column a N_b + j is the from-rest velocity map applied to the unit
    # a-force on node j, a in (normal, tangential)
    grid, stencils, iface, solve, mob = mobility_case(scheme)
    velocity = schemes._velocity_map(stencils, iface, grid, solve)
    columns = np.column_stack([velocity(unit)[0] for unit in np.eye(2 * grid.n_boundary)])
    assert np.max(np.abs(mob - columns)) <= 1e-12 * np.max(np.abs(columns))


def test_one_node_slice_spreads_like_the_whole_curve():
    grid, stencils, iface, *_ = mobility_case("stable_steady")
    unit = np.eye(2)[None]
    for j in range(grid.n_boundary):
        fields = coupling.spread(stencils[j:j + 1], unit, grid, iface.dalpha)
        for c in range(2):
            values = np.zeros((grid.n_boundary, 2))
            values[j, c] = 1.0
            assert np.array_equal(fields[..., c],
                                  coupling.spread(stencils, values, grid, iface.dalpha))
