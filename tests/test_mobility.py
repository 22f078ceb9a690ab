"""The interface mobility M = J L S that the stable schemes' dense implicit
systems are built on."""

import numpy as np
import pytest

from ibstokes import coupling, schemes, stokes
from ibstokes.io import RunConfig

STABLE = ("stable_steady", "stable_unsteady")


def mobility_case(scheme, n=32):
    """Stencils of the model ellipse, the scheme's from-rest grid solve and M."""
    steady = scheme == "stable_steady"
    config = RunConfig(scheme=scheme, n=n, dt=1.0 if steady else 0.05,
                       mu=1.0 if steady else 0.01)
    phys, grid = config.phys(), config.grid()
    stencils = coupling.delta_stencils(config.initial_state().curve, grid)
    if steady:
        def solve(f_grid):
            return stokes.steady_stokes_grid_solve(f_grid, phys.mu, grid)
    else:
        def solve(f_grid):
            return stokes.unsteady_stokes_step(None, f_grid, phys.rho, phys.mu, config.dt, grid)
    return grid, stencils, solve, schemes._interface_mobility(stencils, solve, grid)


@pytest.mark.parametrize("scheme", STABLE)
def test_mobility_applies_the_grid_response(scheme):
    grid, stencils, solve, mob = mobility_case(scheme)
    force = np.random.default_rng(3).standard_normal((grid.n_boundary, 2))
    fluid = solve(coupling.spread(stencils, force, grid))
    uv = coupling.interpolate(stencils, np.stack([fluid.u, fluid.v], axis=-1), grid)
    assert mob.shape == (2 * grid.n_boundary, 2 * grid.n_boundary)
    assert np.linalg.norm(mob @ force.ravel() - uv.ravel()) <= 1e-12 * np.linalg.norm(uv)


@pytest.mark.parametrize("scheme", STABLE)
def test_mobility_is_symmetric(scheme):
    # M = h^2 dalpha W L W^T with a self-adjoint fluid solve
    _, _, _, mob = mobility_case(scheme)
    assert np.max(np.abs(mob - mob.T)) <= 1e-12 * np.max(np.abs(mob))


def test_one_node_slice_spreads_like_the_whole_curve():
    grid, stencils, _, _ = mobility_case("stable_steady")
    unit = np.eye(2)[None]
    for j in range(grid.n_boundary):
        fields = coupling.spread(stencils[j:j + 1], unit, grid)
        for c in range(2):
            values = np.zeros((grid.n_boundary, 2))
            values[j, c] = 1.0
            assert np.array_equal(fields[..., c], coupling.spread(stencils, values, grid))
