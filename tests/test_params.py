import numpy as np
import pytest

from ibstokes import schemes
from ibstokes.errors import ParameterError
from ibstokes.grids import GridSpec
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig


class TestGroups:
    def test_positive_params_required(self):
        with pytest.raises(ParameterError):
            PhysParams(mu=-1.0)


def test_steady_time_rescaling_equivalence():
    # two parameter sets with equal L_b/L follow the same trajectory after
    # t -> t/t0 with t0 = mu L / S_b
    p1 = PhysParams(rho=1, mu=1, elastic=1, interface_length=2 * np.pi * 0.2)
    p2 = PhysParams(rho=1, mu=2, elastic=4, interface_length=2 * np.pi * 0.2)
    grid = GridSpec.make(64)
    dt1 = 0.05
    t0_1 = p1.mu * grid.length / p1.elastic
    t0_2 = p2.mu * grid.length / p2.elastic
    dt2 = dt1 * (t0_2 / t0_1)   # equal dimensionless step

    def run(phys, dt):
        cfg = SchemeConfig(scheme="explicit_steady", dt=dt)
        st = schemes.initial_state(phys, grid)
        for s in schemes.simulate(st, phys, grid, cfg, 10):
            st = s
        return st.curve.as_array()

    x1 = run(p1, dt1)
    x2 = run(p2, dt2)
    err = np.sqrt(np.sum((x1 - x2) ** 2) * (2 * np.pi * 0.2 / grid.n_boundary))
    assert err <= 1e-8
