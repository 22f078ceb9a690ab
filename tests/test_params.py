import numpy as np
import pytest

from ibstokes import schemes
from ibstokes.errors import ParameterError
from ibstokes.grids import GridSpec
from ibstokes.io import RunConfig
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


# exact invariances of the continuous problem, as factors on (mu, rho,
# elastic, dt): the first keeps mu^2/(rho L S_b) with time scaled by 2 (in
# steady flow, which has no rho, it is (mu, dt) -> (2 mu, 2 dt)); the second
# keeps it with the velocity scaled by 3 and time by 1/3
SCALINGS = {"mu_rho_dt": {"mu": 2.0, "rho": 4.0, "dt": 2.0},
            "elastic_rho_dt": {"elastic": 3.0, "rho": 1.0 / 3.0, "dt": 1.0 / 3.0}}


@pytest.mark.parametrize("scaling", sorted(SCALINGS))
@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_parameter_scaling_invariance(scheme, scaling):
    # the cost-table settings: steady mu 1, dt 0.1 (stable 1); unsteady mu
    # 0.01, dt 0.05 (explicit 0.005)
    if scheme in schemes.STEADY_SCHEMES:
        base = {"mu": 1.0, "dt": 1.0 if scheme == "stable_steady" else 0.1}
    else:
        base = {"mu": 0.01, "dt": 0.005 if scheme == "explicit_unsteady" else 0.05}
    base.update(rho=1.0, elastic=1.0)

    def run(values):
        config = RunConfig(scheme=scheme, n=32, **values)
        state = config.initial_state()
        for state in schemes.simulate(state, config.phys(), config.grid(),
                                      config.scheme_config(), 5):
            pass
        return state.interface

    a = run(base)
    b = run({k: v * SCALINGS[scaling].get(k, 1.0) for k, v in base.items()})
    for name in ("s_alpha", "phi", "ref_points"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x)), name
