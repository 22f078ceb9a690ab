from dataclasses import replace

import numpy as np
import pytest

from ibstokes import schemes
from ibstokes.errors import ParameterError
from ibstokes.geometry import InterfaceState
from ibstokes.grids import GridSpec
from ibstokes.io import RunConfig
from ibstokes.params import PhysParams
from ibstokes.schemes import SchemeConfig


class TestGroups:
    def test_positive_params_required(self):
        with pytest.raises(ParameterError, match="mu: must be positive and finite"):
            PhysParams(mu=-1.0)

    @pytest.mark.parametrize("length", [-1.0, 0.0, np.nan, np.inf])
    def test_grid_length_must_be_positive_and_finite(self, length):
        with pytest.raises(ParameterError, match="length: must be positive and finite"):
            GridSpec(n=16, length=length, n_boundary=32)

    @pytest.mark.parametrize("name, value", [("n", 15), ("n", 16.0), ("n_boundary", 0),
                                             ("n_boundary", np.int64(32))],
                             ids=["n-odd", "n-float", "n_boundary-zero", "n_boundary-numpy-int"])
    def test_grid_counts_are_positive_even_ints(self, name, value):
        # a Python int, as a run's JSON-dumped config holds it
        counts = {"n": 16, "n_boundary": 32, name: value}
        with pytest.raises(ParameterError, match=f"{name}: must be a positive even integer"):
            GridSpec(length=1.0, **counts)


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
        return st.interface.curve.as_array()

    x1 = run(p1, dt1)
    x2 = run(p2, dt2)
    err = np.sqrt(np.sum((x1 - x2) ** 2) * (2 * np.pi * 0.2 / grid.n_boundary))
    assert err <= 1e-8


# exact invariances of the continuous problem, as factors on (mu, rho,
# elastic, dt): the first keeps mu^2/(rho L S_b) with time scaled by 2 (in
# steady flow, which has no rho, it is (mu, dt) -> (2 mu, 2 dt)); the second
# keeps it with the velocity scaled by 3 and time by 1/3; the third scales
# every length (domain, interface, ellipse and centre) and time by 3, which
# keeps the velocity, and rho/3 keeps mu^2/(rho L S_b)
LENGTHS = ("domain_length", "rest_radius", "ellipse_a", "ellipse_b", "center_x", "center_y")
SCALINGS = {"mu_rho_dt": {"mu": 2.0, "rho": 4.0, "dt": 2.0},
            "elastic_rho_dt": {"elastic": 3.0, "rho": 1.0 / 3.0, "dt": 1.0 / 3.0},
            "length_rho_dt": {**dict.fromkeys(LENGTHS, 3.0), "rho": 1.0 / 3.0, "dt": 3.0}}


def _cost_table_values(scheme):
    """The cost-table settings: steady mu 1, dt 0.1 (stable 1); unsteady mu
    0.01, dt 0.05 (explicit 0.005); the model ellipse in the unit domain."""
    if scheme in schemes.STEADY_SCHEMES:
        values = {"mu": 1.0, "dt": 1.0 if scheme == "stable_steady" else 0.1}
    else:
        values = {"mu": 0.01, "dt": 0.005 if scheme == "explicit_unsteady" else 0.05}
    defaults = RunConfig()
    values.update(rho=1.0, elastic=1.0, **{k: getattr(defaults, k) for k in LENGTHS})
    return values


def _five_steps(config, state=None):
    """The interface after five steps of ``config`` (N = 32) from ``state``,
    by default the config's own initial state."""
    state = config.initial_state() if state is None else state
    for state in schemes.simulate(state, config.phys(), config.grid(),
                                  config.scheme_config(), 5):
        pass
    return state.interface


def _assert_same_interface(a, s_alpha, phi, ref_points):
    """The interface a and another one, mapped back to a's frame, agree to
    1e-12 relative."""
    pairs = {"s_alpha": (a.s_alpha, s_alpha), "phi": (a.phi, phi),
             "ref_points": (a.ref_points, ref_points)}
    for name, (x, y) in pairs.items():
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x)), name


@pytest.mark.parametrize("scaling", sorted(SCALINGS))
@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_parameter_scaling_invariance(scheme, scaling):
    base = _cost_table_values(scheme)
    factors = SCALINGS[scaling]
    a = _five_steps(RunConfig(scheme=scheme, n=32, **base))
    b = _five_steps(RunConfig(scheme=scheme, n=32,
                              **{k: v * factors.get(k, 1.0) for k, v in base.items()}))
    _assert_same_interface(a, b.s_alpha, b.phi, b.ref_points / factors.get("domain_length", 1.0))


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_translation_by_one_grid_cell(scheme):
    # the shift maps the periodic grid onto itself
    values = _cost_table_values(scheme)
    h = values["domain_length"] / 32
    a = _five_steps(RunConfig(scheme=scheme, n=32, **values))
    b = _five_steps(RunConfig(scheme=scheme, n=32, **{**values,
                                                      "center_x": values["center_x"] + h}))
    _assert_same_interface(a, b.s_alpha, b.phi, b.ref_points - [h, 0.0])


@pytest.mark.parametrize("scheme", schemes.ALL_SCHEMES)
def test_quarter_turn_about_the_domain_centre(scheme):
    # the turn maps the periodic grid onto itself; the nodes keep their
    # labels, so the angle gains pi/2 and the anchors (and the curve rebuilt
    # from them) turn
    config = RunConfig(scheme=scheme, n=32, **_cost_table_values(scheme))
    centre = np.full(2, config.domain_length / 2)

    def turn(points, sign=1.0):
        x, y = (np.asarray(points) - centre).T
        return np.column_stack([-sign * y, sign * x]) + centre

    start = config.initial_state()
    iface = start.interface
    b = _five_steps(config, replace(
        start, interface=InterfaceState(iface.s_alpha, iface.phi + np.pi / 2,
                                        turn(iface.ref_points), iface.length)))
    _assert_same_interface(_five_steps(config), b.s_alpha, b.phi - np.pi / 2,
                           turn(b.ref_points, sign=-1.0))
