from functools import partial

import numpy as np
import pytest

from ibstokes import geometry, schemes, spectral
from ibstokes.errors import ParameterError
from ibstokes.geometry import CurveSamples, InterfaceState


def ellipse(n=256, a=0.32, b=0.24, rest_radius=1.0):
    return geometry.init_ellipse(a, b, (0.5, 0.5), n, rest_radius=rest_radius)


class TestInitEllipse:
    def test_circle_uniform_s_alpha(self):
        state = ellipse(128, a=0.3, b=0.3)
        assert np.max(np.abs(state.s_alpha - 0.3)) <= 1e-12
        # phi is the constant pi/2 for this orientation convention
        assert np.max(np.abs(state.phi - np.pi / 2)) <= 1e-10

    def test_s_alpha_closed_form(self):
        # |dX/d(angle)| = sqrt(a^2 sin^2 + b^2 cos^2); at angle 0 this is b
        state = ellipse(256)
        ang = 2 * np.pi * np.arange(256) / 256
        expect = np.sqrt(0.32**2 * np.sin(ang) ** 2 + 0.24**2 * np.cos(ang) ** 2)
        assert abs(state.s_alpha[0] - 0.24) <= 1e-10
        assert np.max(np.abs(state.s_alpha - expect)) <= 1e-10

    def test_rest_radius_rescales_parameter(self):
        state = ellipse(256, rest_radius=0.2)
        assert abs(state.length - 2 * np.pi * 0.2) <= 1e-15
        # stretch relative to the rest circle: s_alpha in [b, a]/0.2
        assert abs(state.s_alpha.min() - 1.2) <= 1e-10
        assert abs(state.s_alpha.max() - 1.6) <= 1e-10

    def test_area_is_pi_ab(self):
        # shoelace quadrature error is O(n^-2); 2.4e-5 at n=256
        curve = ellipse(256).curve
        assert abs(geometry.enclosed_area(curve) - np.pi * 0.32 * 0.24) <= 5e-5
        fine = ellipse(1024).curve
        assert abs(geometry.enclosed_area(fine) - np.pi * 0.32 * 0.24) <= 2e-6

    def test_theta_reconstruction_matches_atan2(self):
        state = ellipse(256)
        curve = state.curve
        x_a = spectral.derivative_1d(curve.x, period=state.length)
        y_a = spectral.derivative_1d(curve.y, period=state.length)
        raw = np.unwrap(np.arctan2(y_a, x_a))
        assert np.max(np.abs(state.theta - raw)) <= 1e-8

    def test_degenerate_axis(self):
        with pytest.raises(ParameterError, match="degenerate ellipse axes a=0.0, b=0.2"):
            geometry.init_ellipse(0.0, 0.2, (0.5, 0.5), 64)
        with pytest.raises(ParameterError, match="n_nodes must be even and positive, got 63"):
            geometry.init_ellipse(0.2, 0.2, (0.5, 0.5), 63)

    @pytest.mark.parametrize("a, b, center", [(np.nan, 0.2, (0.5, 0.5)), (np.inf, 0.2, (0.5, 0.5)),
                                              (0.3, 0.2, (np.nan, 0.5))],
                             ids=["a-nan", "a-inf", "center-nan"])
    def test_non_finite_axes_or_centre(self, a, b, center):
        with pytest.raises(ParameterError, match="ellipse axes and centre must be finite"):
            geometry.init_ellipse(a, b, center, 64)


class TestTangentNormal:
    def test_orthonormal(self):
        state = ellipse(128)
        tau, nrm = geometry.tangent_normal(state)
        assert np.max(np.abs(np.sum(tau * tau, axis=1) - 1)) <= 1e-14
        assert np.max(np.abs(np.sum(nrm * nrm, axis=1) - 1)) <= 1e-14
        assert np.max(np.abs(np.sum(tau * nrm, axis=1))) <= 1e-14

    def test_theta_zero(self):
        state = InterfaceState(np.ones(4), -2 * np.pi * np.arange(4) / 4, np.zeros((2, 2)))
        tau, nrm = geometry.tangent_normal(state)
        assert np.allclose(tau[0], [1.0, 0.0], atol=1e-14)
        assert np.allclose(nrm[0], [0.0, 1.0], atol=1e-14)

    def test_frenet_relation(self):
        # D tau / s_alpha = (theta_a / s_alpha) n on a smooth ellipse
        state = ellipse(256)
        tau, nrm = geometry.tangent_normal(state)
        dth = geometry.theta_derivative(state)
        for comp in range(2):
            dtau = spectral.derivative_1d(tau[:, comp], period=state.length)
            assert np.max(np.abs(dtau / state.s_alpha - dth / state.s_alpha * nrm[:, comp])) <= 1e-8


def frame_force(f, state):
    """The (N, 2) xy force of a block force [normal; tangential]."""
    tau, nrm = geometry.tangent_normal(state)
    n = state.n_nodes
    return f[:n, None] * nrm + f[n:, None] * tau


def force(state, elastic):
    return geometry.elastic_force(state.s_alpha, geometry.theta_derivative(state), elastic,
                                  state.length)


class TestElasticForce:
    def test_equilibrium_circle_zero_force(self):
        n = 128
        state = InterfaceState(np.ones(n), np.full(n, np.pi / 2),
                               np.array([[1.5, 0.5], [-0.5, 0.5]]))
        assert np.max(np.abs(force(state, 1.0))) <= 1e-13

    def test_uniform_stretch_is_normal_force(self):
        n = 128
        c = 1.4
        state = InterfaceState(np.full(n, c), np.full(n, np.pi / 2), np.zeros((2, 2)))
        # F = S_b [(c - 1) theta_a; 0] with theta_a = 1
        expect = np.concatenate([np.full(n, 2.0 * (c - 1.0)), np.zeros(n)])
        assert np.max(np.abs(force(state, 2.0) - expect)) <= 1e-12

    def test_matches_product_rule_form(self):
        # rotated to xy, F = d/da (T tau) computed by direct spectral differentiation
        state = ellipse(256)
        sb = 1.3
        tau, _ = geometry.tangent_normal(state)
        tension = sb * (state.s_alpha - 1.0)
        direct = np.column_stack([
            spectral.derivative_1d(tension * tau[:, 0], period=state.length),
            spectral.derivative_1d(tension * tau[:, 1], period=state.length),
        ])
        assert np.max(np.abs(frame_force(force(state, sb), state) - direct)) <= 1e-8

    def test_zero_mean(self):
        state = ellipse(256, rest_radius=0.2)
        total = np.sum(frame_force(force(state, 1.0), state), axis=0) * state.dalpha
        assert np.max(np.abs(total)) <= 1e-10


class TestEvolveRhs:
    """The rate maps R of the schemes: d s_alpha/dt = D V - theta_a U and
    s_alpha d theta/dt = D U + theta_a V."""

    def rates(self, state, u):
        dth = geometry.theta_derivative(state)
        d = partial(spectral.derivative_1d, period=state.length)
        return (schemes._stretch_rate(u, dth, d),
                schemes._angle_rate(u, dth, d) / state.s_alpha)

    def test_uniform_rotation_keeps_s_alpha(self):
        state = ellipse(128, a=0.3, b=0.3)
        ds, dth = self.rates(state, np.concatenate([np.zeros(128), np.full(128, 0.7)]))
        assert np.max(np.abs(ds)) <= 1e-12
        # dtheta/dt = V theta_a / s_alpha = 0.7 * 1 / 0.3
        assert np.max(np.abs(dth - 0.7 / 0.3)) <= 1e-10

    def test_rigid_translation_invariance(self):
        state = ellipse(256)
        tau, nrm = geometry.tangent_normal(state)
        c = np.array([0.8, -0.3])
        ds, _ = self.rates(state, np.concatenate([nrm @ c, tau @ c]))
        assert np.max(np.abs(ds)) <= 1e-10

    def test_uniform_normal_inflation(self):
        state = ellipse(128, a=0.5, b=0.5)
        c = 0.2
        ds, dth = self.rates(state, np.concatenate([np.full(128, c), np.zeros(128)]))
        assert np.max(np.abs(dth)) <= 1e-12
        assert np.max(np.abs(ds + c)) <= 1e-11  # ds/dt = -theta_a U = -c


class TestReferencePoints:
    def test_zero_velocity(self):
        state = ellipse(64)
        refs = geometry.update_reference_points(state, np.zeros(128), 0.5)
        assert np.array_equal(refs, state.ref_points)

    def test_pure_tangential_at_theta_zero(self):
        n = 64
        state = InterfaceState(np.ones(n), -2 * np.pi * np.arange(n) / n, np.zeros((2, 2)))
        u = np.concatenate([np.zeros(n), np.ones(n)])
        refs = geometry.update_reference_points(state, u, 0.1)
        assert refs[0, 0] == pytest.approx(0.1)
        assert refs[0, 1] == pytest.approx(0.0)

    def test_normal_at_theta_half_pi(self):
        n = 64
        phi = np.pi / 2 - 2 * np.pi * np.arange(n) / n
        state = InterfaceState(np.ones(n), phi, np.zeros((2, 2)))
        u = np.concatenate([np.ones(n), np.zeros(n)])
        refs = geometry.update_reference_points(state, u, 0.05)
        # theta(0) = pi/2: xdot = -U sin(theta) = -1
        assert refs[0, 0] == pytest.approx(-0.05)
        assert refs[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_anchor_velocity_matches_node_loop(self):
        # the vectorised rows equal the per-anchor scalar formula bitwise, so
        # anchor updates built on them keep their arithmetic
        rng = np.random.default_rng(3)
        for n in (16, 64, 320):
            state = InterfaceState(1.0 + 0.1 * rng.random(n), rng.normal(size=n),
                                   rng.random((2, 2)), 2 * np.pi * 0.2)
            u_n, u_t = rng.normal(size=n), rng.normal(size=n)
            th = state.theta
            want = np.empty((2, 2))
            for row, j in enumerate((0, n // 2)):
                want[row] = (u_t[j] * np.cos(th[j]) - u_n[j] * np.sin(th[j]),
                             u_t[j] * np.sin(th[j]) + u_n[j] * np.cos(th[j]))
            got = geometry.anchor_velocity(state, np.concatenate([u_n, u_t]))
            assert np.array_equal(got, want)


class TestReconstruct:
    def test_circle_exact(self):
        n = 128
        r = 0.27
        ang = 2 * np.pi * np.arange(n) / n
        refs = np.array([[0.5 + r, 0.5], [0.5 - r, 0.5]])
        state = InterfaceState(np.full(n, r), np.full(n, np.pi / 2), refs)
        curve = geometry.reconstruct_curve(state)
        assert np.max(np.abs(curve.x - (0.5 + r * np.cos(ang)))) <= 1e-10
        assert np.max(np.abs(curve.y - (0.5 + r * np.sin(ang)))) <= 1e-10

    def test_ellipse_roundtrip(self):
        # the start curve is rebuilt from the state built from the samples
        rebuilt = ellipse(256).curve
        ang = 2 * np.pi * np.arange(256) / 256
        assert np.max(np.abs(rebuilt.x - (0.5 + 0.32 * np.cos(ang)))) <= 1e-8
        assert np.max(np.abs(rebuilt.y - (0.5 + 0.24 * np.sin(ang)))) <= 1e-8

    def test_closure(self):
        state = ellipse(256, rest_radius=0.2)
        th = state.theta
        gx = spectral.antiderivative(state.s_alpha * np.cos(th), 0.0, period=state.length)
        # the mean mode of s cos(theta) drives end-to-end drift; it vanishes
        # for a closed curve
        assert abs(np.mean(state.s_alpha * np.cos(th))) <= 1e-10
        assert abs(gx[0] - 0.0) <= 1e-12

    def test_inconsistent_anchors_drift(self):
        # a circle of radius 0.27 rebuilt from (0.27, 0) reaches (-0.27, 0)
        # at alpha = pi, where the second anchor says (0, 0): the two
        # reconstructions are 0.27 apart and the curve takes their average
        n = 64
        refs = np.array([[0.27, 0.0], [0.0, 0.0]])
        state = InterfaceState(np.full(n, 0.27), np.full(n, np.pi / 2), refs)
        curve = state.curve
        assert geometry.anchor_drift(state) == pytest.approx(0.27, abs=1e-12)
        assert curve.x[n // 2] == pytest.approx(-0.135, abs=1e-12)
        assert curve.x[0] == pytest.approx(0.405, abs=1e-12)

    def test_consistent_anchors_have_no_drift(self):
        # the samples gave the anchors: the rebuilt curve meets both to round-off
        assert geometry.anchor_drift(ellipse(64, rest_radius=0.2)) <= 1e-14

    def test_state_curve_state_roundtrip(self):
        state = ellipse(256, rest_radius=0.2)
        back = geometry.state_from_curve(geometry.reconstruct_curve(state), length=state.length)
        assert np.max(np.abs(back.s_alpha - state.s_alpha)) <= 1e-8
        assert np.max(np.abs(back.phi - state.phi)) <= 1e-8
        assert np.max(np.abs(back.ref_points - state.ref_points)) <= 1e-8


class TestArea:
    def test_unit_circle(self):
        # inscribed-polygon error: 2 pi^3 / (3 n^2), i.e. 3.2e-4 at n=256
        for n, tol in ((256, 4e-4), (1024, 2.5e-5)):
            ang = 2 * np.pi * np.arange(n) / n
            curve = CurveSamples(np.cos(ang), np.sin(ang))
            assert abs(geometry.enclosed_area(curve) - np.pi) <= tol

    def test_orientation_antisymmetry(self):
        n = 128
        ang = 2 * np.pi * np.arange(n) / n
        fwd = CurveSamples(np.cos(ang), np.sin(ang))
        rev = CurveSamples(fwd.x[::-1].copy(), fwd.y[::-1].copy())
        assert geometry.enclosed_area(rev) == pytest.approx(-geometry.enclosed_area(fwd))


def test_negative_s_alpha_rejected():
    with pytest.raises(ParameterError, match="s_alpha must be positive everywhere"):
        InterfaceState(np.array([1.0, -0.1, 1.0, 1.0]), np.zeros(4), np.zeros((2, 2)))
