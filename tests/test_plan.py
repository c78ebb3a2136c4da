"""Tests for the constructive planners and the oscillation functions."""

import numpy as np
import pytest

from solv3d import plan
from solv3d.kernel2d import ThetaFamily, lambda_op
from solv3d.planar import (
    ControlRange,
    PiecewiseControl,
    PlanarSpec,
    concat_solution,
    equilibrium,
    planar_solution,
)
from solv3d.plan import (
    _h2,
    circle_hop,
    fiber_sync,
    h2_zero,
    h_functions,
    half_staircase,
    identity_return_error,
    integrate_projected,
    monotone_certificate,
    staircase,
    xi_hat,
)

ROTATION = ThetaFamily.spiral(0.0)


def rk4_projected(gamma, alpha, c, ctrl, t0=0.0, x0=0.0, step=1e-3):
    """Fixed-step classical 4th-order integration of t' = u alpha,
    x' = c e^{gamma t} sin t: the oracle for ``integrate_projected``."""

    def rate(t):
        return c * np.exp(gamma * t) * np.sin(t)

    t, x = float(t0), float(x0)
    for s, u in ctrl.pairs():
        n = max(1, int(np.ceil(s / step)))
        h = s / n
        td = u * alpha
        for _ in range(n):
            k1 = rate(t)
            k2 = rate(t + 0.5 * h * td)
            k4 = rate(t + h * td)
            x += (h / 6.0) * (k1 + 4.0 * k2 + k4)
            t += h * td
    return np.array([t, x])


def hop_spec(mu=0.6):
    return PlanarSpec(mu * ROTATION.matrix(), ROTATION, [1.0, 0.0],
                      ControlRange(-0.5, 0.5))


class TestXiHat:
    def test_rotation_case(self):
        xh = xi_hat(ROTATION, [1.0, 2.0])
        assert xh.case == "rotation"
        assert abs(xh.g(np.pi) - 2.0 * 5.0) < 1e-12  # 2*|xi|^2 at a half turn

    def test_diagonal_case_value(self):
        xh = xi_hat(ThetaFamily.diagonal(0.5), [1.0, 1.0])
        assert np.allclose(xh.vector, [0.5, -0.5], atol=1e-14)
        expected = 0.5 * (np.e - 1.0) - (np.exp(0.5) - 1.0)
        assert abs(xh.g(1.0) - expected) < 1e-12

    @pytest.mark.parametrize(
        "theta,xi",
        [
            (ROTATION, [1.0, 2.0]),
            (ThetaFamily.jordan(), [0.5, 1.5]),
            (ThetaFamily.diagonal(0.0), [1.0, -2.0]),
            (ThetaFamily.diagonal(0.5), [1.0, 1.0]),
            (ThetaFamily.diagonal(-0.7), [2.0, 1.0]),
        ],
        ids=["rotation", "shear", "diagonal-zero", "diagonal", "diagonal-neg"],
    )
    def test_pairing_identity_and_positivity(self, theta, xi):
        # g(t) = <Lambda_t^theta xi, xi_hat> and g >= 0 with g(0) = g'(0) = 0
        xh = xi_hat(theta, xi)
        th = theta.matrix()
        for t in np.linspace(-8.0, 8.0, 81):
            direct = float(lambda_op(th, t, np.asarray(xi, dtype=float)) @ xh.vector)
            assert abs(direct - float(xh.g(t))) < 1e-9 * max(1.0, abs(direct))
        ts = np.linspace(-10.0, 10.0, 2001)
        gs = np.asarray(xh.g(ts), dtype=float)
        assert np.min(gs) >= -1e-12
        assert abs(float(xh.g(0.0))) < 1e-14
        assert abs(float(xh.g(1e-6))) < 1e-9  # quadratic tangency at 0

    def test_rejects_spiral_with_scaling(self):
        with pytest.raises(ValueError):
            xi_hat(ThetaFamily.spiral(1.0), [1.0, 0.0])

    def test_rejects_degenerate_pairing(self):
        with pytest.raises(ValueError):
            xi_hat(ThetaFamily.diagonal(0.5), [1.0, 0.0])


class TestMonotoneCertificate:
    def test_rank_zero_jordan(self):
        from solv3d.planar import ControlRange
        from solv3d.system import InvariantField, LinearField, SystemSpec

        sys = SystemSpec(ThetaFamily.jordan(), LinearField(np.zeros((2, 2)), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), ControlRange(-1, 1))
        cert = monotone_certificate(sys)
        assert cert.min_g >= -1e-12
        assert len(cert.t_samples) == 10_000

    def test_rejects_positive_rank(self):
        from solv3d.system import InvariantField, LinearField, SystemSpec

        sys = SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), ControlRange(-1, 1))
        with pytest.raises(ValueError):
            monotone_certificate(sys)


class TestCircleHop:
    def test_reaches_rest_point(self):
        sp = hop_spec()
        rng = np.random.default_rng(30)
        for _ in range(20):
            v0 = rng.normal(size=2) * rng.uniform(0.5, 6.0)
            res = circle_hop(sp, v0, 0.2, (-0.5, 0.5))
            assert res.error < 1e-6
            assert np.max(np.abs(res.predicted - equilibrium(sp, 0.2))) < 1e-12

    def test_round_trip(self):
        sp = hop_spec()
        rng = np.random.default_rng(31)
        for _ in range(10):
            v0 = rng.normal(size=2) * 2.0
            res = circle_hop(sp, v0, -0.1, (-0.5, 0.5))
            back, _ = concat_solution(sp, res.achieved, res.return_control)
            assert np.max(np.abs(back - v0)) < 1e-6

    def test_radius_recursion(self):
        # consecutive hop radii shrink by the distance between the two
        # alternating circle centers
        sp = hop_spec()
        res = circle_hop(sp, np.array([5.0, 0.0]), 0.2, (-0.5, 0.5))
        u1, u2 = 0.5 * (-0.5 + 0.2), 0.5 * (0.2 + 0.5)
        d = float(np.hypot(*(equilibrium(sp, u2) - equilibrium(sp, u1))))
        radii = res.diagnostics["radii"]
        for r_prev, r_next in zip(radii[:-1], radii[1:]):
            if r_prev > d:
                assert abs(r_prev - r_next - d) < 1e-9

    def test_trivial_start(self):
        sp = hop_spec()
        res = circle_hop(sp, equilibrium(sp, 0.2), 0.2, (-0.5, 0.5))
        assert len(res.control) == 0 and res.error == 0.0

    def test_rejects_mu_inside_interval(self):
        sp = hop_spec(mu=0.3)
        with pytest.raises(ValueError):
            circle_hop(sp, np.array([1.0, 0.0]), 0.1, (-0.5, 0.5))

    def test_rejects_non_rotation_drift(self):
        sp = PlanarSpec(-np.eye(2), ROTATION, [1.0, 0.0], ControlRange(-0.5, 0.5))
        with pytest.raises(ValueError):
            circle_hop(sp, np.array([1.0, 0.0]), 0.1, (-0.5, 0.5))

    def test_rejects_exterior_u0(self):
        sp = hop_spec()
        with pytest.raises(ValueError):
            circle_hop(sp, np.array([1.0, 0.0]), 0.5, (-0.5, 0.5))

    def test_rejects_non_rotation_family(self):
        # A = 0.6 R commutes with 0.5 I + R, so the spec is valid
        family = ThetaFamily.spiral(0.5)
        sp = PlanarSpec(0.6 * ROTATION.matrix(), family, [1.0, 0.0], ControlRange(-0.5, 0.5))
        with pytest.raises(ValueError, match="rotation structure family"):
            circle_hop(sp, np.array([1.0, 0.0]), 0.1, (-0.5, 0.5))

    @pytest.mark.parametrize("interval", [(0.2, 0.2), (0.5, -0.5)])
    def test_rejects_degenerate_interval(self, interval):
        with pytest.raises(ValueError, match="degenerate control interval"):
            circle_hop(hop_spec(), np.array([1.0, 0.0]), 0.1, interval)

    def test_rejects_zero_eta(self):
        sp = PlanarSpec(0.6 * ROTATION.matrix(), ROTATION, [0.0, 0.0], ControlRange(-0.5, 0.5))
        with pytest.raises(ValueError, match="eta must be nonzero"):
            circle_hop(sp, np.array([1.0, 0.0]), 0.1, (-0.5, 0.5))

    def test_arcs_after_the_first_are_half_turns(self):
        # eta off the axes, so the line of rest points is no coordinate axis
        sp = PlanarSpec(0.6 * ROTATION.matrix(), ROTATION, [0.3, 0.7], ControlRange(-0.5, 0.5))
        rng = np.random.default_rng(5)
        later = 0
        for _ in range(20):
            v0 = rng.normal(size=2) * rng.uniform(0.5, 6.0)
            res = circle_hop(sp, v0, 0.2, (-0.5, 0.5))
            s, u = res.control.durations[1:], res.control.values[1:]
            assert np.array_equal(s, np.pi / np.abs(0.6 - u))
            assert res.error < 1e-9
            later += len(s)
        assert later > 20

    @pytest.mark.parametrize("v0", [[40.0, 3.0], [0.0, 1.0]], ids=["off the line", "on it"])
    def test_one_rest_point_solve_and_at_most_one_angle(self, monkeypatch, v0):
        calls = {"equilibrium": 0, "_arc_time": 0}
        for name in calls:
            def counted(*args, _real=getattr(plan, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(plan, name, counted)
        res = circle_hop(hop_spec(), np.array(v0), 0.2, (-0.5, 0.5))
        assert res.error < 1e-9 and len(res.control) > 0
        assert calls["equilibrium"] == 1 and calls["_arc_time"] <= 1


class TestFiberSync:
    SPEC = PlanarSpec([[-1.0, -1.0], [1.0, -1.0]], ROTATION, [1.0, 0.0],
                      ControlRange(-1.0, 1.0))

    def test_trivial(self):
        res = fiber_sync(self.SPEC, (1.0, np.array([2.0, 3.0])),
                         (1.0, np.array([2.0, 3.0])), -0.5, 0.5)
        assert res.error == 0.0 and len(res.control) == 0

    def test_dwell_only(self):
        r2 = equilibrium(self.SPEC, 0.5)
        res = fiber_sync(self.SPEC, (0.0, r2), (1.0, r2), -0.5, 0.5)
        assert res.diagnostics["route"] == "dwell-only"
        assert res.error < 1e-10

    def test_generic_transfer(self):
        r2 = equilibrium(self.SPEC, 0.5)
        v2 = planar_solution(self.SPEC, 0.7,
                             planar_solution(self.SPEC, 0.3, r2, -0.5), 0.5)
        res = fiber_sync(self.SPEC, (0.0, np.array([1.5, -0.5])), (3.0, v2), -0.5, 0.5)
        assert res.error < 1e-9
        assert abs(res.achieved[0] - 3.0) < 1e-9

    def test_negative_t_budget(self):
        res = fiber_sync(self.SPEC, (0.0, np.array([0.5, 0.5])),
                         (-25.0, equilibrium(self.SPEC, -0.5)), -0.5, 0.5)
        assert res.error < 1e-9

    @pytest.mark.parametrize("p1", [(1.0, [2.0, 3.0]), (0.0, [0.5, 0.0])],
                             ids=["far start", "near start"])
    def test_slow_rotation(self, p1):
        # the rest points v(-0.4) and v(0.4) of a slowly rotating drift: a
        # boundary solve without the endpoint's derivative found no transfer
        # between them from any of its 15 starts
        sp = PlanarSpec([[-1.0, -0.3], [0.3, -1.0]], ROTATION, [1.0, 0.0],
                        ControlRange(-0.5, 0.5))
        res = fiber_sync(sp, (p1[0], np.array(p1[1])), (0.0, np.zeros(2)), -0.4, 0.4)
        assert res.error < 1e-9

    def test_rejects_bad_control_signs(self):
        with pytest.raises(ValueError):
            fiber_sync(self.SPEC, (0.0, np.zeros(2)), (1.0, np.ones(2)), 0.2, 0.5)

    @pytest.mark.parametrize("t1, t2, u1, u2", [
        (np.nan, 1.0, -0.5, 0.5), (0.0, np.inf, -0.5, 0.5),
        (0.0, 1.0, -np.inf, 0.5), (0.0, 1.0, -0.5, np.nan),
    ], ids=["t1 nan", "t2 inf", "u1 -inf", "u2 nan"])
    def test_rejects_non_finite_times_and_controls(self, t1, t2, u1, u2):
        with pytest.raises(ValueError, match="finite"):
            fiber_sync(self.SPEC, (t1, np.zeros(2)), (t2, np.ones(2)), u1, u2)

    @pytest.mark.parametrize("route", ["equilibrium-dwell", "dwell-only"])
    def test_rejects_a_dwell_past_the_float_range(self, route):
        # a dwell of about 1e308 / 0.5 overflows to inf
        r2 = equilibrium(self.SPEC, 0.5)
        v1 = np.zeros(2) if route == "equilibrium-dwell" else r2
        with pytest.raises(ValueError) as exc:
            fiber_sync(self.SPEC, (0.0, v1), (1e308, r2), -0.5, 0.5)
        assert str(exc.value) == ("fiber_sync needs a dwell past the float range for "
                                  "t2 - t1 = 1e+308")

    def test_rejects_expanding_rest_point(self):
        sp = PlanarSpec(np.eye(2), ROTATION, [1.0, 0.0], ControlRange(-1, 1))
        with pytest.raises(ValueError, match="at u1"):
            fiber_sync(sp, (0.0, np.zeros(2)), (1.0, np.ones(2)), -0.5, 0.5)
        # A(u1) contracts but A(u2) does not (eigenvalues 0.58 +- 1.42i), and
        # the t-budget asks for a long dwell at v(u2)
        sp = PlanarSpec([[0.24, 0.74], [-0.74, 0.24]], ThetaFamily.spiral(-0.5),
                        [2.56, 0.95], ControlRange(-1, 1))
        target = (-2.09, equilibrium(sp, 0.68))
        with pytest.raises(ValueError, match="at u2") as exc:
            fiber_sync(sp, (0.0, np.array([-0.34, 0.62])), target, -0.68, 0.68)
        assert len(str(exc.value).splitlines()) == 1
        # both end points at v(u2): the dwell-only route lasted 73.5 time
        # units, with an endpoint error of 2e3
        rest = equilibrium(sp, 0.68)
        with pytest.raises(ValueError, match="at u2") as exc:
            fiber_sync(sp, (0.0, rest), (50.0, rest), -0.68, 0.68)
        assert len(str(exc.value).splitlines()) == 1


class TestStaircase:
    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_closed_loop(self, gamma):
        res = staircase(gamma, 1.0, 2.0, 0.3, -0.7, ControlRange(-1, 1))
        assert res.error < 1e-6

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 0.25])
    def test_visits_target_midway(self, gamma):
        res = staircase(gamma, 1.0, 1.5, -0.2, 0.9, ControlRange(-1, 1))
        pairs = res.control.pairs()
        assert len(pairs) == 10
        first_half = PiecewiseControl.from_pairs(pairs[:5])
        mid = integrate_projected(gamma, 1.0, 1.5, first_half, 0.0, -0.2)
        assert abs(mid[0]) < 1e-6 and abs(mid[1] - 0.9) < 1e-6

    @pytest.mark.parametrize("planner, gamma, alpha, c, x, y, omega", [
        (staircase, 1.0, 1.0, 2.0, 0.3, -0.7, (-1.0, 1.0)),
        (staircase, -1.0, -0.5, 1.5, -0.2, 0.9, (-2.0, 0.25)),
        (half_staircase, 0.5, 2.0, 1.0, 1.2, -2.3, (-0.5, 1.0)),
        (half_staircase, -0.25, 1.0, 0.75, 0.0, 1.0, (-1.0, 1.0)),
    ], ids=["loop", "loop reversed", "half", "half slow"])
    def test_exact_propagation_matches_rk4(self, planner, gamma, alpha, c, x, y, omega):
        # every leg, and the whole schedule from a start off t = 0, against
        # the fixed-step oracle
        res = planner(gamma, alpha, c, x, y, ControlRange(*omega))
        pairs = res.control.pairs()
        for k in range(1, len(pairs) + 1):
            ctrl = PiecewiseControl.from_pairs(pairs[:k])
            np.testing.assert_allclose(integrate_projected(gamma, alpha, c, ctrl, 0.0, x),
                                       rk4_projected(gamma, alpha, c, ctrl, 0.0, x),
                                       rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(integrate_projected(gamma, alpha, c, res.control, 0.3, x),
                                   rk4_projected(gamma, alpha, c, res.control, 0.3, x),
                                   rtol=0.0, atol=1e-10)
        assert res.error < 1e-12

    @pytest.mark.parametrize("x, y", [(np.nan, 1.0), (0.0, np.inf)], ids=["x nan", "y inf"])
    @pytest.mark.parametrize("planner", [staircase, half_staircase], ids=["loop", "half"])
    def test_rejects_non_finite_stops(self, planner, x, y):
        with pytest.raises(ValueError, match="finite"):
            planner(1.0, 1.0, 2.0, x, y, ControlRange(-1, 1))

    @pytest.mark.parametrize("c, x, y", [
        (2.0, 1e308, 0.0), (0.5, 1e308, 0.0), (2.0, -1e308, 1e308), (2.0, 0.0, 1.7e308),
    ], ids=["total time", "dwell", "rung distance", "return dwell"])
    def test_stops_past_the_float_range(self, c, x, y):
        # an overflowing dwell, total time or distance is one ValueError that
        # names the stops; with RuntimeWarning as an error, numpy says nothing
        with pytest.raises(ValueError) as err:
            staircase(1.0, 1.0, c, x, y, ControlRange(-1, 1))
        assert str(err.value) == f"staircase stops {(x, y, x)} leave the float range"

    @pytest.mark.parametrize("gamma", [903.0, 1000.0, -1000.0, 1e300])
    @pytest.mark.parametrize("planner", [staircase, half_staircase], ids=["loop", "half"])
    def test_levels_past_the_float_range(self, planner, gamma):
        # e^{gamma t} at the levels +-pi/4 overflows, and with it the
        # transitions and the dwell rates: one ValueError, no numpy warning
        with pytest.raises(ValueError, match="leave the float range"):
            planner(gamma, 1.0, 1.0, 0.0, 1.0, ControlRange(-1, 1))

    def test_stops_near_the_float_range_still_plan(self):
        res = staircase(1.0, 1.0, 2.0, 1e300, 0.0, ControlRange(-1, 1))
        assert res.error < 1e-13
        assert res.achieved[1] == pytest.approx(1e300, rel=1e-13)

    def test_half_staircase(self):
        res = half_staircase(0.5, 2.0, 1.0, 1.2, -2.3, ControlRange(-0.5, 1.0))
        assert res.error < 1e-6
        assert np.allclose(res.predicted, [0.0, -2.3], atol=1e-12)

    def test_levels_stay_in_band(self):
        res = staircase(1.0, 1.0, 1.0, 0.0, 1.0, ControlRange(-1, 1))
        lo, hi = res.diagnostics["levels"]
        assert lo == -np.pi / 4 and hi == np.pi / 4

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            staircase(0.0, 1.0, 1.0, 0.0, 1.0, ControlRange(-1, 1))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            staircase(1.0, 1.0, -1.0, 0.0, 1.0, ControlRange(-1, 1))

    def test_identity_return_rejects_zero_alpha(self):
        # tau = 1 / (u_max |alpha|) would divide by zero
        from solv3d.system import InvariantField, LinearField, SystemSpec

        sys = SystemSpec(ThetaFamily.spiral(1.0), LinearField(np.zeros((2, 2)), [0.7, -0.4]),
                         InvariantField(0.0, [0.0, 0.0]), ControlRange(-1, 1))
        with pytest.raises(ValueError, match="alpha") as err:
            identity_return_error(sys, 0)
        assert "\n" not in str(err.value)


class TestHFunctions:
    def test_values_at_zero(self):
        h1, h2 = h_functions(1.0, 0.3, 2.5, 0.0)
        assert abs(h1 - 2.5) < 1e-14 and abs(h2) < 1e-14

    def test_period_endpoint_formulas(self):
        rho, gamma = 1.0, 0.1
        d = gamma * gamma + 1.0
        for k in (1, 2, 3):
            _, h2 = h_functions(rho, gamma, 0.0, 2.0 * np.pi * k / rho)
            expected = (2.0 / (rho * d)) * (1.0 - np.exp(gamma * 2.0 * np.pi * k))
            assert abs(h2 - expected) < 1e-9 * max(1.0, abs(expected))
            _, h2 = h_functions(rho, gamma, 0.0, (np.pi + 2.0 * np.pi * k) / rho)
            expected = (2.0 / (rho * d)) * (np.exp(gamma * (np.pi + 2.0 * np.pi * k)) + 1.0)
            assert abs(h2 - expected) < 1e-9 * max(1.0, abs(expected))

    def test_vectorized(self):
        h1, h2 = h_functions(1.0, 0.2, 0.5, np.linspace(0, 5, 11))
        assert h1.shape == (11,) and h2.shape == (11,)

    def test_rejects_zero_rho(self):
        with pytest.raises(ValueError):
            h_functions(0.0, 0.1, 0.0, 1.0)


# the four (sign of s0, sign of gamma) regimes; |k| = 1 in the last regime is
# excluded because its bracketing window collapses onto the zero of H2 at 0
CASES = [
    (1.0, 0.1, 1.0, range(1, 21)),
    (1.0, -0.1, -1.0, range(-1, -21, -1)),
    (-1.0, 0.1, 1.0, range(1, 21)),
    (-1.0, -0.1, -1.0, range(-2, -21, -1)),
]


class TestH2Zero:
    def test_requires_matching_signs(self):
        with pytest.raises(ValueError):
            h2_zero(1.0, 0.1, 1.0, -3)
        with pytest.raises(ValueError):
            h2_zero(1.0, -0.1, 1.0, 3)

    @pytest.mark.parametrize("s0,gamma,rho,ks", CASES, ids=["pp", "pn", "np", "nn"])
    def test_residual_small_k(self, s0, gamma, rho, ks):
        for k in ks:
            if abs(k) > 5:
                continue
            s = h2_zero(rho, gamma, s0, k)
            assert abs(_h2(rho, gamma, s)) < 1e-10

    @pytest.mark.parametrize("s0,gamma,rho,ks", CASES, ids=["pp", "pn", "np", "nn"])
    def test_root_identity(self, s0, gamma, rho, ks):
        # on the zero set of H2 the first function collapses to
        # (2/rho) e^{gamma rho s} sin(rho s) - 2 s + s0
        for k in ks:
            s = h2_zero(rho, gamma, s0, k)
            h1, _ = h_functions(rho, gamma, s0, s)
            collapsed = (2.0 / rho) * np.exp(gamma * rho * s) * np.sin(rho * s) - 2.0 * s + s0
            assert abs(h1 - collapsed) < 1e-9 * max(1.0, abs(h1))

    @pytest.mark.parametrize("s0,gamma,rho,ks", CASES, ids=["pp", "pn", "np", "nn"])
    def test_asymptotic_sign_flip(self, s0, gamma, rho, ks):
        # H1 at the chosen roots eventually takes the sign opposite to s0
        for k in ks:
            if abs(k) < 10:
                continue
            s = h2_zero(rho, gamma, s0, k)
            h1, _ = h_functions(rho, gamma, s0, s)
            assert s0 * h1 < 0.0

    def test_roots_increase(self):
        roots = [h2_zero(1.0, 0.1, 1.0, k) for k in range(1, 21)]
        assert all(b > a for a, b in zip(roots[:-1], roots[1:]))


class TestAdmissibleControls:
    """The planners write only controls inside the system's control range."""

    @pytest.mark.parametrize("u1, u2", [(-5.0, 5.0), (-1.5, 0.5), (-0.5, 1.0 + 2.0**-40)],
                             ids=["both", "u1", "u2 by an ulp-sized margin"])
    def test_fiber_sync_rejects_dwell_controls_outside_omega(self, u1, u2):
        with pytest.raises(ValueError, match="inside the control range") as exc:
            fiber_sync(TestFiberSync.SPEC, (0.0, np.zeros(2)), (1.0, np.array([0.3, 0.0])),
                       u1, u2)
        assert "\n" not in str(exc.value)

    def test_fiber_sync_accepts_the_range_ends(self):
        res = fiber_sync(TestFiberSync.SPEC, (0.0, np.zeros(2)), (1.0, np.array([0.3, 0.0])),
                         -1.0, 1.0)
        assert np.all(np.abs(res.control.values) <= 1.0)

    @pytest.mark.parametrize("interval", [(-0.6, 0.5), (-0.5, 0.55), (-2.0, 2.0)])
    def test_circle_hop_rejects_an_interval_leaving_omega(self, interval):
        with pytest.raises(ValueError, match="inside the control range"):
            circle_hop(hop_spec(), np.array([2.0, 1.0]), 0.1, interval)

    def test_circle_hop_controls_stay_in_omega(self):
        sp = hop_spec()
        res = circle_hop(sp, np.array([2.0, 1.0]), 0.1, (-0.5, 0.5))
        for ctrl in (res.control, res.return_control):
            assert np.all((ctrl.values >= -0.5) & (ctrl.values <= 0.5))


class TestCertificateScaling:
    def test_disagreement_is_a_value_error(self, monkeypatch):
        # a defect in the integral operator is an input-independent ValueError,
        # which the CLI turns into one line, not an AssertionError traceback
        import solv3d.plan as plan
        from solv3d.system import InvariantField, LinearField, SystemSpec

        real = plan.arc

        def skewed(*args):
            e, w = real(*args)
            return e, tuple(1.5 * x for x in w)

        monkeypatch.setattr(plan, "arc", skewed)
        sys = SystemSpec(ThetaFamily.jordan(), LinearField(np.zeros((2, 2)), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), ControlRange(-1, 1))
        with pytest.raises(ValueError, match="disagrees"):
            monotone_certificate(sys)

    @pytest.mark.parametrize("theta, xi", [
        (ROTATION, [1.0, 2.0]), (ThetaFamily.jordan(), [0.5, 1.5]),
        (ThetaFamily.diagonal(0.0), [1.0, -2.0]), (ThetaFamily.diagonal(-0.7), [2.0, 1.0]),
    ], ids=["rotation", "shear", "diagonal-zero", "diagonal-neg"])
    @pytest.mark.parametrize("k", [-700, -40, 40, 700])
    def test_xi_hat_scales_by_powers_of_two(self, theta, xi, k):
        # R xi scales with xi and the other directions against it; past the
        # float range they read inf or 0.0, with no warning
        base, xh = xi_hat(theta, xi), xi_hat(theta, np.ldexp(xi, k))
        sign = 1 if theta is ROTATION else -1
        with np.errstate(over="ignore"):
            assert np.array_equal(xh.vector, np.ldexp(base.vector, sign * k))
        ts = np.linspace(-3.0, 3.0, 7)
        g_scale = 2 * k if theta is ROTATION else 0
        with np.errstate(over="ignore"):
            assert np.array_equal(xh.g(ts), np.ldexp(base.g(ts), g_scale))
