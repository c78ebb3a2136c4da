"""Tests for the planar control-affine system and its classification."""

import numpy as np
import pytest

from solv3d.kernel2d import ThetaFamily
from solv3d.planar import (
    ControlRange,
    DetSignError,
    PiecewiseControl,
    PlanarSpec,
    PlanarVerdict,
    a_of_u,
    classify_planar,
    concat_solution,
    equilibrium,
    equilibrium_derivative,
    exceptional_control,
    omega_hat,
    openness_certificate,
    planar_solution,
)
from solv3d.planar import _det_a_of_u_coeffs


def spec_spiral(A=None, eta=(1.0, 0.0), omega=(-1.0, 1.0)):
    return PlanarSpec(
        A=-np.eye(2) if A is None else np.asarray(A, dtype=float),
        theta=ThetaFamily.spiral(0.0),
        eta=np.asarray(eta, dtype=float),
        omega=ControlRange(*omega),
    )


def rk4_solution(spec, s, v0, u, n=4000):
    Au = a_of_u(spec, u)
    b = u * spec.eta
    h = s / n
    v = np.asarray(v0, dtype=float)
    for _ in range(n):
        k1 = Au @ v + b
        k2 = Au @ (v + 0.5 * h * k1) + b
        k3 = Au @ (v + 0.5 * h * k2) + b
        k4 = Au @ (v + h * k3) + b
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


class TestBasics:
    def test_control_range_needs_zero_inside(self):
        with pytest.raises(ValueError):
            ControlRange(0.5, 1.0)

    def test_control_range_scaled_negative(self):
        r = ControlRange(-1.0, 2.0).scaled(-0.5)
        assert (r.u_min, r.u_max) == (-1.0, 0.5)

    def test_piecewise_control_validation(self):
        with pytest.raises(ValueError):
            PiecewiseControl(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            PiecewiseControl(np.array([1.0]), np.array([0.0, 1.0]))

    def test_piecewise_control_totals(self):
        c = PiecewiseControl.from_pairs([(1.0, 0.5), (2.0, -0.5)])
        assert len(c) == 2 and c.total_time == 3.0

    def test_spec_requires_commutation(self):
        with pytest.raises(ValueError):
            PlanarSpec(np.diag([1.0, 2.0]), ThetaFamily.jordan(), [1, 0],
                       ControlRange(-1, 1))

    def test_spec_requires_invertible_drift(self):
        with pytest.raises(ValueError):
            PlanarSpec(np.diag([1.0, 0.0]), ThetaFamily.diagonal(0.5), [1, 0],
                       ControlRange(-1, 1))

    def test_a_of_u(self):
        sp = spec_spiral()
        assert np.array_equal(a_of_u(sp, 0.5), -np.eye(2) - 0.5 * ThetaFamily.spiral(0.0).matrix())

    def test_det_polynomial(self):
        sp = spec_spiral()
        rng = np.random.default_rng(20)
        c2, c1, c0 = _det_a_of_u_coeffs(sp)
        for u in rng.uniform(-3, 3, size=20):
            assert abs(c2 * u * u + c1 * u + c0 - np.linalg.det(a_of_u(sp, u))) < 1e-12


class TestEquilibrium:
    def test_example(self):
        sp = PlanarSpec(-np.eye(2), ThetaFamily.diagonal(1.0), [1.0, 0.0],
                        ControlRange(-2, 2))
        assert np.allclose(equilibrium(sp, 1.0), [0.5, 0.0], atol=1e-12)

    def test_residual(self):
        # A(u) v(u) + u eta = 0 exactly
        sp = spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]], eta=(1.0, 2.0))
        rng = np.random.default_rng(21)
        for u in rng.uniform(-1, 1, size=100):
            v = equilibrium(sp, u)
            assert np.max(np.abs(a_of_u(sp, u) @ v + u * sp.eta)) < 1e-11

    def test_derivative_finite_difference(self):
        sp = spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]], eta=(1.0, 2.0))
        rng = np.random.default_rng(22)
        h = 1e-6
        for u in rng.uniform(-0.9, 0.9, size=40):
            fd = (equilibrium(sp, u + h) - equilibrium(sp, u - h)) / (2 * h)
            assert np.max(np.abs(fd - equilibrium_derivative(sp, u))) < 1e-6

    def test_singular_control_rejected(self):
        sp = PlanarSpec(np.eye(2), ThetaFamily.diagonal(1.0), [1.0, 0.0],
                        ControlRange(-2, 2))
        with pytest.raises(ValueError):
            equilibrium(sp, 1.0)  # det(A - u*I) = 0 at u = 1


class TestOmegaHat:
    def test_double_root(self):
        sp = PlanarSpec(np.eye(2), ThetaFamily.diagonal(1.0), [1.0, 0.0],
                        ControlRange(-2, 2))
        oh = omega_hat(sp)
        assert oh.roots == (1.0,)
        assert len(oh.intervals) == 2
        assert oh.component_of_zero[0] == -2.0
        assert abs(oh.component_of_zero[1] - 1.0) < 1e-6
        assert oh.contains(0.5) and not oh.contains(1.0)

    def test_no_real_roots(self):
        oh = omega_hat(spec_spiral())  # det = 1 + u^2 > 0
        assert oh.roots == ()
        assert oh.intervals == ((-1.0, 1.0),)

    def test_linear_case(self):
        # det(theta) = 0 makes the determinant linear in u
        sp = PlanarSpec(np.eye(2), ThetaFamily.diagonal(0.0), [0.0, 1.0],
                        ControlRange(-2, 2))
        oh = omega_hat(sp)
        assert oh.roots == (1.0,)

    def test_two_roots(self):
        sp = PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(0.5), [1.0, 1.0],
                        ControlRange(-5, 5))
        oh = omega_hat(sp)
        assert np.allclose(oh.roots, [-2.0, 1.0], atol=1e-12)
        assert len(oh.intervals) == 3
        assert oh.component_of_zero[0] > -2.0 - 1e-6 and oh.component_of_zero[1] < 1.0 + 1e-6


class TestSolution:
    def test_matches_rk4(self):
        cases = [
            (spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]], eta=(1.0, 2.0)), 0.7),
            (spec_spiral(A=[[0.3, -2.0], [2.0, 0.3]], eta=(0.5, -1.0)), -0.4),
            (PlanarSpec([[2.0, 1.0], [0.0, 2.0]], ThetaFamily.jordan(), [1.0, 1.0],
                        ControlRange(-1, 1)), 0.9),
        ]
        rng = np.random.default_rng(23)
        for sp, u in cases:
            for _ in range(5):
                v0 = rng.normal(size=2)
                s = rng.uniform(0.1, 2.0)
                exact = planar_solution(sp, s, v0, u)
                assert np.max(np.abs(exact - rk4_solution(sp, s, v0, u))) < 1e-8

    def test_at_determinant_root(self):
        # u = 1 makes A(u) = 0; variation of constants must still be exact
        sp = PlanarSpec(np.eye(2), ThetaFamily.diagonal(1.0), [1.0, 2.0],
                        ControlRange(-2, 2))
        v0 = np.array([0.5, -0.5])
        out = planar_solution(sp, 1.5, v0, 1.0)
        assert np.max(np.abs(out - (v0 + 1.5 * sp.eta))) < 1e-12

    def test_fixes_equilibrium(self):
        sp = spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]], eta=(1.0, 2.0))
        v = equilibrium(sp, 0.6)
        assert np.max(np.abs(planar_solution(sp, 3.0, v, 0.6) - v)) < 1e-10

    def test_concat_affine_identity(self):
        sp = spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]], eta=(1.0, 2.0))
        ctrl = PiecewiseControl.from_pairs([(0.5, 0.4), (0.8, -0.7), (0.3, 0.9)])
        rng = np.random.default_rng(24)
        zero, _ = concat_solution(sp, np.zeros(2), ctrl)
        for _ in range(20):
            v0 = rng.normal(size=2)
            out, M = concat_solution(sp, v0, ctrl)
            assert np.max(np.abs(out - (M @ v0 + zero))) < 1e-9

    def test_concat_balanced_linear_part(self):
        # sum of s_i u_i = 0 collapses the linear part to e^{(sum s_i) A}
        from solv3d.kernel2d import expm

        sp = spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]])
        ctrl = PiecewiseControl.from_pairs([(1.0, 0.5), (0.5, -1.0), (0.7, 0.0)])
        _, M = concat_solution(sp, np.zeros(2), ctrl)
        assert np.max(np.abs(M - expm(sp.A, 2.2))) < 1e-10


class TestOpenness:
    def test_generic_nonzero(self):
        sp = spec_spiral(A=[[-1.0, -0.5], [0.5, -1.0]], eta=(1.0, 2.0))
        value, ok = openness_certificate(sp, 0.3, 1.0)
        assert ok and value != 0.0

    def test_degenerates_at_full_turn(self):
        # A(u) is a pure rotation; a full period makes e^{sA(u)} = I
        sp = spec_spiral(A=ThetaFamily.spiral(0.0).matrix())
        s_full = 2.0 * np.pi / 0.5  # angular rate 1 - u = 0.5
        value, _ = openness_certificate(sp, 0.5, s_full)
        assert abs(value) < 1e-9


class TestExceptional:
    def test_example_value(self):
        sp = PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(0.5), [1.0, 1.0],
                        ControlRange(-5, 5))
        u0 = exceptional_control(sp)
        assert u0 is not None and abs(u0 - 4.0) < 1e-12

    def test_outside_range_is_none(self):
        sp = PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(0.5), [1.0, 1.0],
                        ControlRange(-1, 1))
        assert exceptional_control(sp) is None

    def test_no_root_is_none(self):
        sp = PlanarSpec([[1.0, 1.0], [0.0, 1.0]], ThetaFamily.diagonal(1.0), [0.0, 1.0],
                        ControlRange(-1, 1))
        assert exceptional_control(sp) is None

    def test_common_eigenvector_raises(self):
        sp = PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(0.5), [1.0, 0.0],
                        ControlRange(-1, 1))
        with pytest.raises(ValueError):
            exceptional_control(sp)


class TestClassify:
    def test_open(self):
        verdict, cert = classify_planar(spec_spiral(A=np.eye(2)))
        assert verdict is PlanarVerdict.OPEN
        assert cert["trace_at_endpoints"][0] > 0

    def test_closed(self):
        verdict, _ = classify_planar(spec_spiral(A=-np.eye(2)))
        assert verdict is PlanarVerdict.CLOSED

    def test_whole_plane_trace_free_drift(self):
        verdict, cert = classify_planar(spec_spiral(A=0.6 * ThetaFamily.spiral(0.0).matrix()))
        assert verdict is PlanarVerdict.WHOLE_PLANE
        assert cert["interior_trace_zero"] is not None

    def test_whole_plane_interior_zero(self):
        A = 0.5 * np.eye(2) + ThetaFamily.spiral(0.0).matrix()
        sp = PlanarSpec(A, ThetaFamily.spiral(1.0), [1.0, 0.0], ControlRange(-1, 1))
        verdict, cert = classify_planar(sp)
        assert verdict is PlanarVerdict.WHOLE_PLANE
        assert abs(cert["interior_trace_zero"] - 0.5) < 1e-12

    def test_det_sign_error(self):
        sp = PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(1.0), [1.0, 1.0],
                        ControlRange(-0.5, 0.5))
        with pytest.raises(DetSignError) as err:
            classify_planar(sp)
        assert err.value.det <= 0.0


FIVE_FAMILIES = [ThetaFamily.jordan(), ThetaFamily.diagonal(0.5), ThetaFamily.diagonal(-0.7),
                 ThetaFamily.spiral(0.0), ThetaFamily.spiral(0.4)]
ROOTS = np.linspace(-1.4, 1.4, 20)


def _ends_at(r):
    """Control ranges with the root r inside and at one end."""
    return [(-1.5, 1.5), (-1.5, r) if r > 0 else (r, 1.5)]


def det_gate_specs():
    """Seeded planar specs over the five families.

    Random drifts a I + b theta, which commute with theta, on random ranges;
    double roots of det A(u) inside omega and at its ends, from A = r theta
    (with and without a 1e-9 shift, which splits or lifts the root) and from
    jordan A = a I + 0.5 N.
    """
    rng = np.random.default_rng(16)
    out = []
    for th in FIVE_FAMILIES:
        T = th.matrix()
        for _ in range(40):
            a, b = rng.normal(size=2)
            out.append((a * np.eye(2) + b * T, th, (-rng.uniform(0.1, 2), rng.uniform(0.1, 2))))
        for r in ROOTS:
            for eps in (0.0, 1e-9):
                out += [(r * T + eps * np.eye(2), th, om) for om in _ends_at(r)]
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    for a in ROOTS:
        out += [(a * np.eye(2) + 0.5 * N, ThetaFamily.jordan(), om) for om in _ends_at(a)]
    return [PlanarSpec(A, th, rng.normal(size=2), ControlRange(*om)) for A, th, om in out]


def gate(spec):
    """The verdict, or det A from the DetSignError raised at u = 0."""
    try:
        return classify_planar(spec)[0]
    except DetSignError as exc:
        assert exc.u == 0.0
        return exc.det


class TestDetSignGate:
    """classify_planar raises DetSignError exactly when det A <= 0."""

    SPECS = det_gate_specs()

    def test_raises_exactly_when_det_a_is_not_positive(self):
        raised = 0
        for sp in self.SPECS:
            det = sp.A[0, 0] * sp.A[1, 1] - sp.A[0, 1] * sp.A[1, 0]
            got = gate(sp)
            assert (got == det) if det <= 0.0 else isinstance(got, PlanarVerdict), (sp, got)
            raised += det <= 0.0
        assert 0 < raised < len(self.SPECS)

    def test_component_of_zero_keeps_the_sign_of_det_a(self):
        # the premise of the gate: omega_hat cuts every root, so det A(u)
        # sampled inside the component of zero never leaves the sign of det A
        for sp in self.SPECS:
            lo, hi = omega_hat(sp).component_of_zero
            dets = [np.linalg.det(a_of_u(sp, u)) for u in np.linspace(lo, hi, 33)[1:-1]]
            assert np.all(np.sign(dets) == np.sign(np.linalg.det(sp.A))), sp

    @pytest.mark.parametrize("k", [-600, -540, -30, -7, 5, 20, 511, 600])
    def test_power_of_two_time_rescaling(self, k):
        # A and omega times c = 2^k is the time rescaling s -> c s: the
        # verdict stays, and det A scales by exactly c^2, rounded into the
        # float range; at k = -600, -540, 511 and 600 the products in
        # det A(u) leave that range, and still no RuntimeWarning is raised
        c = 2.0**k
        for sp in self.SPECS:
            sc = PlanarSpec(c * sp.A, sp.theta, sp.eta,
                            ControlRange(c * sp.omega.u_min, c * sp.omega.u_max))
            want = gate(sp)
            assert gate(sc) == (want if isinstance(want, PlanarVerdict) else c * c * want)
