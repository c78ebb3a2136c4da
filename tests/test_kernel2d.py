"""Tests for the exact 2x2 kernel: family matrices, expm, the Lambda operator."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm as scipy_expm

from solv3d.kernel2d import (
    ROT90,
    ThetaFamily,
    arc,
    arc_matrices,
    expm,
    expm_series,
    lambda_op,
    mat2,
    theta_matrix,
)
from solv3d.planar import ControlRange, PlanarSpec, planar_solution

FAMILIES = [
    ThetaFamily.jordan(),
    ThetaFamily.diagonal(1.0),
    ThetaFamily.diagonal(0.5),
    ThetaFamily.diagonal(0.0),
    ThetaFamily.diagonal(-0.7),
    ThetaFamily.spiral(0.0),
    ThetaFamily.spiral(1.0),
    ThetaFamily.spiral(-0.3),
]


def lambda_quadrature(B, t, v):
    return np.array([
        quad(lambda s, i=i: (scipy_expm(s * B) @ v)[i], 0.0, t, epsabs=1e-12)[0]
        for i in range(2)
    ])


class TestFamilies:
    def test_jordan_matrix(self):
        assert np.array_equal(theta_matrix(ThetaFamily.jordan()),
                              [[1.0, 1.0], [0.0, 1.0]])

    def test_diagonal_one_is_identity(self):
        assert np.array_equal(theta_matrix(ThetaFamily.diagonal(1.0)), np.eye(2))

    def test_spiral_zero_is_rotation(self):
        assert np.array_equal(theta_matrix(ThetaFamily.spiral(0.0)), ROT90)

    def test_diagonal_gamma_bound(self):
        with pytest.raises(ValueError):
            ThetaFamily.diagonal(1.5)

    def test_jordan_rejects_parameter(self):
        with pytest.raises(ValueError):
            ThetaFamily("jordan", 0.5)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            ThetaFamily("hyperbolic", 0.0)

    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_matrix_is_built_once_and_read_only(self, family):
        M = family.matrix()
        assert family.matrix() is M
        assert np.array_equal(M, theta_matrix(family))
        with pytest.raises(ValueError):
            M[0, 0] = 2.0
        # the cached matrix is no field: equality, hash and repr read tag and gamma
        twin = ThetaFamily(family.tag, family.gamma)
        assert twin == family and hash(twin) == hash(family)
        assert hash(family) == hash((family.tag, family.gamma))
        assert repr(family) == f"ThetaFamily(tag={family.tag!r}, gamma={family.gamma!r})"
        assert family != ThetaFamily.spiral(0.25)


class TestConstructors:
    def test_mat2_rejects_inf(self):
        with pytest.raises(ValueError):
            mat2(1.0, np.inf, 0.0, 1.0)

    def test_mat2_layout(self):
        assert np.array_equal(mat2(1, 2, 3, 4), [[1.0, 2.0], [3.0, 4.0]])


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((2, 2)), 3.7), np.eye(2))

    def test_rotation_half_turn(self):
        assert np.allclose(expm(ROT90, np.pi), -np.eye(2), atol=1e-12)

    def test_diagonal_half(self):
        out = expm(theta_matrix(ThetaFamily.diagonal(0.5)), 1.0)
        assert np.allclose(out, np.diag([np.e, np.exp(0.5)]), atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.gamma}")
    def test_matches_series_oracle(self, family):
        th = family.matrix()
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = rng.uniform(-4.0, 4.0)
            assert np.max(np.abs(expm(th, t) - scipy_expm(t * th))) < 1e-10

    def test_generic_fallback_matches_series(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            B = rng.normal(size=(2, 2))
            t = rng.uniform(-2.0, 2.0)
            assert np.max(np.abs(expm(B, t) - scipy_expm(t * B))) < 1e-10

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.gamma}")
    def test_inverse_identity(self, family):
        th = family.matrix()
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(-10.0, 10.0)
            prod = expm(th, t) @ expm(th, -t)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-10

    def test_expm_series_direct(self):
        M = np.array([[0.0, -np.pi], [np.pi, 0.0]])
        assert np.allclose(expm_series(M), -np.eye(2), atol=1e-12)


class TestLambdaOp:
    def test_zero_time(self):
        B = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(lambda_op(B, 0.0, [1.0, 2.0]), [0.0, 0.0])

    def test_zero_matrix(self):
        v = np.array([1.5, -2.0])
        assert np.allclose(lambda_op(np.zeros((2, 2)), 3.0, v), 3.0 * v, atol=1e-14)

    def test_rotation_half_turn(self):
        out = lambda_op(ROT90, np.pi, [1.0, 0.0])
        assert np.allclose(out, [0.0, 2.0], atol=1e-12)

    def test_diagonal_zero_closed_form(self):
        th = theta_matrix(ThetaFamily.diagonal(0.0))
        v = np.array([2.0, 3.0])
        t = 1.3
        expected = [(np.e ** t - 1.0) * 2.0, t * 3.0]
        assert np.allclose(lambda_op(th, t, v), expected, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.gamma}")
    def test_matches_quadrature(self, family):
        th = family.matrix()
        rng = np.random.default_rng(13)
        for _ in range(12):
            t = rng.uniform(-5.0, 5.0)
            v = rng.normal(size=2)
            assert np.max(np.abs(lambda_op(th, t, v) - lambda_quadrature(th, t, v))) < 1e-9

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.gamma}")
    def test_derivative_is_expm(self, family):
        th = family.matrix()
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(10):
            t = rng.uniform(-3.0, 3.0)
            v = rng.normal(size=2)
            fd = (lambda_op(th, t + h, v) - lambda_op(th, t - h, v)) / (2.0 * h)
            assert np.max(np.abs(fd - expm(th, t) @ v)) < 1e-6

    def test_near_singular_stability(self):
        # determinant tiny but nonzero: both branches must agree with quadrature
        B = np.array([[1.0, 0.0], [0.0, 1e-13]])
        v = np.array([1.0, 1.0])
        out = lambda_op(B, 1.0, v)
        assert np.max(np.abs(out - lambda_quadrature(B, 1.0, v))) < 1e-9


def mp_arc_oracle(M, s, v0, b):
    """e^{sM} v0 + (int_0^s e^{rM} dr) b to 40 digits, via the block [[M, b], [0, 0]]."""
    with mpmath.workdps(40):
        aug = mpmath.matrix(3, 3)
        for i in range(2):
            for j in range(2):
                aug[i, j] = mpmath.mpf(float(M[i][j]))
            aug[i, 2] = mpmath.mpf(float(b[i]))
        F = mpmath.expm(mpmath.mpf(float(s)) * aug)
        return [
            F[i, 0] * mpmath.mpf(float(v0[0])) + F[i, 1] * mpmath.mpf(float(v0[1])) + F[i, 2]
            for i in range(2)
        ]


# (A, theta, determinant root u*) of the two near-root specs
NEAR_ROOT_SPECS = [
    (np.array([[2.0, 1.0], [0.0, 2.0]]), ThetaFamily.jordan(), 2.0),
    (np.diag([0.3, 1.0]), ThetaFamily.diagonal(0.5), 0.3),
]
ROOT_OFFSETS = [0.0] + [sg * d for d in np.logspace(-14, -2, 13) for sg in (1.0, -1.0)]


class TestArc:
    @pytest.mark.parametrize("A, family, root", NEAR_ROOT_SPECS, ids=["jordan", "diagonal"])
    @pytest.mark.parametrize("s", [0.3, 1.5, 4.0])
    def test_planar_solution_near_root(self, A, family, root, s):
        spec = PlanarSpec(A, family, np.array([1.0, 0.5]), ControlRange(-3.0, 3.0))
        v0 = np.array([0.7, -0.4])
        th = family.matrix()
        worst = 0.0
        for d in ROOT_OFFSETS:
            u = root + d
            # the oracle takes the double-precision A(u) the code sees
            ref = mp_arc_oracle(A - u * th, s, v0, u * spec.eta)
            got = planar_solution(spec, s, v0, u)
            err = mpmath.sqrt(sum((mpmath.mpf(float(g)) - r) ** 2 for g, r in zip(got, ref)))
            worst = max(worst, float(err / mpmath.sqrt(sum(r * r for r in ref))))
        assert worst <= 1e-13

    def test_lambda_op_near_singular(self):
        B = [[1.0, 1.0], [1.0, 1.0 + 1e-9]]
        ref = mp_arc_oracle(B, 1.0, [0.0, 0.0], [1.0, -1.0])
        out = lambda_op(B, 1.0, [1.0, -1.0])
        assert max(abs(float(o - r)) for o, r in zip(out, ref)) <= 1e-13
        # v is nearly in the kernel of B, so the integral is nearly t v
        assert np.max(np.abs(out - [1.0, -1.0])) < 1e-8

    @pytest.mark.parametrize("t", [10.0, -10.0])
    def test_wide_spread_diagonal(self, t):
        E = expm(np.diag([1.0, -0.7]), t)
        exact = [mpmath.exp(t), mpmath.exp(-0.7 * t)]
        for i in range(2):
            assert abs(float(mpmath.mpf(float(E[i, i])) / exact[i] - 1)) <= 1e-14
        assert E[0, 1] == 0.0 and E[1, 0] == 0.0

    def test_float_and_array_inputs_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = rng.normal(size=4).tolist()
            s = float(rng.uniform(-4.0, 4.0))
            scalar = arc(*m, s)
            batch = arc(*(np.full(3, x) for x in m), s)
            for sc, ba in zip(scalar, batch):
                for x, col in zip(sc, ba):
                    assert isinstance(x, float)
                    assert np.array_equal(col, np.full(3, x))

    @settings(max_examples=200)
    @given(m=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           s1=st.floats(-3.0, 3.0), s2=st.floats(-3.0, 3.0))
    def test_arcs_compose(self, m, s1, s2):
        # the semigroup law E(s1 + s2) = E(s2) E(s1), and with it
        # W(s1 + s2) = W(s1) + E(s1) W(s2), each to 1e-12 of its factors' size
        M = np.reshape(m, (2, 2))
        (E1, W1), (E2, W2) = arc_matrices(M, s1), arc_matrices(M, s2)
        E, W = arc_matrices(M, s1 + s2)

        def size(X):
            return np.max(np.abs(X))

        assert size(E - E2 @ E1) <= 1e-12 * size(E2) * size(E1)
        assert size(W - (W1 + E1 @ W2)) <= 1e-12 * (size(W1) + size(E1) * size(W2))
