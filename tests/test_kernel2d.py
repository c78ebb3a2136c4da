"""Tests for the exact 2x2 kernel: family matrices, expm, the Lambda operator."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm as scipy_expm

from solv3d import kernel2d
from solv3d.kernel2d import (
    ROT90,
    ThetaFamily,
    arc,
    arc_matrices,
    expm,
    expm_series,
    lambda_op,
)
from solv3d.planar import ControlRange, PlanarSpec, planar_solution

# each family with its structure matrix, written out
LITERALS = {
    ThetaFamily.jordan(): [[1.0, 1.0], [0.0, 1.0]],
    ThetaFamily.diagonal(1.0): [[1.0, 0.0], [0.0, 1.0]],
    ThetaFamily.diagonal(0.5): [[1.0, 0.0], [0.0, 0.5]],
    ThetaFamily.diagonal(0.0): [[1.0, 0.0], [0.0, 0.0]],
    ThetaFamily.diagonal(-0.7): [[1.0, 0.0], [0.0, -0.7]],
    ThetaFamily.spiral(0.0): [[0.0, -1.0], [1.0, 0.0]],
    ThetaFamily.spiral(1.0): [[1.0, -1.0], [1.0, 1.0]],
    ThetaFamily.spiral(-0.3): [[-0.3, -1.0], [1.0, -0.3]],
}
FAMILIES = list(LITERALS)


def lambda_quadrature(B, t, v):
    return np.array([
        quad(lambda s, i=i: (scipy_expm(s * B) @ v)[i], 0.0, t, epsabs=1e-12)[0]
        for i in range(2)
    ])


class TestFamilies:
    def test_jordan_matrix(self):
        assert np.array_equal(ThetaFamily.jordan().matrix(), [[1.0, 1.0], [0.0, 1.0]])

    def test_diagonal_one_is_identity(self):
        assert np.array_equal(ThetaFamily.diagonal(1.0).matrix(), np.eye(2))

    def test_spiral_zero_is_rotation(self):
        assert np.array_equal(ThetaFamily.spiral(0.0).matrix(), ROT90)

    def test_diagonal_gamma_bound(self):
        with pytest.raises(ValueError):
            ThetaFamily.diagonal(1.5)

    @pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("tag", ["diagonal", "spiral"])
    def test_non_finite_gamma(self, tag, gamma):
        with pytest.raises(ValueError, match="gamma must have finite entries"):
            ThetaFamily(tag, gamma)

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
        assert M.dtype == float and np.array_equal(M, LITERALS[family])
        with pytest.raises(ValueError):
            M[0, 0] = 2.0
        # the cached matrix is no field: equality, hash and repr read tag and gamma
        twin = ThetaFamily(family.tag, family.gamma)
        assert twin == family and hash(twin) == hash(family)
        assert hash(family) == hash((family.tag, family.gamma))
        assert repr(family) == f"ThetaFamily(tag={family.tag!r}, gamma={family.gamma!r})"
        assert family != ThetaFamily.spiral(0.25)


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((2, 2)), 3.7), np.eye(2))

    def test_rotation_half_turn(self):
        assert np.allclose(expm(ROT90, np.pi), -np.eye(2), atol=1e-12)

    def test_diagonal_half(self):
        out = expm(ThetaFamily.diagonal(0.5).matrix(), 1.0)
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
        th = ThetaFamily.diagonal(0.0).matrix()
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

    @pytest.mark.parametrize("args", [
        (1.5e307, 0.0, 0.0, 1.5e307, 1.0),
        (1.0, 0.0, 0.0, 0.0, 1.5e307),
        (-math.nextafter(2.0**1020, math.inf), 0.0, 0.0, 0.0, 1.0),
    ], ids=["M", "s", "just past 2^1020"])
    def test_more_than_1023_doublings_is_a_value_error(self, args):
        # |s| * max row sum past 2^1020 would take 1024 doublings, and 2**1024
        # is past the float range
        for batch in (args, [np.full(3, a) for a in args]):
            with pytest.raises(ValueError, match="well inside the float range"):
                arc(*batch)

    def test_1023_doublings_still_run(self):
        # |s M| = 2^1020 exactly: e^{sM} underflows to 0 and W = 2^-1020
        (e00, _, _, e11), (w00, _, _, w11) = arc(-2.0**1020, 0.0, 0.0, 0.0, 1.0)
        assert (e00, e11, w11) == (0.0, 1.0, 1.0)
        assert abs(w00 / 2.0**-1020 - 1.0) < 1e-14

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


def _reference_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def reference_arc(m00, m01, m10, m11, s):
    """``arc`` with its step count taken by numpy ufuncs on every input and
    its products by a 2x2 entry-tuple helper: the operations ``arc`` must
    repeat bit for bit, on scalars and batches alike."""
    norm = float(np.max(abs(s) * np.maximum(abs(m00) + abs(m01), abs(m10) + abs(m11))))
    scaled = norm / 0.125
    if not math.isfinite(scaled):
        raise ValueError(f"arc needs a finite s*M well inside the float range, got {norm}")
    k = max(0, math.ceil(math.log2(scaled))) if norm > 0.0 else 0
    h = s / 2**k
    x = (h * m00, h * m01, h * m10, h * m11)
    p = (1.0, 0.0, 0.0, 1.0)
    for j in range(11, 1, -1):
        xp = _reference_mul(x, p)
        p = (1.0 + xp[0] / j, xp[1] / j, xp[2] / j, 1.0 + xp[3] / j)
    xp = _reference_mul(x, p)
    e = (1.0 + xp[0], xp[1], xp[2], 1.0 + xp[3])
    w = (h * p[0], h * p[1], h * p[2], h * p[3])
    for _ in range(k):
        ew = _reference_mul(e, w)
        w = (w[0] + ew[0], w[1] + ew[1], w[2] + ew[2], w[3] + ew[3])
        e = _reference_mul(e, e)
    return e, w


def assert_same_bits(got, want):
    """Equal float bit patterns (signed zeros told apart), any NaN equal to any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def flat(result):
    e, w = result
    return [*e, *w]


class TestScale:
    """``unit_scaled`` and its inverse ``unscaled``."""

    @pytest.mark.parametrize("a", [[3.0, -0.25], [1e308, -3.0], [0.0, -0.0], 7.5, 2.0**-1074])
    def test_unscaled_inverts_unit_scaled(self, a):
        x, e = kernel2d.unit_scaled(np.asarray(a))
        assert 0.5 <= np.max(np.abs(x)) < 1.0 or np.all(x == 0.0)
        assert np.array_equal(kernel2d.unscaled(x, e), a)

    def test_unscaled_rounds_past_the_float_range_without_a_warning(self):
        # the suite turns a RuntimeWarning into an error
        assert kernel2d.unscaled(0.75, 1024) == 0.75 * 2.0**1023 * 2.0
        assert kernel2d.unscaled(0.75, 1025) == math.inf
        assert kernel2d.unscaled(-0.75, 1025) == -math.inf
        assert kernel2d.unscaled(0.75, -1076) == 0.0
        assert kernel2d.unscaled(0.5, -1073) == 2.0**-1074
        assert kernel2d.unscaled(np.array([0.5, 0.75]), 1025).tolist() == [math.inf, math.inf]


class TestArcBitIdentity:
    """``arc`` against ``reference_arc``: scalars never reach numpy, yet every
    scalar and batched result keeps the reference's bits."""

    def test_seeded_scalars(self):
        # entries of both signs across 1e-8..1e4 and s of both signs: the
        # largest |s M| (about 2e8) takes 31 doublings, whose squares of
        # e^{sM} overflow to inf and then NaN
        rng = np.random.default_rng(2027)
        n = 10_000
        entries = rng.choice([-1.0, 1.0], (n, 5)) * 10.0 ** rng.uniform(-8.0, 4.0, (n, 5))
        got, want = [], []
        for row in entries.tolist():
            got.append(flat(arc(*row)))
            want.append(flat(reference_arc(*row)))
            assert all(type(x) is float for x in got[-1])
        assert_same_bits(got, want)
        assert not np.all(np.isfinite(want)) and np.any(np.isnan(want))

    @pytest.mark.parametrize("args", [
        (0.3, -1.2, 0.7, 0.1, 0.0),
        (0.3, -1.2, 0.7, 0.1, -0.0),
        (0.0, 0.0, 0.0, 0.0, 2.5),
        (0.0, -0.0, 0.0, 0.0, -2.5),
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (1, -2, 3, 0, 2),
        (2, 0, 0, 1, -0.75),
        (np.float64(0.3), np.float64(-1.2), np.float64(0.7), np.float64(0.1), np.float64(1.5)),
        (np.float64(5.0), 0.5, -1, np.float64(0.25), 3.0),
    ], ids=["s=0", "s=-0", "M=0", "M=-0", "both 0", "ints", "int M", "float64", "mixed"])
    def test_special_scalars(self, args):
        assert_same_bits(flat(arc(*args)), flat(reference_arc(*args)))

    def test_mixed_scalar_and_array_arguments(self):
        # each argument a scalar or an array, broadcast element-wise; the
        # batch takes the largest member's doublings, like the reference
        rng = np.random.default_rng(5)
        for mask in range(32):
            args = [rng.uniform(-3.0, 3.0, 7) if mask >> i & 1 else float(rng.uniform(-3.0, 3.0))
                    for i in range(5)]
            assert_same_bits(np.broadcast_arrays(*flat(arc(*args))),
                             np.broadcast_arrays(*flat(reference_arc(*args))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slot", range(5))
    def test_non_finite_argument_raises_the_reference_error(self, slot, bad):
        args = [0.3, -1.2, 0.7, 0.1, 1.5]
        args[slot] = bad
        with pytest.raises(ValueError) as want:
            reference_arc(*args)
        with pytest.raises(ValueError) as got:
            arc(*args)
        assert str(got.value) == str(want.value)

    def test_scalar_path_touches_no_numpy(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"scalar arc read numpy.{name}")

        args = (0.3, -1.2, 0.7, 0.1, 40.0)
        want = flat(arc(*args))
        monkeypatch.setattr(kernel2d, "np", NoNumpy())
        assert_same_bits(flat(kernel2d.arc(*args)), want)
        with pytest.raises(ValueError, match="got nan"):
            kernel2d.arc(0.3, math.nan, 0.7, 0.1, 40.0)
