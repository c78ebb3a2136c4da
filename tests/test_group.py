"""Tests for the semidirect-product group, its projections and quotients."""

import numpy as np
import pytest

from solv3d.group import (
    GroupElement,
    GroupVariant,
    QuotientElement,
    conjugate,
    identity,
    inverse,
    multiply,
    project_H,
    project_S,
    quotient_map,
    quotient_multiply,
    rho,
)
from solv3d.kernel2d import ThetaFamily

FAMILIES = [
    ThetaFamily.jordan(),
    ThetaFamily.diagonal(1.0),
    ThetaFamily.diagonal(0.0),
    ThetaFamily.diagonal(-0.4),
    ThetaFamily.spiral(0.0),
    ThetaFamily.spiral(0.8),
]


def random_element(rng):
    return GroupElement(rng.uniform(-2, 2), rng.normal(size=2))


def close(a: GroupElement, b: GroupElement, tol=1e-10):
    return np.max(np.abs(a.as_array() - b.as_array())) < tol


class TestProduct:
    def test_diagonal_zero_example(self):
        fam = ThetaFamily.diagonal(0.0)
        out = multiply(GroupElement(1.0, [0.0, 0.0]), GroupElement(0.0, [1.0, 0.0]), fam)
        assert out.t == 1.0
        assert np.allclose(out.v, [np.e, 0.0], atol=1e-12)

    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        for fam in FAMILIES:
            g = random_element(rng)
            assert close(multiply(identity(), g, fam), g, 1e-14)
            assert close(multiply(g, identity(), fam), g, 1e-14)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.gamma}")
    def test_associativity(self, family):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = (random_element(rng) for _ in range(3))
            lhs = multiply(multiply(a, b, family), c, family)
            rhs = multiply(a, multiply(b, c, family), family)
            assert close(lhs, rhs, 1e-10)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.gamma}")
    def test_inverse(self, family):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_element(rng)
            assert close(multiply(g, inverse(g, family), family), identity(), 1e-10)
            assert close(multiply(inverse(g, family), g, family), identity(), 1e-10)

    def test_conjugation_of_translation(self):
        # conjugating a pure translation (0, w) by (t, v) gives (0, rho_t w)
        rng = np.random.default_rng(3)
        for fam in FAMILIES:
            g = random_element(rng)
            w = rng.normal(size=2)
            out = conjugate(g, GroupElement(0.0, w), fam)
            assert abs(out.t) < 1e-12
            assert np.max(np.abs(out.v - rho(fam, g.t) @ w)) < 1e-10

    def test_spiral_conjugation_example(self):
        fam = ThetaFamily.spiral(0.0)
        out = conjugate(GroupElement(np.pi, [0.0, 0.0]), GroupElement(0.0, [1.0, 0.0]), fam)
        assert abs(out.t) < 1e-12
        assert np.allclose(out.v, [-1.0, 0.0], atol=1e-12)


class TestProjections:
    def test_project_S_rotation(self):
        fam = ThetaFamily.spiral(0.0)
        out = project_S(GroupElement(np.pi / 2, [1.0, 0.0]), fam)
        assert np.allclose(out, [0.0, -1.0], atol=1e-12)

    def test_project_S_kills_first_factor(self):
        # (s, 0) acts trivially on the S-quotient: S((s, 0) * g) = S(g)
        rng = np.random.default_rng(4)
        for fam in FAMILIES:
            g = random_element(rng)
            h = GroupElement(rng.uniform(-2, 2), np.zeros(2))
            lhs = project_S(multiply(h, g, fam), fam)
            assert np.max(np.abs(lhs - project_S(g, fam))) < 1e-10

    def test_project_H_example(self):
        fam = ThetaFamily.diagonal(0.0)
        t, y = project_H(GroupElement(2.0, [3.0, 4.0]), [1.0, 0.0], fam)
        assert t == 2.0 and y == 4.0

    def test_project_H_kills_fiber(self):
        rng = np.random.default_rng(5)
        for fam in FAMILIES:
            w = rng.normal(size=2)
            g = random_element(rng)
            t0, y0 = project_H(g, w, fam)
            shifted = GroupElement(g.t, g.v + 1.7 * w)
            t1, y1 = project_H(shifted, w, fam)
            assert t1 == t0 and abs(y1 - y0) < 1e-12

    def test_project_H_rejects_zero(self):
        with pytest.raises(ValueError):
            project_H(identity(), [0.0, 0.0], ThetaFamily.jordan())


class TestQuotients:
    def test_se2n_reduction_example(self):
        fam = ThetaFamily.spiral(0.0)
        var = GroupVariant(GroupVariant.SE2N, 2)
        q = quotient_map(GroupElement(5 * np.pi, [1.0, 2.0]), var, fam)
        assert abs(q.rep.t - np.pi) < 1e-12
        assert np.array_equal(q.rep.v, [1.0, 2.0])

    def test_aff_circle_reduction(self):
        fam = ThetaFamily.diagonal(0.0)
        var = GroupVariant(GroupVariant.AFF_CIRCLE)
        q = quotient_map(GroupElement(1.0, [3.0, 7.0]), var, fam)
        assert q.rep.t == 1.0
        assert abs(q.rep.v[1] - (7.0 % (2 * np.pi))) < 1e-12

    def test_variant_family_compatibility(self):
        with pytest.raises(ValueError):
            quotient_map(identity(), GroupVariant(GroupVariant.SE2N, 1),
                         ThetaFamily.jordan())
        with pytest.raises(ValueError):
            quotient_map(identity(), GroupVariant(GroupVariant.AFF_CIRCLE),
                         ThetaFamily.diagonal(0.5))

    def test_se2n_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GroupVariant(GroupVariant.SE2N, 0)

    @pytest.mark.parametrize("n, finite", [
        (int(np.finfo(float).max / (2 * np.pi)), True),
        (int(np.finfo(float).max / (2 * np.pi)) * 2, False),
        (2**1023, False),
        (10**400, False),
    ], ids=["largest", "twice the largest", "2^1023", "past the float range"])
    def test_se2n_period_is_finite_or_rejected(self, n, finite):
        if finite:
            assert np.isfinite(GroupVariant(GroupVariant.SE2N, n).period)
        else:
            with pytest.raises(ValueError, match="finite period"):
                GroupVariant(GroupVariant.SE2N, n)

    def test_quotient_map_is_homomorphism(self):
        cases = [
            (ThetaFamily.spiral(0.0), GroupVariant(GroupVariant.SE2N, 1)),
            (ThetaFamily.spiral(0.0), GroupVariant(GroupVariant.SE2N, 3)),
            (ThetaFamily.diagonal(0.0), GroupVariant(GroupVariant.AFF_CIRCLE)),
        ]
        rng = np.random.default_rng(6)
        for fam, var in cases:
            for _ in range(50):
                a, b = random_element(rng), random_element(rng)
                lhs = quotient_map(multiply(a, b, fam), var, fam)
                rhs = quotient_multiply(quotient_map(a, var, fam),
                                        quotient_map(b, var, fam), fam)
                assert np.max(np.abs(lhs.as_array() - rhs.as_array())) < 1e-9

    def test_quotient_element_needs_variant(self):
        from solv3d.group import SIMPLY_CONNECTED
        with pytest.raises(ValueError):
            QuotientElement(identity(), SIMPLY_CONNECTED)
