"""Tests for system specs, rank conditions, conjugations and the simulator."""

from unittest import mock

import numpy as np
import pytest

from solv3d.group import GroupElement, multiply
from solv3d.kernel2d import ThetaFamily
from solv3d.planar import ControlRange, PiecewiseControl
from solv3d.system import (
    InvariantField,
    LinearField,
    SystemSpec,
    adrank,
    conjugate_to_planar,
    derivation_matrix,
    drift_flow,
    field_values,
    larc,
    nilrank,
    normalize_eta,
    normalize_xi,
    simulate,
)

OMEGA = ControlRange(-1.0, 1.0)


def make(theta, A, xi, alpha, eta, omega=OMEGA):
    return SystemSpec(theta, LinearField(A, xi), InvariantField(alpha, eta), omega)


def spiral_system():
    return make(ThetaFamily.spiral(0.0), -np.eye(2), [0.3, 0.1], 1.0, [1.0, 0.0])


class TestSpec:
    def test_commutation_enforced(self):
        with pytest.raises(ValueError):
            make(ThetaFamily.jordan(), np.diag([1.0, 2.0]), [0, 0], 1.0, [0, 0])

    def test_derivation_matrix(self):
        sys = make(ThetaFamily.diagonal(0.5), np.diag([2.0, 3.0]), [1.0, -1.0], 1.0, [0, 0])
        D = derivation_matrix(sys)
        assert np.array_equal(D, [[0, 0, 0], [1, 2, 0], [-1, 0, 3]])

    def test_field_values_rejects_out_of_range(self):
        sys = spiral_system()
        with pytest.raises(ValueError):
            field_values(GroupElement(0.0, [0, 0]), 2.0, sys)

    def test_nilrank(self):
        th = ThetaFamily.diagonal(0.5)
        assert nilrank(make(th, np.diag([1.0, 2.0]), [0, 0], 1, [0, 0])) == 2
        assert nilrank(make(th, np.diag([1.0, 0.0]), [0, 0], 1, [0, 0])) == 1
        assert nilrank(make(th, np.zeros((2, 2)), [0, 0], 1, [0, 0])) == 0


class TestDriftFlow:
    def test_preserves_first_coordinate(self):
        sys = spiral_system()
        g = GroupElement(0.7, [1.0, 2.0])
        assert drift_flow(3.0, g, sys).t == g.t

    def test_is_automorphism_flow(self):
        rng = np.random.default_rng(8)
        sys = spiral_system()
        for _ in range(100):
            s = rng.uniform(-1.5, 1.5)
            g = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
            h = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
            lhs = drift_flow(s, multiply(g, h, sys.theta), sys)
            rhs = multiply(drift_flow(s, g, sys), drift_flow(s, h, sys), sys.theta)
            assert np.max(np.abs(lhs.as_array() - rhs.as_array())) < 1e-9

    def test_cocycle(self):
        rng = np.random.default_rng(9)
        sys = make(ThetaFamily.jordan(), [[2.0, 1.0], [0.0, 2.0]], [0.5, -0.25], 1.0, [0, 0])
        for _ in range(50):
            s, r = rng.uniform(-1, 1, size=2)
            g = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
            lhs = drift_flow(s + r, g, sys)
            rhs = drift_flow(s, drift_flow(r, g, sys), sys)
            assert np.max(np.abs(lhs.as_array() - rhs.as_array())) < 1e-7

    def test_differential_at_identity_is_exp_derivation(self):
        from scipy.linalg import expm as scipy_expm

        rng = np.random.default_rng(10)
        for sys in [
            spiral_system(),
            make(ThetaFamily.diagonal(0.5), np.diag([1.0, -0.5]), [1.0, 2.0], 1.0, [0, 0]),
        ]:
            for _ in range(10):
                s = rng.uniform(-1.0, 1.0)
                expected = scipy_expm(s * derivation_matrix(sys))
                h = 1e-6
                jac = np.zeros((3, 3))
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = h
                    gp = GroupElement(e[0], e[1:])
                    gm = GroupElement(-e[0], -e[1:])
                    diff = drift_flow(s, gp, sys).as_array() - drift_flow(s, gm, sys).as_array()
                    jac[:, j] = diff / (2.0 * h)
                assert np.max(np.abs(jac - expected)) < 1e-5

    def test_matches_simulated_zero_control(self):
        sys = spiral_system()
        g = GroupElement(0.4, [1.0, -0.5])
        traj = simulate(g, PiecewiseControl.from_pairs([(1.25, 0.0)]), sys)
        exact = drift_flow(1.25, g, sys).as_array()
        assert np.max(np.abs(traj.final_state - exact)) < 1e-8


class TestRankConditions:
    def test_larc_example_holds(self):
        sys = make(ThetaFamily.diagonal(0.5), np.eye(2), [1.0, 1.0], 1.0, [0.0, 0.0])
        cert = larc(sys)
        assert cert.holds
        assert abs(cert.theta_product - (-0.5)) < 1e-12
        assert not adrank(sys).holds  # A = I never separates directions

    def test_larc_common_eigenvector_fails(self):
        sys = make(ThetaFamily.diagonal(0.5), np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0])
        assert not larc(sys).holds

    def test_larc_needs_alpha(self):
        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [1.0, 1.0], 0.0, [1.0, 0.0])
        assert not larc(sys).holds and not adrank(sys).holds

    def test_adrank_example(self):
        sys = make(ThetaFamily.diagonal(1.0), np.diag([1.0, -1.0]), [1.0, 1.0], 1.0, [0, 0])
        cert = adrank(sys)
        assert cert.holds
        assert abs(cert.a_product - (-2.0)) < 1e-12

    def test_adrank_implies_larc(self):
        rng = np.random.default_rng(12)
        th = ThetaFamily.spiral(0.3)
        for _ in range(50):
            a, b = rng.normal(size=2)
            A = a * np.eye(2) + b * ThetaFamily.spiral(0.0).matrix()
            sys = make(th, A, rng.normal(size=2), rng.normal() or 1.0, rng.normal(size=2))
            if adrank(sys).holds:
                assert larc(sys).holds

    def test_nilrank_one_equivalence(self):
        # at rank-1 drift the two rank conditions agree
        rng = np.random.default_rng(14)
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        for _ in range(60):
            kind = rng.integers(0, 4)
            if kind == 0:
                th, A = ThetaFamily.jordan(), rng.normal() * N
            elif kind == 1:
                th, A = ThetaFamily.diagonal(0.5), np.diag([rng.normal(), 0.0])
            elif kind == 2:
                th, A = ThetaFamily.diagonal(-0.7), np.diag([0.0, rng.normal()])
            else:
                th, A = ThetaFamily.diagonal(1.0), np.outer(rng.normal(size=2), rng.normal(size=2))
            if nilrank(make(th, A, [0, 0], 1.0, [0, 0])) != 1:
                continue
            sys = make(th, A, rng.normal(size=2), float(rng.normal() or 1.0), rng.normal(size=2))
            assert larc(sys).holds == adrank(sys).holds


class TestConjugations:
    def test_normalize_eta_data(self):
        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [1.0, 0.0], 2.0, [2.0, 0.0])
        out, psi = normalize_eta(sys)
        assert np.allclose(out.xi, [0.0, 0.0], atol=1e-14)  # xi + A eta / alpha
        assert np.array_equal(out.eta, [0.0, 0.0])
        # psi and its inverse compose to the identity
        g = GroupElement(0.9, [1.0, -2.0])
        back = psi.inverse()(psi(g))
        assert np.max(np.abs(back.as_array() - g.as_array())) < 1e-12

    def test_normalize_eta_requires_alpha(self):
        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [1.0, 0.0], 0.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            normalize_eta(sys)

    def test_normalize_xi_data(self):
        sys = make(ThetaFamily.spiral(0.0), -2.0 * np.eye(2), [1.0, 0.0], 1.0, [0.0, 1.0])
        out, psi = normalize_xi(sys)
        assert np.array_equal(out.xi, [0.0, 0.0])
        assert np.allclose(out.eta, [-0.5, 1.0], atol=1e-14)  # eta + alpha A^{-1} xi

    def test_normalize_xi_requires_invertible(self):
        sys = make(ThetaFamily.diagonal(0.5), np.diag([1.0, 0.0]), [1, 0], 1.0, [0, 1])
        with pytest.raises(ValueError):
            normalize_xi(sys)

    @pytest.mark.parametrize("which", ["eta", "xi"])
    def test_conjugacy_intertwines_trajectories(self, which):
        sys = spiral_system()
        norm = normalize_eta if which == "eta" else normalize_xi
        out, psi = norm(sys)
        ctrl = PiecewiseControl.from_pairs([(0.4, 0.5), (0.7, -0.25), (0.3, 1.0)])
        rng = np.random.default_rng(15)
        for _ in range(5):
            g = GroupElement(rng.uniform(-1, 1), rng.normal(size=2))
            a = psi(GroupElement(*_unpack(simulate(g, ctrl, sys).final_state)))
            b = simulate(psi(g), ctrl, out).final_state
            assert np.max(np.abs(a.as_array() - b)) < 1e-7


def _unpack(y):
    return float(y[0]), y[1:]


class TestPlanarReduction:
    def test_requires_full_nilrank(self):
        sys = make(ThetaFamily.diagonal(0.5), np.diag([1.0, 0.0]), [1, 1], 1.0, [0, 0])
        with pytest.raises(ValueError):
            conjugate_to_planar(sys)

    def test_requires_rank_condition(self):
        sys = make(ThetaFamily.diagonal(0.5), np.eye(2), [1.0, 0.0], 1.0, [0, 0])
        with pytest.raises(ValueError):
            conjugate_to_planar(sys)

    def test_round_trip_coordinates(self):
        red = conjugate_to_planar(spiral_system())
        rng = np.random.default_rng(16)
        for _ in range(30):
            g = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
            t, v = red.to_planar(g)
            back = red.from_planar(t, v)
            assert np.max(np.abs(back.as_array() - g.as_array())) < 1e-10

    def test_matches_project_S_when_xi_zero(self):
        from solv3d.group import project_S

        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [0.0, 0.0], 1.0, [1.0, 0.0])
        red = conjugate_to_planar(sys)
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = GroupElement(rng.uniform(-3, 3), rng.normal(size=2))
            _, v = red.to_planar(g)
            assert np.max(np.abs(v - project_S(g, sys.theta))) < 1e-12

    def test_control_rescaling(self):
        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [0.3, 0.1], 2.0, [1.0, 0.0],
                   ControlRange(-0.5, 0.25))
        red = conjugate_to_planar(sys)
        assert red.planar.omega.u_min == -1.0 and red.planar.omega.u_max == 0.5


class TestSimulate:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            simulate(GroupElement(0, [0, 0]), PiecewiseControl.empty(), spiral_system(), step=0.0)

    def test_rejects_out_of_range_control(self):
        ctrl = PiecewiseControl.from_pairs([(1.0, 5.0)])
        with pytest.raises(ValueError):
            simulate(GroupElement(0, [0, 0]), ctrl, spiral_system())

    def test_exact_path_matches_rk4(self):
        # the closed-form arc and the generic integrator agree
        sys = spiral_system()
        ctrl = PiecewiseControl.from_pairs([(0.8, 0.6), (0.5, -0.9)])
        g = GroupElement(0.2, [1.0, 0.5])
        exact = simulate(g, ctrl, sys).final_state
        # degrade to rk4 by pretending nilrank is low: integrate directly
        from solv3d.system import _rk4_arc

        y = g
        for d, u in ctrl.pairs():
            arr = _rk4_arc(y, u, d, sys, 1e-3)[-1]
            y = GroupElement(arr[0], arr[1:])
        assert np.max(np.abs(exact - y.as_array())) < 1e-8

    def test_exact_path_solves_for_the_shift_once(self):
        # A^{-1} xi is solved by normalize_xi when the reduction is built,
        # not again for every arc and sample
        sys = make(ThetaFamily.spiral(0.0), np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0],
                   ControlRange(-0.5, 0.5))
        ctrl = PiecewiseControl.from_pairs([(0.5, 0.3), (0.5, -0.4)])
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            traj = simulate(GroupElement(0.0, [0.2, -0.1]), ctrl, sys)
        assert len(traj.times) == 1001
        assert solve.call_count <= 1

    def test_first_coordinate_integrates_control(self):
        sys = spiral_system()
        ctrl = PiecewiseControl.from_pairs([(0.5, 1.0), (0.25, -1.0)])
        traj = simulate(GroupElement(0.0, [0, 0]), ctrl, sys)
        assert abs(traj.final_state[0] - (0.5 - 0.25)) < 1e-12

    def test_switch_times_recorded(self):
        sys = spiral_system()
        ctrl = PiecewiseControl.from_pairs([(0.5, 1.0), (0.25, -1.0)])
        traj = simulate(GroupElement(0.0, [0, 0]), ctrl, sys)
        assert np.allclose(traj.switch_times, [0.5, 0.75], atol=1e-12)
