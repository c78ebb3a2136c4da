"""Tests for system specs, rank conditions, conjugations and the simulator."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solv3d import kernel2d, system
from solv3d.group import GroupElement, multiply
from solv3d.kernel2d import ThetaFamily
from solv3d.planar import ControlRange, PiecewiseControl, omega_hat, planar_solution
from solv3d.reach import classify
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


def _verdict(sys):
    rep = classify(sys)
    return rep.taxonomy, rep.rule, rep.larc.holds, rep.adrank.holds


# quarter-integers and power-of-two input rates keep xi + A eta / alpha exact;
# drifts a I + b theta on this grid are often of rank 1 or 0
_QUARTERS = st.integers(-8, 8).map(lambda n: n / 4)
_VEC = st.tuples(_QUARTERS, _QUARTERS)
_FAMILIES = st.one_of(
    st.just(ThetaFamily.jordan()),
    st.integers(-4, 4).map(lambda n: ThetaFamily.diagonal(n / 4)),
    st.integers(-4, 4).map(lambda n: ThetaFamily.spiral(n / 4)),
)


@settings(max_examples=300)
@given(theta=_FAMILIES, a=_QUARTERS, b=_QUARTERS, xi=_VEC, eta=_VEC,
       alpha=st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5]),
       lo=st.integers(1, 8), hi=st.integers(1, 8))
def test_verdict_is_invariant_under_the_conjugations(theta, a, b, xi, eta, alpha, lo, hi):
    # normalize_eta (alpha != 0) and normalize_xi (nilrank 2) are
    # automorphisms of the group, so they keep the taxonomy, the rule and
    # both rank certificates
    sys = make(theta, a * np.eye(2) + b * theta.matrix(), xi, alpha, eta,
               ControlRange(-lo / 4, hi / 4))
    want = _verdict(sys)
    if alpha != 0.0:
        assert _verdict(normalize_eta(sys)[0]) == want
    if nilrank(sys) == 2:
        assert _verdict(normalize_xi(sys)[0]) == want


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

    # e^{800} on the exact path (nilrank 2) and on the RK4 path (nilrank 1,
    # e^{0.5 * 1600}); at e^{700} both stay finite, near 1e304
    OVERFLOW = {
        "exact": (make(ThetaFamily.spiral(0.0), np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0],
                       ControlRange(-0.5, 0.5)), 800.0, 700.0),
        "rk4": (make(ThetaFamily.diagonal(0.5), np.diag([0.0, 0.5]), [1.0, 1.0], 1.0,
                     [0.0, 0.0], ControlRange(-0.5, 0.5)), 1600.0, 1400.0),
    }

    @pytest.mark.parametrize("path", OVERFLOW)
    def test_overflow_is_one_error_naming_the_arc(self, path):
        sys, long, short = self.OVERFLOW[path]
        g = GroupElement(0.0, [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(g, PiecewiseControl.from_pairs([(1.0, 0.1), (short, 0.2)]), sys,
                            step=1.0)
            assert np.all(np.isfinite(traj.states)) and np.max(np.abs(traj.states)) > 1e303
            with pytest.raises(ValueError) as exc:
                simulate(g, PiecewiseControl.from_pairs([(1.0, 0.1), (long, 0.2)]), sys,
                         step=1.0)
        assert str(exc.value) == (f"arc 2 of 2 ({long:g} time units at control 0.2) "
                                  "leaves the float range")

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


N = np.array([[0.0, 1.0], [0.0, 0.0]])
R = ThetaFamily.spiral(0.0).matrix()
WIDE = ControlRange(-2.0, 2.0)
# one nilrank-2 drift per structure family; jordan's det A(u) has a double
# root at u = -1, diagonal's roots are -1 and 1.4, spiral's has none
NILRANK2 = {
    "jordan": make(ThetaFamily.jordan(), -np.eye(2) + 0.5 * N, [0.3, -0.2], 1.0,
                   [0.5, 1.0], WIDE),
    "diagonal": make(ThetaFamily.diagonal(0.5), np.diag([-1.0, 0.7]), [0.3, -0.2], 1.0,
                     [0.5, 1.0], WIDE),
    "spiral": make(ThetaFamily.spiral(0.3), -0.5 * np.eye(2) + 0.8 * R, [0.3, -0.2], 1.0,
                   [0.5, 1.0], WIDE),
}
BLOCK = system._BLOCK
EXACT_CASES = {
    # a control 1e-9 from the root u = -1 of det A(u) on jordan and diagonal
    "near root": (0.3, [(0.5, 0.7), (0.3, -0.4), (0.2, -1.0 + 1e-9)], 1e-3),
    "50-unit arc up": (0.0, [(50.0, 0.05)], 1e-2),
    "50-unit arc down": (0.0, [(50.0, -0.05)], 1e-2),
    "t0 = -20": (-20.0, [(0.5, 0.7), (0.5, -0.7)], 1e-3),
    "t0 = 20": (20.0, [(0.5, 0.7), (0.5, -0.7)], 1e-3),
    # arcs of one block less, exactly one block and one block more
    "block edges": (0.0, [((BLOCK + k) * 2.0**-10, 0.3 * (-1) ** k) for k in (-1, 0, 1)],
                    2.0**-10),
}


def per_sample_exact(g, ctrl, sys, step):
    """The exact path one sample at a time: a ``planar_solution`` and a
    ``from_planar`` call per sample, each arc started from ``to_planar``."""
    red = conjugate_to_planar(sys)
    times, states, now, cur = [0.0], [g.as_array()], 0.0, g
    for d, u in ctrl.pairs():
        t0, v0 = red.to_planar(cur)
        us = u * sys.alpha
        n = max(1, int(np.ceil(d / step)))
        for i in range(1, n + 1):
            s = d * i / n
            times.append(now + d * i / n)
            v = planar_solution(red.planar, s, v0, us)
            states.append(red.from_planar(t0 + us * s, v).as_array())
        now += d
        cur = GroupElement(states[-1][0], states[-1][1:])
    return np.array(times), np.array(states)


def field_values_rk4(g, ctrl, sys, step):
    """Classical RK4 on ``field_values``, n = max(1, ceil(d / step)) steps per arc."""
    y, states = g.as_array(), [g.as_array()]
    for d, u in ctrl.pairs():
        def rhs(y):
            td, vd = field_values(GroupElement(y[0], y[1:]), u, sys)
            return np.array([td, vd[0], vd[1]])

        n = max(1, int(np.ceil(d / step)))
        h = d / n
        for _ in range(n):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(y.copy())
    return np.array(states)


class TestBatchedExactArcs:
    def test_cases_reach_the_determinant_roots(self):
        for name, root in (("jordan", -1.0), ("diagonal", -1.0)):
            roots = omega_hat(conjugate_to_planar(NILRANK2[name]).planar).roots
            assert min(abs(r - root) for r in roots) < 1e-12

    @pytest.mark.parametrize("case", EXACT_CASES)
    @pytest.mark.parametrize("family", NILRANK2)
    def test_matches_per_sample_path(self, family, case):
        sys = NILRANK2[family]
        t0, pairs, step = EXACT_CASES[case]
        g = GroupElement(t0, [1.0, -0.5])
        ctrl = PiecewiseControl.from_pairs(pairs)
        traj = simulate(g, ctrl, sys, step=step)
        times, states = per_sample_exact(g, ctrl, sys, step)
        assert np.array_equal(traj.times, times)  # bit for bit
        assert traj.states.shape == states.shape
        size = np.maximum(1.0, np.max(np.abs(states), axis=1))
        assert np.all(np.max(np.abs(traj.states - states), axis=1) <= 1e-12 * size)

    def test_rk4_path_is_field_values_rk4_bit_for_bit(self):
        sys = make(ThetaFamily.diagonal(0.5), np.diag([1.0, 0.0]), [0.3, 1.0], 1.0,
                   [0.5, 0.2])
        assert nilrank(sys) == 1
        ctrl = PiecewiseControl.from_pairs([(0.05, 0.5), (0.0305, -0.3), (0.0004, 1.0)])
        g = GroupElement(0.4, [1.0, -0.5])
        traj = simulate(g, ctrl, sys)
        assert np.array_equal(traj.states, field_values_rk4(g, ctrl, sys, 1e-3))
        assert len(traj.times) == 1 + 50 + 31 + 1

    def test_a_few_kernel_calls_per_arc(self):
        # the per-sample path made two scalar arc calls per sample, about 2000 here
        calls = mock.Mock(wraps=kernel2d.arc)
        ctrl = PiecewiseControl.from_pairs([(0.5, 0.3), (0.5, -0.4)])
        with mock.patch.object(kernel2d, "arc", calls), mock.patch.object(system, "arc", calls):
            traj = simulate(GroupElement(0.2, [1.0, -0.5]), ctrl, NILRANK2["spiral"])
        assert len(traj.times) == 1001
        assert calls.call_count <= 3 * len(ctrl)

    def test_memory_stays_near_the_output(self):
        ctrl = PiecewiseControl.from_pairs([(1.0, 0.3)])
        tracemalloc.start()
        try:
            traj = simulate(GroupElement(0.2, [1.0, -0.5]), ctrl, NILRANK2["spiral"],
                            step=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 10**6 + 1
        assert peak < 1.15 * (traj.times.nbytes + traj.states.nbytes)
