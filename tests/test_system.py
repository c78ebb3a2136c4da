"""Tests for system specs, rank conditions, conjugations and the simulator."""

import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solv3d import kernel2d, system
from solv3d.group import GroupElement, multiply
from solv3d.kernel2d import ThetaFamily, matrix_rank
from solv3d.planar import ControlRange, PiecewiseControl, PlanarSpec, concat_solution, omega_hat
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


class TestSpecArrays:
    """Every spec keeps its own copies of its arrays."""

    def test_an_edit_of_the_planar_reduction_leaves_the_system_unchanged(self):
        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0])
        conjugate_to_planar(sys).planar.A[0, 0] = -3.0
        assert np.array_equal(sys.A, -np.eye(2))
        assert np.array_equal(conjugate_to_planar(sys).planar.A, -np.eye(2))

    def test_an_edit_of_the_input_arrays_leaves_the_specs_unchanged(self):
        A, xi, eta = -np.eye(2), np.array([1.0, 0.0]), np.array([0.5, -0.5])
        sys = make(ThetaFamily.spiral(0.0), A, xi, 1.0, eta)
        planar = PlanarSpec(A, ThetaFamily.spiral(0.0), eta, OMEGA)
        A[0, 0], xi[0], eta[0] = -3.0, 7.0, 9.0
        for spec in (sys, planar):
            assert np.array_equal(spec.A, -np.eye(2))
            assert np.array_equal(spec.eta, [0.5, -0.5])
        assert np.array_equal(sys.xi, [1.0, 0.0])


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

    # the canonical Open system (spiral(0), A = I, xi = eta = (1, 0)) with
    # time rescaled by 2^1023, and with alpha and eta at 1e308: alpha xi + A
    # eta overflows, but its direction decides the rank condition
    TOP = {
        "time 2^1023": make(ThetaFamily.spiral(0.0), 2.0**1023 * np.eye(2), [2.0**1023, 0.0],
                            1.0, [1.0, 0.0], ControlRange(-2.0**1022, 2.0**1022)),
        "alpha 1e308": make(ThetaFamily.spiral(0.0), np.eye(2), [1.0, 0.0], 1e308,
                            [1e308, 0.0], ControlRange(-0.5, 0.5)),
    }

    @pytest.mark.parametrize("name", TOP)
    def test_direction_past_the_float_range(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert, ad = larc(self.TOP[name]), adrank(self.TOP[name])
        assert cert.holds and not ad.holds  # A = c I separates no direction
        for c in (cert, ad):
            assert c.direction.tolist() == [np.inf, 0.0]
            assert (c.a_product, c.theta_product) == (0.0, np.inf)

    def test_small_term_of_the_direction_survives_a_large_one(self):
        # A eta vanishes while A is 2^900: xi alone sets the direction's scale
        sys = make(ThetaFamily.diagonal(1.0), 2.0**900 * np.array([[1.0, 1.0], [1.0, 1.0]]),
                   [2.0**-200, 3 * 2.0**-200], 1.0, [1.0, -1.0])
        cert = larc(sys)
        assert cert.direction.tolist() == [2.0**-200, 3 * 2.0**-200]
        assert cert.a_product == -2.0**503 and cert.holds

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

    @pytest.mark.parametrize("seed, family", enumerate(["jordan", "diagonal", "spiral"]))
    def test_reduction_conjugates_simulate_to_the_planar_run(self, seed, family):
        # the abstract's "up to conjugations": to_planar sends simulate's
        # endpoint to concat_solution's from to_planar of the start, with the
        # controls times alpha, and t moves by alpha * sum(u_i d_i)
        rng = np.random.default_rng([38, seed])
        for _ in range(100):
            gamma = rng.uniform(-1.0, 1.0)
            th = (ThetaFamily.jordan() if family == "jordan"
                  else getattr(ThetaFamily, family)(gamma))
            A = rng.uniform(-1.0, 1.0) * np.eye(2) + rng.uniform(-1.0, 1.0) * th.matrix()
            alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
            sys = make(th, A, rng.normal(size=2), alpha, rng.normal(size=2))
            assert nilrank(sys) == 2 and larc(sys).holds
            pairs = [(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(6)]
            g0 = GroupElement(rng.uniform(-1.0, 1.0), rng.normal(size=2))
            end = simulate(g0, PiecewiseControl.from_pairs(pairs), sys, step=0.1).final_state
            red = conjugate_to_planar(sys)
            want, _ = concat_solution(red.planar, red.to_planar(g0)[1],
                                      PiecewiseControl.from_pairs([(d, u * alpha)
                                                                   for d, u in pairs]))
            t, v = red.to_planar(GroupElement(end[0], end[1:]))
            assert np.max(np.abs(v - want)) <= 1e-12 * np.max(np.abs(want))
            assert t == pytest.approx(g0.t + alpha * sum(u * d for d, u in pairs), abs=1e-12)

    def test_control_rescaling(self):
        sys = make(ThetaFamily.spiral(0.0), -np.eye(2), [0.3, 0.1], 2.0, [1.0, 0.0],
                   ControlRange(-0.5, 0.25))
        red = conjugate_to_planar(sys)
        assert red.planar.omega.u_min == -1.0 and red.planar.omega.u_max == 0.5


class TestSimulate:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            simulate(GroupElement(0, [0, 0]), PiecewiseControl.empty(), spiral_system(), step=0.0)

    @pytest.mark.parametrize("step", [np.nan, np.inf])
    @pytest.mark.parametrize("path", ["exact", "rk4"])
    def test_rejects_non_finite_step_before_any_arc(self, monkeypatch, path, step):
        sys = spiral_system() if path == "exact" else make(
            ThetaFamily.diagonal(0.5), np.diag([0.0, 0.5]), [1.0, 1.0], 1.0, [0.0, 0.0])
        calls = []
        monkeypatch.setattr(system, "_group_arc", lambda *a: calls.append(a))
        monkeypatch.setattr(system, "_rk4_arc", lambda *a: calls.append(a))
        ctrl = PiecewiseControl.from_pairs([(1.0, 0.5)])
        with pytest.raises(ValueError, match="step") as err:
            simulate(GroupElement(0, [0, 0]), ctrl, sys, step=step)
        assert "\n" not in str(err.value)
        assert calls == []

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

    # states from 0 up to 1.6e308 and down to -1.6e308: arc 2's sums of the
    # start and the forcing term stay in range, though the product
    # 16 * (-1) * 2e307 leaves it
    @pytest.mark.parametrize("a", [1e-300, -1e-300, 0.0], ids=["exact", "exact-", "rk4"])
    def test_states_near_the_float_range_limit_stay_finite(self, a):
        sys = make(ThetaFamily.diagonal(0.0), a * np.eye(2), [0.0, 0.0], 1.0, [0.0, 2e307])
        assert nilrank(sys) == (2 if a else 0)
        ctrl = PiecewiseControl.from_pairs([(8.0, 1.0), (16.0, -1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(GroupElement(0.0, [0.0, 0.0]), ctrl, sys, step=0.5)
        assert np.all(np.isfinite(traj.states))
        assert np.allclose(traj.final_state, [-8.0, 0.0, -1.6e308], rtol=1e-14, atol=0.0)

    def test_uncountable_samples_are_a_value_error(self):
        sys = spiral_system()
        with pytest.raises(ValueError, match="more samples than a float can count"):
            simulate(GroupElement(0.0, [0, 0]), PiecewiseControl.from_pairs([(1e10, 0.1)]), sys,
                     step=1e-300)

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
            out = np.empty((int(np.ceil(d / 1e-3)), 3))
            _rk4_arc(sys, y, u, d, out)
            y = GroupElement(out[-1, 0], out[-1, 1:])
        assert np.max(np.abs(exact - y.as_array())) < 1e-8

    def test_rk4_stages_skip_the_group_element_and_check_each_run_once(self, monkeypatch):
        # simulate checks every control once, so no stage re-checks it
        sys = make(ThetaFamily.diagonal(0.5), np.diag([1.0, 0.0]), [0.3, 1.0], 1.0,
                   [0.5, 0.2])
        g = GroupElement(0.4, [1.0, -0.5])
        refuse = mock.Mock(side_effect=AssertionError("called"))
        monkeypatch.setattr(system, "GroupElement", refuse)
        monkeypatch.setattr(system, "field_values", refuse)
        finite = mock.Mock(wraps=system.check_finite)
        monkeypatch.setattr(system, "check_finite", finite)
        out = np.full((RUN + 1, 3), np.nan)
        system._rk4_arc(sys, g, 0.5, 0.3, out)
        assert np.all(np.isfinite(out))
        assert refuse.call_count == 0 and finite.call_count == 2

    def test_exact_path_solves_for_the_shift_once(self):
        # the block arc map needs no A^{-1} xi shift: no solve at all, where
        # the planar route solved once per call
        sys = make(ThetaFamily.spiral(0.0), np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0],
                   ControlRange(-0.5, 0.5))
        ctrl = PiecewiseControl.from_pairs([(0.5, 0.3), (0.5, -0.4)])
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            traj = simulate(GroupElement(0.0, [0.2, -0.1]), ctrl, sys)
        assert len(traj.times) == 1001
        assert solve.call_count == 0

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
RUN = system._RUN
# the RK4 path: nilrank 1 on diagonal(0.5), nilrank 0 on jordan
RK4_NILRANK1 = make(ThetaFamily.diagonal(0.5), np.diag([1.0, 0.0]), [0.3, 1.0], 1.0, [0.5, 0.2])
RK4_JORDAN = make(ThetaFamily.jordan(), np.zeros((2, 2)), [0.7, -0.4], 1.2, [0.5, 1.0])
EXACT_CASES = {
    # a control 1e-9 from the root u = -1 of det A(u) on jordan and diagonal
    "near root": (0.3, [(0.5, 0.7), (0.3, -0.4), (0.2, -1.0 + 1e-9)], 1e-3),
    "50-unit arc up": (0.0, [(50.0, 0.05)], 1e-2),
    "50-unit arc down": (0.0, [(50.0, -0.05)], 1e-2),
    "t0 = -20": (-20.0, [(0.5, 0.7), (0.5, -0.7)], 1e-3),
    "t0 = 20": (20.0, [(0.5, 0.7), (0.5, -0.7)], 1e-3),
    # arcs of one run less, exactly one run and one run more
    "block edges": (0.0, [((RUN + k) * 2.0**-10, 0.3 * (-1) ** k) for k in (-1, 0, 1)],
                    2.0**-10),
}


def mp_affine(M, b, s, x):
    """e^{sM} x + int_0^s e^{rM} b dr at the working precision, from the
    exponential of the 3x3 block [[M, b], [0, 0]]."""
    aug = mpmath.zeros(3, 3)
    for i in range(2):
        aug[i, 0], aug[i, 1], aug[i, 2] = M[i][0], M[i][1], b[i]
    F = mpmath.expm(s * aug)
    return [F[i, 0] * x[0] + F[i, 1] * x[1] + F[i, 2] for i in range(2)]


def mp_states(sys, g, ctrl, step):
    """{sample index: state} to 40 digits at every switch and at samples 1,
    n // 2, RUN and RUN + 1 of each n-sample arc (oracle).

    Through the planar conjugation, not the block arc map: with c = A^{-1} xi,
    x = rho_{-t}(v + Lambda_t c) solves x' = (A - u alpha theta) x + u (eta + alpha c),
    and v = rho_t x - Lambda_t c; each arc starts from the oracle's own switch state.
    """
    with mpmath.workdps(40):
        def mp(a):
            return [[mpmath.mpf(float(x)) for x in row] for row in np.atleast_2d(a)]

        theta, A = mp(sys.theta_matrix), mp(sys.A)
        (eta,), alpha = mp(sys.eta), mpmath.mpf(float(sys.alpha))
        c = mpmath.lu_solve(mpmath.matrix(A), mpmath.matrix(mp(sys.xi)[0]))
        minus_c = [-c[0], -c[1]]
        t, (v,) = mpmath.mpf(float(g.t)), mp(g.v)
        out, j = {}, 0
        for d, u in ctrl.pairs():
            n = max(1, int(np.ceil(d / step)))
            a = mpmath.mpf(float(u)) * alpha
            M = [[A[i][k] - a * theta[i][k] for k in range(2)] for i in range(2)]
            b = [u * (eta[i] + alpha * c[i]) for i in range(2)]
            x0 = mp_affine(theta, minus_c, -t, v)
            for k in sorted({1, n // 2, RUN, RUN + 1, n} & set(range(1, n + 1))):
                s = mpmath.mpf(float(d)) * k / n
                tk = t + a * s
                vk = mp_affine(theta, minus_c, tk, mp_affine(M, b, s, x0))
                out[j + k] = np.array([float(tk), float(vk[0]), float(vk[1])])
            t, v, j = tk, vk, j + n
    return out


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


def dop853_switches(sys, g, pairs):
    """The state (t, v) at each switch of the group ODE, by scipy's DOP853
    (oracle).

    It shares no code with the package: with u constant, the augmented
    state (t, v, rho_t, Lambda_t xi) solves the linear ODE t' = u alpha,
    v' = A v + Lambda_t xi + u rho_t eta, rho' = u alpha theta rho,
    (Lambda_t xi)' = u alpha rho_t xi, from start values by scipy's ``expm``.
    """
    from scipy.integrate import solve_ivp
    from scipy.linalg import expm

    th = sys.theta_matrix
    block = np.zeros((3, 3))
    block[:2, :2], block[:2, 2] = th, sys.xi
    y = np.concatenate([[g.t], g.v, expm(g.t * th).ravel(), expm(g.t * block)[:2, 2]])
    ends = []
    for d, u in pairs:
        ua = u * sys.alpha

        def rhs(_, z, u=u, ua=ua):
            rho = z[3:7].reshape(2, 2)
            return np.concatenate([[ua], sys.A @ z[1:3] + z[7:] + u * (rho @ sys.eta),
                                   (ua * th @ rho).ravel(), ua * (rho @ sys.xi)])

        y = solve_ivp(rhs, (0.0, d), y, method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
        ends.append(y[:3])
    return np.array(ends)


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
        times, now = [0.0], 0.0
        for d, _ in ctrl.pairs():
            n = max(1, int(np.ceil(d / step)))
            times += [now + d * i / n for i in range(1, n + 1)]
            now += d
        assert np.array_equal(traj.times, times)  # bit for bit
        for j, state in mp_states(sys, g, ctrl, step).items():
            size = max(1.0, np.max(np.abs(state)))
            assert np.max(np.abs(traj.states[j] - state)) <= 1e-12 * size, j

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_near_singular_drift_matches_the_oracle(self, eps):
        # det A = -0.7 eps: no A^{-1} xi shift enters the map, so the
        # endpoint does not lose accuracy as det A -> 0
        sys = make(ThetaFamily.diagonal(0.5), np.diag([-0.7, eps]), [1.0, -1.0], 1.0,
                   [0.5, 1.0])
        assert nilrank(sys) == 2
        ctrl = PiecewiseControl.from_pairs([(1.0, 0.6), (1.0, -0.9)])
        g = GroupElement(1.0, [1.0, -0.5])
        ref = mp_states(sys, g, ctrl, 1e-3)
        end = ref[max(ref)]
        final = simulate(g, ctrl, sys).final_state
        assert np.max(np.abs(final - end)) <= 1e-12 * max(1.0, np.max(np.abs(end)))

    # the block map at the ranks simulate still integrates by RK4
    LOW_RANK = {
        "nilrank 0": make(ThetaFamily.spiral(1.0), np.zeros((2, 2)), [0.7, -0.4], 1.2,
                          [0.5, 1.0]),
        "nilrank 1": make(ThetaFamily.diagonal(0.5), 0.4 * np.diag([0.0, -0.5]),
                          [0.7, -0.4], 1.2, [0.5, 1.0]),
    }

    @pytest.mark.parametrize("name", LOW_RANK)
    def test_block_map_matches_dop853_below_full_rank(self, name):
        sys = self.LOW_RANK[name]
        assert nilrank(sys) == int(name[-1])
        pairs = [(0.7, 0.6), (1.3, -0.8), (0.4, 0.3), (2.0, -0.2)]
        g0 = g = GroupElement(0.3, [1.0, -0.5])
        ends = []
        for d, u in pairs:
            out = np.empty((int(np.ceil(d / 1e-3)), 3))
            system._group_arc(sys, g, u, d, out)
            g = GroupElement(out[-1, 0], out[-1, 1:])
            ends.append(out[-1])
        for end, ref in zip(ends, dop853_switches(sys, g0, pairs)):
            assert np.max(np.abs(end - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_block_map_writes_the_rk4_rows_where_the_field_is_linear_in_time(self):
        # A = 0 and xi = 0 with rho_t eta constant: RK4 is exact there, as is
        # the block map, on states up to 1.6e308
        sys = make(ThetaFamily.diagonal(0.0), np.zeros((2, 2)), [0.0, 0.0], 1.0, [0.0, 2e307])
        ctrl = PiecewiseControl.from_pairs([(8.0, 1.0), (16.0, -1.0)])
        traj = simulate(GroupElement(0.0, [0.0, 0.0]), ctrl, sys, step=0.5)
        rows, g = [traj.states[:1]], GroupElement(0.0, [0.0, 0.0])
        for d, u in ctrl.pairs():
            out = np.empty((int(d / 0.5), 3))
            system._group_arc(sys, g, u, d, out)
            rows.append(out)
            g = GroupElement(out[-1, 0], out[-1, 1:])
        rows = np.concatenate(rows)
        assert np.max(np.abs(rows - traj.states)) <= 1e-15 * np.max(np.abs(traj.states))

    @pytest.mark.parametrize("k", [-60, 60])
    @pytest.mark.parametrize("family", NILRANK2)
    def test_space_rescaling_scales_every_sample_exactly(self, family, k):
        # v, xi and eta times 2^k give every state times 2^k, bit for bit:
        # the generator does not grow with the scale of space
        sys = NILRANK2[family]
        big = make(sys.theta, sys.A, sys.xi * 2.0**k, sys.alpha, sys.eta * 2.0**k, WIDE)
        t0, pairs, step = EXACT_CASES["near root"]
        ctrl = PiecewiseControl.from_pairs(pairs)
        v0 = np.array([1.0, -0.5])
        base = simulate(GroupElement(t0, v0), ctrl, sys, step=step).states
        scaled = simulate(GroupElement(t0, v0 * 2.0**k), ctrl, big, step=step).states
        assert np.array_equal(scaled[:, 0], base[:, 0])
        assert np.array_equal(scaled[:, 1:], base[:, 1:] * 2.0**k)

    # (system, arcs, samples): every RK4 family, an arc of more than RUN
    # steps, and a u = 0 arc, whose stages all share one time
    RK4_CASES = {
        "diagonal nilrank 1": (RK4_NILRANK1, [(0.05, 0.5), (0.0305, -0.3), (0.0004, 1.0)],
                               50 + 31 + 1),
        "spiral(1) A = 0": (LOW_RANK["nilrank 0"], [(0.05, 0.5), (0.0305, -0.3)], 50 + 31),
        "jordan A = 0": (RK4_JORDAN, [(0.05, 0.5), (0.0305, -0.3)], 50 + 31),
        "arc past RUN": (RK4_NILRANK1, [(0.3, 0.7), (0.002, -0.9)], 300 + 2),
        "u = 0": (RK4_NILRANK1, [(0.02, 0.0), (0.01, 0.6)], 20 + 10),
    }

    @pytest.mark.parametrize("case", RK4_CASES)
    def test_rk4_path_is_field_values_rk4_bit_for_bit(self, case):
        sys, pairs, samples = self.RK4_CASES[case]
        assert nilrank(sys) < 2
        ctrl = PiecewiseControl.from_pairs(pairs)
        g = GroupElement(0.4, [1.0, -0.5])
        traj = simulate(g, ctrl, sys)
        assert np.array_equal(traj.states, field_values_rk4(g, ctrl, sys, 1e-3))
        assert len(traj.times) == 1 + samples

    @pytest.mark.parametrize("sys", [RK4_NILRANK1, RK4_JORDAN], ids=["nilrank 1", "nilrank 0"])
    def test_rk4_evaluates_theta_once_per_distinct_stage_time(self, sys):
        # stages 2 and 3 share a time and stage 4 mostly meets the next
        # step's stage 1, so theta's arc pair is reused: at most 3 calls per
        # step where every stage took one
        ctrl = PiecewiseControl.from_pairs([(0.3, 0.7), (0.004, -0.9), (0.003, 0.2),
                                            (0.005, 1.0)])
        with mock.patch.object(system, "arc", wraps=system.arc) as arcs:
            traj = simulate(GroupElement(0.4, [1.0, -0.5]), ctrl, sys)
        steps = len(traj.times) - 1
        assert steps == 300 + 4 + 3 + 5 > RUN
        assert arcs.call_count <= 3 * steps

    def test_rk4_matches_the_closed_form_of_a_diagonal_nilrank_one_system(self):
        # an oracle that does not share field_values: on theta = diag(1, gamma),
        # A = diag(a, 0), r = (v1 - (eta1 / alpha) e^t - xi1 / a) e^{-t} obeys
        # r' = (a - alpha u) r + kappa with kappa = xi1 + a eta1 / alpha, so
        # each arc moves r to e^{lam d} (r - r(u)) + r(u), lam = a - alpha u,
        # r(u) = -kappa / lam
        rng = np.random.default_rng(37)
        for _ in range(60):
            gamma, a = rng.uniform(-1.0, 1.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
            alpha, xi, eta = rng.uniform(0.5, 1.5), rng.normal(size=2), rng.normal(size=2)
            sys = make(ThetaFamily.diagonal(gamma), np.diag([a, 0.0]), xi, alpha, eta)
            assert nilrank(sys) == 1
            pairs = []
            while len(pairs) < 6:
                u = rng.uniform(-1.0, 1.0)
                if abs(a - alpha * u) >= 0.05:
                    pairs.append((rng.uniform(0.1, 1.0), u))
            g = GroupElement(rng.uniform(-1.0, 1.0), rng.normal(size=2))
            t, v1, _ = simulate(g, PiecewiseControl.from_pairs(pairs), sys, step=1e-3).final_state

            def r_of(t, v1):
                return (v1 - eta[0] / alpha * math.exp(t) - xi[0] / a) * math.exp(-t)

            kappa, r = xi[0] + a * eta[0] / alpha, r_of(g.t, g.v[0])
            for d, u in pairs:
                lam = a - alpha * u
                r = math.exp(lam * d) * (r + kappa / lam) - kappa / lam
            assert abs(r_of(t, v1) - r) <= 1e-10 * abs(r)
            assert t == pytest.approx(g.t + alpha * sum(u * d for d, u in pairs), abs=1e-12)

    def test_rk4_keeps_the_sign_of_a_zero_stage_time(self):
        # from t = -0.0 with u = 0, stage 1 runs at -0.0 and the others at
        # 0.0; arc gives the two times zeros of different signs, so the
        # second time takes its own call
        with mock.patch.object(system, "arc", wraps=system.arc) as arcs:
            system._rk4_arc(RK4_NILRANK1, GroupElement(-0.0, [1.0, -0.5]), 0.0, 0.002,
                            np.empty((2, 3)))
        times = [c.args[-1] for c in arcs.call_args_list]
        assert times == [0.0, 0.0] and [math.copysign(1.0, t) for t in times] == [-1.0, 1.0]

    def test_a_few_kernel_calls_per_arc(self):
        # the per-sample path made two scalar arc calls per sample, about 2000
        # here; the block arc map takes one arc (the start), one step map and
        # one anchor per further run of RUN samples
        arcs = mock.Mock(wraps=kernel2d.arc)
        exps = mock.Mock(wraps=kernel2d.expm_series)
        ctrl = PiecewiseControl.from_pairs([(0.5, 0.3), (0.5, -0.4)])
        with mock.patch.object(kernel2d, "arc", arcs), \
                mock.patch.object(system, "expm_series", exps):
            traj = simulate(GroupElement(0.2, [1.0, -0.5]), ctrl, NILRANK2["spiral"])
        assert len(traj.times) == 1001
        assert arcs.call_count + exps.call_count <= 3 * len(ctrl)

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


# the eight structure families of the trajectory benchmark
FAMILIES = [ThetaFamily.jordan(), ThetaFamily.diagonal(1.0), ThetaFamily.diagonal(0.5),
            ThetaFamily.diagonal(0.0), ThetaFamily.diagonal(-0.7), ThetaFamily.spiral(0.0),
            ThetaFamily.spiral(1.0), ThetaFamily.spiral(-0.4)]


class TestSuperposition:
    """phi_{T,u}(g) = phi_T(g) phi_{T,u}(e): the run from g is the drift flow
    of g times the run from the identity (Ayala & Tirao, 1999)."""

    def test_run_from_g_is_drift_flow_times_run_from_identity(self):
        # the law is exact for the true flow; RK4 (nilrank 0 and 1) breaks it
        # by its truncation error, below 1e-12 at this step
        rng = np.random.default_rng(23)
        step = 2.0**-8
        ranks = set()
        for fam in FAMILIES:
            th = fam.matrix()
            # a I + b theta, and b (theta - I) where that has rank one, else 0
            low = th - np.eye(2) if matrix_rank(th - np.eye(2)) == 1 else np.zeros((2, 2))
            for A in (rng.uniform(0.2, 0.5) * np.eye(2) + rng.uniform(-0.4, 0.4) * th,
                      rng.uniform(0.2, 0.5) * low):
                sys = make(fam, A, rng.normal(size=2), rng.uniform(0.5, 1.5),
                           0.5 * rng.normal(size=2))
                ranks.add(nilrank(sys))
                ctrl = PiecewiseControl.from_pairs(
                    [(0.25, float(u)) for u in rng.uniform(-1.0, 1.0, size=3)])
                g = GroupElement(rng.uniform(-1.0, 1.0), rng.normal(size=2))
                from_g = simulate(g, ctrl, sys, step=step)
                from_e = simulate(GroupElement(0.0, [0.0, 0.0]), ctrl, sys, step=step)
                switches = np.flatnonzero(np.isin(from_g.times, from_g.switch_times))
                assert len(switches) == len(ctrl)
                for j, T in zip(switches, from_g.switch_times):
                    here = GroupElement(from_e.states[j, 0], from_e.states[j, 1:])
                    flow = drift_flow(T, g, sys)
                    law = multiply(flow, here, fam).as_array()
                    size = max(1.0, np.max(np.abs(law)))
                    assert np.max(np.abs(from_g.states[j] - law)) <= 1e-11 * size
                # the law is not the product in the other order
                swapped = multiply(here, flow, fam).as_array()
                assert np.max(np.abs(from_g.states[-1] - swapped)) > 1e-3
        assert ranks == {0, 1, 2}
