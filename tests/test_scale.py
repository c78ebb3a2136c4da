"""Verdicts, planners and rank-zero checks under rescaling.

Scaling A, xi and the control range by c > 0 (alpha and eta fixed) is the
time rescaling s -> c s of the system, so every verdict must be the one at
c = 1.  A power of two scales every floating-point step exactly, which makes
the property tests below exact checks of scale freedom.  Time reversal, the
scale c = -1 with the control range mirrored, swaps only open and closed.
The planners are also checked under a rescaling of space (see the section
on planners).
"""

import json
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solv3d.plan as plan
from solv3d.cli import main
from solv3d.covering import lift_control_set
from solv3d.group import GroupVariant, SIMPLY_CONNECTED
from solv3d.kernel2d import ThetaFamily, commutes, matrix_rank, trace_sign
from solv3d.planar import ControlRange, PlanarSpec, equilibrium, planar_solution
from solv3d.reach import classify, verify_classification
from solv3d.system import InvariantField, LinearField, SystemSpec, nilrank

SE2 = GroupVariant(GroupVariant.SE2N, 1)
SCALES = [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12]


def scaled(theta, A, xi, eta, omega, c, variant=SIMPLY_CONNECTED):
    return SystemSpec(theta, LinearField(c * np.asarray(A, float), c * np.asarray(xi, float)),
                      InvariantField(1.0, eta), ControlRange(c * omega[0], c * omega[1]),
                      variant)


def spiral_reproducer(c):
    return scaled(ThetaFamily.spiral(0.0), np.eye(2), [1.0, 0.0], [0.0, 0.0], (-0.5, 0.5), c)


def jordan_reproducer(c):
    # det A(u) = (u + 1.25 c)^2: a double root inside the control range
    return scaled(ThetaFamily.jordan(), [[-1.25, 0.5], [0.0, -1.25]], [1.0, 0.0],
                  [0.0, 1.0], (-1.5, 1.5), c)


def verdict(sys):
    try:
        rep = classify(sys)
    except ValueError as exc:
        return type(exc).__name__, None
    return rep.taxonomy, rep.rule


@pytest.mark.parametrize("make, want", [
    (spiral_reproducer, ("UniqueControlSetOpen", "nilrank2/planar-cylinder")),
    (jordan_reproducer, ("UniqueControlSetClosed", "nilrank2/planar-cylinder")),
], ids=["spiral", "jordan"])
def test_reproducers_keep_their_verdict_at_every_scale(make, want):
    assert verdict(make(1.0)) == want
    for c in SCALES:
        assert verdict(make(c)) == want, c


@pytest.mark.parametrize("theta, A, want", [
    (ThetaFamily.spiral(0.0), np.eye(2), ("UniqueControlSetOpen", "nilrank2/planar-cylinder")),
    (ThetaFamily.diagonal(1.0), [[1.0, 2.0], [1.0, 1.0]],
     ("Unclassified", "nilrank2/planar-cylinder")),
], ids=["spiral", "saddle"])
@pytest.mark.parametrize("k", [-600, -540, 511, 600])
def test_planar_verdict_beyond_the_determinant_products(theta, A, want, k):
    # A = 2^k A_1 on omega = +-|A| / 2, xi and alpha fixed: the products in
    # det A(u) leave the float range, and the verdict is the one at k = 0,
    # with no RuntimeWarning (an error under this suite's warning filter)
    def spec(c):
        A_c = c * np.asarray(A, float)
        half = 0.5 * float(np.max(np.abs(A_c)))
        return SystemSpec(theta, LinearField(A_c, [1.0, 0.0]), InvariantField(1.0, [0.0, 0.0]),
                          ControlRange(-half, half))

    assert verdict(spec(1.0)) == want
    assert verdict(spec(2.0**k)) == want


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_rank_condition_beyond_the_product_range(k):
    # xi = 2^k (1, 0) with A = I: the rank-condition products scale by
    # 2^(2k) and leave the float range at k = +-600, yet the decisions are
    # the ones at k = 0, with no RuntimeWarning, and each product is the
    # unscaled one rounded once
    def spec(c):
        return SystemSpec(ThetaFamily.spiral(0.0), LinearField(np.eye(2), [c, 0.0]),
                          InvariantField(1.0, [0.0, 0.0]), ControlRange(-0.5, 0.5))

    base = classify(spec(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(spec(2.0**k))
    assert (rep.taxonomy, rep.rule) == (base.taxonomy, base.rule) == (
        "UniqueControlSetOpen", "nilrank2/planar-cylinder")
    with np.errstate(over="ignore"):
        for got, want in ((rep.larc, base.larc), (rep.adrank, base.adrank)):
            assert got.holds == want.holds
            assert got.a_product == np.ldexp(want.a_product, 2 * k)
            assert got.theta_product == np.ldexp(want.theta_product, 2 * k)


@pytest.mark.parametrize("c, eta", [(1e308, [0.0, 0.0]), (2.0**1023, [1.0, 0.0])],
                         ids=["A = 1e308 I", "time 2^1023"])
def test_open_verdict_at_the_top_of_the_float_range(c, eta):
    # the trace of A, alpha xi + A eta and tr A(u) at the interval ends
    # overflow; the verdict, interval and trace zero are the ones at c = 1,
    # with no RuntimeWarning, and the traces read inf
    def spec(k):
        return SystemSpec(ThetaFamily.spiral(0.0), LinearField(k * np.eye(2), [k, 0.0]),
                          InvariantField(1.0, eta), ControlRange(-0.5 * k, 0.5 * k))

    base = classify(spec(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(spec(c))
    assert (rep.taxonomy, rep.rule) == (base.taxonomy, base.rule) == (
        "UniqueControlSetOpen", "nilrank2/planar-cylinder")
    assert rep.details["planar_verdict"] == "Open"
    assert rep.details["interval"] == tuple(c * x for x in base.details["interval"])
    assert rep.details["trace_at_endpoints"] == (np.inf, np.inf)
    assert rep.details["interior_trace_zero"] is None


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000, 1022])
def test_trace_zero_scales_with_the_system(k):
    # tr A(u) = 0.2 - u vanishes inside the control range: the planar
    # certificate's interval, traces and zero are the ones at k = 0 times 2^k
    theta = ThetaFamily.spiral(0.5)

    def spec(c):
        A = c * (0.4 * theta.matrix() - 0.1 * np.eye(2))
        return SystemSpec(theta, LinearField(A, [c, 0.0]), InvariantField(1.0, [0.0, 1.0]),
                          ControlRange(-0.5 * c, 0.5 * c))

    base = classify(spec(1.0)).details
    got = classify(spec(2.0**k)).details
    assert base["planar_verdict"] == got["planar_verdict"] == "WholePlane"
    for key in ("interval", "trace_at_endpoints"):
        assert got[key] == tuple(2.0**k * x for x in base[key]), key
    assert got["interior_trace_zero"] == 2.0**k * base["interior_trace_zero"]


@pytest.mark.parametrize("gamma, verdict", [(0.0, "Open"), (0.5, "WholePlane")],
                         ids=["spiral(0)", "spiral(0.5)"])
@pytest.mark.parametrize("c, w", [(1.0, 2.0), (1e-308, 2.0), (1e-300, 1e9), (1e-308, 1e308)])
def test_small_drift_against_a_wide_control_range(gamma, verdict, c, w):
    # A = c I lies 2^1000 or more below the ends of omega = (-w, w), past
    # 2^1023 on A's own scale; tr A(u) = 2c - 2 gamma u, and the verdict,
    # traces and zero are the ones at c = 1, w = 2, formed in plain floats
    spec = SystemSpec(ThetaFamily.spiral(gamma), LinearField(c * np.eye(2), [1.0, 0.0]),
                      InvariantField(1.0, [0.0, 0.0]), ControlRange(-w, w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classify(spec).details
    tr, tr_th = 2.0 * c, 2.0 * gamma
    assert got["planar_verdict"] == verdict
    assert got["trace_at_endpoints"] == (tr + w * tr_th, tr - w * tr_th)
    assert got["interior_trace_zero"] == (tr / tr_th if gamma else None)


@pytest.mark.parametrize("theta", [ThetaFamily.diagonal(0.5), ThetaFamily.jordan()],
                         ids=["diagonal", "jordan"])
def test_rank_zero_plane_family_verifies_at_every_scale(theta):
    # xi_hat judges <theta xi, R xi> by the rank condition's rule, so the
    # verification no longer raises once xi is small
    for c in SCALES:
        sys = scaled(theta, np.zeros((2, 2)), [1.0, 0.5], [0.0, 0.0], (-1.0, 1.0), c)
        rep = classify(sys)
        assert rep.taxonomy == "InfiniteEmptyInterior", c
        assert verify_classification(rep, sys)["ok"], c


class TestMatrixDecisions:
    def test_rank_commutation_and_trace_sign_ignore_scale(self):
        cases = [np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2)),
                 np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[2.0, 1.0], [4.0, 2.0]]),
                 np.array([[1.0, 1e-11], [0.0, -1.0]])]
        jordan = ThetaFamily.jordan().matrix()
        for M in cases:
            want = (matrix_rank(M), commutes(M, jordan), trace_sign(M))
            for c in SCALES:
                assert (matrix_rank(c * M), commutes(c * M, jordan),
                        trace_sign(c * M)) == want, (M, c)

    @pytest.mark.parametrize("c", [1e308, 1.5e308, 2.0**-1074], ids=["1e308", "1.5e308", "tiny"])
    def test_decisions_at_the_ends_of_the_float_range(self, c):
        # the products AB, BA, the singular values and the trace of c M
        # leave the float range, but not those of the unit-scaled operands
        jordan = ThetaFamily.jordan().matrix()
        assert (matrix_rank(c * jordan), commutes(c * jordan, jordan), trace_sign(c * jordan),
                trace_sign(-c * np.eye(2))) == (2, True, 1, -1)
        assert not commutes(c * jordan, np.diag([1.0, 0.5]))
        assert matrix_rank(c * np.diag([1.0, 0.0])) == 1

    def test_thresholds(self):
        assert matrix_rank(np.diag([1.0, 2e-10])) == 2
        assert matrix_rank(np.diag([1.0, 1e-10])) == 1
        assert trace_sign(np.diag([1.0, -1.0 + 1e-11])) == 1
        assert trace_sign(np.diag([1.0, -1.0 + 1e-13])) == 0
        assert not commutes(np.array([[1.0, 1e-11], [0.0, 1.0]]), np.diag([1.0, 0.5]))


def _families():
    gammas = st.integers(-4, 4).map(lambda n: n / 4)
    return st.one_of(
        st.just(ThetaFamily.jordan()),
        gammas.map(ThetaFamily.diagonal),
        gammas.map(ThetaFamily.spiral),
    )


# quarter-integers: exact under a power-of-two scale, and degenerate drifts
# (nilrank 1 or 0, eigenvector directions) come up often
_QUARTERS = st.integers(-8, 8).map(lambda n: n / 4)
_VEC = st.tuples(_QUARTERS, _QUARTERS)


@settings(max_examples=300)
@given(theta=_families(), a=_QUARTERS, b=_QUARTERS, xi=_VEC, eta=_VEC,
       lo=st.integers(1, 8), hi=st.integers(1, 8), k=st.integers(-27, 27))
def test_taxonomy_is_invariant_under_power_of_two_rescaling(theta, a, b, xi, eta, lo, hi, k):
    A = a * np.eye(2) + b * theta.matrix()
    omega = (-lo / 4, hi / 4)
    base = scaled(theta, A, xi, eta, omega, 1.0)
    sys = scaled(theta, A, xi, eta, omega, 2.0**k)
    assert verdict(sys) == verdict(base)
    for s in (base, sys):
        try:
            PlanarSpec(s.A, s.theta, s.eta, s.omega)
            builds = True
        except ValueError:
            builds = False
        assert builds == (nilrank(s) == 2)


# drifts a I + b theta on every variant: any family on the simply connected
# group, the rotations on the n-fold covers, and the circle-annihilating
# diagonal drifts on the aff_circle quotient; a coefficient is zero half the
# time, so that rank-zero drifts come up, and b (theta - I) is rank one on
# the shear and diagonal families
_COEF = st.one_of(st.just(0.0), _QUARTERS)
_DRIFTS = st.one_of(
    st.tuples(_families(), _COEF, _COEF, st.just(SIMPLY_CONNECTED)),
    st.tuples(_families(), _QUARTERS).map(lambda d: (d[0], -d[1], d[1], SIMPLY_CONNECTED)),
    st.tuples(st.just(ThetaFamily.spiral(0.0)), _COEF, _COEF, st.integers(1, 3).map(
        lambda n: GroupVariant(GroupVariant.SE2N, n))),
    st.tuples(st.just(ThetaFamily.diagonal(0.0)), st.just(0.0), _COEF,
              st.just(GroupVariant(GroupVariant.AFF_CIRCLE))),
)
_OPEN_CLOSED = {"UniqueControlSetOpen": "UniqueControlSetClosed",
                "UniqueControlSetClosed": "UniqueControlSetOpen"}


@settings(max_examples=300)
@given(drift=_DRIFTS, xi=_VEC, alpha=st.sampled_from([1.0, 0.5, -1.0, 0.0]), eta=_VEC,
       lo=st.integers(1, 8), hi=st.integers(1, 8))
# a saddle, A = diag(1, -1) on diagonal(0.5): Unclassified both ways
@example(drift=(ThetaFamily.diagonal(0.5), -3.0, 4.0, SIMPLY_CONNECTED), xi=(1.0, 1.0),
         alpha=1.0, eta=(0.0, 0.0), lo=2, hi=2)
def test_time_reversal_swaps_open_and_closed(drift, xi, alpha, eta, lo, hi):
    # (A, xi, alpha, eta, omega) -> (-A, -xi, alpha, eta, -omega) runs the
    # system backwards in time: an open control set turns closed and a closed
    # one open, while the rule and every other taxonomy stay
    theta, a, b, variant = drift
    A = a * np.eye(2) + b * theta.matrix()
    forward = SystemSpec(theta, LinearField(A, xi), InvariantField(alpha, eta),
                         ControlRange(-lo / 4, hi / 4), variant)
    backward = SystemSpec(theta, LinearField(-A, -np.asarray(xi)), InvariantField(alpha, eta),
                          ControlRange(-hi / 4, lo / 4), variant)
    rep, rev = classify(forward), classify(backward)
    assert rev.rule == rep.rule
    assert rev.taxonomy == _OPEN_CLOSED.get(rep.taxonomy, rep.taxonomy)


class TestSmallDrift:
    """A = -1e-6 I: a slow but nonsingular drift is still a closed control set."""

    SPEC = {
        "theta": {"family": "spiral", "gamma": 0.0},
        "A": [[-1e-6, 0.0], [0.0, -1e-6]],
        "xi": [1.0, 0.0],
        "alpha": 1.0,
        "eta": [0.0, 0.0],
        "omega": [-0.5, 0.5],
    }

    @pytest.mark.parametrize("variant", [SIMPLY_CONNECTED, SE2], ids=["simply", "se2n"])
    def test_classify_is_closed(self, variant):
        sys = scaled(ThetaFamily.spiral(0.0), -1e-6 * np.eye(2), [1.0, 0.0], [0.0, 0.0],
                     (-0.5, 0.5), 1.0, variant)
        rep = classify(sys)
        assert rep.taxonomy == "UniqueControlSetClosed", rep.details
        if variant is SE2:
            relation = lift_control_set(rep, sys)["relation"]
            assert "unique" in relation and "infinite family" not in relation

    @pytest.mark.parametrize("variant", [None, {"type": "se2n", "n": 1}],
                             ids=["simply", "se2n"])
    def test_cli_no_verify_exits_0(self, tmp_path, variant):
        spec = dict(self.SPEC, **({"variant": variant} if variant else {}))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = CliRunner().invoke(main, ["classify", str(path), "--out-dir", str(tmp_path),
                                        "--no-verify"])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["taxonomy"] == "UniqueControlSetClosed"


def test_rest_point_overlay_skips_controls_next_to_a_double_root(monkeypatch, tmp_path):
    # the overlay pads the component of zero by a fraction of its length, so
    # at c = 1e-9 it still asks for admissible controls only, and it leaves
    # out the ill-conditioned rest points next to the cut double root
    import solv3d.cli as cli
    from solv3d.planar import equilibrium, omega_hat
    from solv3d.system import conjugate_to_planar

    spec = conjugate_to_planar(jordan_reproducer(1e-9)).planar
    lo, hi = omega_hat(spec).component_of_zero
    seen = []
    monkeypatch.setattr(cli, "equilibrium", lambda sp, u: seen.append(u) or equilibrium(sp, u))
    cli._equilibrium_overlay(spec, ((-10.0, 10.0), (-10.0, 10.0)))
    assert len(seen) == 200 and all(lo < u < hi for u in seen)

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "theta": {"family": "jordan"}, "A": [[-1.25, 0.5], [0.0, -1.25]],
        "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 1.0], "omega": [-1.5, 1.5]}))
    out = CliRunner().invoke(main, ["reach", str(path), "--out-dir", str(tmp_path / "out"),
                                    "--budget", "200", "--horizon", "4"])
    assert out.exit_code == 0, out.output
    assert "<polyline" in (tmp_path / "out" / "reach.svg").read_text()


# -- planners and rank-zero checks -------------------------------------------
#
# Space is rescaled by c = 2^k (eta, the starts and the targets, and the
# staircase's drift coefficient), time by d = 2^j where the signature allows
# (A, omega and the controls times d).  Durations then scale by exactly 1/d
# and space errors by exactly c.

ROTATION = ThetaFamily.spiral(0.0)
_K = st.integers(-60, 60)
_J = st.integers(-20, 20)
_START = _VEC.filter(lambda v: v != (0.0, 0.0))


@contextmanager
def longest_schedule(bound):
    """Fail as soon as integrate_projected is handed a schedule longer than
    ``bound``: a staircase whose dwells grow as the system shrinks (they
    reached 1.6e6 time units at c = 2^-19 with an absolute rung margin) fails
    here, even where its endpoint error stays small."""
    real = plan.integrate_projected

    def guarded(gamma, alpha, c, ctrl, *args, **kw):
        total = float(np.sum(ctrl.durations))
        assert total <= bound, f"schedule of {total:.3g} time units"
        return real(gamma, alpha, c, ctrl, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan, "integrate_projected", guarded)
        yield


def hop(k, j, v0, u0):
    c, d = 2.0**k, 2.0**j
    spec = PlanarSpec(0.6 * d * ROTATION.matrix(), ROTATION, [c, 0.0],
                      ControlRange(-0.5 * d, 0.5 * d))
    return plan.circle_hop(spec, c * np.asarray(v0), d * u0, (-0.5 * d, 0.5 * d))


@settings(max_examples=60)
@given(k=_K, j=_J, v0=_START, u0=st.sampled_from([-0.3, -0.1, 0.0, 0.15, 0.35]))
# starts off the line of rest points: at 2^-40 an absolute on-line test took
# them for on it, and at 2^-60 an absolute "already there" test returned an
# empty schedule with error 0.0
@example(k=-40, j=0, v0=(0.5, 0.5), u0=0.15)
@example(k=-40, j=0, v0=(-0.25, 1.0), u0=0.15)
@example(k=-60, j=0, v0=(2.0, 1.0), u0=0.15)
def test_circle_hop_is_scale_free(k, j, v0, u0):
    base, res = hop(0, 0, v0, u0), hop(k, j, v0, u0)
    for got, want in ((res.control, base.control), (res.return_control, base.return_control)):
        assert np.array_equal(got.durations * 2.0**j, want.durations)
        assert np.array_equal(got.values, want.values * 2.0**j)
    assert res.error == base.error * 2.0**k


@pytest.mark.parametrize("planner", [plan.staircase, plan.half_staircase],
                         ids=["staircase", "half"])
@settings(max_examples=15)
@given(k=_K, j=st.integers(-3, 3), gamma=st.sampled_from([1.0, -1.0, 0.5, -0.25]),
       c=st.integers(1, 8).map(lambda n: n / 4), x=_QUARTERS, y=_QUARTERS,
       alpha=st.sampled_from([1.0, -1.0, 2.0, -0.5]),
       omega=st.sampled_from([(-1.0, 1.0), (-0.5, 1.0), (-2.0, 0.25)]))
# the rung margin was an absolute 1.0, so at 2^-20 the dwells grew to 1e6
@example(k=-20, j=0, gamma=1.0, c=2.0, x=0.3, y=-0.4, alpha=1.0, omega=(-1.0, 1.0))
def test_staircase_is_scale_free(planner, k, j, gamma, c, x, y, alpha, omega):
    # a time rescaling speeds up t (through omega) and the drift (through c)
    # alike; a space rescaling scales c, x and y
    s, d = 2.0**k, 2.0**j
    base = planner(gamma, alpha, c, x, y, ControlRange(*omega))
    with longest_schedule(2.0 * np.sum(base.control.durations) / d):
        res = planner(gamma, alpha, c * s * d, x * s, y * s,
                      ControlRange(omega[0] * d, omega[1] * d))
    assert np.array_equal(res.control.durations * d, base.control.durations)
    assert np.array_equal(res.control.values, base.control.values * d)
    # each leg's arc of u alpha theta over its duration is the same up to the
    # exact factor d: t is unchanged, x scales
    assert np.array_equal(res.achieved, base.achieved * [1.0, s])
    assert np.array_equal(res.predicted, base.predicted * [1.0, s])
    assert res.error == base.error


FIBER = ([[-1.0, -1.0], [1.0, -1.0]], ControlRange(-1.0, 1.0))


def fiber(k, v1, t2, j=0):
    c, d = 2.0**k, 2.0**j
    spec = PlanarSpec(d * np.asarray(FIBER[0]), ROTATION, [c, 0.0],
                      ControlRange(d * FIBER[1].u_min, d * FIBER[1].u_max))
    r2 = equilibrium(spec, 0.5 * d)
    v2 = planar_solution(spec, 0.7 / d, planar_solution(spec, 0.3 / d, r2, -0.5 * d), 0.5 * d)
    return plan.fiber_sync(spec, (0.0, c * np.asarray(v1)), (t2, v2), -0.5 * d, 0.5 * d)


@settings(max_examples=12)
@given(k=_K, v1=_START, t2=st.integers(-8, 20).map(lambda n: n / 4))
# at 2^-30 an absolute residual bound accepted boundary solves that missed
# their targets
@example(k=-30, v1=(1.5, -0.5), t2=3.0)
def test_fiber_sync_is_scale_free(k, v1, t2):
    base, res = fiber(0, v1, t2), fiber(k, v1, t2)
    assert res.diagnostics["route"] == base.diagnostics["route"]
    assert len(res.control) == len(base.control)
    np.testing.assert_allclose(res.control.durations, base.control.durations, rtol=1e-12)
    assert np.array_equal(res.control.values, base.control.values)


@settings(max_examples=12)
@given(j=st.integers(-20, 4), v1=_START, t2=st.integers(-8, 20).map(lambda n: n / 4))
# the boundary solves started from fixed durations below an absolute bound
# of 50, so at 2^-6 the transfer between the rest points was not found
@example(j=-6, v1=(1.5, -0.5), t2=3.0)
@example(j=-20, v1=(1.5, -0.5), t2=3.0)
def test_fiber_sync_is_time_scale_free(j, v1, t2):
    # A, the control range and the dwell controls times 2^j: durations scale
    # by exactly 2^-j and the endpoints do not move
    base, res = fiber(0, v1, t2), fiber(0, v1, t2, j)
    assert np.array_equal(res.control.durations * 2.0**j, base.control.durations)
    assert np.array_equal(res.control.values, base.control.values * 2.0**j)
    assert np.array_equal(res.achieved, base.achieved) and res.error == base.error


@pytest.mark.parametrize("theta, xi, want", [
    (ThetaFamily.jordan(), [1.0, 1.0], "InfiniteEmptyInterior"),
    (ThetaFamily.diagonal(0.5), [1.0, 1.0], "InfiniteEmptyInterior"),
    (ThetaFamily.spiral(1.0), [1.0, 0.0], "Controllable"),
], ids=["jordan", "diagonal", "spiral"])
@pytest.mark.parametrize("k", [-24, 24])
def test_rank_zero_verdict_verifies_under_space_rescaling(theta, xi, want, k):
    # A = 0: scaling xi scales v and keeps t, so the verdict and its check
    # must not change; the identity return's staircase took 2e15 time units
    # at 2^-24, and its endpoint missed an absolute 1e-5 bound at 2^24
    sys = SystemSpec(theta, LinearField(np.zeros((2, 2)), 2.0**k * np.asarray(xi)),
                     InvariantField(1.0, [0.0, 0.0]), ControlRange(-1.0, 1.0))
    rep = classify(sys)
    assert rep.taxonomy == want
    # the c = 1 return schedules take 10-16 time units
    with longest_schedule(100.0):
        log = verify_classification(rep, sys)
    assert log["ok"], log


def test_identity_return_is_time_scale_free():
    # A, xi and omega times 2^-4: the identity return draws its excursion
    # and its step in units of 1 / (u_max |alpha|), so the round trip and
    # its error are the unscaled ones; controls drawn from an absolute
    # [0.1, u_max] made this system exit 1 (high - low < 0)
    def spiral(c):
        return scaled(ThetaFamily.spiral(1.0), np.zeros((2, 2)), [1.0, 0.0], [0.0, 0.0],
                      (-1.0, 1.0), c)

    sys = spiral(2.0**-4)
    rep = classify(sys)
    assert rep.taxonomy == "Controllable"
    with longest_schedule(100.0 * 2.0**4):
        log = verify_classification(rep, sys)
    assert log["ok"], log
    check, = (c for c in log["checks"] if c["name"] == "identity-return")
    assert check["endpoint_error"] == plan.identity_return_error(spiral(1.0), 0)


class TestCliAtSmallScale:
    """The planner and the verification behind the CLI at a small xi."""

    SPIRAL = {"theta": {"family": "spiral", "gamma": 1.0}, "A": [[0.0, 0.0], [0.0, 0.0]],
              "alpha": 1.0, "eta": [0.0, 0.0], "omega": [-1.0, 1.0]}

    def write(self, tmp_path, xi):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(self.SPIRAL, xi=xi)))
        return str(path)

    def test_plan_staircase(self, tmp_path):
        # the staircase's drift coefficient is |theta^-1 xi|^2 = 2^-41, and x
        # and y scale with it; the c = 1 plan takes about 15 time units
        spec = self.write(tmp_path, [2.0**-20, 0.0])
        x, y = 0.2 * 2.0**-41, -0.8 * 2.0**-41
        with longest_schedule(100.0):
            out = CliRunner().invoke(main, ["plan", "staircase", spec, "--out-dir",
                                            str(tmp_path / "out"), f"--x={x!r}", f"--y={y!r}"])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "out" / "plan_report.json").read_text())
        assert report["plan"]["endpoint_error"] < 1e-6 * 2.0**-20

    def test_classify_verifies_controllable(self, tmp_path):
        spec = self.write(tmp_path, [2.0**-24, 0.0])
        with longest_schedule(100.0):
            out = CliRunner().invoke(main, ["classify", spec, "--out-dir", str(tmp_path)])
        assert out.exit_code == 0, out.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["taxonomy"] == "Controllable"
        assert report["verification"]["ok"], report["verification"]


@pytest.mark.parametrize("theta, xi", [
    (ThetaFamily.jordan(), [1.0, 1.0]),
    (ThetaFamily.diagonal(0.5), [1.0, 0.5]),
    (ThetaFamily.spiral(0.0), [1.0, 0.0]),
], ids=["jordan", "diagonal", "spiral0"])
@pytest.mark.parametrize("k", [-600, 600])
def test_plane_family_certificate_beyond_the_float_range(theta, xi, k):
    # A = 0, xi = 2^k xi_1: xi_hat and the sweep are decided on xi 2^-e, so
    # the verdict and both checks are the ones at k = 0, with no warning;
    # g scales by 2^(2k) in the rotation case and not at all otherwise, so
    # min_g reads inf or 0.0 past the float range
    def spec(c):
        return SystemSpec(theta, LinearField(np.zeros((2, 2)), c * np.asarray(xi)),
                          InvariantField(1.0, [0.0, 0.0]), ControlRange(-1.0, 1.0))

    base_rep = classify(spec(1.0))
    base = verify_classification(base_rep, spec(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify(spec(2.0**k))
        log = verify_classification(rep, spec(2.0**k))
    assert (rep.taxonomy, rep.rule) == (base_rep.taxonomy, base_rep.rule) == (
        "InfiniteEmptyInterior", "nilrank0/plane-family")
    assert log["ok"], log
    assert [c["ok"] for c in log["checks"]] == [c["ok"] for c in base["checks"]]
    min_g = log["checks"][0]["min_g"]
    if theta.tag == "spiral":
        assert min_g == (np.inf if k > 0 else 0.0)
    else:
        assert min_g == base["checks"][0]["min_g"]


@pytest.mark.parametrize("theta, xi", [
    (ThetaFamily.jordan(), [1.0, 1.0]),
    (ThetaFamily.diagonal(0.5), [1.0, 0.5]),
    (ThetaFamily.spiral(0.0), [1.0, 0.0]),
], ids=["jordan", "diagonal", "spiral0"])
def test_plane_family_report_is_unchanged_at_every_scale(theta, xi):
    # at the SCALES the scaled evaluation changes no bit: xi_hat, g and the
    # sweep are the ones formed on xi itself (in the rotation case R xi and
    # n2 (1 - cos t), otherwise multiples of 1 / xi)
    ts = np.linspace(*plan.CERT_T_RANGE, plan.CERT_SAMPLES)
    for c in SCALES:
        sys = SystemSpec(theta, LinearField(np.zeros((2, 2)), c * np.asarray(xi)),
                         InvariantField(1.0, [0.0, 0.0]), ControlRange(-1.0, 1.0))
        cert = plan.monotone_certificate(sys)
        (x0, x1), g = sys.xi, theta.gamma
        if theta.tag == "spiral":
            vector, want = np.array([-x1, x0]), float(sys.xi @ sys.xi) * (1.0 - np.cos(ts))
        else:
            vector = (np.array([1.0 / x1, -x0 / x1**2]) if theta.tag == "jordan"
                      else np.array([g / x0, -g / x1]))
            want = plan.xi_hat(theta, xi).g(ts)
        assert np.array_equal(cert.xi_hat.vector, vector), c
        _, (w00, w01, w10, w11) = plan.arc(*sys.theta_matrix.ravel().tolist(), ts)
        swept = (w00 * x0 + w01 * x1) * vector[0] + (w10 * x0 + w11 * x1) * vector[1]
        assert np.array_equal(cert.swept, swept), c
        assert np.array_equal(cert.g_values, want), c
        assert cert.min_g == float(np.min(want)), c
        assert cert.holds and cert.sweep_holds, c


def test_circle_hop_far_start_is_one_error_line(tmp_path):
    # v0 near the float range: the hop angle is taken on unit-scaled
    # vectors, so only the planner's one-line error prints (a numpy overflow
    # warning is an error under this suite's warning filter)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"theta": {"family": "spiral", "gamma": 0.0},
                                "A": [[0.0, -0.6], [0.6, 0.0]], "xi": [1.0, 0.0],
                                "alpha": 1.0, "eta": [1.0, 0.0], "omega": [-0.5, 0.5]}))
    out_dir = tmp_path / "out"
    out = CliRunner().invoke(main, ["plan", "circle-hop", str(spec), "--out-dir", str(out_dir),
                                    "--v0=1e300,0"], catch_exceptions=False)
    assert out.exit_code == 1
    assert out.output == ("Error: circle-hop: hop sequence failed to reach the "
                          "rest-point segment\n")
    assert not out_dir.exists()
