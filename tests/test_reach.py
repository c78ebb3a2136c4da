"""Tests for reachable-set sampling, estimation and the taxonomy classifier."""

import warnings

import numpy as np
import pytest

from solv3d.group import GroupVariant
from solv3d.kernel2d import ThetaFamily, arc, arc_matrices, lambda_op
from solv3d.plan import _leg_ends
from solv3d.planar import ControlRange, PiecewiseControl, PlanarSpec, a_of_u
import solv3d.reach as reach
from solv3d.reach import (
    LEVELS,
    _BATCH,
    _arc_table,
    _draw_levels,
    _entry_index,
    _mark,
    ClassificationReport,
    ReachGrid,
    classify,
    control_set_estimate,
    grid_to_csv,
    grid_to_pgm,
    reach_sets,
    reach_points,
    verify_classification,
    window_fill,
)
from solv3d.system import InvariantField, LinearField, SystemSpec, conjugate_to_planar

ROTATION = ThetaFamily.spiral(0.0)
OMEGA = ControlRange(-0.5, 0.5)


def canonical(A, eta=(0.0, 0.0)):
    return SystemSpec(ROTATION, LinearField(A, [1.0, 0.0]),
                      InvariantField(1.0, eta), OMEGA)


OPEN_SYS = canonical(np.eye(2))
CLOSED_SYS = canonical(-np.eye(2))
WHOLE_SYS = canonical(0.6 * ROTATION.matrix(), eta=(1.0, 0.0))


def closed_planar():
    return conjugate_to_planar(CLOSED_SYS).planar


class TestGrids:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            ReachGrid(((-1, 1), (-1, 1)), 4, np.zeros((4, 4), bool),
                      np.zeros((4, 4), bool))

    def test_cell_of(self):
        g = reach_sets(closed_planar(), np.zeros(2), 2.0, 100, resolution=8)
        assert g.cell_of(np.array([0.1, 0.1])) == (4, 4)
        assert g.cell_of(np.array([50.0, 0.0])) is None
        for bad in ([np.nan, 0.1], [0.1, np.nan], [np.inf, 0.1], [0.1, -np.inf]):
            assert g.cell_of(np.array(bad)) is None

    def test_determinism(self):
        sp = closed_planar()
        a = reach_sets(sp, np.zeros(2), 6.0, 800, seed=3)
        b = reach_sets(sp, np.zeros(2), 6.0, 800, seed=3)
        assert np.array_equal(a.forward, b.forward)
        assert np.array_equal(a.backward, b.backward)

    def test_short_horizon_stays_local(self):
        sp = closed_planar()
        v0 = np.array([1.0, 1.0])
        g = reach_sets(sp, v0, 2e-3, 500, seed=0)
        ix, iy = g.cell_of(v0)
        occupied = np.argwhere(g.forward)
        assert len(occupied) >= 1
        assert np.all(np.abs(occupied - [ix, iy]) <= 1)

    def test_horizon_monotone(self):
        # with switches on a fixed period, a longer horizon that is a
        # multiple of the switch period extends the same control draws
        sp = closed_planar()
        g1 = reach_sets(sp, np.zeros(2), 4.0, 1500, seed=1)
        g2 = reach_sets(sp, np.zeros(2), 8.0, 1500, seed=1)
        assert not np.any(g1.forward & ~g2.forward)
        assert not np.any(g1.backward & ~g2.backward)

    def test_overflowing_samples_raise_no_warning(self):
        # at A = 1e200 I every arc's propagator overflows: its samples mark
        # nothing and count as outside, with or without warnings as errors
        sp = conjugate_to_planar(canonical(1e200 * np.eye(2))).planar
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = reach_sets(sp, np.zeros(2), 4.0, 400, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = reach_sets(sp, np.zeros(2), 4.0, 400, seed=2)
        assert plain.points_outside > 0
        assert strict.points_outside == plain.points_outside
        assert np.array_equal(strict.forward, plain.forward)
        assert np.array_equal(strict.backward, plain.backward)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            reach_sets(closed_planar(), np.zeros(2), 0.0, 100)


class TestEstimate:
    def test_nonempty_for_closed_instance(self):
        g = reach_sets(closed_planar(), np.zeros(2), 12.0, 4000, seed=0)
        est = control_set_estimate(g)
        assert est.diagnostics["estimate_cells"] > 0
        ix, iy = g.cell_of(np.zeros(2))
        assert est.cells[ix, iy]

    def test_empty_backward_empty_estimate(self):
        res = 8
        fwd = np.ones((res, res), dtype=bool)
        g = ReachGrid(((-1, 1), (-1, 1)), res, fwd, np.zeros((res, res), bool))
        assert control_set_estimate(g).diagnostics["estimate_cells"] == 0

    @pytest.mark.parametrize("density", [0.02, 0.2, 0.6])
    def test_closure_matches_ndimage_dilation(self, density):
        from scipy import ndimage

        rng = np.random.default_rng(19)
        res = 16
        for _ in range(20):
            fwd = rng.random((res, res)) < density
            # set edge and corner cells so the border handling is exercised
            fwd[0, rng.integers(res)] = fwd[rng.integers(res), -1] = fwd[-1, 0] = True
            bwd = rng.random((res, res)) < 0.5
            g = ReachGrid(((-1, 1), (-1, 1)), res, fwd, bwd)
            closure = ndimage.binary_dilation(fwd, structure=np.ones((3, 3), bool))
            assert np.array_equal(control_set_estimate(g).cells, closure & bwd)

    def test_window_fill_full(self):
        g = reach_sets(closed_planar(), np.zeros(2), 2.0, 100, resolution=8)
        assert window_fill(g, np.ones((8, 8), bool), ((-5, 5), (-5, 5))) == 1.0


class TestExports:
    def test_csv_shape(self):
        g = reach_sets(closed_planar(), np.zeros(2), 2.0, 100, resolution=8)
        text = grid_to_csv(g, control_set_estimate(g))
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,forward,backward,estimate"
        assert len(lines) == 1 + 8 * 8

    def test_pgm_header(self):
        g = reach_sets(closed_planar(), np.zeros(2), 2.0, 100, resolution=8)
        text = grid_to_pgm(g.forward)
        head = text.split("\n")[:3]
        assert head == ["P2", "8 8", "255"]


class TestClassify:
    def test_canonical_planar_instances(self):
        for sys, tax in [
            (OPEN_SYS, "UniqueControlSetOpen"),
            (CLOSED_SYS, "UniqueControlSetClosed"),
            (WHOLE_SYS, "WholeGroup"),
        ]:
            rep = classify(sys)
            assert rep.taxonomy == tax
            assert rep.rule == "nilrank2/planar-cylinder"
            assert rep.nilrank == 2 and rep.larc.holds

    def test_rank_condition_failure(self):
        sys = SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 0.0]),
                         InvariantField(0.0, [1.0, 0.0]), OMEGA)
        rep = classify(sys)
        assert rep.taxonomy == "Unclassified"
        assert rep.rule == "rank-condition-failed"

    def test_nilrank_one_trace_sign(self):
        th = ThetaFamily.diagonal(0.5)
        for a, tax in [(2.0, "UniqueControlSetOpen"), (-2.0, "UniqueControlSetClosed")]:
            sys = SystemSpec(th, LinearField(np.diag([a, 0.0]), [1.0, 1.0]),
                             InvariantField(1.0, [0.0, 0.0]), OMEGA)
            rep = classify(sys)
            assert rep.taxonomy == tax and rep.rule == "nilrank1/trace-sign"

    def test_nilrank_one_trace_zero(self):
        sys = SystemSpec(ThetaFamily.jordan(),
                         LinearField([[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        rep = classify(sys)
        assert rep.taxonomy == "WholeGroup" and rep.rule == "nilrank1/trace-sign"

    def test_nilrank_zero_dichotomy(self):
        spiral = SystemSpec(ThetaFamily.spiral(1.0),
                            LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                            InvariantField(1.0, [0.0, 0.0]), OMEGA)
        assert classify(spiral).taxonomy == "Controllable"
        assert classify(spiral).rule == "nilrank0/spiral-staircase"
        jordan = SystemSpec(ThetaFamily.jordan(),
                            LinearField(np.zeros((2, 2)), [1.0, 1.0]),
                            InvariantField(1.0, [0.0, 0.0]), OMEGA)
        assert classify(jordan).taxonomy == "InfiniteEmptyInterior"
        assert classify(jordan).rule == "nilrank0/plane-family"

    def test_se2n_branches(self):
        var = GroupVariant(GroupVariant.SE2N, 1)
        lifted = SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 0.0]),
                            InvariantField(1.0, [0.0, 0.0]), OMEGA, var)
        rep = classify(lifted)
        assert rep.rule == "se2n/unique-lift"
        assert rep.taxonomy == "UniqueControlSetClosed"
        flat = SystemSpec(ROTATION, LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                          InvariantField(1.0, [0.0, 0.0]), OMEGA, var)
        rep = classify(flat)
        assert rep.rule == "se2n/flat-cylinders"
        assert rep.taxonomy == "InfiniteEmptyInterior"

    def test_aff_circle_branches(self):
        th = ThetaFamily.diagonal(0.0)
        var = GroupVariant(GroupVariant.AFF_CIRCLE)
        for a, tax in [(1.0, "UniqueControlSetOpen"),
                       (-1.0, "UniqueControlSetClosed"),
                       (0.0, "Controllable")]:
            sys = SystemSpec(th, LinearField(np.diag([a, 0.0]), [1.0, 1.0]),
                             InvariantField(1.0, [0.0, 0.0]), OMEGA, var)
            rep = classify(sys)
            assert rep.taxonomy == tax

    def test_aff_circle_non_descending_rejected(self):
        th = ThetaFamily.diagonal(0.0)
        var = GroupVariant(GroupVariant.AFF_CIRCLE)
        sys = SystemSpec(th, LinearField(np.diag([0.0, 1.0]), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA, var)
        with pytest.raises(ValueError):
            classify(sys)

    def test_det_sign_unclassified(self):
        sys = SystemSpec(ThetaFamily.diagonal(1.0),
                         LinearField(np.diag([1.0, -1.0]), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        rep = classify(sys)
        assert rep.taxonomy == "Unclassified"
        assert "det" in rep.details["reason"]

    def test_report_serializes(self):
        import json

        d = classify(OPEN_SYS).to_dict()
        json.dumps(d)
        assert d["taxonomy"] == "UniqueControlSetOpen"
        assert d["larc"]["holds"] is True


class TestVerify:
    def test_open_rest_points(self):
        rep = classify(OPEN_SYS)
        log = verify_classification(rep, OPEN_SYS, budget=20_000, horizon=30.0)
        assert log["ok"], log

    def test_infinite_monotone(self):
        sys = SystemSpec(ThetaFamily.jordan(),
                         LinearField(np.zeros((2, 2)), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        log = verify_classification(classify(sys), sys)
        assert log["ok"], log
        names = [c["name"] for c in log["checks"]]
        assert "monotone-certificate" in names

    def test_controllable_identity_return(self, monkeypatch):
        # the round trip the check plans, excursion and staircase back, also
        # returns to the identity fiber under an independent DOP853 integration
        # of the whole schedule
        from solv3d.plan import staircase_fiber

        sys = SystemSpec(ThetaFamily.spiral(1.0),
                         LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        calls = spy_leg_ends(monkeypatch)
        log = verify_classification(classify(sys), sys)
        assert log["ok"], log
        err, = (c["endpoint_error"] for c in log["checks"] if c["name"] == "identity-return")
        assert err <= 1e-12
        (_, excursion, _, _), (_, back, _, _) = calls
        states = dop853_leg_ends(sys, excursion + back, 0.0, np.zeros(2))
        t = np.abs(states[:, 0])
        x = np.abs(states[:, 1:] @ staircase_fiber(sys)[0])
        assert max(t[-1] / np.max(t), x[-1] / np.max(x)) <= 1e-9

    def test_identity_return_with_asymmetric_omega(self):
        # legs at u_min = -100 turn a thousand times faster than legs at
        # u_max = 0.1; each leg is one closed-form arc, so the round trip still
        # ends at rounding level
        sys = SystemSpec(ThetaFamily.spiral(1.0),
                         LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                         InvariantField(1.0, [0.0, 0.0]), ControlRange(-100.0, 0.1))
        rep = classify(sys)
        assert rep.taxonomy == "Controllable"
        log = verify_classification(rep, sys)
        assert log["ok"], log
        err, = (c["endpoint_error"] for c in log["checks"] if c["name"] == "identity-return")
        assert err < 1e-12

    @pytest.mark.parametrize("omega", [(-0.1, 100.0), (-1e-3, 1e3)])
    def test_identity_return_with_wide_omega(self, omega):
        # the legs at u_max turn 10^3 and 10^6 times faster than those at
        # u_min; at a fixed step of 5e-4 / u_max the excursion alone took
        # about 10^6 and 10^9 samples
        sys = SystemSpec(ThetaFamily.spiral(1.0),
                         LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                         InvariantField(1.0, [0.0, 0.0]), ControlRange(*omega))
        rep = classify(sys)
        assert rep.taxonomy == "Controllable"
        log = verify_classification(rep, sys)
        assert log["ok"], log
        err, = (c["endpoint_error"] for c in log["checks"] if c["name"] == "identity-return")
        assert err < 1e-12

    def test_symbolic_branch(self):
        sys = SystemSpec(ThetaFamily.diagonal(0.5),
                         LinearField(np.diag([2.0, 0.0]), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        log = verify_classification(classify(sys), sys)
        assert log["checks"][0]["name"] == "symbolic-only"


def spy_leg_ends(monkeypatch) -> list:
    """Record the ((theta, alpha, w), legs, t, v) of every ``plan._leg_ends``
    call that ``plan.identity_return_error`` makes itself; the staircase's
    endpoint check, which it reaches through ``half_staircase``, runs on the
    same map and is not recorded."""
    import inspect

    import solv3d.plan as plan

    calls, real = [], plan._leg_ends

    def spy(theta, alpha, w, pairs, t, v):
        if inspect.currentframe().f_back.f_code is plan.identity_return_error.__code__:
            calls.append(((theta, alpha, w), list(pairs), t, np.array(v)))
        return real(theta, alpha, w, pairs, t, v)

    monkeypatch.setattr(plan, "_leg_ends", spy)
    return calls


def dop853_leg_ends(sys, pairs, t, v):
    """The state (t, v) at the start and at each leg end of the group ODE
    t' = u alpha, v' = A v + Lambda_t xi + u rho_t eta, by scipy's DOP853.

    The oracle shares no code with the package: it integrates the linear
    system of (t, v, Lambda_t xi, rho_t xi, rho_t eta), whose last three
    parts move by u alpha rho_t xi, u alpha theta rho_t xi and
    u alpha theta rho_t eta, from a start taken from scipy's ``expm``.
    """
    from scipy.integrate import solve_ivp
    from scipy.linalg import expm

    th = sys.theta_matrix
    block = np.zeros((3, 3))
    block[:2, :2], block[:2, 2] = th, sys.xi
    start = expm(t * block)
    rho = start[:2, :2]
    y = np.concatenate([[t], v, start[:2, 2], rho @ sys.xi, rho @ sys.eta])
    ends = [y[:3]]
    for s, u in pairs:
        ua = u * sys.alpha

        def rhs(_, z, u=u, ua=ua):
            w, r, q = z[3:5], z[5:7], z[7:9]
            return np.concatenate([[ua], sys.A @ z[1:3] + w + u * q, ua * r,
                                   ua * (th @ r), ua * (th @ q)])

        y = solve_ivp(rhs, (0.0, s), y, method="DOP853", rtol=1e-13,
                      atol=1e-14 * max(1.0, np.max(np.abs(y)))).y[:, -1]
        ends.append(y[:3])
    return np.array(ends)


class TestLegEnds:
    """The identity return's closed-form leg map against the DOP853 oracle."""

    @pytest.mark.parametrize("eta", [(0.0, 0.0), (0.3, -0.2)], ids=["eta0", "eta"])
    @pytest.mark.parametrize("alpha", [-1.0, 2.5])
    @pytest.mark.parametrize("gamma", [1.0, -0.4, 0.25])
    def test_matches_dop853_at_every_leg_end(self, monkeypatch, gamma, alpha, eta):
        # the legs are the round trip's own, the excursion and the staircase
        # back; the map never reads eta, so with eta != 0 it gives the flow of
        # normalize_eta's system, and the oracle runs on the original one,
        # carried over by that conjugation's automorphism
        from solv3d.group import GroupElement
        from solv3d.plan import identity_return_error
        from solv3d.system import normalize_eta

        sys = SystemSpec(ThetaFamily.spiral(gamma),
                         LinearField(np.zeros((2, 2)), [0.7, -0.4]),
                         InvariantField(alpha, eta), ControlRange(-0.8, 1.2))
        calls = spy_leg_ends(monkeypatch)
        assert identity_return_error(sys, 3) <= 1e-12
        assert len(calls) == 2 and sum(len(c[1]) for c in calls) >= 8
        psi = normalize_eta(sys)[1]
        for normal, pairs, t, v in calls:
            got = _leg_ends(*normal, pairs, t, v)
            g = psi.inverse()(GroupElement(t, v))
            want = np.array([psi(GroupElement(r[0], r[1:])).as_array()
                             for r in dop853_leg_ends(sys, pairs, g.t, g.v)])
            assert got.shape == want.shape == (len(pairs) + 1, 3)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestConnectivity:
    def test_pairs_connect_through_rest_point(self):
        # in the trace-free rotation instance any two points join by hopping
        # to a common rest point and back out along the reversed hop arcs
        from solv3d.plan import circle_hop
        from solv3d.planar import concat_solution

        spec = conjugate_to_planar(WHOLE_SYS).planar
        rng = np.random.default_rng(40)
        lo, hi = spec.omega.u_min, spec.omega.u_max
        for _ in range(5):
            a, b = rng.normal(size=2) * 2.0, rng.normal(size=2) * 2.0
            fwd = circle_hop(spec, a, 0.1, (lo, hi))
            back = circle_hop(spec, b, 0.1, (lo, hi))
            pairs = fwd.control.pairs() + back.return_control.pairs()
            from solv3d.planar import PiecewiseControl

            end, _ = concat_solution(spec, a, PiecewiseControl.from_pairs(pairs))
            assert np.max(np.abs(end - b)) < 1e-6


class TestPairingSweep:
    SYSTEMS = [
        (ThetaFamily.jordan(), (0.0, 0.0), OMEGA),
        (ThetaFamily.diagonal(0.5), (0.0, 0.0), OMEGA),
        (ThetaFamily.jordan(), (0.5, -0.3), OMEGA),
        (ThetaFamily.diagonal(0.5), (1.0, 0.0), ControlRange(-1.0, 2.0)),
    ]

    @pytest.mark.parametrize("theta, eta, omega", SYSTEMS,
                             ids=["jordan", "diagonal", "jordan-eta", "diagonal-eta"])
    def test_batched_sweep_matches_scalar_oracle(self, theta, eta, omega):
        from solv3d.plan import monotone_certificate

        sys = SystemSpec(theta, LinearField(np.zeros((2, 2)), [1.0, 1.0]),
                         InvariantField(1.0, eta), omega)
        cert = monotone_certificate(sys)
        # the certificate's one batched sweep against scalar lambda_op, one
        # sample time at a time
        scalar = np.array([float(lambda_op(sys.theta_matrix, t, sys.xi) @ cert.xi_hat.vector)
                           for t in cert.t_samples])
        scale = np.maximum(1.0, np.abs(scalar))
        assert np.max(np.abs(cert.swept - scalar) / scale) <= 1e-13
        verdict = bool(scalar.min() >= -1e-12 * np.max(np.abs(scalar)))
        assert cert.sweep_holds == verdict
        log = verify_classification(classify(sys), sys)
        oks = {c["name"]: c["ok"] for c in log["checks"]}
        assert oks == {"monotone-certificate": cert.holds, "pairing-never-decreases": verdict}


def _oracle_levels(rng, n):
    """The level draws written with two masked stores (oracle): a draw r
    below 3 LEVELS is bang level r mod 3, any other the midpoint
    (r - 3 LEVELS) // 3, stored after the three bang columns."""
    r = rng.integers(0, 6 * LEVELS, size=n)
    bang = r < 3 * LEVELS
    idx = np.empty(n, dtype=np.int64)
    idx[bang] = r[bang] % 3
    idx[~bang] = 3 + (r[~bang] - 3 * LEVELS) // 3
    return idx


class TestBatchedSampling:
    BUDGETS = (1, 7, 100, 10_000, 16_385, 40_000)
    RUNS = [(7.0, (0.3, -0.2)), (12.0, (0.0, 0.0))]

    @pytest.mark.parametrize("system", [OPEN_SYS, CLOSED_SYS, WHOLE_SYS],
                             ids=["open", "closed", "whole"])
    @pytest.mark.parametrize("T, v0", RUNS, ids=["T7", "T12"])
    def test_bitmaps_equal_per_trajectory_oracle(self, system, T, v0):
        spec = conjugate_to_planar(system).planar
        for budget in self.BUDGETS:
            fwd, bwd, inside, _ = _follow_every_lane(spec, v0, T, budget)
            g = reach_sets(spec, v0, T, budget)
            assert g.forward.tobytes() == fwd.tobytes(), budget
            assert g.backward.tobytes() == bwd.tobytes(), budget
            assert g.points_outside == g.points - inside, budget

    def test_one_table_per_direction_and_arc_length(self, monkeypatch):
        # budget 40 000 is three batches and T = 7 is three arcs of 2 and
        # one of 1: one arc call per direction and length, whatever the batches
        calls = []

        def counting_arc(*args):
            calls.append(args[-1])
            return arc(*args)

        monkeypatch.setattr(reach, "arc", counting_arc)
        reach_sets(closed_planar(), np.zeros(2), 7.0, 40_000)
        assert sorted(calls) == [-0.25, -0.125, 0.125, 0.25]


class TestGridExitCounters:
    @pytest.mark.parametrize("T, spa", [(7.0, 8), (12.0, 3)])
    def test_points_count_every_sample(self, T, spa):
        budget = 1001
        g = reach_sets(closed_planar(), np.zeros(2), T, budget, samples_per_arc=spa)
        n_arcs = int(np.ceil(T / 2.0))
        assert g.points == 2 * budget * (1 + n_arcs * spa)
        assert 0 <= g.points_outside < g.points

    def test_small_box_sends_most_points_outside(self):
        spec = conjugate_to_planar(OPEN_SYS).planar
        box = ((-0.01, 0.01), (-0.01, 0.01))
        g = reach_sets(spec, np.zeros(2), 12.0, 2000, box=box, resolution=8)
        assert g.points_outside > g.points // 2
        diag = control_set_estimate(g).diagnostics
        assert (diag["points"], diag["points_outside"]) == (g.points, g.points_outside)

    def test_estimate_check_reports_points(self):
        log = verify_classification(classify(CLOSED_SYS), CLOSED_SYS, budget=800,
                                    horizon=6.0)
        check = next(c for c in log["checks"] if c["name"] == "estimate-nonempty")
        assert check["points"] == 2 * 800 * (1 + 3 * 8)
        assert 0 <= check["points_outside"] < check["points"]

    def test_positional_construction_defaults_to_zero(self):
        g = ReachGrid(((-1, 1), (-1, 1)), 8, np.zeros((8, 8), bool),
                      np.zeros((8, 8), bool))
        assert (g.points, g.points_outside) == (0, 0)


def _mark_reference(bitmap, x, y, box, res):
    """The marker as two int casts and a 2-D scatter (oracle for finite points)."""
    (x0, x1), (y0, y1) = box
    ix = np.floor((x - x0) / (x1 - x0) * res).astype(np.int64)
    iy = np.floor((y - y0) / (y1 - y0) * res).astype(np.int64)
    ok = (ix >= 0) & (ix < res) & (iy >= 0) & (iy < res)
    bitmap[ix[ok], iy[ok]] = True
    return int(np.count_nonzero(ok))


class TestMarker:
    BOX = ((-10.0, 10.0), (-10.0, 10.0))

    def test_non_finite_and_edge_points(self):
        inf, nan = np.inf, np.nan
        pts = [
            (-10.0, -10.0),              # x0, y0: cell (0, 0)
            (0.0, 0.0),                  # cell (32, 32)
            (9.99, -9.99),               # cell (63, 0)
            (10.0, 0.0), (0.0, 10.0),    # x1 or y1: outside
            (10.0, 10.0), (-10.0, 10.0), (10.0, -10.0),
            (inf, 0.0), (-inf, 0.0), (0.0, inf), (0.0, -inf),
            (inf, -inf), (-inf, inf), (inf, inf),
            (nan, 0.0), (0.0, nan), (nan, nan), (nan, inf),
            (1e300, 0.0), (-1e300, 0.0), (0.0, 1e300), (1e300, -1e300),
        ]
        x, y = (np.array(c) for c in zip(*pts))
        bitmap = np.zeros((64, 64), dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = _mark(bitmap, x, y, self.BOX, 64)
        assert inside == 3
        assert sorted(map(tuple, np.argwhere(bitmap).tolist())) == [(0, 0), (32, 32), (63, 0)]

    @pytest.mark.parametrize("res", [8, 64, 4096])
    def test_equals_two_dimensional_scatter(self, res):
        rng = np.random.default_rng(res)
        box = ((-3.0, 5.0), (-1.0, 0.5))
        for scale in (1.0, 4.0, 100.0):
            x = rng.normal(1.0, scale, 5000)
            y = rng.normal(-0.25, scale / 4.0, 5000)
            # points on every cell edge, including the box's own edges
            edges = np.linspace(box[0][0], box[0][1], res + 1)
            x[:res + 1] = edges
            y[:res + 1] = np.linspace(box[1][0], box[1][1], res + 1)
            got = np.zeros((res, res), dtype=bool)
            want = np.zeros((res, res), dtype=bool)
            assert _mark(got, x, y, box, res) == _mark_reference(want, x, y, box, res)
            assert got.tobytes() == want.tobytes()

    def test_rejects_non_contiguous_bitmap(self):
        bitmap = np.zeros((8, 8), dtype=bool).T[::1, ::2]
        with pytest.raises(ValueError):
            _mark(bitmap, np.zeros(1), np.zeros(1), self.BOX, 8)


class TestReachGridShape:
    """The benchmark's reach_grid call: T = 30, budget 10 000, box +-10, res 64."""

    @pytest.mark.parametrize("system", [OPEN_SYS, CLOSED_SYS, WHOLE_SYS],
                             ids=["open", "closed", "whole"])
    def test_bitmaps_equal_per_trajectory_oracle(self, system):
        spec = conjugate_to_planar(system).planar
        fwd, bwd, inside, _ = _follow_every_lane(spec, (0.0, 0.0), 30.0, 10_000, seed=7)
        g = reach_sets(spec, np.zeros(2), 30.0, 10_000, seed=7)
        assert g.forward.tobytes() == fwd.tobytes()
        assert g.backward.tobytes() == bwd.tobytes()
        assert g.points == reach_points(30.0, 10_000) == 2 * 10_000 * (1 + 15 * 8)
        assert g.points_outside == g.points - inside


class TestArcTable:
    SPECS = [
        PlanarSpec(np.array([[-0.4, -1.1], [1.1, -0.4]]), ThetaFamily.spiral(0.3),
                   np.array([1.0, 0.5]), ControlRange(-0.5, 0.5)),
        PlanarSpec(np.array([[-1.25, 0.5], [0.0, -1.25]]), ThetaFamily.jordan(),
                   np.array([0.0, 1.0]), ControlRange(-1.5, 1.5)),
        PlanarSpec(np.array([[0.4, 0.0], [0.0, -1.3]]), ThetaFamily.diagonal(-0.5),
                   np.array([0.7, -0.2]), ControlRange(-3.0, 0.25)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["spiral", "jordan", "diagonal"])
    def test_rows_equal_scalar_arcs(self, spec):
        lo, hi = spec.omega.u_min, spec.omega.u_max
        levels = [lo, 0.0, hi] + [lo + (hi - lo) * (j + 0.5) / LEVELS for j in range(LEVELS)]
        for h in (0.25, -0.25, 0.125):
            table = _arc_table(spec, h)
            assert table.shape == (6, LEVELS + 3)
            for u, row in zip(levels, table.T):
                E, W = arc_matrices(a_of_u(spec, u), h)
                c = W @ (u * spec.eta)
                assert np.max(np.abs(row[:4] - E.ravel())) <= 1e-14 * np.max(np.abs(E)), u
                assert np.max(np.abs(row[4:] - c)) <= 1e-14 * np.max(np.abs(c)), u


class TestLevelDraws:
    def test_draw_shares(self):
        n = 600_000
        idx = _draw_levels(np.random.default_rng(11), n)
        assert idx.min() >= 0 and idx.max() < LEVELS + 3
        assert abs(np.mean(idx < 3) - 0.5) < 0.005
        for level in range(3):
            assert abs(np.mean(idx == level) - 1.0 / 6.0) < 0.005, level
        mids = idx[idx >= 3] - 3
        # every midpoint is drawn, and 64 runs of 64 midpoints each hold
        # 1/64 of the midpoint draws to within 10% (about 7 sigma)
        assert np.all(np.bincount(mids, minlength=LEVELS) > 0)
        runs = np.bincount(mids // 64, minlength=64)
        assert np.all(np.abs(runs - mids.size / 64) < 0.1 * mids.size / 64)

    def test_oracle_draws_equal(self):
        for seed, n in ((0, 1), (1, 7), (2, 10_000)):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _draw_levels(a, n).tolist() == _oracle_levels(b, n).tolist()
            # both consumed the generator alike
            assert a.random() == b.random()


def _scalar_entry_index(spec, v, est, grid):
    """The far-start flow sampled one planar_solution at a time (oracle)."""
    from solv3d.planar import planar_solution

    for i, s in enumerate(np.linspace(0.0, 30.0, 600)):
        c = grid.cell_of(planar_solution(spec, float(s), v, 0.0))
        if c is not None and est.cells[c]:
            return i
    return None


class TestFarStarts:
    @pytest.mark.parametrize("system", [
        CLOSED_SYS,
        SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 0.0]),
                   InvariantField(1.0, [0.0, 0.0]), OMEGA,
                   GroupVariant(GroupVariant.SE2N, 1)),
    ], ids=["closed", "se2n"])
    def test_batched_entry_equals_scalar_loop(self, system):
        spec = conjugate_to_planar(system).planar
        g = reach_sets(spec, np.zeros(2), 15.0, 5_000)
        est = control_set_estimate(g)
        starts = [10.0 * np.array([np.cos(a), np.sin(a)])
                  for a in 2.0 * np.pi * np.arange(10) / 10.0]
        # a start inside the estimate enters at once; one far outside never does
        starts += [np.zeros(2), np.array([1e20, -1e20])]
        indices = []
        for v in starts:
            want = _scalar_entry_index(spec, v, est, g)
            assert _entry_index(spec, v, est, g) == want
            indices.append(want)
        assert indices[-2] == 0 and indices[-1] is None
        assert all(i is not None and i > 0 for i in indices[:10])


def _double_root_system(a, omega=(-1.5, 1.5)):
    """jordan, A = a I + 0.5 N: det A(u) = (u - a)^2 has a double root at a."""
    return SystemSpec(ThetaFamily.jordan(),
                      LinearField([[a, 0.5], [0.0, a]], [1.0, 0.0]),
                      InvariantField(1.0, [0.0, 1.0]), ControlRange(*omega))


class TestDoubleRoot:
    def test_reproducer_is_closed(self):
        # tr A(u) = -2.5 - 2u < 0 on the component of zero, (-1.25, 1.5)
        rep = classify(_double_root_system(-1.25))
        assert rep.taxonomy == "UniqueControlSetClosed", rep.details

    def test_double_root_anywhere_in_omega_gives_a_verdict(self):
        for a in np.linspace(-1.4, 1.4, 20):
            rep = classify(_double_root_system(float(a)))
            assert rep.taxonomy != "Unclassified", (a, rep.details)
            if rep.details["interval"] != (-1.5, 1.5):
                # the component of zero ends at the root, where tr A(u) = 0,
                # so the trace keeps the sign of a on it
                want = "UniqueControlSetOpen" if a > 0 else "UniqueControlSetClosed"
                assert rep.taxonomy == want, (a, rep.details)

    def test_sweep_cuts_the_component_of_zero_at_the_root(self):
        # c0 = a^2 exactly, so the discriminant is exactly zero and omega_hat
        # cuts the double root wherever it sits
        for a in np.linspace(-1.4, 1.4, 20):
            rep = classify(_double_root_system(float(a)))
            lo, hi = rep.details["interval"]
            end = hi if a > 0 else lo
            assert end != a and abs(end - a) <= 2e-8 * abs(a), (a, rep.details)
            assert lo < 0.0 < hi
            want = "UniqueControlSetOpen" if a > 0 else "UniqueControlSetClosed"
            assert rep.taxonomy == want, (a, rep.details)

    def test_two_close_roots_are_both_cut(self):
        # det A(u) = (1 - u)(0.5000005 - 0.5 u) has the distinct roots 1 and
        # 1.000001 and is negative between them, where tr A(u) = 0 at about
        # 1.00000033; the component of zero must end below the first root
        sys = SystemSpec(ThetaFamily.diagonal(0.5),
                         LinearField(np.diag([1.0, 0.5000005]), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 1.0]), ControlRange(-1.5, 1.5))
        rep = classify(sys)
        lo, hi = rep.details["interval"]
        assert lo == -1.5 and 1.0 - 2e-8 <= hi < 1.0, rep.details
        assert rep.taxonomy == "UniqueControlSetOpen", rep.details

    @pytest.mark.parametrize("theta", [ThetaFamily.diagonal(0.35), ThetaFamily.diagonal(0.8),
                                       ThetaFamily.spiral(0.5), ThetaFamily.spiral(-0.3)],
                             ids=["diag0.35", "diag0.8", "spiral0.5", "spiral-0.3"])
    def test_drift_proportional_to_theta_is_cut_at_its_double_root(self, theta):
        # A = b theta: det A(u) = (b - u)^2 det theta with det theta > 0, and
        # the rounded discriminant lands on either side of zero.  A few ulps
        # above zero it splits the root into two about sqrt(eps) |b| apart,
        # and omega_hat cuts the nearer one.
        tr_theta = float(np.trace(theta.matrix()))
        for b in np.linspace(-1.4, 1.4, 20):
            sys = SystemSpec(theta, LinearField(b * theta.matrix(), [1.0, 0.0]),
                             InvariantField(1.0, [0.0, 1.0]), ControlRange(-1.5, 1.5))
            rep = classify(sys)
            lo, hi = rep.details["interval"]
            end = hi if b > 0 else lo
            assert end != b and abs(end - b) <= 5e-8 * abs(b), (b, rep.details)
            want = "UniqueControlSetOpen" if b * tr_theta > 0 else "UniqueControlSetClosed"
            assert rep.taxonomy == want, (b, rep.details)


class TestAnisotropicDrift:
    """A = diag(1, 1e-9) on diagonal(0.5): the root 2e-9 sits next to zero and
    A(u) has singular values 1 and about 4e-10 where the rest-point check looks."""

    SYS = SystemSpec(ThetaFamily.diagonal(0.5), LinearField(np.diag([1.0, 1e-9]), [1.0, 1.0]),
                     InvariantField(1.0, [0.0, 1.0]), ControlRange(-0.5, 0.5))

    def test_rest_points_exist_wherever_a_of_u_has_full_rank(self):
        from solv3d.planar import a_of_u, equilibrium

        spec = conjugate_to_planar(self.SYS).planar
        rep = classify(self.SYS)
        assert rep.taxonomy == "UniqueControlSetOpen", rep.details
        hi = rep.details["interval"][1]
        for u in (0.6 * hi, 0.9 * hi):
            v = equilibrium(spec, u)
            res = a_of_u(spec, u) @ v + u * spec.eta
            assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(v)), u

    def test_verification_runs_its_rest_point_check(self):
        rep = classify(self.SYS)
        log = verify_classification(rep, self.SYS, budget=2000, horizon=6.0, seed=3)
        assert "rest-points-inside-estimate" in [c["name"] for c in log["checks"]]


class TestLevelTable:
    def test_equals_the_draw_formula(self):
        r = np.arange(6 * LEVELS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = np.where(r < 3 * LEVELS, r % 3, r // 3 - LEVELS + 3)
        assert reach._LEVEL_OF.shape == (6 * LEVELS,)
        assert reach._LEVEL_OF.tolist() == want.tolist()


class TestMarkerBatches:
    """``_mark`` against ``_mark_reference`` where the outside lanes borrow a cell."""

    BOX = ((-10.0, 10.0), (-10.0, 10.0))

    @staticmethod
    def batch(kind):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-9.9, 9.9, 1000), rng.uniform(-9.9, 9.9, 1000)
        if kind == "first-outside":
            x[0], y[3], x[5], y[9] = np.nan, np.inf, 1e300, -11.0
        elif kind == "all-outside":
            x[:] = 20.0
            x[:3], y[3:6] = np.nan, -np.inf
        return x, y

    @pytest.mark.parametrize("kind", ["first-outside", "all-outside", "all-inside"])
    def test_equals_reference(self, kind):
        x, y = self.batch(kind)
        got = np.zeros((64, 64), dtype=bool)
        want = np.zeros((64, 64), dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = _mark(got, x, y, self.BOX, 64)
        # the reference casts every lane: move the outside ones to finite
        # outside points first
        xr, yr = (np.clip(np.nan_to_num(c, nan=20.0), -20.0, 20.0) for c in (x, y))
        assert n == _mark_reference(want, xr, yr, self.BOX, 64)
        assert got.tobytes() == want.tobytes()
        if kind == "all-outside":
            assert n == 0 and not got.any()
        elif kind == "all-inside":
            assert n == x.size


def _csv_cell_loop(grid, estimate=None):
    """``grid_to_csv`` reading one numpy scalar per cell (oracle)."""
    xs, ys = grid.cell_centers()
    lines = ["x,y,forward,backward,estimate"]
    est = estimate.cells if estimate is not None else None
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            e = int(est[i, j]) if est is not None else 0
            lines.append(
                f"{x:.6f},{y:.6f},{int(grid.forward[i, j])},{int(grid.backward[i, j])},{e}"
            )
    return "\n".join(lines) + "\n"


def _pgm_cell_loop(bitmap):
    """``grid_to_pgm`` reading one numpy scalar per cell (oracle)."""
    res = bitmap.shape[0]
    rows = []
    for j in range(res - 1, -1, -1):
        rows.append(" ".join("255" if bitmap[i, j] else "0" for i in range(res)))
    return f"P2\n{res} {res}\n255\n" + "\n".join(rows) + "\n"


class TestExportsEqualCellLoops:
    @pytest.mark.parametrize("res", [8, 64, 256])
    @pytest.mark.parametrize("box", [((-10.0, 10.0), (-10.0, 10.0)), ((-4.0, 4.0), (-0.5, 0.5))],
                             ids=["square", "flat"])
    def test_byte_equal(self, res, box):
        rng = np.random.default_rng(res)
        fwd, bwd = rng.random((2, res, res)) < 0.4
        grid = ReachGrid(box, res, fwd, bwd)
        est = control_set_estimate(grid)
        assert grid_to_csv(grid, est) == _csv_cell_loop(grid, est)
        assert grid_to_csv(grid) == _csv_cell_loop(grid)
        for layer in (fwd, bwd, est.cells):
            assert grid_to_pgm(layer) == _pgm_cell_loop(layer)


# -- trajectories that never return to the box --------------------------------

SQUARE_BOX = ((-10.0, 10.0), (-10.0, 10.0))
OFF_CENTRE_BOX = ((-1.0, 3.0), (-2.0, 0.5))
SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])

# planar specs with one certified direction: forward for jordan and spiral,
# backward for diagonal
CERTIFIED = [
    PlanarSpec(1.2 * np.eye(2) + 0.5 * SHEAR, ThetaFamily.jordan(),
               np.array([0.3, -1.0]), ControlRange(-0.5, 0.4)),
    PlanarSpec(np.diag([-0.9, -1.3]), ThetaFamily.diagonal(-0.7),
               np.array([1.0, 0.5]), ControlRange(-0.6, 0.3)),
    PlanarSpec(0.8 * np.eye(2) + 1.1 * ROTATION.matrix(), ThetaFamily.spiral(0.4),
               np.array([0.7, -0.4]), ControlRange(-0.5, 0.5)),
]
CERTIFIED_IDS = ["jordan", "diagonal(-0.7)", "spiral(0.4)"]


def _scaled(spec, factor):
    return PlanarSpec(factor * spec.A, spec.theta, spec.eta, spec.omega)


def _mark_any_reference(bitmap, x, y, box, res):
    """``_mark_reference`` for any points (oracle): drops NaN and infinite
    points and clips the rest to one box width beyond the box, where they
    stay outside, so that every cast is of a finite, moderate float."""
    (x0, x1), (y0, y1) = box
    finite = np.isfinite(x) & np.isfinite(y)
    xs = np.clip(x[finite], 2 * x0 - x1, 2 * x1 - x0)
    ys = np.clip(y[finite], 2 * y0 - y1, 2 * y1 - y0)
    return _mark_reference(bitmap, xs, ys, box, res)


def _follow_every_lane(spec, v0, T, budget, seed=0, box=SQUARE_BOX, res=64,
                       arc_duration=2.0, samples_per_arc=8):
    """The sampler with no trajectory dropped (oracle): each batch's seeds and
    draws, every trajectory followed to the horizon and every sample marked
    with ``_mark_any_reference``.  A trajectory escapes at the first arc it
    starts beyond its direction's ``_escape_radius``, and every sample from
    there on counts as escaped.  Returns (forward, backward, inside, escaped)."""
    n_batches = -(-budget // _BATCH)
    sizes = [len(part) for part in np.array_split(np.arange(budget), n_batches)]
    seeds = np.random.SeedSequence(seed).spawn(2 * n_batches)
    arcs = [min(arc_duration, T - arc_duration * i)
            for i in range(int(np.ceil(T / arc_duration)))]
    fwd = np.zeros((res, res), dtype=bool)
    bwd = np.zeros((res, res), dtype=bool)
    inside = escaped = 0
    for i, n in enumerate(sizes):
        for d, (sign, bitmap) in enumerate(((+1.0, fwd), (-1.0, bwd))):
            rho = reach._escape_radius(spec, sign, box)
            rng = np.random.default_rng(seeds[2 * i + d])
            x = np.full(n, float(v0[0]))
            y = np.full(n, float(v0[1]))
            gone = np.zeros(n, dtype=bool)
            inside += _mark_any_reference(bitmap, x, y, box, res)
            with np.errstate(over="ignore", invalid="ignore"):
                for s in arcs:
                    if rho < np.inf:
                        gone |= ~(x * x + y * y <= rho * rho)
                    rows = _arc_table(spec, sign * s / samples_per_arc).T[_oracle_levels(rng, n)]
                    for _ in range(samples_per_arc):
                        x, y = (rows[:, 0] * x + rows[:, 1] * y + rows[:, 4],
                                rows[:, 2] * x + rows[:, 3] * y + rows[:, 5])
                        inside += _mark_any_reference(bitmap, x, y, box, res)
                        escaped += int(np.count_nonzero(gone))
    return fwd, bwd, inside, escaped


def _certified_specs(family, count, seed, box):
    """Seeded random planar specs of one family, each with its certified
    direction: (spec, sign) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b = rng.uniform(-1.5, 1.5, 2)
        if family == "spiral":
            theta = ThetaFamily.spiral(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0))
            A = a * np.eye(2) + b * ROTATION.matrix()
        elif family == "diagonal":
            theta = ThetaFamily.diagonal(rng.uniform(-1.0, 1.0))
            A = np.diag([a, b])
        else:
            theta = ThetaFamily.jordan()
            A = a * np.eye(2) + b * SHEAR
        spec = PlanarSpec(A, theta, rng.normal(0.0, 1.0, 2),
                          ControlRange(-rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
        out += [(spec, s) for s in (1.0, -1.0) if reach._escape_radius(spec, s, box) < np.inf]
    return out[:count]


FAMILY_SEEDS = {"spiral": 1, "diagonal": 2, "jordan": 3}


class TestEscapeRadius:
    @pytest.mark.parametrize("family", ["spiral", "diagonal", "jordan"])
    @pytest.mark.parametrize("box", [SQUARE_BOX, OFF_CENTRE_BOX], ids=["square", "off-centre"])
    def test_lanes_beyond_the_radius_never_reenter_the_box(self, family, box):
        # lanes start just beyond the radius at random angles; the first three
        # hold u_min, 0 and u_max throughout, the others draw a level per arc
        for k, (spec, sign) in enumerate(_certified_specs(family, 6, FAMILY_SEEDS[family], box)):
            rho = reach._escape_radius(spec, sign, box)
            rng = np.random.default_rng(k)
            angle = rng.uniform(0.0, 2.0 * np.pi, 500)
            x, y = rho * (1 + 1e-12) * np.cos(angle), rho * (1 + 1e-12) * np.sin(angle)
            table = _arc_table(spec, sign * 0.25)
            bitmap = np.zeros((64, 64), dtype=bool)
            for _ in range(15):
                levels = _draw_levels(rng, x.size)
                levels[:3] = [0, 1, 2]
                e00, e01, e10, e11, cx, cy = table[:, levels]
                for _ in range(8):
                    x, y = e00 * x + e01 * y + cx, e10 * x + e11 * y + cy
                    assert _mark_any_reference(bitmap, x, y, box, 64) == 0, (family, k)
                    assert np.all(np.hypot(x, y) >= rho / 2), (family, k)
            assert not bitmap.any()

    def test_radius_of_the_open_system(self):
        spec = conjugate_to_planar(OPEN_SYS).planar
        r_star = 0.5 * np.hypot(*spec.eta) / 1.0
        want = 2.0 * max(r_star, np.hypot(10.0, 10.0))
        assert reach._escape_radius(spec, 1.0, SQUARE_BOX) == pytest.approx(want, rel=1e-15)
        assert reach._escape_radius(spec, -1.0, SQUARE_BOX) == np.inf

    def test_box_and_drift_set_the_radius(self):
        # A = 2I with a unit eta: R* = 0.5 / 2, so the box corner decides
        spec = PlanarSpec(2.0 * np.eye(2), ROTATION, np.array([0.6, 0.8]), OMEGA)
        far = ((-1.0, 3.0), (-2.0, 40.0))
        assert reach._escape_radius(spec, 1.0, far) == pytest.approx(2 * np.hypot(3, 40))
        spec = PlanarSpec(0.01 * np.eye(2), ROTATION, np.array([0.6, 0.8]), OMEGA)
        assert reach._escape_radius(spec, 1.0, OFF_CENTRE_BOX) == pytest.approx(2 * 0.5 / 0.01)

    @pytest.mark.parametrize("spec", [
        conjugate_to_planar(WHOLE_SYS).planar,
        PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(0.5), np.array([1.0, 0.0]), OMEGA),
        # sym(A(u)) = (0.2 - u) I changes sign inside omega
        PlanarSpec(0.2 * np.eye(2), ThetaFamily.spiral(1.0), np.array([1.0, 0.0]), OMEGA),
        # definite at every level but u_max, where it is singular
        PlanarSpec(0.5 * np.eye(2), ThetaFamily.spiral(1.0), np.array([1.0, 0.0]), OMEGA),
    ], ids=["whole-group", "saddle", "sign-change", "singular-at-u-max"])
    def test_indefinite_symmetric_part_gives_inf(self, spec):
        for box in (SQUARE_BOX, OFF_CENTRE_BOX):
            assert reach._escape_radius(spec, 1.0, box) == np.inf
            assert reach._escape_radius(spec, -1.0, box) == np.inf


class TestDroppedLanes:
    @pytest.mark.parametrize("spec", CERTIFIED, ids=CERTIFIED_IDS)
    @pytest.mark.parametrize("box", [SQUARE_BOX, OFF_CENTRE_BOX], ids=["square", "off-centre"])
    def test_bitmaps_equal_per_trajectory_oracle(self, spec, box):
        assert min(reach._escape_radius(spec, s, box) for s in (1.0, -1.0)) < np.inf
        for budget, T, v0 in ((7, 12.0, (0.3, -0.2)), (2000, 12.0, (0.0, 0.0)),
                              (16_385, 7.0, (1.0, 0.5))):
            fwd, bwd, inside, _ = _follow_every_lane(spec, v0, T, budget, box=box)
            g = reach_sets(spec, v0, T, budget, box=box)
            assert g.forward.tobytes() == fwd.tobytes(), budget
            assert g.backward.tobytes() == bwd.tobytes(), budget
            assert g.points_outside == g.points - inside, budget
        assert g.points_escaped > 0

    @pytest.mark.parametrize("spec", [
        _scaled(CERTIFIED[0], 30.0),
        _scaled(CERTIFIED[1], 30.0),
        PlanarSpec(np.diag([30.0, -30.0]), ThetaFamily.diagonal(-0.7),
                   np.array([1.0, 0.5]), OMEGA),
    ], ids=["jordan-x30", "diagonal-x30", "saddle-x30"])
    @pytest.mark.parametrize("box", [SQUARE_BOX, OFF_CENTRE_BOX], ids=["square", "off-centre"])
    def test_overflowing_spec_equals_every_lane_oracle(self, spec, box):
        # the oracle follows every lane to the horizon, where the escaping ones
        # overflow to inf and NaN; the sampler drops them (saddle: no radius,
        # so its own lanes overflow)
        for budget, T in ((300, 30.0), (16_385, 12.0)):
            fwd, bwd, inside, escaped = _follow_every_lane(spec, (0.2, 0.1), T, budget, box=box)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = reach_sets(spec, (0.2, 0.1), T, budget, box=box)
            assert g.forward.tobytes() == fwd.tobytes(), budget
            assert g.backward.tobytes() == bwd.tobytes(), budget
            assert g.points_outside == g.points - inside, budget
            assert g.points_escaped == escaped, budget

    @pytest.mark.parametrize("system", [OPEN_SYS, CLOSED_SYS, WHOLE_SYS],
                             ids=["open", "closed", "whole"])
    def test_escaped_count_equals_every_lane_oracle(self, system):
        spec = conjugate_to_planar(system).planar
        _, _, inside, escaped = _follow_every_lane(spec, (0.0, 0.0), 30.0, 3000, seed=5)
        g = reach_sets(spec, np.zeros(2), 30.0, 3000, seed=5)
        assert (g.points_outside, g.points_escaped) == (g.points - inside, escaped)

    def test_every_arc_draws_the_whole_batch(self, monkeypatch):
        # each arc draws one level per trajectory of the batch, dropped ones
        # included, until no trajectory is left
        sizes = []

        def counting_draws(rng, n):
            sizes.append(n)
            return _draw_levels(rng, n)

        monkeypatch.setattr(reach, "_draw_levels", counting_draws)
        spec = conjugate_to_planar(OPEN_SYS).planar
        g = reach_sets(spec, np.zeros(2), 30.0, 3000, seed=1)
        forward, backward = sizes[:-15], sizes[-15:]
        assert backward == [3000] * 15
        assert 1 <= len(forward) <= 15 and set(forward) == {3000}
        if len(forward) < 15:
            # the batch ended early: every trajectory escaped
            assert g.points_escaped >= 3000 * (15 - len(forward) + 1) * 8
        # from beyond the radius every forward trajectory drops at the first
        # arc: one draw, and all 3000 * 15 * 8 forward samples escape
        sizes.clear()
        far = np.array([reach._escape_radius(spec, 1.0, SQUARE_BOX), 0.0]) * 1.01
        g = reach_sets(spec, far, 30.0, 3000, seed=1)
        assert sizes == [3000] * 16
        assert g.points_escaped == 3000 * 15 * 8


class TestEscapedPoints:
    def grid(self, system, seed=0, **kw):
        return reach_sets(conjugate_to_planar(system).planar, np.zeros(2), 30.0, 2000,
                          seed=seed, **kw)

    def test_open_forward_escapes(self):
        g = self.grid(OPEN_SYS)
        # only the forward direction of the Open system is certified
        assert reach._escape_radius(conjugate_to_planar(OPEN_SYS).planar, -1.0, SQUARE_BOX) == np.inf
        assert 0 < g.points_escaped <= g.points_outside

    def test_closed_backward_escapes(self):
        g = self.grid(CLOSED_SYS)
        assert 0 < g.points_escaped <= g.points_outside

    def test_whole_group_escapes_nothing(self):
        g = self.grid(WHOLE_SYS)
        assert g.points_escaped == 0

    @pytest.mark.parametrize("system", [OPEN_SYS, CLOSED_SYS, WHOLE_SYS],
                             ids=["open", "closed", "whole"])
    def test_never_above_outside_and_equal_on_rerun(self, system):
        for seed in (0, 1, 2):
            for box in (SQUARE_BOX, OFF_CENTRE_BOX):
                a = self.grid(system, seed, box=box)
                b = self.grid(system, seed, box=box)
                assert 0 <= a.points_escaped <= a.points_outside
                assert a.points_escaped == b.points_escaped

    def test_in_estimate_diagnostics_and_verification_log(self):
        g = self.grid(OPEN_SYS)
        assert control_set_estimate(g).diagnostics["points_escaped"] == g.points_escaped
        log = verify_classification(classify(OPEN_SYS), OPEN_SYS, budget=800, horizon=10.0)
        check = next(c for c in log["checks"] if c["name"] == "estimate-nonempty")
        assert 0 < check["points_escaped"] <= check["points_outside"]

    def test_positional_construction_defaults_to_zero(self):
        g = ReachGrid(((-1, 1), (-1, 1)), 8, np.zeros((8, 8), bool),
                      np.zeros((8, 8), bool))
        assert g.points_escaped == 0


class TestSamplingArguments:
    """Bad sampling arguments raise one ValueError before any sampling."""

    CASES = {
        "negative-arc": dict(arc_duration=-1.0),
        "zero-arc": dict(arc_duration=0.0),
        "infinite-arc": dict(arc_duration=np.inf),
        "nan-arc": dict(arc_duration=np.nan),
        "zero-samples": dict(samples_per_arc=0),
        "negative-samples": dict(samples_per_arc=-3),
        "negative-horizon": dict(T=-1.0),
        "infinite-horizon": dict(T=np.inf),
        "nan-horizon": dict(T=np.nan),
    }

    # arguments that only reach_sets checks
    SETS_CASES = {
        "coarse-grid": dict(resolution=4),
        "empty-box": dict(box=((0.0, 0.0), (-1.0, 1.0))),
        "reversed-box": dict(box=((1.0, -1.0), (-1.0, 1.0))),
        "infinite-box": dict(box=((-np.inf, 1.0), (-1.0, 1.0))),
        "nan-box": dict(box=((-1.0, 1.0), (np.nan, 1.0))),
        "nan-v0": dict(v0=np.array([np.nan, 0.0])),
        "infinite-v0": dict(v0=np.array([0.0, np.inf])),
        "fractional-budget": dict(budget=2.5),
        "zero-budget": dict(budget=0),
    }

    @pytest.mark.parametrize("case", [*CASES, *SETS_CASES])
    def test_reach_sets_rejects_before_sampling(self, monkeypatch, case):
        calls = []
        monkeypatch.setattr(reach, "_arc_table", lambda *a: calls.append(a))
        monkeypatch.setattr(reach, "_draw_levels", lambda *a: calls.append(a))
        args = dict(v0=np.zeros(2), T=30.0, budget=10_000)
        args.update(self.CASES.get(case) or self.SETS_CASES[case])
        with pytest.raises(ValueError) as err:
            reach_sets(closed_planar(), **args)
        assert "\n" not in str(err.value)
        assert calls == []

    def test_verification_rejects_an_empty_box(self):
        # an empty box used to sample every point outside it and fail both
        # checks of this correct Open verdict
        report = classify(OPEN_SYS)
        assert report.taxonomy == reach.TAX_OPEN
        with pytest.raises(ValueError, match="grid box"):
            verify_classification(report, OPEN_SYS, budget=64, horizon=2.0,
                                  box=((0.0, 0.0), (-1.0, 1.0)))

    @pytest.mark.parametrize("case", CASES)
    def test_reach_points_rejects(self, case):
        args = dict(T=30.0, budget=100)
        args.update(self.CASES[case])
        with pytest.raises(ValueError):
            reach_points(**args)

    def test_valid_arguments_still_count(self):
        assert reach_points(30.0, 100, arc_duration=0.5, samples_per_arc=1) == 2 * 100 * 61
