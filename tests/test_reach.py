"""Tests for reachable-set sampling, estimation and the taxonomy classifier."""

import warnings

import numpy as np
import pytest

from solv3d.group import GroupVariant
from solv3d.kernel2d import ThetaFamily, arc, lambda_op
from solv3d.planar import ControlRange, PlanarSpec
from solv3d.reach import (
    N_CHUNKS,
    _BATCH,
    _batches,
    _control_draws,
    _distinct_controls,
    _draw_controls,
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
                      np.zeros((4, 4), bool), 1.0, 10, 0, np.zeros(2))

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
        g = ReachGrid(((-1, 1), (-1, 1)), res, fwd, np.zeros((res, res), bool),
                      1.0, 10, 0, np.zeros(2))
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
            g = ReachGrid(((-1, 1), (-1, 1)), res, fwd, bwd, 1.0, 10, 0, np.zeros(2))
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

    def test_controllable_identity_return(self):
        sys = SystemSpec(ThetaFamily.spiral(1.0),
                         LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        log = verify_classification(classify(sys), sys)
        assert log["ok"], log

    def test_symbolic_branch(self):
        sys = SystemSpec(ThetaFamily.diagonal(0.5),
                         LinearField(np.diag([2.0, 0.0]), [1.0, 1.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        log = verify_classification(classify(sys), sys)
        assert log["checks"][0]["name"] == "symbolic-only"


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


def _chunk_direction(spec, v0, T, n_traj, rng, bitmap, box, res, sign,
                     arc_duration, samples_per_arc):
    """One chunk of one time direction on its own, as a separate array."""
    A, th, eta = spec.A, spec.theta_matrix, spec.eta
    x = np.full(n_traj, float(v0[0]))
    y = np.full(n_traj, float(v0[1]))
    _mark(bitmap, x, y, box, res)
    elapsed = 0.0
    for _ in range(int(np.ceil(T / arc_duration))):
        u = _draw_controls(rng, n_traj, spec.omega)
        s = min(arc_duration, T - elapsed)
        (e00, e01, e10, e11), (w00, w01, w10, w11) = arc(
            A[0, 0] - u * th[0, 0], A[0, 1] - u * th[0, 1],
            A[1, 0] - u * th[1, 0], A[1, 1] - u * th[1, 1],
            sign * s / samples_per_arc,
        )
        cx = u * (w00 * eta[0] + w01 * eta[1])
        cy = u * (w10 * eta[0] + w11 * eta[1])
        for _ in range(samples_per_arc):
            x, y = e00 * x + e01 * y + cx, e10 * x + e11 * y + cy
            _mark(bitmap, x, y, box, res)
        elapsed += s


def _per_chunk_reach(spec, v0, T, budget, seed=0, box=((-10.0, 10.0), (-10.0, 10.0)),
                     res=64, arc_duration=2.0, samples_per_arc=8):
    """The sampler one chunk and direction at a time, merged by union (oracle)."""
    seeds = np.random.SeedSequence(seed).spawn(2 * N_CHUNKS)
    sizes = [budget // N_CHUNKS] * N_CHUNKS
    sizes[-1] += budget - sum(sizes)
    fwd = np.zeros((res, res), dtype=bool)
    bwd = np.zeros((res, res), dtype=bool)
    for i, n in enumerate(sizes):
        if n == 0:
            continue
        for sign, merged in ((+1.0, fwd), (-1.0, bwd)):
            bitmap = np.zeros((res, res), dtype=bool)
            rng = np.random.default_rng(seeds[2 * i + (0 if sign > 0 else 1)])
            _chunk_direction(spec, np.asarray(v0, float), T, n, rng, bitmap, box, res,
                             sign, arc_duration, samples_per_arc)
            merged |= bitmap
    return fwd, bwd


class TestBatchedSampling:
    BUDGETS = (1, 7, 9, 100, 1001, 10_000, 40_000)
    RUNS = [(7.0, (0.3, -0.2)), (12.0, (0.0, 0.0))]

    @pytest.mark.parametrize("system", [OPEN_SYS, CLOSED_SYS, WHOLE_SYS],
                             ids=["open", "closed", "whole"])
    @pytest.mark.parametrize("T, v0", RUNS, ids=["T7", "T12"])
    def test_bitmaps_equal_per_chunk_oracle_at_any_thread_count(self, system, T, v0):
        spec = conjugate_to_planar(system).planar
        for budget in self.BUDGETS:
            fwd, bwd = _per_chunk_reach(spec, v0, T, budget)
            g = reach_sets(spec, v0, T, budget)
            assert g.forward.tobytes() == fwd.tobytes(), budget
            assert g.backward.tobytes() == bwd.tobytes(), budget

    def test_batches_hold_whole_chunks(self):
        assert _batches([1250] * 8) == [list(range(8))]
        assert _batches([5000] * 8) == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert _batches([12_500] * 8) == [[i] for i in range(8)]
        assert _batches([0] * 7 + [7]) == [[7]]
        assert _batches([_BATCH // 2] * 3) == [[0, 1], [2]]


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
                      np.zeros((8, 8), bool), 1.0, 10, 0, np.zeros(2))
        assert (g.points, g.points_outside) == (0, 0)


def _mark_reference(bitmap, x, y, box, res):
    """The marker as two int casts and a 2-D scatter (oracle for finite points)."""
    (x0, x1), (y0, y1) = box
    ix = np.floor((x - x0) / (x1 - x0) * res).astype(np.int64)
    iy = np.floor((y - y0) / (y1 - y0) * res).astype(np.int64)
    ok = (ix >= 0) & (ix < res) & (iy >= 0) & (iy < res)
    bitmap[ix[ok], iy[ok]] = True
    return int(np.count_nonzero(ok))


def _choose_controls(rng, n, omega):
    """The control draws written with ``np.choose`` (oracle)."""
    bang = rng.random(n) < 0.5
    pick = rng.integers(0, 3, size=n)
    bang_vals = np.choose(pick, [omega.u_min, 0.0, omega.u_max])
    uni = rng.uniform(omega.u_min, omega.u_max, size=n)
    return np.where(bang, bang_vals, uni)


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


class TestControlDraws:
    RANGES = [OMEGA, ControlRange(-1.0, 2.0), ControlRange(-1e-3, 7.5),
              ControlRange(-3.0, 0.25)]

    @pytest.mark.parametrize("omega", RANGES, ids=["sym", "wide", "skew", "neg"])
    def test_table_equals_choose(self, omega):
        for seed, n in ((0, 1), (1, 7), (2, 1250), (3, 10_000)):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _draw_controls(a, n, omega).tobytes() == _choose_controls(b, n, omega).tobytes()
            # both consumed the generator alike
            assert a.random() == b.random()

    @pytest.mark.parametrize("omega", RANGES, ids=["sym", "wide", "skew", "neg"])
    def test_distinct_values_gather_to_the_draws(self, omega):
        for seed, n in ((0, 1), (1, 2), (2, 3), (3, 9), (4, 10_000)):
            u = _draw_controls(np.random.default_rng(seed), n, omega)
            values, index = _distinct_controls(
                *_control_draws(np.random.default_rng(seed), n, omega), omega)
            assert values[index].tobytes() == u.tobytes()
            # the same set of values, so arc's batch norm is the same
            assert set(values.tolist()) == set(u.tolist())
            assert len(values) <= n

    def test_distinct_values_shrink_the_batch(self):
        values, index = _distinct_controls(
            *_control_draws(np.random.default_rng(5), 10_000, OMEGA), OMEGA)
        assert len(values) < 5_300 and index.shape == (10_000,)


class TestReachGridShape:
    """The benchmark's reach_grid call: T = 30, budget 10 000, box +-10, res 64."""

    @pytest.mark.parametrize("system", [OPEN_SYS, CLOSED_SYS, WHOLE_SYS],
                             ids=["open", "closed", "whole"])
    def test_bitmaps_equal_per_chunk_oracle(self, system):
        spec = conjugate_to_planar(system).planar
        fwd, bwd = _per_chunk_reach(spec, (0.0, 0.0), 30.0, 10_000, seed=7)
        g = reach_sets(spec, np.zeros(2), 30.0, 10_000, seed=7)
        assert g.forward.tobytes() == fwd.tobytes()
        assert g.backward.tobytes() == bwd.tobytes()
        assert g.points == reach_points(30.0, 10_000) == 2 * 10_000 * (1 + 15 * 8)


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
