"""Tests for reachable-set sampling, estimation and the taxonomy classifier."""

import numpy as np
import pytest

from solv3d.group import GroupVariant
from solv3d.kernel2d import ThetaFamily, arc, arc_matrices
from solv3d.planar import ControlRange, PlanarSpec
from solv3d.reach import (
    N_CHUNKS,
    _BATCH,
    _batches,
    _draw_controls,
    _mark,
    ClassificationReport,
    _pairing_monotone,
    _pairing_rates,
    ReachGrid,
    classify,
    control_set_estimate,
    convergence_diagnostic,
    grid_to_csv,
    grid_to_pgm,
    reach_sets,
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

    def test_convergence_diagnostic(self):
        sp = closed_planar()
        rows = convergence_diagnostic(sp, np.zeros(2), 4.0, (200, 400), seed=0)
        assert rows[0]["delta"] is None
        assert rows[1]["delta"] == rows[1]["forward_cells"] - rows[0]["forward_cells"]


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


def _scalar_pairing(sys, cert, seed):
    """The pairing sweep drawn and evaluated one sample at a time (oracle)."""
    rng = np.random.default_rng(seed)
    rates = []
    for _ in range(10_000):
        t = rng.uniform(-8.0, 8.0)
        u = rng.uniform(sys.omega.u_min, sys.omega.u_max)
        rho, lam = arc_matrices(sys.theta_matrix, t)
        rates.append(float((lam @ sys.xi + u * (rho @ sys.eta)) @ cert.xi_hat.vector))
    rates = np.array(rates)
    if np.max(np.abs(sys.eta)) == 0.0:
        return rates, bool(rates.min() >= -1e-12)
    return rates, bool(cert.min_g >= -1e-12)


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
        for seed in (0, 3):
            scalar, verdict = _scalar_pairing(sys, cert, seed)
            batched = _pairing_rates(sys, cert.xi_hat.vector, seed)
            scale = np.maximum(1.0, np.abs(scalar))
            assert np.max(np.abs(batched - scalar) / scale) <= 1e-13
            assert abs(batched.min() - scalar.min()) <= 1e-13 * max(1.0, abs(scalar.min()))
            assert _pairing_monotone(sys, cert, seed) == verdict

    def test_block_draws_equal_interleaved_scalar_draws(self):
        lo, hi = -1.0, 2.0
        block = np.random.default_rng(11).random((10_000, 2))
        rng = np.random.default_rng(11)
        scalar = np.array([(rng.uniform(-8.0, 8.0), rng.uniform(lo, hi))
                           for _ in range(10_000)])
        assert np.array_equal(-8.0 + 16.0 * block[:, 0], scalar[:, 0])
        assert np.array_equal(lo + (hi - lo) * block[:, 1], scalar[:, 1])


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
    def test_bitmaps_equal_per_chunk_oracle_at_any_thread_count(
        self, monkeypatch, system, T, v0
    ):
        spec = conjugate_to_planar(system).planar
        for budget in self.BUDGETS:
            fwd, bwd = _per_chunk_reach(spec, v0, T, budget)
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("SOLV3D_THREADS", threads)
                g = reach_sets(spec, v0, T, budget)
                assert g.forward.tobytes() == fwd.tobytes(), (budget, threads)
                assert g.backward.tobytes() == bwd.tobytes(), (budget, threads)

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
