"""The benchmark's workloads: reach_grid, trajectory and cli_session.

Each workload is a closed loop with one caller and one operation in flight.
Every random input (reach seeds, control schedules, start points, planner
inputs) is drawn from ``numpy.random.default_rng([seed, ...])``, so a
workload seed fixes every input; solv3d only ever sees the generated inputs.
The canonical paper instances (criteria 5-8, including the criterion-7
verification seed) stay fixed.

Outputs are checked after the timed loop (``Recorder.run_checks``), so
oracles and byte comparisons never fall inside a timed interval.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg

import solv3d.covering as covering
import solv3d.plan as plan
import solv3d.planar as planar
import solv3d.reach as reach
import solv3d.system as system
from solv3d.group import GroupElement, GroupVariant
from solv3d.kernel2d import ThetaFamily
from solv3d.planar import ControlRange, PiecewiseControl, PlanarSpec
from solv3d.system import InvariantField, LinearField, SystemSpec

clock = time.perf_counter

FAMILIES = [
    ThetaFamily.jordan(),
    ThetaFamily.diagonal(1.0),
    ThetaFamily.diagonal(0.5),
    ThetaFamily.diagonal(0.0),
    ThetaFamily.diagonal(-0.7),
    ThetaFamily.spiral(0.0),
    ThetaFamily.spiral(1.0),
    ThetaFamily.spiral(-0.4),
]
ROTATION = ThetaFamily.spiral(0.0)
OMEGA_HALF = ControlRange(-0.5, 0.5)
OMEGA_ONE = ControlRange(-1.0, 1.0)
STEP = 1e-3
SIM_TOL = 1e-8  # endpoint vs oracle, relative to max(1, |endpoint|)
PLAN_TOL = 1e-6


def family_label(fam: ThetaFamily) -> str:
    return fam.tag if fam.gamma is None else f"{fam.tag}({fam.gamma:g})"


def make_system(theta, A, xi, alpha, eta, omega=OMEGA_HALF, variant=None) -> SystemSpec:
    kw = {} if variant is None else {"variant": variant}
    return SystemSpec(theta, LinearField(np.asarray(A, float), np.asarray(xi, float)),
                      InvariantField(float(alpha), np.asarray(eta, float)), omega, **kw)


def canonical(A, eta=(0.0, 0.0)) -> SystemSpec:
    """The criterion-5 rotation-family instances."""
    return make_system(ROTATION, A, [1.0, 0.0], 1.0, eta)


# -- reference computations ----------------------------------------------------

# On a machine shared with other tenants the speed of a core can change by
# 2x within seconds and stay changed for a minute. A fixed computation that
# never touches solv3d, timed right before and after every operation, says
# how fast the machine ran at that moment; an operation's time divided by it
# is its cost in reference runs, which holds steady while the machine's
# speed moves. Contention slows some kinds of work more than others, so each
# workload uses the reference closest to its own work (README.md, "Noise").
REFERENCE_S = 0.004  # seconds per reference run at reference speed (a fixed scale)
_REF_A = np.array([[0.3, -0.2], [0.1, 0.4]])
_REF_B = np.array([1.0, 0.5])
_REF_E = 0.01 * np.eye(2)
_REF_Z = np.linspace(0.0, 3.0, 20_000)


def reference_scalar() -> float:
    """One reference run of scalar 2x2 numpy steps in a Python loop, the kind
    of work kernel2d, simulate and the planners do; returns its wall seconds."""
    t0 = clock()
    x = np.zeros(2)
    for _ in range(400):
        x = (_REF_A @ _REF_A + _REF_E) @ x + _REF_B
        x = x / (1.0 + np.abs(x).max())
    return clock() - t0


def reference_array() -> float:
    """One reference run of whole-array numpy passes over 20 000 points, the
    kind of work reach's batches do; returns its wall seconds."""
    t0 = clock()
    for _ in range(8):
        y = np.cos(_REF_Z) * np.exp(-_REF_Z) + np.sin(_REF_Z) * _REF_Z
        np.floor(y * 64.0).astype(np.int64).sum()
    return clock() - t0


def in_reference_seconds(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds converted to seconds at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))


# -- accounting ----------------------------------------------------------------


class Recorder:
    """Counts attempted and failed operations; times each one between two
    runs of ``reference``; holds checks until after timing."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.times: dict[str, list[float]] = {}  # wall seconds per operation label
        self.costs: dict[str, list[float]] = {}  # the same at reference speed
        self._pending: list[tuple[str, object, object]] = []
        self.reference_runs: list[float] = []  # wall seconds of every reference run
        self._last_ref = (0.0, -1.0)  # (seconds, clock at its end) of the latest one

    def call(self, label: str, check, fn, *args, **kwargs):
        """Run one operation between two reference runs; return (result or
        None, wall seconds).

        ``check(result)`` runs later, in ``run_checks``, and returns an error
        message or None.
        """
        self.attempted += 1
        self.times.setdefault(label, [])
        self.costs.setdefault(label, [])
        ref_before = self._reference()
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is data, not a crash
            dt = clock() - t0
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None, dt
        dt = clock() - t0
        ref_after = self._reference()
        self.times[label].append(dt)
        self.costs[label].append(in_reference_seconds(dt, ref_before, ref_after))
        if check is not None:
            self._pending.append((label, check, result))
        return result, dt

    def _reference(self) -> float:
        """A reference run, or the one that ended just now (the run after one
        operation serves as the run before the next)."""
        seconds, end = self._last_ref
        if clock() - end > 0.01:
            seconds = self.reference()
            self._last_ref = (seconds, clock())
            self.reference_runs.append(seconds)
        return seconds

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {message}")

    def run_checks(self) -> None:
        pending, self._pending = self._pending, []
        for label, check, result in pending:
            try:
                message = check(result)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
            if message:
                self.fail(label, message)


@dataclass
class Timed:
    """One timed operation: its class, its exact input-class label, wall time, work."""

    kind: str
    label: str
    seconds: float
    work: float = 0.0


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    return float(xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2]))


def tail(values) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return float(xs[n - 11]), 100 * (n - 10) // n


def tail_note(values) -> str:
    return f"p{tail(values)[1]} of {len(values)} operations"


def rate(ops: list[Timed], *kinds: str) -> float:
    """Work per second over the operations of the given kinds."""
    picked = [op for op in ops if op.kind in kinds]
    return sum(op.work for op in picked) / sum(op.seconds for op in picked)


# -- reach_grid ----------------------------------------------------------------


@dataclass
class ReachCase:
    label: str
    spec: PlanarSpec
    taxonomy: str
    rest_points: list = field(default_factory=list)


class ReachGridWorkload:
    """reach_sets + control_set_estimate on the three criterion-5 systems.

    Long horizon, 64x64 grid, one thread: the batched exponential and the
    bitmap marking inside ``reach`` do nearly all the work; scalar kernel2d,
    simulate and process start-up do almost none.
    """

    name = "reach_grid"
    reference = staticmethod(reference_array)
    BOX = ((-10.0, 10.0), (-10.0, 10.0))
    WINDOW = ((-5.0, 5.0), (-5.0, 5.0))
    RES = 64

    def __init__(self, seed: int, work_dir: str, small: bool = False):
        self.seed = seed
        self.budget, self.horizon = (2_000, 20.0) if small else (10_000, 30.0)
        self.arc_duration, self.samples_per_arc = 2.0, 8
        self.cases = [
            ReachCase("open", self._planar(canonical(np.eye(2))), reach.TAX_OPEN),
            ReachCase("closed", self._planar(canonical(-np.eye(2))), reach.TAX_CLOSED),
            ReachCase("whole", self._planar(canonical(0.6 * ROTATION.matrix(), (1.0, 0.0))),
                      reach.TAX_WHOLE),
        ]
        # the rest points verify_classification probes for the Open verdict
        open_case = self.cases[0]
        lo, hi = planar.omega_hat(open_case.spec).component_of_zero
        open_case.rest_points = [planar.equilibrium(open_case.spec, float(u))
                                 for u in np.linspace(0.6 * lo, 0.6 * hi, 9)]

    @staticmethod
    def _planar(sys_spec: SystemSpec) -> PlanarSpec:
        return system.conjugate_to_planar(sys_spec).planar

    @property
    def arc_points(self) -> int:
        """Arc points one call samples: 2 * budget * ceil(T / arc) * samples per arc."""
        n_arcs = math.ceil(self.horizon / self.arc_duration)
        return 2 * self.budget * n_arcs * self.samples_per_arc

    def reach_seeds(self, round_index: int) -> list[int]:
        rng = np.random.default_rng([self.seed, round_index])
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=len(self.cases))]

    def op(self, case: ReachCase, reach_seed: int):
        grid = reach.reach_sets(case.spec, np.zeros(2), self.horizon, self.budget,
                                box=self.BOX, resolution=self.RES, seed=reach_seed,
                                arc_duration=self.arc_duration,
                                samples_per_arc=self.samples_per_arc)
        return grid, reach.control_set_estimate(grid)

    def check(self, case: ReachCase):
        def run(out):
            grid, est = out
            if case.taxonomy == reach.TAX_OPEN:
                cells = [grid.cell_of(v) for v in case.rest_points]
                missed = [c for c in cells if c is None or not est.cells[c]]
                if missed:
                    return f"{len(missed)} of {len(cells)} rest points outside the estimate"
            elif case.taxonomy == reach.TAX_CLOSED:
                if not est.cells.any():
                    return "empty control-set estimate"
            else:
                fill = reach.window_fill(grid, est.cells, self.WINDOW)
                if fill < 0.99:
                    return f"window fill {fill:.4f} < 0.99"
            return None
        return run

    def warm_up(self) -> None:
        grid = reach.reach_sets(self.cases[0].spec, np.zeros(2), 2.0, 64,
                                box=self.BOX, resolution=self.RES, seed=0)
        reach.control_set_estimate(grid)

    def round(self, rec: Recorder, index: int) -> list[Timed]:
        """One call per system; the work is the arc points sampled."""
        out = []
        for case, reach_seed in zip(self.cases, self.reach_seeds(index)):
            label = f"reach {case.label}"
            _, dt = rec.call(label, self.check(case), self.op, case, reach_seed)
            out.append(Timed("reach", label, dt, self.arc_points))
        return out

    def traced_round(self, rec: Recorder, stats=None) -> list[Timed]:
        return self.round(rec, 0)

    @staticmethod
    def details(ops: list[Timed], extra: list[Timed]) -> dict:
        times = [op.seconds for op in ops]
        return {
            "reach_points_per_s": (rate(ops, "reach"), "points/s", f"{len(ops)} calls"),
            "reach_call_s_tail": (tail(times)[0], "s", tail_note(times)),
        }

    def finish(self, rec: Recorder) -> list[Timed]:
        """A repeated call with the same seed must give the same bitmaps."""
        case, seed0 = self.cases[0], self.reach_seeds(0)[0]
        first, _ = rec.call("reach repeat", None, self.op, case, seed0)
        rec.call("reach repeat", lambda out: _same_bitmaps(first, out), self.op, case, seed0)
        return []


def _same_bitmaps(a, b):
    if a is None:
        return "the first call failed"
    (ga, ea), (gb, eb) = a, b
    same = (np.array_equal(ga.forward, gb.forward) and np.array_equal(ga.backward, gb.backward)
            and np.array_equal(ea.cells, eb.cells))
    return None if same else "repeated call with the same seed gave different bitmaps"


# -- trajectory ----------------------------------------------------------------


def theta_of(family: ThetaFamily) -> np.ndarray:
    """Structure matrix, written out independently of solv3d for the oracle."""
    if family.tag == "jordan":
        return np.array([[1.0, 1.0], [0.0, 1.0]])
    if family.tag == "diagonal":
        return np.diag([1.0, family.gamma])
    return np.array([[family.gamma, -1.0], [1.0, family.gamma]])


def oracle_endpoint(sys_spec: SystemSpec, g0: np.ndarray, pairs) -> np.ndarray:
    """Endpoint of a piecewise-constant run by DOP853 on an augmented linear ODE.

    State (t, v, rho_t, Lambda_t xi): with u constant, t' = u alpha,
    rho' = u alpha theta rho, (Lambda xi)' = u alpha rho xi and
    v' = A v + Lambda xi + u rho eta; scipy.linalg.expm gives the start values.
    """
    th, A = theta_of(sys_spec.theta), sys_spec.A
    xi, eta, alpha = sys_spec.xi, sys_spec.eta, sys_spec.alpha
    t0, v0 = float(g0[0]), np.asarray(g0[1:], float)
    block = np.zeros((3, 3))
    block[:2, :2], block[:2, 2] = th, xi
    rho0 = scipy.linalg.expm(t0 * th)
    lam0 = scipy.linalg.expm(t0 * block)[:2, 2]
    y = np.concatenate([[t0], v0, rho0.ravel(), lam0])

    def field(u):
        # y = (t, v1, v2, r00, r01, r10, r11, l1, l2); returns (M, c) with y' = M y + c
        M = np.zeros((9, 9))
        c = np.zeros(9)
        c[0] = u * alpha
        M[1:3, 1:3] = A
        M[1:3, 7:9] = np.eye(2)
        M[1, 3:5] = u * eta  # (rho eta)_1 = r00 e1 + r01 e2
        M[2, 5:7] = u * eta
        M[3:7, 3:7] = u * alpha * np.kron(th, np.eye(2))
        M[7, 3:5] = u * alpha * xi
        M[8, 5:7] = u * alpha * xi
        return M, c

    for duration, u in pairs:
        M, c = field(u)
        sol = scipy.integrate.solve_ivp(lambda _, z: M @ z + c, (0.0, duration), y,
                                        method="DOP853", rtol=1e-12, atol=1e-12)
        y = sol.y[:, -1]
    return y[:3]


@dataclass
class SimInput:
    label: str
    kind: str  # sim-long-full, sim-long-low or sim-short
    system: SystemSpec
    start: np.ndarray
    control: PiecewiseControl


class TrajectoryWorkload:
    """simulate, rank-zero verdicts and the planners, all in process.

    The scalar kernel2d calls, planar_solution, simulate/field_values and
    plan dominate; reach_sets is never called. Long-arc schedules give many
    samples per arc, short-arc schedules many arcs with few samples each.
    """

    name = "trajectory"
    reference = staticmethod(reference_scalar)
    LONG_ARCS = (2, 0.5)  # (arcs, time units per arc): 500 samples per arc
    SHORT_ARCS = (50, 0.02)  # 20 samples per arc
    PLANS_PER_KIND = 4

    def __init__(self, seed: int, work_dir: str, small: bool = False):
        self.seed = seed
        self.small = small
        self.systems = self._systems(np.random.default_rng([seed, 0]))
        self.rank0 = [
            (make_system(ThetaFamily.jordan(), np.zeros((2, 2)), [1.0, 1.0], 1.0, [0.0, 0.0]),
             reach.TAX_INFINITE),
            (make_system(ThetaFamily.diagonal(0.5), np.zeros((2, 2)), [1.0, 1.0], 1.0,
                         [0.0, 0.0]), reach.TAX_INFINITE),
            (make_system(ThetaFamily.spiral(1.0), np.zeros((2, 2)), [1.0, 0.0], 1.0,
                         [0.0, 0.0]), reach.TAX_CONTROLLABLE),
        ]
        # criterion 6 circle-hop system, the TestFiberSync generic transfer,
        # and the criterion 8 se2n system
        self.hop_spec = PlanarSpec(0.6 * ROTATION.matrix(), ROTATION, [1.0, 0.0], OMEGA_HALF)
        self.fiber_spec = PlanarSpec([[-1.0, -1.0], [1.0, -1.0]], ROTATION, [1.0, 0.0],
                                     OMEGA_ONE)
        r2 = planar.equilibrium(self.fiber_spec, 0.5)
        self.fiber_target = planar.planar_solution(
            self.fiber_spec, 0.7, planar.planar_solution(self.fiber_spec, 0.3, r2, -0.5), 0.5)
        self.se2n = make_system(ROTATION, -np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0], OMEGA_ONE,
                                GroupVariant(GroupVariant.SE2N, 1))

    # inputs ------------------------------------------------------------------

    def _systems(self, rng) -> list[tuple[str, SystemSpec, str]]:
        """One system per family, with a drift A = a I + b theta.

        Even-indexed families run long-arc schedules, odd-indexed ones
        short-arc schedules; families 0, 1, 4, 5 get a full-rank drift and
        2, 3, 6, 7 a low-rank one, so each schedule kind sees nilrank 2, 1
        and 0.
        """
        out = []
        for i, fam in enumerate(FAMILIES):
            th = theta_of(fam)
            if i % 4 < 2:
                A = self._full_rank_drift(rng, th)
            else:
                A = self._low_rank_drift(rng, fam, th)
            sys_spec = self._random_system(rng, fam, A)
            rank = system.nilrank(sys_spec)
            if i % 2:
                kind = "sim-short"
            else:
                kind = "sim-long-full" if rank == 2 else "sim-long-low"
            label = f"{'short' if i % 2 else 'long'} {family_label(fam)} nilrank {rank}"
            out.append((label, sys_spec, kind))
        return out[:4] if self.small else out

    @staticmethod
    def _full_rank_drift(rng, th):
        while True:
            A = rng.uniform(0.2, 0.5) * rng.choice([-1.0, 1.0]) * np.eye(2) \
                + rng.uniform(-0.4, 0.4) * th
            if abs(np.linalg.det(A)) >= 0.02:
                return A

    @staticmethod
    def _low_rank_drift(rng, fam, th):
        """b (theta - I) where that has rank one, else the zero drift."""
        N = th - np.eye(2)
        if fam.tag == "spiral" or np.max(np.abs(N)) == 0.0:
            return np.zeros((2, 2))
        return rng.uniform(0.2, 0.5) * rng.choice([-1.0, 1.0]) * N

    @staticmethod
    def _random_system(rng, fam, A):
        return make_system(fam, A, rng.normal(size=2), rng.uniform(0.5, 1.5),
                           0.5 * rng.normal(size=2), OMEGA_ONE)

    def sim_inputs(self, index: int) -> list[SimInput]:
        """Round ``index``: a fresh start point and schedule for every system."""
        rng = np.random.default_rng([self.seed, 1, index])
        out = []
        for label, sys_spec, kind in self.systems:
            start = np.array([rng.uniform(-1.0, 1.0), *rng.normal(size=2)])
            arcs = self.SHORT_ARCS if kind == "sim-short" else self.LONG_ARCS
            n_arcs, duration = arcs if not self.small else (arcs[0] // 10 or 1, arcs[1])
            out.append(SimInput(label, kind, sys_spec, start,
                                self._schedule(rng, sys_spec, n_arcs, duration)))
        return out

    @staticmethod
    def _schedule(rng, sys_spec, n_arcs, duration) -> PiecewiseControl:
        """Random controls on arcs of fixed length, so every seed does the same
        amount of work; controls stay clear of roots of det(A - alpha u theta),
        where the planar rest point is undefined."""
        th = theta_of(sys_spec.theta)
        full_rank = np.linalg.matrix_rank(sys_spec.A) == 2
        pairs = []
        while len(pairs) < n_arcs:
            u = float(rng.uniform(-1.0, 1.0))
            if full_rank and abs(np.linalg.det(sys_spec.A - sys_spec.alpha * u * th)) < 1e-3:
                continue
            pairs.append((duration, u))
        return PiecewiseControl.from_pairs(pairs)

    def plan_inputs(self) -> list[tuple[str, tuple]]:
        rng = np.random.default_rng([self.seed, 2])
        out = []
        for i in range(self.PLANS_PER_KIND if not self.small else 1):
            out.append(("circle_hop", (rng.normal(size=2) * rng.uniform(0.5, 5.0),)))
            out.append(("staircase", ((-1.0) ** i, *rng.uniform(-1.0, 1.0, size=2))))
            out.append(("fiber_sync", (rng.normal(size=2), float(rng.uniform(1.0, 5.0)))))
        return out

    # operations and their checks ---------------------------------------------

    @staticmethod
    def simulate(s: SimInput):
        g0 = GroupElement(s.start[0], s.start[1:])
        return system.simulate(g0, s.control, s.system, step=STEP)

    @staticmethod
    def sim_check(s: SimInput):
        def run(traj):
            expected = 1 + sum(max(1, math.ceil(d / STEP)) for d in s.control.durations)
            if len(traj.times) != expected:
                return f"{len(traj.times)} samples, expected {expected}"
            ref = oracle_endpoint(s.system, s.start, s.control.pairs())
            err = float(np.max(np.abs(traj.final_state - ref)))
            if not err <= SIM_TOL * max(1.0, float(np.max(np.abs(ref)))):
                return f"endpoint off the DOP853 oracle by {err:.3e}"
            return None
        return run

    @staticmethod
    def verdict(sys_spec: SystemSpec):
        rep = reach.classify(sys_spec)
        return rep.taxonomy, reach.verify_classification(rep, sys_spec)

    @staticmethod
    def verdict_check(expected: str):
        def run(out):
            tax, log = out
            if tax != expected:
                return f"taxonomy {tax}, expected {expected}"
            if not log["ok"]:
                return f"verification log not ok: {log['checks']}"
            return None
        return run

    def plan_op(self, kind: str, inputs: tuple):
        if kind == "circle_hop":
            return plan.circle_hop(self.hop_spec, inputs[0], 0.15, (-0.5, 0.5))
        if kind == "staircase":
            gamma, x, y = inputs
            return plan.staircase(gamma, 1.0, 2.0, x, y, OMEGA_ONE)
        v1, t2 = inputs
        return plan.fiber_sync(self.fiber_spec, (0.0, v1), (t2, self.fiber_target), -0.5, 0.5)

    def plan_check(self, kind: str, inputs: tuple):
        def run(res):
            if not res.error < PLAN_TOL:
                return f"endpoint error {res.error:.3e}"
            if kind == "circle_hop":
                back, _ = planar.concat_solution(self.hop_spec, res.achieved, res.return_control)
                err = float(np.max(np.abs(back - inputs[0])))
                if not err < PLAN_TOL:
                    return f"return error {err:.3e}"
            return None
        return run

    def covering_op(self, index: int):
        """An se2n trajectory, projected to the quotient and lifted back."""
        rng = np.random.default_rng([self.seed, 3, index])
        g0 = GroupElement(rng.uniform(0.0, 2.0 * np.pi), rng.normal(size=2))
        ctrl = PiecewiseControl.from_pairs(
            [(0.5, float(rng.uniform(-1.0, 1.0))) for _ in range(2 if not self.small else 1)])
        traj = system.simulate(g0, ctrl, self.se2n, step=STEP)
        down = covering.project_trajectory(self.se2n, traj)
        return traj, down, covering.lift_trajectory(self.se2n, down)

    @staticmethod
    def covering_check(out):
        traj, down, up = out
        t = down.states[:, 0]
        if t.min() < 0.0 or t.max() >= 2.0 * np.pi:
            return "projected t outside [0, 2 pi)"
        err = float(np.max(np.abs(up.states - traj.states)))
        if err > 1e-9:
            return f"lift of the projection is off the trajectory by {err:.3e}"
        return None

    # rounds ------------------------------------------------------------------

    def warm_up(self) -> None:
        ctrl = PiecewiseControl.from_pairs([(0.002, 0.1), (0.002, -0.1)])
        for _, sys_spec, _ in self.systems[:2]:
            system.simulate(GroupElement(0.0, np.zeros(2)), ctrl, sys_spec, step=STEP)
        reach.classify(self.rank0[0][0])
        for kind, inputs in self.plan_inputs()[:3]:  # one of each planner
            self.plan_op(kind, inputs)

    def round(self, rec: Recorder, index: int) -> list[Timed]:
        """Every simulate input, the planners and the se2n covering check.

        The work is the samples simulate returns. Simulate inputs are fresh in
        every round but cost the same (fixed arc lengths); planner inputs are
        the same in every round, because their cost depends on them.
        """
        out = []
        for s in self.sim_inputs(index):
            label = f"simulate {s.label}"
            traj, dt = rec.call(label, self.sim_check(s), self.simulate, s)
            out.append(Timed(s.kind, label, dt, 0 if traj is None else len(traj.times)))
        for i, (kind, inputs) in enumerate(self.plan_inputs()):
            label = f"{kind} #{i}"
            _, dt = rec.call(label, self.plan_check(kind, inputs), self.plan_op, kind, inputs)
            out.append(Timed("plan", label, dt))
        _, dt = rec.call("se2n project/lift", self.covering_check, self.covering_op, index)
        out.append(Timed("covering", "se2n project/lift", dt))
        return out

    def verdicts(self, rec: Recorder) -> list[Timed]:
        """classify + verify_classification of the three criterion-7 systems.

        The identity-return verification alone takes several seconds, so the
        verdicts run once per run, outside the rounds.
        """
        out = []
        for sys_spec, expected in self.rank0:
            label = f"verdict {family_label(sys_spec.theta)}"
            _, dt = rec.call(label, self.verdict_check(expected), self.verdict, sys_spec)
            out.append(Timed("verdict", label, dt))
        return out

    def traced_round(self, rec: Recorder, stats=None) -> list[Timed]:
        return self.round(rec, 0) + self.verdicts(rec)

    def details(self, ops: list[Timed], extra: list[Timed]) -> dict:
        verdicts = sum(op.seconds for op in extra)
        plans = [op.seconds for op in ops if op.kind == "plan"]
        return {
            "sim_fullrank_samples_per_s": (rate(ops, "sim-long-full"), "samples/s",
                                           "long arcs, nilrank 2"),
            "sim_lowrank_samples_per_s": (rate(ops, "sim-long-low"), "samples/s",
                                          "long arcs, nilrank 0 and 1"),
            "sim_shortarc_samples_per_s": (rate(ops, "sim-short"), "samples/s",
                                           "short arcs, nilrank 2, 1 and 0"),
            "rank0_verdict_s": (verdicts, "s", "the three verdicts, once per run"),
            "plan_call_s_p50": (median(plans), "s", f"median of {len(plans)} calls"),
        }

    def finish(self, rec: Recorder) -> list[Timed]:
        """The rank-zero verdicts, then a repeated simulate on the same input,
        which must return the same endpoint."""
        verdicts = self.verdicts(rec)
        s = self.sim_inputs(0)[0]
        first, _ = rec.call("simulate repeat", None, self.simulate, s)

        def same(traj):
            if first is None or not np.array_equal(traj.final_state, first.final_state):
                return "repeated simulate gave a different endpoint"
            return None

        rec.call("simulate repeat", same, self.simulate, s)
        return verdicts


# -- cli_session ---------------------------------------------------------------

CLI_SPECS = {
    "open": {"theta": {"family": "spiral", "gamma": 0.0}, "A": [[1.0, 0.0], [0.0, 1.0]],
             "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 0.0], "omega": [-0.5, 0.5]},
    "closed": {"theta": {"family": "spiral", "gamma": 0.0}, "A": [[-1.0, 0.0], [0.0, -1.0]],
               "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 0.0], "omega": [-0.5, 0.5]},
    "whole": {"theta": {"family": "spiral", "gamma": 0.0}, "A": [[0.0, -0.6], [0.6, 0.0]],
              "xi": [1.0, 0.0], "alpha": 1.0, "eta": [1.0, 0.0], "omega": [-0.5, 0.5]},
    "nilrank1": {"theta": {"family": "diagonal", "gamma": 0.5},
                 "A": [[0.0, 0.0], [0.0, -0.5]], "xi": [1.0, 1.0], "alpha": 1.0,
                 "eta": [0.0, 0.0], "omega": [-0.5, 0.5]},
    "se2n": {"theta": {"family": "spiral", "gamma": 0.0}, "A": [[-1.0, 0.0], [0.0, -1.0]],
             "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 0.0], "omega": [-0.5, 0.5],
             "variant": {"type": "se2n", "n": 1}},
    # A = diag(-1, 0): the trace-sign branch. The trace-zero (Controllable)
    # branch is left out because its verification raises LinAlgError (the
    # identity-return check solves with the singular diagonal(0) matrix).
    "aff_circle": {"theta": {"family": "diagonal", "gamma": 0.0},
                   "A": [[-1.0, 0.0], [0.0, 0.0]], "xi": [1.0, 1.0], "alpha": 1.0,
                   "eta": [0.0, 0.0], "omega": [-1.0, 1.0], "variant": {"type": "aff_circle"}},
    "jordan0": {"theta": {"family": "jordan"}, "A": [[0.0, 0.0], [0.0, 0.0]],
                "xi": [1.0, 1.0], "alpha": 1.0, "eta": [0.0, 0.0], "omega": [-0.5, 0.5]},
    "spiral0": {"theta": {"family": "spiral", "gamma": 1.0}, "A": [[0.0, 0.0], [0.0, 0.0]],
                "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 0.0], "omega": [-1.0, 1.0]},
    "alpha0": {"theta": {"family": "spiral", "gamma": 0.0}, "A": [[1.0, 0.0], [0.0, 1.0]],
               "xi": [1.0, 0.0], "alpha": 0.0, "eta": [0.0, 0.0], "omega": [-0.5, 0.5]},
}

# (spec, expected taxonomy) for classify with and without verification
VERIFIED = [
    ("open", reach.TAX_OPEN), ("closed", reach.TAX_CLOSED), ("whole", reach.TAX_WHOLE),
    ("nilrank1", reach.TAX_CLOSED), ("se2n", reach.TAX_CLOSED),
    ("aff_circle", reach.TAX_CLOSED), ("jordan0", reach.TAX_INFINITE),
]
UNVERIFIED = [("spiral0", reach.TAX_CONTROLLABLE)]


@dataclass
class CliCommand:
    label: str
    command: str  # classify | simulate | reach | plan
    args: list
    exit_code: int = 0
    taxonomy: str | None = None
    rerun_of: int | None = None  # index of the command whose artifacts must match


class CliSessionWorkload:
    """``python -m solv3d.cli`` subprocesses, one at a time.

    Interpreter start, imports, schema validation and artifact writing take
    most of each call; the numerical layers are light. Small verify budgets
    make reach's fixed per-call overhead dominate rather than per-sample work.
    """

    name = "cli_session"
    reference = staticmethod(reference_array)

    def __init__(self, seed: int, work_dir: str, small: bool = False):
        self.seed = seed
        self.small = small
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.work_dir = work_dir
        self.spec_dir = os.path.join(work_dir, "specs")
        os.makedirs(self.spec_dir, exist_ok=True)
        for name, spec in CLI_SPECS.items():
            with open(self.spec_path(name), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        import jsonschema

        with open(os.path.join(src, "solv3d", "report_schema.json"), encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self.child_rss_kib = 0

    def spec_path(self, name: str) -> str:
        return os.path.join(self.spec_dir, f"{name}.json")

    def session(self, index: int) -> list[CliCommand]:
        rng = np.random.default_rng([self.seed, index])
        seed = str(int(rng.integers(0, 2**31 - 1)))
        # below horizon 15 the WholeGroup window fill stays under 0.99 at this budget
        verify = ["--budget", "5000", "--horizon", "15"]
        cmds = [CliCommand(f"classify {name}", "classify",
                           ["classify", self.spec_path(name), *verify, "--seed", seed],
                           taxonomy=tax) for name, tax in VERIFIED]
        cmds += [CliCommand(f"classify {name} --no-verify", "classify",
                            ["classify", self.spec_path(name), "--no-verify"], taxonomy=tax)
                 for name, tax in UNVERIFIED]
        cmds.append(CliCommand("classify alpha0", "classify",
                               ["classify", self.spec_path("alpha0"), "--no-verify"],
                               exit_code=2, taxonomy=reach.TAX_UNCLASSIFIED))
        reach_args = ["--budget", "2000", "--horizon", "5"] if self.small else []
        cmds.append(CliCommand("reach whole", "reach",
                               ["reach", self.spec_path("whole"), *reach_args, "--seed", seed]))
        ctrl_path = os.path.join(self.work_dir, f"control-{index}.csv")
        with open(ctrl_path, "w", encoding="utf-8") as fh:
            fh.write("duration,value\n")
            for _ in range(4):  # fixed arc lengths: every session costs the same
                fh.write(f"0.4,{rng.uniform(-0.5, 0.5)!r}\n")
        start = ",".join(repr(float(x)) for x in (0.0, *rng.normal(size=2)))
        cmds.append(CliCommand("simulate se2n --svg", "simulate",
                               ["simulate", self.spec_path("se2n"), "--control", ctrl_path,
                                f"--start={start}", "--svg"]))
        x, y = rng.uniform(-1.0, 1.0, size=2)
        cmds.append(CliCommand("plan staircase", "plan",
                               ["plan", "staircase", self.spec_path("spiral0"),
                                f"--x={float(x)!r}", f"--y={float(y)!r}"]))
        v0 = rng.normal(size=2) * rng.uniform(0.5, 5.0)
        cmds.append(CliCommand("plan circle-hop", "plan",
                               ["plan", "circle-hop", self.spec_path("whole"),
                                f"--v0={float(v0[0])!r},{float(v0[1])!r}", "--u0=0.15"]))
        first = cmds[0]
        cmds.append(CliCommand(f"{first.label} (rerun)", first.command, list(first.args),
                               taxonomy=first.taxonomy, rerun_of=0))
        return cmds

    def out_dir(self, session: int, i: int) -> str:
        return os.path.join(self.work_dir, "runs", f"s{session}", f"c{i:02d}")

    def spawn(self, argv: list[str], log_path: str) -> int:
        """Run one child to completion and return its exit code."""
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work_dir)
            # wait4 reaps the child and reports its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        return proc.returncode

    def run_command(self, cmd: CliCommand, out_dir: str) -> int:
        os.makedirs(out_dir, exist_ok=True)
        argv = [sys.executable, "-m", "solv3d.cli", *cmd.args, "--out-dir", out_dir]
        return self.spawn(argv, out_dir + ".log")

    def invoke(self, runner, cmd: CliCommand, out_dir: str) -> int:
        """The in-process equivalent of ``run_command``, through solv3d.cli.main."""
        import solv3d.cli as cli

        os.makedirs(out_dir, exist_ok=True)
        result = runner.invoke(cli.main, [*cmd.args, "--out-dir", out_dir])
        with open(out_dir + ".log", "w", encoding="utf-8") as log:
            log.write(result.output)
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                log.write("".join(traceback.format_exception(*result.exc_info)))
        return result.exit_code

    def check(self, cmd: CliCommand, out_dir: str, rerun_dir: str | None):
        def run(exit_code):
            if exit_code != cmd.exit_code:
                with open(out_dir + ".log", encoding="utf-8", errors="replace") as fh:
                    last = fh.read().strip().splitlines()[-1:] or [""]
                return f"exit code {exit_code}, expected {cmd.exit_code}: {last[0]}"
            return self.check_artifacts(cmd, out_dir, rerun_dir)
        return run

    def check_artifacts(self, cmd: CliCommand, out_dir: str, rerun_dir: str | None):
        names = sorted(os.listdir(out_dir))
        for name in names:
            if name.endswith(".json"):
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    report = json.load(fh)
                errors = sorted(self.validator.iter_errors(report), key=str)
                if errors:
                    return f"{name} fails report_schema.json: {errors[0].message}"
        if cmd.command == "classify":
            with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            tax = report["classification"]["taxonomy"]
            if tax != cmd.taxonomy:
                return f"taxonomy {tax}, expected {cmd.taxonomy}"
            if not report["verification"]["ok"]:
                return "verification log not ok"
        elif cmd.command == "reach":
            with open(os.path.join(out_dir, "reach_report.json"), encoding="utf-8") as fh:
                diag = json.load(fh)["reach"]["diagnostics"]
            if diag["estimate_cells"] <= 0:
                return "empty control-set estimate"
        elif cmd.command == "simulate":
            if names != ["trajectory.csv", "trajectory.svg"]:
                return f"unexpected artifacts {names}"
        elif cmd.command == "plan":
            with open(os.path.join(out_dir, "plan_report.json"), encoding="utf-8") as fh:
                err = json.load(fh)["plan"]["endpoint_error"]
            if not err < PLAN_TOL:
                return f"planner endpoint error {err:.3e}"
        if rerun_dir is not None:
            for name in sorted(set(names) | set(os.listdir(rerun_dir))):
                a, b = os.path.join(out_dir, name), os.path.join(rerun_dir, name)
                if not (os.path.exists(a) and os.path.exists(b)) or _read(a) != _read(b):
                    return f"rerun with the same seed changed {name}"
        return None

    def warm_up(self) -> None:
        cmd = CliCommand("warm-up", "classify",
                         ["classify", self.spec_path("spiral0"), "--no-verify"])
        self.run_command(cmd, os.path.join(self.work_dir, "warm-up"))

    def round(self, rec: Recorder, index: int) -> list[Timed]:
        """Session ``index`` as subprocesses; the work is the calls completed."""
        out = []
        for i, cmd in enumerate(self.session(index)):
            out_dir = self.out_dir(index, i)
            rerun_dir = None if cmd.rerun_of is None else self.out_dir(index, cmd.rerun_of)
            _, dt = rec.call(cmd.label, self.check(cmd, out_dir, rerun_dir),
                             self.run_command, cmd, out_dir)
            out.append(Timed("cli", cmd.label, dt, 1))
        return out

    @staticmethod
    def details(ops: list[Timed], extra: list[Timed]) -> dict:
        walls = [op.seconds for op in ops]
        return {
            "cli_wall_s_p50": (median(walls), "s", f"median of {len(walls)} calls"),
            "cli_wall_s_tail": (tail(walls)[0], "s", tail_note(walls)),
        }

    def traced_round(self, rec: Recorder, stats=None) -> list[Timed]:
        """Session 0 through ``solv3d.cli.main`` in this process, so that the
        wrappers see the CLI's calls."""
        from click.testing import CliRunner

        runner = CliRunner()
        base = os.path.join(self.work_dir, "inproc")
        out = []
        for i, cmd in enumerate(self.session(0)):
            out_dir = os.path.join(base, f"c{i:02d}")
            rerun_dir = None if cmd.rerun_of is None else os.path.join(base, f"c{cmd.rerun_of:02d}")
            code, dt = rec.call(cmd.label, self.check(cmd, out_dir, rerun_dir),
                                self.invoke, runner, cmd, out_dir)
            out.append(Timed("cli", cmd.label, dt, 1))
            if stats is not None:
                stats[f"cli.{cmd.command}.wall_s"] += dt
                stats["cli.exit_unexpected"] += int(code != cmd.exit_code)
                for name in os.listdir(out_dir):
                    stats["cli.artifacts"] += 1
                    stats["cli.artifact_bytes"] += os.path.getsize(os.path.join(out_dir, name))
        return out

    def finish(self, rec: Recorder) -> list[Timed]:
        """Each session already reruns one command and compares its bytes."""
        return []


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (ReachGridWorkload, TrajectoryWorkload, CliSessionWorkload)}
