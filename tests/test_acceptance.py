"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each criterion gets a summary line "criterion N: PASS/FAIL (...)" in the
terminal summary (see conftest.py).
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import expm as scipy_expm

from solv3d.cli import main as cli_main
from solv3d.group import GroupElement, conjugate, identity, inverse, multiply, rho
from solv3d.kernel2d import ThetaFamily, expm, lambda_op
from solv3d.planar import (
    ControlRange,
    PiecewiseControl,
    PlanarSpec,
    a_of_u,
    concat_solution,
    equilibrium,
    equilibrium_derivative,
    exceptional_control,
    planar_solution,
)
from solv3d.plan import _h2, circle_hop, h2_zero, h_functions, staircase
from solv3d.reach import classify, verify_classification
from solv3d.system import (
    InvariantField,
    LinearField,
    SystemSpec,
    adrank,
    derivation_matrix,
    drift_flow,
    larc,
    nilrank,
)

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


def make_system(theta, A, xi, alpha, eta, omega=OMEGA_HALF, variant=None):
    kw = {} if variant is None else {"variant": variant}
    return SystemSpec(theta, LinearField(A, xi), InvariantField(alpha, eta), omega, **kw)


def lambda_block_oracle(B, t, v):
    # int_0^t e^{sB} v ds is the off-diagonal block of a 3x3 exponential
    M = np.zeros((3, 3))
    M[:2, :2] = B
    M[:2, 2] = v
    return (scipy_expm(t * M))[:2, 2]


def test_criterion_1_kernel_exactness():
    # closed-form expm and lambda_op vs independent series oracles,
    # 500 randomized cases per structure family, within 1e-9, under 5 s
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for family in FAMILIES:
        th = family.matrix()
        for _ in range(500):
            t = rng.uniform(-4.0, 4.0)
            v = rng.normal(size=2)
            assert np.max(np.abs(expm(th, t) - scipy_expm(t * th))) < 1e-9
            assert np.max(np.abs(lambda_op(th, t, v) - lambda_block_oracle(th, t, v))) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"kernel oracle run took {elapsed:.2f}s"


def test_criterion_2_group_flow_laws():
    # group axioms, the translation-conjugation identity, the
    # flow-automorphism property and (d phi_s)_e = e^{s D} by finite
    # differences (tol 1e-5), 1000 randomized cases, under 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    drift_for = {
        "jordan": lambda: np.array([[1.0, rng.normal()], [0.0, 1.0]]) - np.eye(2)
        + rng.normal() * np.eye(2),
        "diagonal": lambda: np.diag(rng.normal(size=2)),
        "spiral": lambda: rng.normal() * np.eye(2) + rng.normal() * ROTATION.matrix(),
    }
    for i in range(1000):
        fam = FAMILIES[i % len(FAMILIES)]
        a = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
        b = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
        c = GroupElement(rng.uniform(-2, 2), rng.normal(size=2))
        # associativity and inverses
        lhs = multiply(multiply(a, b, fam), c, fam)
        rhs = multiply(a, multiply(b, c, fam), fam)
        assert np.max(np.abs(lhs.as_array() - rhs.as_array())) < 1e-9
        e = multiply(a, inverse(a, fam), fam)
        assert np.max(np.abs(e.as_array())) < 1e-9
        # conjugating a translation yields (0, rho_t w)
        w = rng.normal(size=2)
        conj = conjugate(a, GroupElement(0.0, w), fam)
        assert abs(conj.t) < 1e-10
        assert np.max(np.abs(conj.v - rho(fam, a.t) @ w)) < 1e-9

        if fam.tag == "diagonal" and fam.gamma == 1.0:
            A = drift_for["diagonal"]()  # any matrix commutes; keep it simple
        else:
            A = drift_for[fam.tag]()
        sys = make_system(fam, A, rng.normal(size=2), 1.0, [0.0, 0.0],
                          ControlRange(-1, 1))
        s = rng.uniform(-1.0, 1.0)
        # flow of the drift is a one-parameter automorphism group
        lhs = drift_flow(s, multiply(a, b, fam), sys)
        rhs = multiply(drift_flow(s, a, sys), drift_flow(s, b, sys), fam)
        assert np.max(np.abs(lhs.as_array() - rhs.as_array())) < 1e-7
        if i % 10 == 0:
            expected = scipy_expm(s * derivation_matrix(sys))
            h = 1e-6
            jac = np.zeros((3, 3))
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                gp = GroupElement(step[0], step[1:])
                gm = GroupElement(-step[0], -step[1:])
                diff = (drift_flow(s, gp, sys).as_array()
                        - drift_flow(s, gm, sys).as_array())
                jac[:, j] = diff / (2.0 * h)
            assert np.max(np.abs(jac - expected)) < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"group/flow law run took {elapsed:.2f}s"


def test_criterion_3_rank_conditions():
    # on randomized rank-1 drifts the two rank conditions are equivalent;
    # common-eigenvector configurations always fail the weaker one
    rng = np.random.default_rng(300)
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    checked = 0
    while checked < 200:
        kind = rng.integers(0, 4)
        if kind == 0:
            th, A = ThetaFamily.jordan(), rng.normal() * N
        elif kind == 1:
            th, A = ThetaFamily.diagonal(0.5), np.diag([rng.normal(), 0.0])
        elif kind == 2:
            th, A = ThetaFamily.diagonal(-0.7), np.diag([0.0, rng.normal()])
        else:
            th = ThetaFamily.diagonal(1.0)
            A = np.outer(rng.normal(size=2), rng.normal(size=2))
        probe = make_system(th, A, [0.0, 0.0], 1.0, [0.0, 0.0], ControlRange(-1, 1))
        if nilrank(probe) != 1:
            continue
        sys = make_system(th, A, rng.normal(size=2), float(rng.normal() or 1.0),
                          rng.normal(size=2), ControlRange(-1, 1))
        assert larc(sys).holds == adrank(sys).holds
        checked += 1

    # constructed common-eigenvector specs: the direction is fixed by both maps
    eig_cases = [
        make_system(ThetaFamily.diagonal(0.5), np.eye(2), [1.0, 0.0], 1.0,
                    [0.0, 0.0], ControlRange(-1, 1)),
        make_system(ThetaFamily.diagonal(0.5), np.diag([2.0, 3.0]), [0.0, 1.0],
                    1.0, [0.0, 0.0], ControlRange(-1, 1)),
        make_system(ThetaFamily.jordan(), 2.0 * np.eye(2), [1.0, 0.0], 1.0,
                    [0.0, 0.0], ControlRange(-1, 1)),
    ]
    for sys in eig_cases:
        assert not larc(sys).holds


def test_criterion_4_planar_machinery():
    spec = PlanarSpec([[-1.0, -0.5], [0.5, -1.0]], ROTATION, [1.0, 2.0],
                      ControlRange(-1, 1))
    rng = np.random.default_rng(400)

    # equilibrium residual
    for u in rng.uniform(-1, 1, size=100):
        v = equilibrium(spec, u)
        assert np.max(np.abs(a_of_u(spec, u) @ v + u * spec.eta)) < 1e-11

    # derivative vs finite differences
    h = 1e-6
    for u in rng.uniform(-0.9, 0.9, size=50):
        fd = (equilibrium(spec, u + h) - equilibrium(spec, u - h)) / (2 * h)
        assert np.max(np.abs(fd - equilibrium_derivative(spec, u))) < 1e-6

    # closed-form solution vs a fixed-step integrator
    def rk4(s, v0, u, n=4000):
        Au = a_of_u(spec, u)
        b = u * spec.eta
        step = s / n
        v = np.asarray(v0, dtype=float)
        for _ in range(n):
            k1 = Au @ v + b
            k2 = Au @ (v + 0.5 * step * k1) + b
            k3 = Au @ (v + 0.5 * step * k2) + b
            k4 = Au @ (v + step * k3) + b
            v = v + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return v

    for _ in range(10):
        v0 = rng.normal(size=2)
        u = float(rng.uniform(-1, 1))
        s = float(rng.uniform(0.1, 2.0))
        assert np.max(np.abs(planar_solution(spec, s, v0, u) - rk4(s, v0, u))) < 1e-8

    # concatenation affine identity
    ctrl = PiecewiseControl.from_pairs([(0.5, 0.4), (0.8, -0.7), (0.3, 0.9)])
    zero, _ = concat_solution(spec, np.zeros(2), ctrl)
    for _ in range(20):
        v0 = rng.normal(size=2)
        out, M = concat_solution(spec, v0, ctrl)
        assert np.max(np.abs(out - (M @ v0 + zero))) < 1e-9

    # exceptional control against the analytic root
    exc = PlanarSpec(np.diag([1.0, -1.0]), ThetaFamily.diagonal(0.5), [1.0, 1.0],
                     ControlRange(-5, 5))
    u0 = exceptional_control(exc)
    assert u0 is not None and abs(u0 - 4.0) < 1e-12


def _canonical(A, eta=(0.0, 0.0)):
    return make_system(ROTATION, A, [1.0, 0.0], 1.0, eta)


def test_criterion_5_classification_vs_numerics():
    # the three canonical full-rank instances against sampled reach sets
    start = time.perf_counter()
    cases = [
        (_canonical(np.eye(2)), "UniqueControlSetOpen", "rest-points-inside-estimate"),
        (_canonical(-np.eye(2)), "UniqueControlSetClosed", "far-starts-reach-estimate"),
        (_canonical(0.6 * ROTATION.matrix(), eta=(1.0, 0.0)), "WholeGroup",
         "window-fill"),
    ]
    for sys, tax, check_name in cases:
        rep = classify(sys)
        assert rep.taxonomy == tax
        log = verify_classification(rep, sys, budget=100_000, horizon=30.0,
                                    resolution=64, seed=0)
        assert log["ok"], (tax, log)
        names = [c["name"] for c in log["checks"]]
        assert check_name in names
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"classification verification took {elapsed:.2f}s"


def test_criterion_6_constructive_planners():
    # circle-hop round trips
    spec = PlanarSpec(0.6 * ROTATION.matrix(), ROTATION, [1.0, 0.0],
                      ControlRange(-0.5, 0.5))
    rng = np.random.default_rng(600)
    for _ in range(20):
        v0 = rng.normal(size=2) * rng.uniform(0.5, 5.0)
        res = circle_hop(spec, v0, 0.15, (-0.5, 0.5))
        assert res.error < 1e-6
        back, _ = concat_solution(spec, res.achieved, res.return_control)
        assert np.max(np.abs(back - v0)) < 1e-6

    # staircase closed loops at both drift orientations
    for gamma in (1.0, -1.0):
        res = staircase(gamma, 1.0, 2.0, 0.3, -0.7, ControlRange(-1, 1))
        assert res.error < 1e-6

    # oscillation-function roots: residuals where double precision allows
    # (|k| <= 5 at gamma = +-0.1), sign pattern of the axis coordinate at the
    # roots for k up to 20 (the sign claims are asymptotic; see the collapsed
    # form of H1 on the zero set of H2)
    cases = [
        (1.0, 0.1, 1.0, range(1, 21)),
        (1.0, -0.1, -1.0, range(-1, -21, -1)),
        (-1.0, 0.1, 1.0, range(1, 21)),
        (-1.0, -0.1, -1.0, range(-2, -21, -1)),
    ]
    for s0, gamma, rho_, ks in cases:
        for k in ks:
            s = h2_zero(rho_, gamma, s0, k)
            if abs(k) <= 5:
                assert abs(_h2(rho_, gamma, s)) < 1e-10
            h1, _ = h_functions(rho_, gamma, s0, s)
            collapsed = (2.0 / rho_) * np.exp(gamma * rho_ * s) * np.sin(rho_ * s) \
                - 2.0 * s + s0
            assert abs(h1 - collapsed) < 1e-9 * max(1.0, abs(h1))
            if abs(k) >= 10:
                assert s0 * h1 < 0.0


def test_criterion_7_rank_zero_dichotomy():
    from solv3d.plan import monotone_certificate

    # shear and diagonal structure: infinite family of control sets with
    # empty interior, certified by the nonnegative separating pairing
    for theta, xi in [
        (ThetaFamily.jordan(), [1.0, 1.0]),
        (ThetaFamily.diagonal(0.5), [1.0, 1.0]),
    ]:
        sys = make_system(theta, np.zeros((2, 2)), xi, 1.0, [0.0, 0.0])
        rep = classify(sys)
        assert rep.taxonomy == "InfiniteEmptyInterior"
        cert = monotone_certificate(sys)
        assert cert.min_g >= -1e-12
        log = verify_classification(rep, sys)
        assert log["ok"], log

    # scaling spiral: controllable, with a composed plan returning to the
    # identity fiber
    sys = make_system(ThetaFamily.spiral(1.0), np.zeros((2, 2)), [1.0, 0.0],
                      1.0, [0.0, 0.0])
    rep = classify(sys)
    assert rep.taxonomy == "Controllable"
    log = verify_classification(rep, sys)
    assert log["ok"], log
    ret = [c for c in log["checks"] if c["name"] == "identity-return"]
    assert ret and ret[0]["endpoint_error"] <= 1e-5


def test_criterion_8_covering_theorems():
    from solv3d.covering import lift_control_set, project_trajectory
    from solv3d.group import GroupVariant
    from solv3d.system import simulate

    # projected and deck-translated upstairs simulations agree
    var = GroupVariant(GroupVariant.SE2N, 1)
    sys = make_system(ROTATION, -np.eye(2), [1.0, 0.0], 1.0, [0.0, 0.0],
                      ControlRange(-1, 1), var)
    ctrl = PiecewiseControl.from_pairs([(2.0, 0.9), (1.5, -0.6), (2.5, 1.0)])
    g = GroupElement(0.3, [0.5, -0.2])
    gd = GroupElement(0.3 + 2 * np.pi, [0.5, -0.2])
    a = project_trajectory(sys, simulate(g, ctrl, sys))
    b = project_trajectory(sys, simulate(gd, ctrl, sys))
    assert np.max(np.abs(a.states - b.states)) < 1e-8

    # the trace-free circle-quotient system is controllable while its simply
    # connected lift has the infinite empty-interior family; the symbolic
    # report states both
    th0 = ThetaFamily.diagonal(0.0)
    aff = make_system(th0, np.zeros((2, 2)), [1.0, 1.0], 1.0, [0.0, 0.0],
                      ControlRange(-1, 1), GroupVariant(GroupVariant.AFF_CIRCLE))
    rep = classify(aff)
    assert rep.taxonomy == "Controllable"
    lifted = make_system(th0, np.zeros((2, 2)), [1.0, 1.0], 1.0, [0.0, 0.0],
                         ControlRange(-1, 1))
    assert classify(lifted).taxonomy == "InfiniteEmptyInterior"
    relation = lift_control_set(rep, aff)["relation"]
    assert "controllable" in relation and "empty" in relation


@pytest.fixture()
def tmp_specs(tmp_path):
    specs = {
        "open": {
            "theta": {"family": "spiral", "gamma": 0.0},
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 0.0],
            "omega": [-0.5, 0.5],
        },
        "whole": {
            "theta": {"family": "spiral", "gamma": 0.0},
            "A": [[0.0, -0.6], [0.6, 0.0]],
            "xi": [1.0, 0.0], "alpha": 1.0, "eta": [1.0, 0.0],
            "omega": [-0.5, 0.5],
        },
        "spiral": {
            "theta": {"family": "spiral", "gamma": 1.0},
            "A": [[0.0, 0.0], [0.0, 0.0]],
            "xi": [1.0, 0.0], "alpha": 1.0, "eta": [0.0, 0.0],
            "omega": [-1.0, 1.0],
        },
    }
    paths = {}
    for name, spec in specs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


def test_criterion_9_determinism(tmp_path, tmp_specs):
    # identical bytes for every JSON/CSV/PGM artifact across two runs with
    # the same seed, over instances drawn from criteria 5-7
    import os

    runner = CliRunner()
    commands = [
        ("classify", ["classify", tmp_specs["open"], "--budget", "5000",
                      "--horizon", "10", "--seed", "11"]),
        ("reach", ["reach", tmp_specs["whole"], "--budget", "2000",
                   "--horizon", "8", "--grid-res", "32", "--seed", "11"]),
        ("plan", ["plan", "staircase", tmp_specs["spiral"], "--x", "0.2",
                  "--y", "-0.8"]),
    ]
    for label, args in commands:
        blobs = []
        for attempt in ("a", "b"):
            d = tmp_path / f"{label}-{attempt}"
            out = runner.invoke(cli_main, args + ["--out-dir", str(d)])
            assert out.exit_code == 0, (label, out.output)
            blob = {n: (d / n).read_bytes() for n in sorted(os.listdir(d))}
            blobs.append(blob)
        assert blobs[0].keys() == blobs[1].keys()
        for name in blobs[0]:
            assert blobs[0][name] == blobs[1][name], (label, name)
