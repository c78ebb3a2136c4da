"""Verdicts under time rescaling.

Scaling A, xi and the control range by c > 0 (alpha and eta fixed) is the
time rescaling s -> c s of the system, so every verdict must be the one at
c = 1.  A power of two scales every floating-point step exactly, which makes
the property test below an exact check of scale freedom.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from solv3d.cli import main
from solv3d.covering import lift_control_set
from solv3d.group import GroupVariant, SIMPLY_CONNECTED
from solv3d.kernel2d import ThetaFamily, commutes, matrix_rank, trace_sign
from solv3d.planar import ControlRange, PlanarSpec
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


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
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
