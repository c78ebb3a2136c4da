"""Tests for projecting/lifting trajectories and control-set verdicts."""

import numpy as np
import pytest

from solv3d.covering import (
    CoveringMap,
    descend_check,
    lift_control_set,
    lift_trajectory,
    project_trajectory,
)
from solv3d.group import GroupElement, GroupVariant, SIMPLY_CONNECTED, identity
from solv3d.kernel2d import ThetaFamily
from solv3d.planar import ControlRange, PiecewiseControl
from solv3d.reach import classify
from solv3d.system import InvariantField, LinearField, SystemSpec, drift_flow, simulate

ROTATION = ThetaFamily.spiral(0.0)
DIAG0 = ThetaFamily.diagonal(0.0)
OMEGA = ControlRange(-1.0, 1.0)
SE2 = GroupVariant(GroupVariant.SE2N, 1)
AFF = GroupVariant(GroupVariant.AFF_CIRCLE)


def se2_system(n=1):
    return SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 0.0]),
                      InvariantField(1.0, [0.0, 0.0]), OMEGA,
                      GroupVariant(GroupVariant.SE2N, n))


def aff_system(A):
    return SystemSpec(DIAG0, LinearField(A, [1.0, 1.0]),
                      InvariantField(1.0, [0.0, 0.0]), OMEGA, AFF)


class TestCoveringMap:
    def test_rejects_simply_connected(self):
        with pytest.raises(ValueError):
            CoveringMap(SIMPLY_CONNECTED)

    def test_columns_and_periods(self):
        cm = CoveringMap(GroupVariant(GroupVariant.SE2N, 3))
        assert cm.wrapped_column == 0 and abs(cm.period - 6 * np.pi) < 1e-12
        cm = CoveringMap(AFF)
        assert cm.wrapped_column == 2 and abs(cm.period - 2 * np.pi) < 1e-12


class TestDescend:
    def test_se2n_always_descends(self):
        ok, _ = descend_check(se2_system())
        assert ok

    def test_aff_circle_requires_annihilated_circle_direction(self):
        ok, _ = descend_check(aff_system(np.diag([1.0, 0.0])))
        assert ok
        ok, reason = descend_check(aff_system(np.diag([0.0, 1.0])))
        assert not ok and "circle direction" in reason

    def test_rejects_simply_connected(self):
        sys = SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 0.0]),
                         InvariantField(1.0, [0.0, 0.0]), OMEGA)
        with pytest.raises(ValueError):
            descend_check(sys)


class TestTrajectories:
    CTRL = PiecewiseControl.from_pairs([(2.0, 0.9), (1.5, -0.6), (2.5, 1.0)])

    def test_project_wraps_into_period(self):
        sys = se2_system()
        traj = simulate(identity(), self.CTRL, sys)
        proj = project_trajectory(sys, traj)
        assert np.all(proj.states[:, 0] >= 0.0)
        assert np.all(proj.states[:, 0] < 2 * np.pi)
        assert np.array_equal(proj.states[:, 1:], traj.states[:, 1:])

    def test_lift_is_continuous_and_projects_back(self):
        sys = se2_system()
        traj = simulate(identity(), self.CTRL, sys)
        proj = project_trajectory(sys, traj)
        lift = lift_trajectory(sys, proj)
        assert np.max(np.abs(np.diff(lift.states[:, 0]))) < np.pi
        again = project_trajectory(sys, lift)
        assert np.max(np.abs(again.states - proj.states)) < 1e-10

    def test_deck_translated_starts_project_equal(self):
        # starts differing by a deck transformation give the same projected
        # trajectory, because the dynamics descend to the quotient
        sys = se2_system()
        g = GroupElement(0.3, [0.5, -0.2])
        gd = GroupElement(0.3 + 2 * np.pi, [0.5, -0.2])
        a = project_trajectory(sys, simulate(g, self.CTRL, sys))
        b = project_trajectory(sys, simulate(gd, self.CTRL, sys))
        assert np.max(np.abs(a.states - b.states)) < 1e-8

    def test_aff_deck_translation(self):
        sys = aff_system(np.diag([-1.0, 0.0]))
        ctrl = PiecewiseControl.from_pairs([(1.0, 0.5), (1.0, -0.5)])
        g = GroupElement(0.0, [1.0, 0.5])
        gd = GroupElement(0.0, [1.0, 0.5 + 2 * np.pi])
        a = project_trajectory(sys, simulate(g, ctrl, sys))
        b = project_trajectory(sys, simulate(gd, ctrl, sys))
        assert np.max(np.abs(a.states - b.states)) < 1e-6

    def test_non_descending_system_is_genuinely_multivalued(self):
        # when A moves the circle direction, deck-equivalent starts diverge
        # even after projection -- the projected field is not well defined
        sys = aff_system(np.diag([0.0, 1.0]))
        ctrl = PiecewiseControl.from_pairs([(1.0, 0.5)])
        g = GroupElement(0.0, [1.0, 1.0])
        gd = GroupElement(0.0, [1.0, 1.0 + 2 * np.pi])
        a = project_trajectory(sys, simulate(g, ctrl, sys))
        b = project_trajectory(sys, simulate(gd, ctrl, sys))
        assert np.max(np.abs(a.states[-1] - b.states[-1])) > 0.1

    def test_drift_fixes_deck_fiber(self):
        # on the rotation quotient the deck points (2*pi*k, 0) are drift
        # rest points, so the projected drift fixes the identity
        sys = se2_system()
        g = GroupElement(2 * np.pi, np.zeros(2))
        out = drift_flow(5.0, g, sys)
        assert np.max(np.abs(out.as_array() - g.as_array())) < 1e-10


class TestLiftControlSet:
    def test_aff_trace_zero_states_both_sides(self):
        sys = aff_system(np.zeros((2, 2)))
        rep = classify(sys)
        assert rep.taxonomy == "Controllable"
        out = lift_control_set(rep, sys)
        assert "controllable" in out["relation"]
        assert "empty" in out["relation"]
        # the simply connected lift of the same data is the plane family
        lifted = SystemSpec(DIAG0, sys.drift, sys.input, sys.omega)
        assert classify(lifted).taxonomy == "InfiniteEmptyInterior"

    def test_aff_trace_sign_topology(self):
        out = lift_control_set(classify(aff_system(np.diag([1.0, 0.0]))),
                               aff_system(np.diag([1.0, 0.0])))
        assert out["topology"] == "open"
        out = lift_control_set(classify(aff_system(np.diag([-1.0, 0.0]))),
                               aff_system(np.diag([-1.0, 0.0])))
        assert out["topology"] == "closed"

    def test_se2n_relations(self):
        sys = se2_system()
        out = lift_control_set(classify(sys), sys)
        assert "preimage" in out["relation"]
        flat = SystemSpec(ROTATION, LinearField(np.zeros((2, 2)), [1.0, 0.0]),
                          InvariantField(1.0, [0.0, 0.0]), OMEGA, SE2)
        out = lift_control_set(classify(flat), flat)
        assert "empty interior" in out["relation"]

    @pytest.mark.parametrize("sys", [
        SystemSpec(DIAG0, LinearField(np.diag([1.0, 0.0]), [1.0, 1.0]),
                   InvariantField(0.0, [0.0, 0.0]), OMEGA, AFF),
        SystemSpec(ROTATION, LinearField(-np.eye(2), [1.0, 0.0]),
                   InvariantField(0.0, [0.0, 0.0]), OMEGA, SE2),
    ], ids=["aff", "se2n"])
    def test_no_relation_without_the_rank_condition(self, sys):
        # alpha = 0: the report is Unclassified, so no covering claim is made
        rep = classify(sys)
        assert rep.rule == "rank-condition-failed"
        out = lift_control_set(rep, sys)
        assert out["relation"] == "none: the rank condition fails" and "topology" not in out
