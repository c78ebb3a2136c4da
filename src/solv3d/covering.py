"""Lifting and projecting between the simply connected group and its quotients.

The rotation-family group covers the n-fold rigid-motion groups (t taken
modulo 2*n*pi) and the diagonal(0) group covers the affine-line-times-circle
group (second v-component modulo 2*pi).  Trajectories project sample-wise
and lift by continuous unwrapping; control-set verdicts transfer through the
covering projection symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .group import GroupVariant
from .kernel2d import ZERO_TOL
from .planar import Trajectory
from .system import SystemSpec

__all__ = [
    "CoveringMap",
    "descend_check",
    "project_trajectory",
    "lift_trajectory",
    "lift_control_set",
]


@dataclass(frozen=True)
class CoveringMap:
    """The quotient projection attached to a non-trivial group variant."""

    variant: GroupVariant

    def __post_init__(self):
        if self.variant.tag == GroupVariant.SIMPLY_CONNECTED:
            raise ValueError("the simply connected group has no covering quotient")

    @property
    def period(self) -> float:
        return self.variant.period

    @property
    def wrapped_column(self) -> int:
        """Index of the periodic coordinate in a (t, v1, v2) state row."""
        return 0 if self.variant.tag == GroupVariant.SE2N else 2


def descend_check(sys: SystemSpec) -> tuple[bool, str]:
    """Whether the drift field descends to the variant's quotient group.

    On the rotation-family quotients every commuting drift descends (the
    deck translations are fixed points of the flow).  On the circle quotient
    of the diagonal(0) group the drift descends exactly when A annihilates
    the second coordinate direction.
    """
    if sys.variant.tag == GroupVariant.SIMPLY_CONNECTED:
        raise ValueError("descend_check needs a quotient variant")
    if sys.variant.tag == GroupVariant.SE2N:
        return True, "deck transformations are drift fixed points"
    col = sys.A @ np.array([0.0, 1.0])
    if np.max(np.abs(col)) <= ZERO_TOL * np.max(np.abs(sys.A)):
        return True, "A annihilates the circle direction"
    return False, (
        "A does not annihilate the circle direction; the projected field "
        f"would be multivalued (A e2 = {col.tolist()})"
    )


def project_trajectory(sys: SystemSpec, traj: Trajectory) -> Trajectory:
    """Sample-wise canonical representatives in the quotient group."""
    cm = CoveringMap(sys.variant)
    states = np.array(traj.states, dtype=float, copy=True)
    k = cm.wrapped_column
    states[:, k] = np.mod(states[:, k], cm.period)
    return replace(traj, states=states)


def lift_trajectory(sys: SystemSpec, traj: Trajectory) -> Trajectory:
    """Continuous representative upstairs of a quotient trajectory.

    The periodic coordinate is unwrapped so consecutive samples never jump
    by more than half a period; the lift starting value is the first
    sample's canonical representative.
    """
    cm = CoveringMap(sys.variant)
    states = np.array(traj.states, dtype=float, copy=True)
    k = cm.wrapped_column
    states[:, k] = np.unwrap(states[:, k], period=cm.period)
    return replace(traj, states=states)


def lift_control_set(report, sys: SystemSpec) -> dict:
    """Symbolic relation between the quotient control set and its lift, read off the report."""
    cm = CoveringMap(sys.variant)
    out = {
        "variant": sys.variant.tag,
        "period": cm.period,
        "taxonomy": report.taxonomy,
    }
    if report.rule == "rank-condition-failed":
        out["relation"] = "none: the rank condition fails"
    elif report.rule == "affcircle/trace-sign":
        out["relation"] = (
            "the quotient control set is the product of the affine-line "
            "control set with the full circle; its preimage upstairs is "
            "the unique control set of the lifted system"
        )
        out["topology"] = "open" if report.taxonomy == "UniqueControlSetOpen" else "closed"
    elif report.rule == "affcircle/trace-zero":
        out["relation"] = (
            "the quotient system is controllable while the lifted system "
            "admits an infinite family of control sets with empty "
            "interior, one per separating plane"
        )
        out["topology"] = "whole group downstairs, plane family upstairs"
    elif report.nilrank == 2:
        out["relation"] = (
            "the preimage of the quotient control set under the covering "
            "projection is the unique control set upstairs"
        )
    else:
        out["relation"] = (
            "infinite family of control sets with empty interior on the "
            "cylinders C_r = {([t], v): <v, xi_hat> = r}"
        )
    return out
