"""Lifting and projecting between the simply connected group and its quotients.

The rotation-family group covers the n-fold rigid-motion groups (t taken
modulo 2*n*pi) and the diagonal(0) group covers the affine-line-times-circle
group (second v-component modulo 2*pi).  Trajectories project sample-wise
and lift by continuous unwrapping; control-set verdicts transfer through the
covering projection symbolically.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .group import GroupVariant
from .kernel2d import ZERO_TOL
from .planar import Trajectory
from .reach import RULES
from .system import SystemSpec

__all__ = [
    "descend_check",
    "project_trajectory",
    "lift_trajectory",
    "lift_control_set",
]


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
    k, period = sys.variant.wrapped_column, sys.variant.period
    states = np.array(traj.states, dtype=float, copy=True)
    states[:, k] = np.mod(states[:, k], period)
    return replace(traj, states=states)


def lift_trajectory(sys: SystemSpec, traj: Trajectory) -> Trajectory:
    """Continuous representative upstairs of a quotient trajectory.

    The periodic coordinate is unwrapped so consecutive samples never jump
    by more than half a period; the lift starting value is the first
    sample's canonical representative.
    """
    k, period = sys.variant.wrapped_column, sys.variant.period
    states = np.array(traj.states, dtype=float, copy=True)
    states[:, k] = np.unwrap(states[:, k], period=period)
    return replace(traj, states=states)


def lift_control_set(report, sys: SystemSpec) -> dict:
    """Symbolic relation between the quotient control set and its lift: the
    relation and topology of the report's rule in ``reach.RULES``."""
    rule = RULES[report.rule]
    out = {
        "variant": sys.variant.tag,
        "period": sys.variant.period,
        "taxonomy": report.taxonomy,
        "relation": rule.relation,
    }
    if rule.topology is not None:
        out["topology"] = rule.topology[report.taxonomy]
    return out
