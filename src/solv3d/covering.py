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
from .reach import TAX_OPEN
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


# the relation between a quotient control set and its lift, and the topology
# it reports (None: no topology entry), for each rule of reach.classify on a
# quotient group
_LIFT = {
    "rank-condition-failed": ("none: the rank condition fails", None),
    "se2n/unique-lift": (
        "the preimage of the quotient control set under the covering "
        "projection is the unique control set upstairs",
        None,
    ),
    "se2n/flat-cylinders": (
        "infinite family of control sets with empty interior on the "
        "cylinders C_r = {([t], v): <v, xi_hat> = r}",
        None,
    ),
    "affcircle/trace-sign": (
        "the quotient control set is the product of the affine-line "
        "control set with the full circle; its preimage upstairs is "
        "the unique control set of the lifted system",
        lambda taxonomy: "open" if taxonomy == TAX_OPEN else "closed",
    ),
    "affcircle/trace-zero": (
        "the quotient system is controllable while the lifted system "
        "admits an infinite family of control sets with empty "
        "interior, one per separating plane",
        lambda taxonomy: "whole group downstairs, plane family upstairs",
    ),
}


def lift_control_set(report, sys: SystemSpec) -> dict:
    """Symbolic relation between the quotient control set and its lift, read off the report."""
    out = {
        "variant": sys.variant.tag,
        "period": sys.variant.period,
        "taxonomy": report.taxonomy,
    }
    out["relation"], topology = _LIFT[report.rule]
    if topology is not None:
        out["topology"] = topology(report.taxonomy)
    return out
