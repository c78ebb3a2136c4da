"""Linear control systems on the 3D solvable nonnilpotent Lie groups.

The group is the semidirect product of the line acting on the plane through
one of three structure families (shear, diagonal, rotation-plus-scaling).
The package simulates one-input linear systems on it, classifies their
control sets, runs constructive trajectory planners, and estimates
reachable sets numerically.
"""

# the release in pyproject.toml; reports and ``solv3d --version`` read it here
__version__ = "0.1.0"

from .group import GroupElement, GroupVariant, SIMPLY_CONNECTED, identity
from .kernel2d import ThetaFamily, expm, lambda_op
from .planar import ControlRange, PiecewiseControl, PlanarSpec, Trajectory
from .reach import ClassificationReport, classify, verify_classification
from .system import (
    InvariantField,
    LinearField,
    SystemSpec,
    larc,
    nilrank,
    simulate,
)

__all__ = [
    "ClassificationReport",
    "ControlRange",
    "GroupElement",
    "GroupVariant",
    "InvariantField",
    "LinearField",
    "PiecewiseControl",
    "PlanarSpec",
    "SIMPLY_CONNECTED",
    "SystemSpec",
    "ThetaFamily",
    "Trajectory",
    "classify",
    "expm",
    "identity",
    "lambda_op",
    "larc",
    "nilrank",
    "simulate",
    "verify_classification",
]
