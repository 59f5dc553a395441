"""Three-layer situational-graph SLAM backend with a synthetic indoor-world
generator and evaluation harness."""

from .geometry import (
    PlaneClass,
    PlaneHessian,
    PlaneMinimal,
    Pose3,
    classify_plane,
    from_minimal,
    inverse_compose,
    to_minimal,
    transform_plane,
)
from .graph import KeyframePolicy, SGraph
from .pipeline import SlamConfig, run_slam
from .solver import SolverConfig, optimize

__all__ = [
    "PlaneClass",
    "PlaneHessian",
    "PlaneMinimal",
    "Pose3",
    "classify_plane",
    "from_minimal",
    "inverse_compose",
    "to_minimal",
    "transform_plane",
    "KeyframePolicy",
    "SGraph",
    "SlamConfig",
    "run_slam",
    "SolverConfig",
    "optimize",
]
