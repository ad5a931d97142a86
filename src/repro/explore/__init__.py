"""Cost-aware design-space exploration (``p2go explore``).

Three layers: :mod:`~repro.explore.space` declares the sweep (target
shapes x phase orders x candidate policies x programs),
:mod:`~repro.explore.explorer` runs every point through the existing
pipeline machinery against one shared store, and
:mod:`~repro.explore.frontier` extracts the Pareto frontier and the
per-program fit breakpoints from the outcomes.
"""

from repro.explore.explorer import (
    Explorer,
    ExploreResult,
    PointOutcome,
    profile_coverage,
)
from repro.explore.frontier import (
    DEFAULT_OBJECTIVES,
    dominates,
    fit_breakpoints,
    objective_vector,
    pareto_front,
)
from repro.explore.space import (
    DesignPoint,
    DesignSpace,
    TargetShape,
    parse_grid,
    seed_space,
)

__all__ = [
    "DEFAULT_OBJECTIVES",
    "DesignPoint",
    "DesignSpace",
    "Explorer",
    "ExploreResult",
    "PointOutcome",
    "TargetShape",
    "dominates",
    "fit_breakpoints",
    "objective_vector",
    "pareto_front",
    "parse_grid",
    "profile_coverage",
    "seed_space",
]
