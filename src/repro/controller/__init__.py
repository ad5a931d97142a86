"""Software controller: offloaded-segment runtime and equivalence checks."""

from repro.controller.equivalence import (
    EquivalenceReport,
    check_result,
    compare_behavior,
    compare_with_offload,
)
from repro.controller.offload_runtime import (
    ControllerStats,
    OffloadController,
    segment_program,
)

__all__ = [
    "ControllerStats",
    "EquivalenceReport",
    "OffloadController",
    "check_result",
    "compare_behavior",
    "compare_with_offload",
    "segment_program",
]
