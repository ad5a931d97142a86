"""Static analysis: control graph, mutual exclusivity, dependency graph."""

from repro.analysis.control_graph import ControlGraph
from repro.analysis.dependencies import (
    Dependency,
    DependencyCause,
    DependencyGraph,
    DependencyKind,
    FigureEdge,
    build_dependency_graph,
    figure_edges,
)
from repro.analysis.graph import CycleError, Digraph
from repro.analysis.structure import ProgramAnalysis, analyse, structure_key

__all__ = [
    "ControlGraph",
    "CycleError",
    "Dependency",
    "DependencyCause",
    "DependencyGraph",
    "DependencyKind",
    "Digraph",
    "FigureEdge",
    "ProgramAnalysis",
    "analyse",
    "build_dependency_graph",
    "figure_edges",
    "structure_key",
]
