"""Color-constrained arborescences: exact counting, search, and weight minimization."""

from .counting import (
    Arborescence,
    count,
    count_functional,
    count_spanning_trees,
    count_table,
    decide,
    find,
)
from .determinant import det_poly
from .graph import (
    ColoredDigraph,
    ColoredMultigraph,
    Edge,
    GraphParseError,
    bidirect,
    dedup_min_weight,
    parse_graph,
    reverse,
)
from .laplacian import SymbolicMatrix, build_laplacian
from .minweight import c_alpha_r, find_min, min_weight
from .polynomials import render_poly

__version__ = "0.1.0"

__all__ = [
    "Arborescence",
    "ColoredDigraph",
    "ColoredMultigraph",
    "Edge",
    "GraphParseError",
    "SymbolicMatrix",
    "bidirect",
    "build_laplacian",
    "c_alpha_r",
    "count",
    "count_functional",
    "count_spanning_trees",
    "count_table",
    "decide",
    "dedup_min_weight",
    "det_poly",
    "find",
    "find_min",
    "min_weight",
    "parse_graph",
    "render_poly",
    "reverse",
]
