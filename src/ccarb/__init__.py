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
from .determinant import (
    det_mod_p,
    det_poly,
    det_poly_mod_p,
    select_primes,
)
from .graph import (
    ColoredDigraph,
    ColoredMultigraph,
    Edge,
    GraphParseError,
    bidirect,
    dedup_min_weight,
    parse_graph,
    remove_edge,
    remove_in_arcs,
    reverse,
)
from .laplacian import SymbolicMatrix, build_laplacian, minor
from .minweight import WeightedInstance, c_alpha_r, find_min, min_weight, valuation
from .polynomials import crt_combine, interpolate, render_poly

__version__ = "0.1.0"

__all__ = [
    "Arborescence",
    "ColoredDigraph",
    "ColoredMultigraph",
    "Edge",
    "GraphParseError",
    "SymbolicMatrix",
    "WeightedInstance",
    "bidirect",
    "build_laplacian",
    "c_alpha_r",
    "count",
    "count_functional",
    "count_spanning_trees",
    "count_table",
    "crt_combine",
    "decide",
    "dedup_min_weight",
    "det_mod_p",
    "det_poly",
    "det_poly_mod_p",
    "find",
    "find_min",
    "interpolate",
    "min_weight",
    "minor",
    "parse_graph",
    "remove_edge",
    "remove_in_arcs",
    "render_poly",
    "reverse",
    "select_primes",
    "valuation",
]
