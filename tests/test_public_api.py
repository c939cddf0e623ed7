"""The package exports what an operation uses, and nothing else."""

import ccarb
from ccarb import graph, laplacian

PUBLIC = [
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


def test_all_is_the_public_api():
    assert ccarb.__all__ == PUBLIC
    assert all(callable(getattr(ccarb, name)) for name in PUBLIC)


def test_names_no_operation_calls_are_not_exported_but_resolve_in_their_modules():
    # benchmark/spans.py traces them and the tests use them.
    for module, name in ((graph, "remove_edge"), (graph, "remove_in_arcs"), (laplacian, "minor")):
        assert not hasattr(ccarb, name)
        assert callable(getattr(module, name))
