"""Counting, deciding and finding, checked against the brute-force oracle (n <= 6) and exact determinants."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarb import counting, minweight
from ccarb.cli import main
from ccarb.counting import count, count_functional, count_spanning_trees, count_table, decide, find
from ccarb.graph import ColoredDigraph, Edge, parse_graph
from ccarb.laplacian import SymbolicMatrix
from ccarb.minweight import c_alpha_r, find_min, min_weight
from ccarb.oracle import color_histogram, enumerate_arborescences, enumerate_functional, is_arborescence

from support import (
    alphas,
    bareiss_det,
    classical_in_laplacian_minor,
    poly_eval,
    random_digraph,
    small_digraphs,
    small_multigraphs,
    spanning_tree_histogram,
)

ORACLE = settings(max_examples=100, deadline=None)


def arborescence_histogram(graph, root) -> Counter:
    return Counter(
        color_histogram(graph, arb.edge_ids)[: graph.q - 1] for arb in enumerate_arborescences(graph, root)
    )


@st.composite
def rooted(draw):
    graph = draw(small_digraphs())
    root = draw(st.one_of(st.just(1), st.integers(1, graph.n)))
    return graph, root, draw(alphas(graph.q, graph.n))


@st.composite
def functional_digraphs(draw):
    # Usually one functional subgraph by construction (each vertex points to
    # itself or a smaller vertex), plus random arcs and self-loops.
    n = draw(st.integers(1, 5))
    q = draw(st.integers(1, 3))
    picks = []
    if draw(st.integers(0, 3)):
        picks += [(v, draw(st.integers(1, v)), draw(st.integers(1, q))) for v in range(1, n + 1)]
    slots = [(t, h, c) for t in range(1, n + 1) for h in range(1, n + 1) for c in range(1, q + 1)]
    picks += draw(st.lists(st.sampled_from(slots), max_size=6))
    return ColoredDigraph(n, q, tuple(Edge(i, t, h, c) for i, (t, h, c) in enumerate(picks)))


@ORACLE
@given(rooted())
def test_count_table_matches_enumeration(case):
    graph, root, _ = case
    assert count_table(graph, root) == dict(arborescence_histogram(graph, root))


@ORACLE
@given(rooted())
def test_count_and_decide_match_enumeration(case):
    graph, root, alpha = case
    expected = arborescence_histogram(graph, root)[alpha]
    assert count(graph, root, alpha) == expected
    assert decide(graph, root, alpha) == (expected > 0)


@ORACLE
@given(rooted(), st.data())
def test_find_returns_a_certified_arborescence(case, data):
    graph, root, drawn = case
    histogram = arborescence_histogram(graph, root)
    feasible = [data.draw(st.sampled_from(sorted(histogram)))] if histogram else []
    for alpha in feasible + [drawn]:
        arb = find(graph, root, alpha)
        if histogram[alpha] == 0:
            assert arb is None
            continue
        assert arb is not None and arb.root == root
        assert is_arborescence(graph, root, arb.edge_ids)
        assert color_histogram(graph, arb.edge_ids)[: graph.q - 1] == alpha


@ORACLE
@given(small_multigraphs(), st.data())
def test_count_spanning_trees_matches_enumeration(graph, data):
    histogram = spanning_tree_histogram(graph)
    for alpha in list(histogram) + [data.draw(alphas(graph.q, graph.n))]:
        assert count_spanning_trees(graph, alpha) == histogram.get(alpha, 0)


@ORACLE
@given(functional_digraphs())
def test_count_functional_matches_enumeration(graph):
    for alpha in itertools.product(range(graph.n + 1), repeat=graph.q - 1):
        assert count_functional(graph, alpha) == enumerate_functional(graph, alpha)


def test_count_table_matches_the_laplacian_minor_beyond_the_oracle():
    # Graphs of 10 to 16 vertices, too large to enumerate: the table, read as
    # a polynomial, must equal the minor's determinant at an integer point.
    rng = random.Random(21)
    for _ in range(6):
        graph = random_digraph(rng, rng.randint(10, 16), rng.randint(2, 3), density=0.12)
        root = rng.randint(1, graph.n)
        table = count_table(graph, root)
        point = tuple(rng.randint(-9, 9) for _ in range(graph.q - 1))
        assert poly_eval(table, point) == bareiss_det(classical_in_laplacian_minor(graph, root, point))


def complete_digraph(q: int) -> ColoredDigraph:
    """The complete 6-vertex digraph with one arc of each of colors 1 and 2 per ordered pair."""
    arcs = [(t, h, c) for t in range(1, 7) for h in range(1, 7) if t != h for c in (1, 2)]
    return ColoredDigraph(6, q, tuple(Edge(i, t, h, c) for i, (t, h, c) in enumerate(arcs)))


def test_unused_colors_do_not_grow_the_grid(monkeypatch):
    narrow = count_table(complete_digraph(2), 1)
    calls = []
    real = SymbolicMatrix.evaluate
    monkeypatch.setattr(SymbolicMatrix, "evaluate", lambda matrix, point: calls.append(point) or real(matrix, point))
    wide = count_table(complete_digraph(6), 1)
    # Colors 3-6 are declared but unused, so only x1 and x2 need more than
    # one node: each of the 5 minor rows holds both, so the grid is 6 x 6,
    # evaluated once per point, where n^(q-1) = 7,776.
    assert len(calls) == 36
    # Each alpha's full histogram (a, 5 - a) padded with zeros to q-1 = 5 colors.
    assert wide == {(a, 5 - a, 0, 0, 0): value for (a,), value in narrow.items()}


def test_find_halves_the_in_arcs_of_each_vertex(monkeypatch):
    graph = complete_digraph(2)
    calls = []
    real = counting.decide
    monkeypatch.setattr(counting, "decide", lambda *args: calls.append(args) or real(*args))
    arb = find(graph, 1, (2,))
    assert arb is not None and color_histogram(graph, arb.edge_ids)[:1] == (2,)
    # One decide on the whole graph, then ceil(log2 10) = 4 for each of the
    # five non-root vertices, where one decide per arc would make 1 + 60.
    assert len(calls) <= 1 + 5 * 4


# Rooted at s: {sa, sb} has alpha 1, {sa, ab} alpha 2 and {ba, sb} alpha 0.
DIRECTED = "3 2\ns a 1\ns b 2\na b 1\nb a 2\n"


def approve_every_deletion(graph, root, alpha):
    # The search then keeps only the last in-arc of each vertex: the cycle
    # {ab, ba}.
    return True


def decide_for_alpha_2(graph, root, alpha):
    # The search then ends on {sa, ab}.
    return decide(graph, root, (2,))


@pytest.mark.parametrize(
    "lie, check", [(approve_every_deletion, "not an arborescence"), (decide_for_alpha_2, "color histogram")]
)
def test_find_refuses_an_uncertified_result(monkeypatch, tmp_path, capsys, lie, check):
    monkeypatch.setattr(counting, "decide", lie)
    with pytest.raises(ValueError, match=check):
        find(parse_graph(DIRECTED), 1, (1,))
    path = tmp_path / "graph.g"
    path.write_text(DIRECTED, encoding="utf-8")
    assert main(["find", str(path), "--root", "s", "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate check failed") and check in captured.err


# Rooted at s: {sa, sb} has alpha 1 and weight 3.
WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"


@pytest.mark.parametrize("entry", [1.9, "1", 0.5])
@pytest.mark.parametrize("operation", [count, find, min_weight])
def test_non_integral_constraints_are_refused(operation, entry):
    with pytest.raises(ValueError, match=f"entry {entry!r} is not an integer"):
        operation(parse_graph(WEIGHTED), 1, (entry,))


def test_find_keeps_the_lighter_of_parallel_arcs(tmp_path, capsys):
    text = "2 1\ns a 1 5\ns a 1 2\n"
    assert find(parse_graph(text), 1, ()).edge_ids == (1,)
    path = tmp_path / "parallel.g"
    path.write_text(text, encoding="utf-8")
    assert main(["find", str(path), "--root", "s"]) == 0
    assert capsys.readouterr().out == "s a 1 2\n"


@pytest.mark.parametrize(
    "argv, code, out", [(["count-all"], 0, ""), (["min-weight", "--alpha", "1"], 1, "infeasible\n")]
)
def test_unreachable_vertices_build_no_determinant(monkeypatch, tmp_path, capsys, argv, code, out):
    # 20,000 declared vertices, one arc: the dense minor would have 4 * 10^8 entries.
    calls = []
    for module in (counting, minweight):
        monkeypatch.setattr(module, "det_poly", lambda matrix: calls.append(matrix))
    path = tmp_path / "sparse.g"
    path.write_text("20000 2\na b 1 1\n", encoding="utf-8")
    assert main([argv[0], str(path), "--root", "a", *argv[1:]]) == code
    assert capsys.readouterr().out == out
    assert calls == []


# Weighted, so only the graph kind can refuse it: each operation answered it
# as a directed graph before the kind was checked.
WEIGHTED_UNDIRECTED = "3 2\nundirected\na b 1 1\nb c 2 2\na c 1 3\n"


@pytest.mark.parametrize(
    "operation",
    [
        lambda graph: count_table(graph, 1),
        lambda graph: count(graph, 1, (1,)),
        lambda graph: decide(graph, 1, (1,)),
        lambda graph: find(graph, 1, (1,)),
        lambda graph: count_functional(graph, (1,)),
        lambda graph: c_alpha_r(graph, 1, (1,), 5),
        lambda graph: min_weight(graph, 1, (1,)),
        lambda graph: find_min(graph, 1, (1,)),
    ],
    ids=["count_table", "count", "decide", "find", "count_functional", "c_alpha_r", "min_weight", "find_min"],
)
def test_directed_operations_refuse_an_undirected_graph(operation):
    with pytest.raises(ValueError, match="needs a directed graph, got ColoredMultigraph"):
        operation(parse_graph(WEIGHTED_UNDIRECTED))
