"""Counting, deciding and finding, checked against the brute-force oracle (n <= 6) and exact determinants."""

import itertools
import math
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccarb import counting, determinant, minweight
from ccarb.cli import main
from ccarb.counting import count, count_functional, count_spanning_trees, count_table, decide, find
from ccarb.graph import ColoredDigraph, Edge, parse_graph, remove_edge, remove_in_arcs
from ccarb.laplacian import SymbolicMatrix, build_laplacian, minor
from ccarb.minweight import c_alpha_r, find_min, min_weight
from ccarb.oracle import color_histogram, enumerate_arborescences, enumerate_functional, is_arborescence

from support import (
    alphas,
    bareiss_det,
    classical_in_laplacian_minor,
    planted_digraph,
    poly_eval,
    questions_asked,
    random_digraph,
    recorded,
    small_digraphs,
    small_multigraphs,
    spanning_tree_histogram,
    unusable_arcs,
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
        # The choice rule: the first by the in-arc id of vertex 1, then of
        # vertex 2, and so on, which is the oracle's order.
        assert arb == next(
            other
            for other in enumerate_arborescences(graph, root)
            if color_histogram(graph, other.edge_ids)[: graph.q - 1] == alpha
        )


@ORACLE
@given(rooted(), st.data())
def test_find_asks_only_about_usable_arcs(case, data):
    graph, root, _ = case
    histogram = arborescence_histogram(graph, root)
    if not histogram:
        return
    alpha = data.draw(st.sampled_from(sorted(histogram)))
    with questions_asked() as (minors, tables):
        arb = find(graph, root, alpha)
    # The first minor is the count's, of the whole graph; every later one is
    # a search question's, which holds no arc into the root, none of a color
    # alpha has no room left for, and no two parallel arcs of one color.
    # Every det_poly call after the first asks a question the spy saw.
    assert len(minors) == len(tables) >= 1
    for question, _ in minors[1:]:
        assert unusable_arcs(question, root, alpha) == []
    assert arb == next(
        other
        for other in enumerate_arborescences(graph, root)
        if color_histogram(graph, other.edge_ids)[: graph.q - 1] == alpha
    )


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


@pytest.mark.parametrize("n, q", [(24, 3), (20, 4), (40, 2)])
def test_find_at_scale_returns_a_certified_arborescence(n, q):
    # Far past the oracle, the answer is checked by its certificate: an
    # arborescence of the planted digraph with the histogram asked for,
    # the one with the most arborescences.
    graph, root = planted_digraph(random.Random(n * q), n, q, None)
    table = count_table(graph, root)
    alpha = max(table, key=table.get)
    arb = find(graph, root, alpha)
    assert is_arborescence(graph, root, arb.edge_ids)
    assert color_histogram(graph, arb.edge_ids)[:-1] == alpha


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
    # one node.  Each of the 5 minor rows holds both.  A row's absolute
    # terms sum to 5 + 5 on the diagonal plus 2 in each of the 4 other
    # columns, 18, and 18^5 < 2^21 makes digits of 24 bits.  x1 is packed
    # into 6 digits and x2 into 6 more with stride 6: 36 digits, 864 bits,
    # below PACKED_BITS.  x3, x4 and x5 sit in no row and take their one
    # node, 0: 1 point, where the grid without packing takes a, b <= 5 with
    # a + b <= 5, C(7, 2) = 21, and n^(q-1) = 7,776.
    assert calls == [(1 << 24, 1 << 144, 0, 0, 0)]
    # Each alpha's full histogram (a, 5 - a) padded with zeros to q-1 = 5 colors.
    assert wide == {(a, 5 - a, 0, 0, 0): value for (a,), value in narrow.items()}


# Colors 1 and 2 alone.  The 3-vertex graph and the 40-vertex path reduce
# to the empty matrix; complete_digraph's 6 vertices keep 5 rows holding
# both x1 and x2.
THREE_VERTICES = "3 {q}\ns a 1\na b 2\n"
PATH = "40 {q}\n" + "".join(f"v{i} v{i + 1} {i % 2 + 1}\n" for i in range(39))
COMPLETE = "6 {q}\n" + "".join(f"{t} {h} {c}\n" for t in range(1, 7) for h in range(1, 7) if t != h for c in (1, 2))


@pytest.mark.parametrize(
    "text, packed_bits, length",
    [
        (THREE_VERTICES, determinant.PACKED_BITS, 0),
        (PATH, determinant.PACKED_BITS, 0),
        (COMPLETE, determinant.PACKED_BITS, 0),
        (COMPLETE, 0, 2),
    ],
    ids=["3-vertices", "40-vertex-path", "complete-6-packed", "complete-6-unpacked"],
)
def test_thousands_of_unused_colors_take_no_axis(monkeypatch, text, packed_bits, length):
    # At q = 5,000 the table is the q = 3 table padded with zeros, and every
    # point interpolated has one coordinate per unpacked variable that a
    # reduced row holds: none when x1 and x2 are packed or reduced away, and
    # two when nothing is packed.  An axis per declared color costs O(q^2).
    monkeypatch.setattr(determinant, "PACKED_BITS", packed_bits)
    # Vertex 1, the first label read, is the root.
    narrow = count_table(parse_graph(text.format(q=3)), 1)
    points = []
    real = determinant.interpolate
    monkeypatch.setattr(determinant, "interpolate", lambda values: points.extend(values) or real(values))
    wide = count_table(parse_graph(text.format(q=5000)), 1)
    assert narrow and wide == {alpha + (0,) * 4997: value for alpha, value in narrow.items()}
    assert {len(point) for point in points} == {length}


def test_find_asks_about_the_first_in_arc_then_halves(monkeypatch):
    graph = complete_digraph(2)
    counts = recorded(monkeypatch, counting, "count_table")
    determinants = recorded(monkeypatch, counting, "det_poly")
    arb = find(graph, 1, (2,))
    assert arb is not None and color_histogram(graph, arb.edge_ids)[:1] == (2,)
    # Alpha (2,) asks for 2 arcs of color 1 and 3 of color 2.  In-arcs are
    # ordered by tail, then color.  Every taken arc leaves the root, and a
    # tail that leads back to the root through the taken arcs is grouped
    # with it, so of each color only the root's in-arc is a candidate.  Each
    # determinant after the count's is one question.
    # - One count, and its determinant, on the whole graph.
    # - Vertex 2 has 10 usable in-arcs (not from itself, both colors).  It
    #   asks about 1->2 of color 1 alone, with the other 9 deleted, which
    #   stays feasible: 1.
    # - Vertex 3 has 8 candidates (tails 1, 4, 5, 6; tail 2 leads to 1).  It
    #   asks about 1->3 of color 1 alone, which stays feasible and uses up
    #   color 1, so the question also deletes the color-1 arcs into 4, 5
    #   and 6: 1.
    # - Vertex 4 now has 5 in-arcs, all of color 2, and 3 candidates, from
    #   1, 5 and 6 (2 and 3 lead to 1).  It asks about the one from 1 alone,
    #   which stays feasible: 1.
    # - Vertex 5 has 2 candidates (from 1 and 6) and does the same: 1.
    # - Vertex 6 has 1 candidate, from 1, taken unasked: 0.
    # So 1 + 1 + 1 + 1 + 1 = 5, where 1 + ceil(log2(d - 1)) questions for
    # d = 10, 8, 3, 2 and 1 would allow 1 + 5 + 4 + 2 + 1 = 13, and one
    # question per arc would make 61.
    assert len(counts) == 1
    assert len(determinants) == 5


def test_find_asks_nothing_about_a_path(monkeypatch):
    # On the path 1 -> 2 -> ... -> 6 each non-root vertex has one candidate,
    # taken unasked, so only the count on the whole graph is made.
    graph = ColoredDigraph(6, 1, tuple(Edge(i, i + 1, i + 2, 1) for i in range(5)))
    counts = recorded(monkeypatch, counting, "count_table")
    determinants = recorded(monkeypatch, counting, "det_poly")
    assert find(graph, 1, ()).edge_ids == (0, 1, 2, 3, 4)
    assert len(counts) == len(determinants) == 1


@st.composite
def matched(draw):
    """A weighted graph, a root and a histogram some arborescence has, or None if none has one."""
    graph = draw(small_digraphs(weights=True))
    root = draw(st.integers(1, graph.n))
    histogram = arborescence_histogram(graph, root)
    return graph, root, draw(st.sampled_from(sorted(histogram))) if histogram else None


@ORACLE
@given(matched())
# b's in-arcs ab and sb both lead to s once a takes sa, so b keeps ab
# alone; c's candidates sc and dc lead to s and d, so c's probe of sc is
# asked with b fixed.
@example((parse_graph("5 1\ns a 1 1\na b 1 1\ns b 1 1\ns c 1 1\nd c 1 1\ns d 1 1\n"), 1, ()))
# a takes sa unasked, which fills color 1's one room, so sb and sc are
# deleted: b and c have one candidate each, and no question follows the
# first.
@example((parse_graph("4 2\ns a 1 1\ns b 1 1\na b 2 1\ns b 2 1\ns c 1 1\na c 2 1\nb c 2 1\n"), 1, (1,)))
# a's probe of sa (color 1) fills color 1's one room, so it deletes sb of
# color 1 as well as a's other candidate; the probe holds {sa, sb of color 2}.
@example((parse_graph("3 2\ns a 1 1\ns a 2 1\ns b 1 1\ns b 2 1\n"), 1, (1,)))
def test_search_questions_are_subgraphs_of_the_input(case):
    # Each question is captured where its minor is built, by counting's
    # root_minor, as a graph of its arcs, and its table from the det_poly
    # call that follows.
    # After the first, the count on the whole graph that both make, find
    # and find_min ask only about subgraphs of the input with its vertices,
    # in which every vertex already decided keeps only its taken in-arc.
    # Every coefficient asked is the oracle's: the sum of r^w over the
    # arborescences matching alpha, which is their number at find's r = 1.
    # find_min builds its minors at r^(w - m_v), m_v the lightest in-weight
    # of v in the input, so its coefficients are divided by r^low, low the
    # sum of the m_v; find builds them at r^w.
    # The search picks each vertex's candidates with one `lightest` call,
    # which names the vertex being decided.  One rule answers every
    # question: it holds unless `above` divides its coefficient.  find's
    # `above` is the count plus 1, which divides only 0 because no subgraph
    # has more matching arborescences; find_min's r exceeds every question's
    # count.
    graph, root, alpha = case
    if alpha is None:
        return
    arcs = {(e.id, e.tail, e.head, e.color) for e in graph.edges}
    build, det, lightest, search = counting.root_minor, counting.det_poly, counting.lightest, counting._search
    for operation in (find, find_min):
        questions, tables, vertices, searches = [], [], [], []

        def root_minor(n, q, live, root, r=1, floor=None):
            questions.append((ColoredDigraph(n, q, tuple(live)), r, floor, vertices[-1:]))
            return build(n, q, live, root, r, floor)

        with mock.patch.multiple(
            counting,
            root_minor=root_minor,
            det_poly=lambda matrix: tables.append(det(matrix)) or tables[-1],
            lightest=lambda edges, key: vertices.append(edges[0].head) or lightest(edges, key),
            _search=lambda *args: searches.append(args) or search(*args),
        ):
            result = operation(graph, root, alpha)
        assert len(questions) == len(tables) >= 1
        if operation is find:
            [(*_, above)] = searches
        taken = {graph.edge(i).head: i for i in (result if operation is find else result[0]).edge_ids}
        lightest_in = {v: min(e.weight for e in graph.edges if e.head == v) for v in range(1, graph.n + 1) if v != root}
        for number, ((subgraph, r, floor, picked), table) in enumerate(zip(questions, tables)):
            weights = [
                sum(subgraph.edge(i).weight for i in arb.edge_ids)
                for arb in enumerate_arborescences(subgraph, root)
                if color_histogram(subgraph, arb.edge_ids)[: graph.q - 1] == alpha
            ]
            assert floor == (None if r == 1 else lightest_in)
            low = sum(floor.values()) if floor else 0
            coefficient = table.get(alpha, 0)
            assert coefficient == sum(r ** (w - low) for w in weights)
            if operation is find:
                assert 0 <= coefficient < above
            elif r > 1:
                assert len(weights) < r
            if number == 0:
                continue
            assert subgraph.n == graph.n and (r == 1) == (operation is find)
            assert {(e.id, e.tail, e.head, e.color) for e in subgraph.edges} <= arcs
            [v] = picked
            decided = [w for w in range(1, v) if w != root]
            for w in decided:
                assert [e.id for e in subgraph.edges if e.head == w] == [taken[w]]
            # No vertex left to decide keeps an in-arc of a color whose room the taken arcs fill.
            used = Counter(graph.edge(taken[w]).color for w in decided)
            room = (*alpha, graph.n - 1 - sum(alpha))
            assert all(used[e.color] < room[e.color - 1] for e in subgraph.edges if e.head >= v)
            # A one-arc probe also deletes every arc into a later vertex of a
            # color the probed arc would fill.
            probed = [e for e in subgraph.edges if e.head == v]
            if len(probed) == 1:
                used[probed[0].color] += 1
                assert all(used[e.color] < room[e.color - 1] for e in subgraph.edges if e.head > v)


@pytest.mark.parametrize("d", range(2, 10))
def test_a_vertex_whose_last_in_arc_is_the_only_feasible_one(monkeypatch, d):
    # Vertex 2 has in-arcs from 3, ..., d + 1 and, last, from the root 1, and
    # is the only way into 3, ..., d + 1.  Keeping any other in-arc alone, or
    # a half without 1 -> 2, deletes the root's one out-arc, so the
    # question's determinant is 0.
    tails = [*range(3, d + 2), 1]
    arcs = [(t, 2) for t in tails] + [(2, w) for w in range(3, d + 2)]
    graph = ColoredDigraph(d + 1, 1, tuple(Edge(i, t, h, 1) for i, (t, h) in enumerate(arcs)))
    counts = recorded(monkeypatch, counting, "count_table")
    determinants = recorded(monkeypatch, counting, "det_poly")
    assert find(graph, 1, ()).edge_ids == tuple(range(d - 1, 2 * d - 1))
    # One determinant each: the count's on the whole graph, then the first
    # in-arc alone and ceil(log2(d - 1)) halvings of the other d - 1;
    # vertices 3, ..., d + 1 have one in-arc each.
    assert len(counts) == 1
    assert len(determinants) == 1 + 1 + math.ceil(math.log2(d - 1))


# Rooted at s: {sa, sb} has alpha 1, {sa, ab} alpha 2 and {ba, sb} alpha 0.
DIRECTED = "3 2\ns a 1\ns b 2\na b 1\nb a 2\n"
# Rooted at s, only {ba, sb} has alpha 1.
CROSSED = "3 2\ns a 1\na b 1\ns b 1\nb a 2\n"
# Rooted at s, {sa, sb} has alpha 1 and {sa, ab} alpha 2.
FORKED = "3 2\ns a 1\na b 1\ns b 2\n"


def always_yes(monkeypatch):
    # Every determinant has coefficient 1 at alpha (1,), so the count on the
    # whole graph reads 1, `above` is 2 and every question holds.  a's first
    # candidate sa is kept, and it takes the one room of color 1, so ab and
    # sb, b's only in-arcs, are deleted: b has no candidate and the search
    # refuses.
    monkeypatch.setattr(counting, "det_poly", lambda matrix: {(1,): 1})
    return CROSSED


def decide_for_alpha_2(monkeypatch):
    # Every determinant reports its alpha-2 coefficient as alpha 1's.  The
    # whole graph has {sa, ab}, so the count reads 1 and the search starts.
    # a's probe of sa holds sa and sb (sa takes the one room of color 1, so
    # ab is deleted), which has no arborescence of alpha 2, so it reads 0.
    # a takes ba unasked, which takes the one room of color 2, so sb is
    # deleted.  b's last in-arc ab leaves a, which leads back to b through
    # ba, so b has no candidate and the search refuses.
    real = counting.det_poly
    monkeypatch.setattr(counting, "det_poly", lambda matrix: {(1,): real(matrix).get((2,), 0)})
    return DIRECTED


def pick_from_the_input(monkeypatch):
    # Each vertex's candidates are picked from all its in-arcs in the input,
    # not its live ones, and every question reads yes as in always_yes.  a
    # takes its only in-arc sa unasked, which fills color 1's one room, so
    # ab is no longer live.  b's candidates are still ab (color 1, from a,
    # which leads to s) and sb (color 2, from s); the probe of ab reads yes,
    # so b takes it.  The search ends on {sa, ab}, an arborescence of
    # alpha 2.
    graph, real = parse_graph(FORKED), counting.lightest

    def lightest(edges, key):
        return real([e for e in graph.edges if e.head == edges[0].head], key)

    monkeypatch.setattr(counting, "lightest", lightest)
    monkeypatch.setattr(counting, "det_poly", lambda matrix: {(1,): 1})
    return FORKED


@pytest.mark.parametrize(
    "lie, check",
    [
        (always_yes, "not an arborescence"),
        (decide_for_alpha_2, "not an arborescence"),
        (pick_from_the_input, "color histogram"),
    ],
)
def test_find_refuses_an_uncertified_result(monkeypatch, tmp_path, capsys, lie, check):
    text = lie(monkeypatch)
    with pytest.raises(ValueError, match=check):
        find(parse_graph(text), 1, (1,))
    path = tmp_path / "graph.g"
    path.write_text(text, encoding="utf-8")
    assert main(["find", str(path), "--root", "s", "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate check failed") and check in captured.err


# Rooted at s: {sa, sb} has alpha 1 and weight 3.
WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"


@pytest.mark.parametrize("entry", [1.9, "1", 0.5, True])
@pytest.mark.parametrize("operation", [count, find, min_weight])
def test_non_integral_constraints_are_refused(operation, entry):
    with pytest.raises(ValueError, match=f"entry {entry!r} is not an integer"):
        operation(parse_graph(WEIGHTED), 1, (entry,))


@pytest.mark.parametrize(
    "operation, args, name",
    [
        (count_table, (1.5,), "root 1.5"),
        (min_weight, (2.5, (1,)), "root 2.5"),
        (c_alpha_r, (1.5, (1,), 3), "root 1.5"),
        (find, (1.0, (1,)), "root 1.0"),
        (remove_in_arcs, (1.5,), "vertex 1.5"),
        (lambda graph, index: minor(build_laplacian(graph), index), (1.5,), "index 1.5"),
        (remove_in_arcs, (True,), "vertex True"),
        (remove_edge, (1.0,), "edge id 1.0"),
        (lambda graph, edge_id: graph.edge(edge_id), (True,), "edge id True"),
        (lambda graph, vertex: graph.vertex_label(vertex), (1.5,), "vertex 1.5"),
    ],
)
def test_non_integer_roots_and_indices_are_refused(operation, args, name):
    with pytest.raises(ValueError, match=re.escape(f"{name} is not an integer")):
        operation(parse_graph(WEIGHTED), *args)


def test_float_edge_ids_are_not_an_arborescence():
    g = parse_graph(WEIGHTED)
    assert is_arborescence(g, 1, (0, 1))
    assert not is_arborescence(g, 1, (0.0, 1.0))


def test_find_keeps_the_lighter_of_parallel_arcs(tmp_path, capsys):
    text = "2 1\ns a 1 5\ns a 1 2\n"
    assert find(parse_graph(text), 1, ()).edge_ids == (1,)
    path = tmp_path / "parallel.g"
    path.write_text(text, encoding="utf-8")
    assert main(["find", str(path), "--root", "s"]) == 0
    assert capsys.readouterr().out == "s a 1 2\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["count-all"], 0, ""),
        (["min-weight", "--alpha", "1"], 1, "infeasible\n"),
        (["find", "--alpha", "1"], 1, "none\n"),
        (["find-min", "--alpha", "1"], 1, "infeasible\n"),
        (["decide", "--alpha", "1"], 1, "no\n"),
        (["count", "--alpha", "1"], 0, "0\n"),
    ],
)
def test_unreachable_vertices_build_no_determinant(monkeypatch, tmp_path, capsys, argv, code, out):
    # 20,000 declared vertices, one arc: the dense minor would have 4 * 10^8
    # entries.  Every operation counts first, and the count sees an
    # unreachable vertex before it builds a minor.
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


@pytest.mark.parametrize(
    "operation, args", [(count_table, ()), (find, ((1,),)), (min_weight, ((1,),))], ids=["count_table", "find", "min_weight"]
)
def test_arborescence_operations_refuse_a_self_loop(operation, args):
    # The parser refuses self-loops; a graph built in code can hold one.
    graph = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1, 1), Edge(1, 2, 2, 2, 1)))
    with pytest.raises(ValueError, match="self-loops are not allowed here"):
        operation(graph, 1, *args)

