import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarb import counting
from ccarb.counting import find
from ccarb.determinant import _reduce
from ccarb.graph import ColoredDigraph, Edge, lightest, parse_graph, reverse
from ccarb.laplacian import SymbolicMatrix, build_laplacian, minor, root_minor
from ccarb.minweight import find_min

from support import dense_rows, entry_poly, poly_add, random_digraph, recorded, small_digraphs


class TestBuild:
    def test_single_arc_out(self):
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1),))
        lap = build_laplacian(reverse(g))
        assert lap.rows == (((0, 1, 1), (1, 1, -1)), ())

    def test_single_arc_in(self):
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1),))
        lap = build_laplacian(g)
        assert lap.rows == ((), ((1, 1, 1), (0, 1, -1)))

    def test_weighted_color_q_constant(self):
        # The full Laplacian is the minor at an added vertex with no arcs.
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 2, 7),))
        lap = root_minor(g.n + 1, g.q, g.edges, g.n + 1, 2)
        assert lap.rows == ((), ((1, 0, 128), (0, 0, -128)))

    def test_self_loop_only_on_diagonal(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 1, 1),))
        lap = build_laplacian(g)
        assert lap.rows == (((0, 0, 1),), ())


class TestProperties:
    def test_rows_sum_to_zero(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 3))
            lap = build_laplacian(g)
            for row in dense_rows(lap):
                assert all(sum(slot) == 0 for slot in zip(*row))

    def test_in_equals_out_of_reverse(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 3), allow_loops=True)
            # Out-degree Laplacian from the arc list: row i holds i's out-arcs.
            out = [[[0] * g.q for _ in range(g.n)] for _ in range(g.n)]
            for e in g.edges:
                slot = 0 if e.color == g.q else e.color
                if e.tail != e.head:
                    out[e.tail - 1][e.head - 1][slot] -= 1
                out[e.tail - 1][e.tail - 1][slot] += 1
            expected = [[tuple(entry) for entry in row] for row in out]
            assert dense_rows(build_laplacian(reverse(g))) == expected

    def test_all_ones_collapses_to_classical(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 3))
            lap = build_laplacian(g)
            ones = (1,) * lap.nvars
            collapsed = lap.evaluate(ones)
            classical = [[0] * g.n for _ in range(g.n)]
            for e in g.edges:
                if e.tail != e.head:
                    classical[e.head - 1][e.tail - 1] -= 1
                classical[e.head - 1][e.head - 1] += 1
            assert collapsed == classical

    def test_decomposes_by_color(self):
        rng = random.Random(6)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(1, 4), rng.randint(1, 3))
            lap = dense_rows(build_laplacian(g))
            nvars = g.q - 1
            for i in range(g.n):
                for j in range(g.n):
                    total = {}
                    for c in range(1, g.q + 1):
                        only_c = ColoredDigraph(
                            g.n, g.q, tuple(e for e in g.edges if e.color == c), g.labels
                        )
                        part = dense_rows(build_laplacian(only_c))[i][j]
                        # multiply the color-c classical entry by x_c (x_q = 1)
                        classical = sum(part)
                        if not classical:
                            continue
                        exps = (0,) * nvars if c == g.q else tuple(
                            1 if k == c - 1 else 0 for k in range(nvars)
                        )
                        total = poly_add(total, {exps: classical})
                    assert total == entry_poly(lap[i][j], nvars)


class TestMinor:
    def test_one_by_one(self):
        m = SymbolicMatrix(0, (((0, 0, 5),),))
        assert minor(m, 1).dim == 0

    def test_two_by_two(self):
        m = SymbolicMatrix(0, (((0, 0, 1), (1, 0, 2)), ((0, 0, 3), (1, 0, 4))))
        assert minor(m, 1).rows == (((0, 0, 4),),)

    def test_three_by_three_keeps_order(self):
        rows = tuple(tuple((j - 1, 0, 10 * i + j) for j in range(1, 4)) for i in range(1, 4))
        m = SymbolicMatrix(0, rows)
        assert minor(m, 2).rows == (((0, 0, 11), (1, 0, 13)), ((0, 0, 31), (1, 0, 33)))

    def test_renumbers_columns(self):
        m = SymbolicMatrix(
            1,
            (
                ((2, 1, 5), (0, 0, 1), (1, 1, 9)),
                ((1, 0, 7),),
                ((2, 0, 3), (1, 1, 4), (0, 1, 6), (2, 0, 2)),
            ),
        )
        assert minor(m, 2).rows == (((1, 1, 5), (0, 0, 1)), ((1, 0, 3), (0, 1, 6), (1, 0, 2)))

    def test_out_of_range(self):
        m = SymbolicMatrix(0, (((0, 0, 1),),))
        with pytest.raises(ValueError, match="out of range"):
            minor(m, 2)


class TestRootMinor:
    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(lambda weights: small_digraphs(weights=weights)), st.data())
    def test_is_the_minor_of_the_laplacian(self, graph, data):
        # At every root, for the whole arc list and a subset of it, at a base
        # r of 1 or more; an unweighted arc weighs 0, so it is worth 1 at any r.
        keep = data.draw(st.lists(st.booleans(), min_size=len(graph.edges), max_size=len(graph.edges)))
        subset = tuple(e for e, kept in zip(graph.edges, keep) if kept)
        r = data.draw(st.integers(1, 7))
        n, q = graph.n, graph.q
        for arcs in (graph.edges, subset):
            for root in range(1, n + 1):
                built = root_minor(n, q, arcs, root, r)
                assert built == minor(root_minor(n + 1, q, arcs, n + 1, r), root)
                if all(e.weight is None for e in arcs):
                    assert built == root_minor(n, q, arcs, root)

    def test_skips_arcs_into_the_root_and_terms_of_the_root(self):
        # Root 2: the arc into it is skipped, the arc out of it keeps only
        # its head's term, and vertex 3 becomes column 1.
        arcs = (Edge(0, 1, 2, 1, 5), Edge(1, 2, 3, 2, 3), Edge(2, 3, 1, 1, 2))
        assert root_minor(3, 2, arcs, 2, 2).rows == (((0, 1, 4), (1, 1, -4)), ((1, 0, 8),))

    @pytest.mark.parametrize("r", [2.0, True, "2"])
    def test_base_must_be_an_integer(self, r):
        # Its terms are built unchecked, so a float base would reach the engine.
        with pytest.raises(ValueError, match=re.escape(f"base r {r!r} is not an integer")):
            root_minor(2, 1, (Edge(0, 1, 2, 1, 1),), 1, r)


class TestUnchecked:
    """The engine builds its own matrices without the checks; each is one the checks accept."""

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(lambda weights: small_digraphs(weights=weights)), st.data())
    def test_every_root_minor_passes_the_checks_and_reduces_in_range(self, graph, data):
        # At every root, at a base r from -3 to 7, and for a weighted graph
        # also lowered by each vertex's lightest in-weight as find_min lowers
        # it.  det_poly evaluates the reduced rows unchecked, so each must
        # hold only the columns of the rows kept and slots 0..nvars.
        r = data.draw(st.integers(-3, 7))
        for root in range(1, graph.n + 1):
            floors = [None]
            if graph.weighted and data.draw(st.booleans()):
                floors.append({e.head: e.weight for e in lightest(graph.edges, lambda e: e.head) if e.head != root})
            for floor in floors:
                built = root_minor(graph.n, graph.q, graph.edges, root, r, floor)
                assert SymbolicMatrix(built.nvars, built.rows) == built
                reduced = _reduce(built)
                if reduced is not None:
                    entries = reduced[2]
                    assert set(entries) <= set(range(built.dim))
                    for row in entries.values():
                        assert all(j in entries and 0 <= slot <= built.nvars for j, slot in row)

    def test_find_and_find_min_make_no_checked_construction(self, monkeypatch):
        # Rooted at s, vertex a has two candidates, sa and ba, so each asks
        # one question after its count: counting takes 2 + 2 determinants.
        graph = parse_graph("3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n")
        built = recorded(monkeypatch, SymbolicMatrix, "__init__")
        determinants = recorded(monkeypatch, counting, "det_poly")
        assert find(graph, 1, (1,)) == (1, (0, 1)) and find_min(graph, 1, (1,)) == ((1, (0, 1)), 3)
        assert len(determinants) == 4 and built == []
        # The spy sees the public constructor, which keeps every check.
        SymbolicMatrix(0, ())
        assert len(built) == 1


class TestEvaluate:
    def test_point_length_checked(self):
        m = SymbolicMatrix(2, (((0, 0, 1), (0, 1, 2), (0, 2, 3)),))
        with pytest.raises(ValueError, match="point length"):
            m.evaluate((1,))

    def test_reduction(self):
        # Entries come back exact: neither reduced nor made nonnegative.
        m = SymbolicMatrix(1, (((0, 0, 2), (0, 1, 3), (1, 0, -7)), ((1, 1, 1),)))
        assert m.evaluate((4,)) == [[14, -7], [0, 4]]

    @pytest.mark.parametrize("term", [(2, 0, 1), (-1, 0, 1), (0, 2, 1), (1, -1, 1)])
    def test_term_outside_the_matrix_rejected(self, term):
        with pytest.raises(ValueError, match=re.escape(f"row 1: term {term} is outside columns 0..1 or slots 0..1")):
            SymbolicMatrix(1, (((0, 0, 1),), ((1, 1, 1), term)))

    @pytest.mark.parametrize("term", [(0, 0, 1.5), (0, 0, True), (0.0, 0, 1), (0, 0)])
    def test_term_not_three_integers_rejected(self, term):
        # A float or bool would pass the range checks and reach the exact
        # engine; a short term would fail later inside it.
        with pytest.raises(ValueError, match=re.escape(f"row 1: term {term} is not three integers")):
            SymbolicMatrix(1, (((0, 0, 1),), ((1, 1, 1), term)))

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="variable count must be nonnegative"):
            SymbolicMatrix(-1, ())

    @pytest.mark.parametrize("nvars", [1.0, True, "1"])
    def test_non_integer_variable_count_rejected(self, nvars):
        # A float count would fail later inside the engine's `[0] * nvars`,
        # and True would be stored as the count 1.
        with pytest.raises(ValueError, match=re.escape(f"variable count {nvars!r} is not an integer")):
            SymbolicMatrix(nvars, (((0, 1, 2),),))

    @pytest.mark.parametrize("name", ["nvars", "rows", "extra"])
    def test_every_attribute_is_frozen(self, name):
        with pytest.raises(AttributeError):
            setattr(SymbolicMatrix(1, (((0, 1, 1),),)), name, 1)

    def test_equal_exactly_when_nvars_and_rows_are(self):
        rows = (((0, 0, 2), (1, 1, -1)), ((1, 0, 3),))
        m = SymbolicMatrix(1, rows)
        assert m == SymbolicMatrix(1, tuple(map(tuple, rows))) and hash(m) == hash(SymbolicMatrix(1, rows))
        assert m != SymbolicMatrix(2, rows)
        assert m != SymbolicMatrix(1, (((0, 0, 2),), ((1, 0, 3),)))
        assert m != (1, rows)

    def test_a_matrix_built_from_lists_equals_its_tuple_built_twin(self):
        # The matrix stores its own tuples: a list-built one is hashable, and
        # changing the caller's lists afterwards changes nothing.
        rows = [[(0, 0, 2), (1, 1, -1)], [(1, 0, 3)]]
        m = SymbolicMatrix(1, rows)
        twin = SymbolicMatrix(1, (((0, 0, 2), (1, 1, -1)), ((1, 0, 3),)))
        assert m == twin and hash(m) == hash(twin)
        assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
        rows[0].append((0, 1, 5))
        rows.append([])
        assert m == twin
        assert SymbolicMatrix(1, (iter(row) for row in twin.rows)) == twin

    def test_duplicate_terms_add_up(self):
        m = SymbolicMatrix(1, (((0, 1, 2), (1, 0, -1), (0, 1, 3), (0, 0, 1)), ((1, 0, 4), (1, 0, 4))))
        assert m.evaluate((10,)) == [[51, -1], [0, 8]]
