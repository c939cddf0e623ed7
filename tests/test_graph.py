import copy
import itertools
import pickle
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarb import graph as graph_module, laplacian
from ccarb.cli import main
from ccarb.graph import (
    ColoredDigraph,
    ColoredMultigraph,
    Edge,
    GraphParseError,
    _Graph,
    bidirect,
    color_histogram,
    dedup_min_weight,
    is_arborescence,
    parse_graph,
    reaches_all,
    remove_edge,
    remove_in_arcs,
    reverse,
)
from ccarb.counting import count, count_table
from ccarb.laplacian import SymbolicMatrix
from ccarb.minweight import min_weight
from ccarb.oracle import enumerate_arborescences

from support import recorded, small_digraphs, small_multigraphs


@st.composite
def digraphs(draw, max_n=5, max_q=3, weights=False):
    n = draw(st.integers(1, max_n))
    q = draw(st.integers(1, max_q))
    slots = [(t, h, c) for t in range(1, n + 1) for h in range(1, n + 1) if t != h for c in range(1, q + 1)]
    picks = draw(st.lists(st.sampled_from(slots), max_size=12)) if slots else []
    edges = []
    for t, h, c in picks:
        w = draw(st.integers(1, 5)) if weights else None
        edges.append(Edge(len(edges), t, h, c, w))
    return ColoredDigraph(n, q, tuple(edges))


class TestParse:
    def test_minimal_file(self):
        g = parse_graph("2 2\ns t 1\n")
        assert isinstance(g, ColoredDigraph)
        assert (g.n, g.q) == (2, 2)
        assert g.edges == (Edge(0, 1, 2, 1),)
        assert g.labels == ("s", "t")

    def test_empty_graph(self):
        g = parse_graph("1 1")
        assert (g.n, g.q) == (1, 1)
        assert g.edges == ()

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 2\ns s 1\n")

    def test_labels_by_first_appearance(self):
        g = parse_graph("3 1\nc a 1\na b 1\n")
        assert g.labels == ("c", "a", "b")
        assert g.vertex_index("a") == 2

    def test_comments_and_blanks_skipped(self):
        g = parse_graph("# header comment\n\n2 1\n# edge comment\ns t 1\n")
        assert len(g.edges) == 1

    def test_a_leading_byte_order_mark_is_ignored(self):
        # Some editors save UTF-8 with a byte order mark; it is not part of the header.
        text = "3 2\ns a 1\na b 2\n"
        assert parse_graph("\ufeff" + text) == parse_graph(text)
        assert parse_graph("\ufeff# comment\n" + text) == parse_graph(text)
        # Only the first character can be a mark; a second one is read as text.
        with pytest.raises(GraphParseError, match="line 1: header values must be integers"):
            parse_graph("\ufeff\ufeff" + text)

    def test_undirected_header(self):
        g = parse_graph("2 1\nundirected\na b 1\n")
        assert isinstance(g, ColoredMultigraph)

    def test_duplicate_header_rejected(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("2 1\ndirected\ndirected\na b 1\n")

    def test_color_out_of_range(self):
        with pytest.raises(GraphParseError, match="color 3 out of range"):
            parse_graph("2 2\ns t 3\n")

    def test_nonpositive_weight(self):
        with pytest.raises(GraphParseError, match="weight"):
            parse_graph("2 1\ns t 1 0\n")

    def test_mixed_weighting_rejected(self):
        with pytest.raises(GraphParseError, match="mixed"):
            parse_graph("3 1\na b 1 2\nb c 1\n")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\ns t\n")

    def test_too_many_labels(self):
        with pytest.raises(GraphParseError, match="distinct vertex labels"):
            parse_graph("2 1\na b 1\nb c 1\n")

    def test_weighted_file(self):
        g = parse_graph("2 1\ns t 1 7\n")
        assert g.weighted
        assert g.edges[0].weight == 7

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("2 1 3\na b 1\n", 1, "expected header 'n q'"),
            ("# comment\n2 x\na b 1\n", 2, "header values must be integers"),
            ("2 0\n", 1, "vertex and color counts must be positive"),
            ("2 1\na b 1\nundirected\n", 3, "orientation header must precede edge lines"),
            ("2 2\n\na b two\n", 3, "color must be an integer"),
            ("2 1\na b 1 1.5\n", 2, "weight must be an integer"),
            ("# no header\n\n", 1, "missing header 'n q'"),
            ("3 1\ns #x 1\n#x y 1\n", 2, "vertex label '#x' starts with '#'"),
        ],
        ids=[
            "header-fields",
            "header-integers",
            "header-positive",
            "late-orientation",
            "color",
            "weight",
            "no-header",
            "hash-label",
        ],
    )
    def test_malformed_files_name_the_line(self, text, line, message):
        with pytest.raises(GraphParseError, match=re.escape(f"line {line}: {message}")):
            parse_graph(text)


class TestReverse:
    def test_single_edge(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1),))
        assert reverse(g).edges == (Edge(0, 2, 1, 1),)

    def test_empty(self):
        g = ColoredDigraph(3, 2, ())
        assert reverse(g).edges == ()

    def test_symmetric_pair(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 1, 1)))
        r = reverse(g)
        assert {(e.tail, e.head, e.color) for e in r.edges} == {
            (e.tail, e.head, e.color) for e in g.edges
        }

    @given(digraphs())
    def test_involution_and_multiset(self, g):
        assert reverse(reverse(g)) == g
        assert sorted((e.head, e.tail, e.color) for e in g.edges) == sorted(
            (e.tail, e.head, e.color) for e in reverse(g).edges
        )


class TestDedup:
    def test_keeps_min_weight(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1, 5), Edge(1, 1, 2, 1, 3)))
        assert dedup_min_weight(g).edges == (Edge(1, 1, 2, 1, 3),)

    def test_different_colors_kept(self):
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1, 4), Edge(1, 1, 2, 2, 9)))
        assert len(dedup_min_weight(g).edges) == 2

    def test_tie_break_smallest_id(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1, 3), Edge(1, 1, 2, 1, 3)))
        assert dedup_min_weight(g).edges == (Edge(0, 1, 2, 1, 3),)

    def test_unweighted_keeps_smallest_id(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 1, 1), Edge(2, 1, 2, 1)))
        assert dedup_min_weight(g).edges == (Edge(0, 1, 2, 1), Edge(1, 2, 1, 1))

    def test_undirected_is_refused(self):
        g = ColoredMultigraph(2, 1, (Edge(0, 1, 2, 1, 3), Edge(1, 2, 1, 1, 3)))
        with pytest.raises(ValueError, match="needs a directed graph, got ColoredMultigraph"):
            dedup_min_weight(g)

    @given(st.one_of(digraphs(), digraphs(weights=True)))
    def test_idempotent(self, g):
        once = dedup_min_weight(g)
        assert dedup_min_weight(once) == once
        keys = [(e.tail, e.head, e.color) for e in once.edges]
        assert len(set(keys)) == len(keys)


class TestRemove:
    def test_remove_in_arcs(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 1, 1)))
        assert remove_in_arcs(g, 1).edges == (Edge(0, 1, 2, 1),)

    def test_remove_in_arcs_identity(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1),))
        assert remove_in_arcs(g, 1) == g

    def test_remove_in_arcs_star(self):
        g = ColoredDigraph(4, 1, tuple(Edge(i, i + 2, 1, 1) for i in range(3)))
        assert remove_in_arcs(g, 1).edges == ()

    def test_remove_edge(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1),))
        assert remove_edge(g, 0).edges == ()

    def test_remove_one_parallel(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 1, 2, 1)))
        assert remove_edge(g, 0).edges == (Edge(1, 1, 2, 1),)

    def test_remove_unknown_id(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1),))
        with pytest.raises(ValueError, match="unknown edge id"):
            remove_edge(g, 5)

    def test_remove_several_ids(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 1, 2, 1), Edge(2, 2, 3, 1), Edge(3, 1, 3, 1)))
        assert remove_edge(g, 3, 0).edges == (Edge(1, 1, 2, 1), Edge(2, 2, 3, 1))

    def test_remove_unknown_id_among_known(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 1)))
        with pytest.raises(ValueError, match="unknown edge id 7"):
            remove_edge(g, 0, 7, 1)

    @given(digraphs(), st.integers(0, 11))
    def test_remove_then_readd_restores_index(self, g, pick):
        if not g.edges:
            return
        victim = g.edges[pick % len(g.edges)]
        smaller = remove_edge(g, victim.id)
        restored = ColoredDigraph(
            g.n, g.q, tuple(sorted(smaller.edges + (victim,), key=lambda e: e.id)), g.labels
        )
        assert restored == g


class TestContract:
    """Fixing an arc by deleting its head's other in-arcs, which leaves a one-arc row the engine contracts."""

    @settings(max_examples=100, deadline=None)
    @given(small_digraphs(), st.data())
    def test_counts_the_arborescences_through_the_arc(self, g, data):
        # An arborescence uses exactly one in-arc of each non-root vertex, so
        # those through arc a = (u -> v) are exactly the arborescences of G
        # with v's other in-arcs deleted, and that graph's table counts them
        # by histogram.  Its row v holds a alone: the forced arc of Tutte's
        # theorem, which determinant._reduce contracts.
        root = data.draw(st.integers(1, g.n))
        through: dict[int, Counter] = {}
        for arb in enumerate_arborescences(g, root):
            histogram = color_histogram(g, arb.edge_ids)[: g.q - 1]
            for edge_id in arb.edge_ids:
                through.setdefault(edge_id, Counter())[histogram] += 1
        for arc in g.edges:
            if arc.head == root:
                continue
            others = [e.id for e in g.edges if e.head == arc.head and e.id != arc.id]
            assert count_table(remove_edge(g, *others), root) == through.get(arc.id, {})


class TestTransformsKeepTheKind:
    MULTIGRAPH = "3 1\nundirected\na b 1\nb c 1\n"

    def test_remove_edge_returns_a_multigraph(self):
        g = parse_graph(self.MULTIGRAPH)
        assert remove_edge(g, 0) == ColoredMultigraph(3, 1, (Edge(1, 2, 3, 1),), ("a", "b", "c"))

    @pytest.mark.parametrize(
        "transform",
        [lambda g: remove_in_arcs(g, 1), reverse, dedup_min_weight],
        ids=["remove_in_arcs", "reverse", "dedup"],
    )
    def test_directed_transforms_refuse_a_multigraph(self, transform):
        with pytest.raises(ValueError, match="needs a directed graph, got ColoredMultigraph"):
            transform(parse_graph(self.MULTIGRAPH))


class TestReach:
    def test_reaches_all(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 1)))
        assert reaches_all(g, 1)
        assert not reaches_all(g, 2)
        assert not reaches_all(ColoredDigraph(2, 1, ()), 1)
        assert reaches_all(ColoredDigraph(1, 1, ()), 1)


class TestIsArborescence:
    @settings(max_examples=60, deadline=None)
    @given(small_digraphs())
    def test_holds_exactly_for_the_enumerated_trees(self, g):
        ids = [e.id for e in g.edges]
        for root in range(1, g.n + 1):
            trees = {arb.edge_ids for arb in enumerate_arborescences(g, root)}
            for subset in itertools.combinations(ids, g.n - 1):
                assert is_arborescence(g, root, subset) == (subset in trees)

    def test_unknown_id(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 1)))
        assert is_arborescence(g, 1, (0, 1))
        assert not is_arborescence(g, 1, (0, 7))

    def test_repeated_id(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 1, 3, 1)))
        assert not is_arborescence(g, 1, (0, 0))
        assert not is_arborescence(g, 1, (1, 1))

    def test_self_loop(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 3, 3, 1), Edge(2, 1, 1, 1)))
        assert not is_arborescence(g, 1, (0, 1))
        assert not is_arborescence(g, 1, (0, 2))
        assert not is_arborescence(ColoredDigraph(1, 1, (Edge(0, 1, 1, 1),)), 1, (0,))


def assert_rebuilds(g) -> None:
    """`g`, built unchecked, is a graph the checks accept: its checked rebuild equals it, id map included."""
    assert all(type(e) is Edge for e in g.edges)
    rebuilt = type(g)(g.n, g.q, g.edges, g.labels)
    assert rebuilt == g and rebuilt._edges_by_id == g._edges_by_id


def graph_file(g, orientation: str | None) -> str:
    """`g` as a graph file, its vertices labelled v1..vn, with the orientation line if one is given."""
    lines = [f"{g.n} {g.q}", *([orientation] if orientation else [])]
    lines += [" ".join(str(field) for field in (f"v{e.tail}", f"v{e.head}", e.color, e.weight) if field is not None) for e in g.edges]
    return "\n".join(lines) + "\n"


class TestUnchecked:
    """The parser and the transforms build their graphs without the checks; each is one the checks accept."""

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(lambda weights: small_digraphs(weights=weights)), st.sampled_from([None, "directed", "undirected"]), st.data())
    def test_every_graph_built_unchecked_equals_its_checked_rebuild(self, g, orientation, data):
        parsed = parse_graph(graph_file(g, orientation))
        assert_rebuilds(parsed)
        assert_rebuilds(bidirect(data.draw(small_multigraphs())))
        assert_rebuilds(remove_edge(parsed, *data.draw(st.lists(st.sampled_from([e.id for e in g.edges]))) if g.edges else ()))
        if orientation == "undirected":
            return
        reachability, asked = [], 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "reaches_all", lambda built, root: reachability.append(built) or reaches_all(built, root))
            for root in range(1, g.n + 1):
                # One in-arc of every other vertex, where each has one: its heads pass, so its graph is built.
                firsts = {e.head: e.id for e in parsed.edges if e.head != root}
                if len(firsts) == g.n - 1:
                    is_arborescence(parsed, root, firsts.values())
                    asked += 1
                assert_rebuilds(remove_in_arcs(parsed, root))
        assert len(reachability) == asked
        for built in (reverse(parsed), dedup_min_weight(parsed), *reachability):
            assert_rebuilds(built)

    def test_cli_operations_make_no_checked_construction(self, monkeypatch, tmp_path, capsys):
        # Rooted at s, the trees {sb, ba}, {sa, sb} and {sa, ab} take 0, 1 and
        # 2 arcs of color 1; a has two candidates, sa and ba, so find and
        # find-min each ask one question, and find-min takes {sa, sb}, of weight 3.
        # The triangle u has two spanning trees with one edge of color 1,
        # {sa, ab} and {sb, ab}.  Every input is checked once, as it is parsed:
        # no graph or matrix is built checked, and no minor checks its root or base.
        monkeypatch.chdir(tmp_path)
        Path("g").write_text("3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n", encoding="utf-8")
        Path("u").write_text("3 2\nundirected\ns a 1\ns b 2\na b 1\n", encoding="utf-8")
        built = recorded(monkeypatch, _Graph, "__init__")
        matrices = recorded(monkeypatch, SymbolicMatrix, "__init__")
        checks = [recorded(monkeypatch, laplacian, name) for name in ("check_index", "check_integer")]
        for command in ("count-all", "count", "decide", "find", "min-weight", "find-min"):
            assert main([command, "g", "--root", "s", *(["--alpha", "1"] if command != "count-all" else [])]) == 0
        assert main(["spanning-trees", "u", "--alpha", "1"]) == 0
        assert capsys.readouterr().out == "0\t1\n1\t1\n2\t1\n1\nyes\ns a 1 1\ns b 2 2\n3\n3\ns a 1 1\ns b 2 2\n2\n"
        assert built == [] and matrices == [] and checks == [[], []]
        # The spy sees the public constructor, which keeps every check.
        ColoredDigraph(1, 1, ())
        assert len(built) == 1


class TestBidirect:
    def test_single_edge(self):
        g = ColoredMultigraph(2, 1, (Edge(0, 1, 2, 1),))
        arcs = bidirect(g).edges
        assert [(e.tail, e.head) for e in arcs] == [(1, 2), (2, 1)]

    def test_triangle(self):
        g = ColoredMultigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 1), Edge(2, 1, 3, 1)))
        assert len(bidirect(g).edges) == 6

    def test_empty(self):
        g = ColoredMultigraph(3, 1, ())
        assert bidirect(g).edges == ()


class TestValidation:
    def test_endpoint_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ColoredDigraph(2, 1, (Edge(0, 1, 3, 1),))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(0, 2, 1, 1)))

    def test_duplicate_ids_in_a_multigraph(self):
        with pytest.raises(ValueError, match="duplicate edge id 0"):
            ColoredMultigraph(2, 1, (Edge(0, 1, 2, 1), Edge(0, 2, 1, 1)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0.5, 1, 2, 1), "edge id 0.5"),
            ((0, 1.0, 2, 1), "edge tail 1.0"),
            ((0, 1, 2.0, 1), "edge head 2.0"),
            ((0, 1, 2, 1.0), "edge color 1.0"),
            ((0, 1, 2, True), "edge color True"),
            ((0, 1, 2, 1, 1.5), "edge weight 1.5"),
            ((0, 1, 2, 1, False), "edge weight False"),
        ],
    )
    def test_non_integer_edge_fields_are_refused(self, fields, message):
        # Refused where the edge is built, so no graph, count or weight can
        # carry one (a weight of 1.5 once came back as a minimum weight).
        with pytest.raises(ValueError, match=f"{message} is not an integer"):
            Edge(*fields)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ColoredDigraph(0, 1, ()), "vertex count must be positive"),
            (lambda: ColoredDigraph(1, 0, ()), "color count must be positive"),
            (lambda: ColoredMultigraph(1, 1, (), ("a", "b")), "more labels than vertices"),
            (lambda: ColoredDigraph(2, 1, (), ("a", "a")), "duplicate vertex labels"),
            (lambda: ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 1, 2))), "edge 1: color out of range 1..1"),
            (lambda: ColoredDigraph(2, 1, (Edge(0, 1, 2, 1, 0),)), "edge 0: weight must be >= 1"),
            (lambda: parse_graph("3 1\ns t 1\n").vertex_label(3), "vertex 3 has no label"),
            (lambda: ColoredDigraph(2.5, 2, ()), "vertex count 2.5 is not an integer"),
            (lambda: ColoredDigraph(True, 2, ()), "vertex count True is not an integer"),
            (lambda: ColoredMultigraph("3", 2, ()), "vertex count '3' is not an integer"),
            (lambda: ColoredDigraph(3, 2.0, ()), "color count 2.0 is not an integer"),
        ],
        ids=[
            "no-vertices",
            "no-colors",
            "labels",
            "duplicate-labels",
            "color",
            "weight",
            "unlabelled",
            "fractional-n",
            "bool-n",
            "string-n",
            "float-q",
        ],
    )
    def test_invalid_graphs_are_refused(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_index_fields_are_stored_as_plain_ints(self):
        # An `operator.index` value, as numpy's integers are, is stored as
        # the int it stands for, so every operation sees a plain int.
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        fields = [(0, 1, 2, 1, 2), (1, 1, 3, 2, 1), (2, 2, 3, 1, 4), (3, 3, 2, 2, 1)]
        plain = ColoredDigraph(3, 2, tuple(Edge(*f) for f in fields))
        wrapped = ColoredDigraph(Index(3), Index(2), tuple(Edge(*map(Index, f)) for f in fields))
        assert wrapped == plain
        assert all(type(value) is int for e in wrapped.edges for value in tuple(e))
        assert type(wrapped.n) is type(wrapped.q) is int
        for alpha in [(0,), (1,), (2,)]:
            assert count(wrapped, 1, alpha) == count(plain, 1, alpha)
            assert min_weight(wrapped, 1, alpha) == min_weight(plain, 1, alpha)

    def test_lookup_helpers(self):
        g = parse_graph("2 1\ns t 1\n")
        assert g.vertex_label(g.vertex_index("t")) == "t"
        with pytest.raises(ValueError, match="unknown vertex label"):
            g.vertex_index("zzz")


class TestGraphKinds:
    EDGES = (Edge(0, 1, 2, 1), Edge(1, 2, 3, 2))

    def test_equal_fields_of_different_kinds_differ(self):
        directed, undirected = ColoredDigraph(3, 2, self.EDGES), ColoredMultigraph(3, 2, self.EDGES)
        assert directed == ColoredDigraph(3, 2, self.EDGES)
        assert undirected == ColoredMultigraph(3, 2, self.EDGES)
        assert directed != undirected
        assert hash(directed) == hash(ColoredDigraph(3, 2, self.EDGES))

    @pytest.mark.parametrize("kind", [ColoredDigraph, ColoredMultigraph])
    def test_repr_names_the_kind(self, kind):
        assert repr(kind(3, 2, self.EDGES, ("a",))) == (
            f"{kind.__name__}(n=3, q=2, edges={self.EDGES!r}, labels=('a',))"
        )

    @pytest.mark.parametrize("kind", [ColoredDigraph, ColoredMultigraph])
    @pytest.mark.parametrize("name", ["n", "q", "edges", "labels", "extra"])
    def test_every_attribute_is_frozen(self, kind, name):
        g = kind(3, 2, self.EDGES)
        with pytest.raises(AttributeError):
            setattr(g, name, 1)

    @pytest.mark.parametrize("kind", [ColoredDigraph, ColoredMultigraph])
    def test_copies_are_equal_and_fields_cannot_be_deleted(self, kind):
        g = kind(3, 2, self.EDGES, ("a",))
        g.edge(1)  # the id map, filled by the constructor, is not part of the value
        assert copy.copy(g) == copy.deepcopy(g) == pickle.loads(pickle.dumps(g)) == g
        with pytest.raises(AttributeError):
            del g.n

    @pytest.mark.parametrize("name", ["id", "tail", "head", "color", "weight", "extra"])
    def test_edge_fields_are_frozen(self, name):
        with pytest.raises(AttributeError):
            setattr(self.EDGES[0], name, 1)

    def test_edge_is_the_tuple_of_its_fields(self):
        assert Edge(0, 1, 2, 1) == (0, 1, 2, 1, None)
        assert repr(Edge(3, 1, 2, 1, 7)) == "Edge(id=3, tail=1, head=2, color=1, weight=7)"


class TestGraphsOwnTheirFields:
    """A graph stores what it is given as tuples of `Edge`s and labels, whatever iterables it came in."""

    EDGES = (Edge(0, 1, 2, 1, 4), Edge(1, 2, 3, 2, 1), Edge(2, 3, 1, 1, 2))

    @pytest.mark.parametrize("kind", [ColoredDigraph, ColoredMultigraph])
    def test_a_graph_built_from_lists_equals_its_tuple_built_twin(self, kind):
        edges, labels = [list(e) for e in self.EDGES], ["a", "b"]
        g = kind(3, 2, edges, labels)
        twin = kind(3, 2, self.EDGES, ("a", "b"))
        assert g == twin and hash(g) == hash(twin)
        assert type(g.edges) is type(g.labels) is tuple
        assert all(type(e) is Edge for e in g.edges)
        edges.append([3, 1, 3, 1, 1])
        edges[0][3] = 2
        labels.append("c")
        assert g == twin and g.edge(0).color == 1
        with pytest.raises(AttributeError):
            g.edges.append(Edge(3, 1, 3, 1, 1))

    @pytest.mark.parametrize("kind", [ColoredDigraph, ColoredMultigraph])
    def test_tuple_edges_are_stored_as_edges(self, kind):
        g = kind(3, 2, [(0, 1, 2, 1), (1, 2, 3, 2, None), (2, 3, 1, 2, 5)])
        assert g.edges == (Edge(0, 1, 2, 1), Edge(1, 2, 3, 2), Edge(2, 3, 1, 2, 5))
        assert [type(e) for e in g.edges] == [Edge] * 3
        assert g.edge(0).weight is None and g.edge(1).weight is None and g.edge(2).weight == 5
        assert g == kind(3, 2, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 2), Edge(2, 3, 1, 2, 5)))

    @pytest.mark.parametrize("kind", [ColoredDigraph, ColoredMultigraph])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 1, 2, 1.5), "edge color 1.5"),
            ((0.0, 1, 2, 1), "edge id 0.0"),
            ((0, True, 2, 1), "edge tail True"),
            ((0, 1, 2, 1, 2.0), "edge weight 2.0"),
            ((0, 1, 2, 1, False), "edge weight False"),
        ],
    )
    def test_a_tuple_edge_is_checked_as_an_edge(self, kind, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
            kind(3, 2, [fields])
