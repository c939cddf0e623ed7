import random
import re

import pytest
from hypothesis import given, settings

from ccarb.graph import ColoredDigraph, Edge, reverse
from ccarb.oracle import (
    color_histogram,
    enumerate_arborescences,
    enumerate_functional,
    is_arborescence,
    oracle_count,
    oracle_min_weight,
)

from support import bareiss_det, classical_in_laplacian_minor, random_digraph, small_digraphs


def bidirected_triangle():
    arcs = []
    for a, b in ((1, 2), (2, 3), (1, 3)):
        arcs.append(Edge(len(arcs), a, b, 1))
        arcs.append(Edge(len(arcs), b, a, 1))
    return ColoredDigraph(3, 1, tuple(arcs))


class TestEnumerate:
    def test_single_vertex(self):
        g = ColoredDigraph(1, 1, ())
        arbs = enumerate_arborescences(g, 1)
        assert len(arbs) == 1
        assert arbs[0].edge_ids == ()

    def test_two_cycle(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 1, 1)))
        arbs = enumerate_arborescences(g, 1)
        assert [a.edge_ids for a in arbs] == [(0,)]

    def test_bidirected_triangle(self):
        assert len(enumerate_arborescences(bidirected_triangle(), 1)) == 3

    @pytest.mark.parametrize(
        "root, message", [(1.0, "root 1.0 is not an integer"), (True, "root True is not an integer"), (9, "root 9 out of range 1..3")]
    )
    def test_root_is_checked(self, root, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_arborescences(bidirected_triangle(), root)

    def test_cap(self):
        g = ColoredDigraph(8, 1, ())
        with pytest.raises(ValueError, match="cap"):
            enumerate_arborescences(g, 1)

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs())
    def test_counts_match_kirchhoff(self, g):
        # Tutte's directed matrix-tree theorem at x = 1: the root's Laplacian minor counts its trees.
        for root in range(1, g.n + 1):
            minor_at_one = classical_in_laplacian_minor(g, root, (1,) * (g.q - 1))
            assert len(enumerate_arborescences(g, root)) == bareiss_det(minor_at_one)

    def test_every_result_is_an_arborescence(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(1, 5), rng.randint(1, 3))
            for root in range(1, g.n + 1):
                for arb in enumerate_arborescences(g, root):
                    assert is_arborescence(g, root, arb.edge_ids)


class TestCount:
    def test_two_edge_example(self):
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1), Edge(1, 1, 2, 2)))
        assert oracle_count(g, 1, (1,)) == 1
        assert oracle_count(g, 1, (0,)) == 1
        assert oracle_count(g, 1, (2,)) == 0

    def test_histogram(self):
        g = ColoredDigraph(3, 2, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 2)))
        assert color_histogram(g, (0, 1)) == (1, 1)


class TestMinWeight:
    def test_single_arc(self):
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1, 3),), ("s", "t"))
        assert oracle_min_weight(g, 1, (1,)) == (3, 1)

    def test_infeasible(self):
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1, 3),), ("s", "t"))
        assert oracle_min_weight(g, 1, (0,)) is None

    def test_two_equal_optima(self):
        edges = (
            Edge(0, 1, 2, 1, 1),
            Edge(1, 1, 2, 2, 1),
            Edge(2, 1, 3, 1, 1),
            Edge(3, 1, 3, 2, 1),
        )
        assert oracle_min_weight(ColoredDigraph(3, 2, edges), 1, (1,)) == (2, 2)


class TestFunctional:
    def test_self_loop(self):
        g = ColoredDigraph(1, 1, (Edge(0, 1, 1, 1),))
        assert enumerate_functional(g, ()) == 1

    def test_no_out_edge(self):
        assert enumerate_functional(ColoredDigraph(1, 1, ()), ()) == 0

    def test_wrong_length_alpha_is_refused_before_enumerating(self):
        # Vertex 2 has no out-arc, so there is nothing to enumerate; the length check still fires.
        g = ColoredDigraph(2, 2, (Edge(0, 1, 2, 1),))
        with pytest.raises(ValueError, match="q-1 = 1 entries"):
            enumerate_functional(g, ())

    def test_two_cycle_rejected(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 1, 1)))
        assert enumerate_functional(g, ()) == 0

    def test_loop_plus_tree(self):
        g = ColoredDigraph(2, 1, (Edge(0, 1, 1, 1), Edge(1, 2, 1, 1)))
        assert enumerate_functional(g, ()) == 1


class TestBijection:
    def test_arborescences_match_reversed_loop_functional(self):
        # Reversing all arcs and adding a color-q self-loop at the root turns
        # root-arborescences into functional subgraphs with only the one loop.
        rng = random.Random(22)
        for _ in range(25):
            g = random_digraph(rng, rng.randint(1, 4), rng.randint(1, 3))
            root = rng.randint(1, g.n)
            with_loop = ColoredDigraph(
                g.n, g.q, g.edges + (Edge(len(g.edges), root, root, g.q),), g.labels
            )
            mirrored = reverse(with_loop)
            seen_alphas = {
                color_histogram(g, a.edge_ids)[: g.q - 1]
                for a in enumerate_arborescences(g, root)
            }
            for alpha in seen_alphas | {(0,) * (g.q - 1)}:
                assert oracle_count(g, root, alpha) == enumerate_functional(mirrored, alpha)


class TestIsArborescence:
    def test_rejects_wrong_size(self):
        g = ColoredDigraph(3, 1, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 1)))
        assert is_arborescence(g, 1, (0, 1))
        assert not is_arborescence(g, 1, (0,))

    def test_rejects_cycle(self):
        g = ColoredDigraph(3, 1, (Edge(0, 2, 3, 1), Edge(1, 3, 2, 1)))
        assert not is_arborescence(g, 1, (0, 1))

    def test_rejects_edge_into_root(self):
        g = ColoredDigraph(2, 1, (Edge(0, 2, 1, 1),))
        assert not is_arborescence(g, 1, (0,))
