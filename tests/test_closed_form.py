"""Closed-form families: the engine checked past the oracle, without the matrix-tree theorem.

The weighted Cayley formula for rooted trees sums over the arborescences T
of the complete digraph on vertices 1..n rooted at s:

    sum_T prod_v y_v^outdeg_T(v) = y_s (y_1 + ... + y_n)^(n - 2)

(A. Cayley, Quart. J. Math. 23, 1889; R. P. Stanley, Enumerative
Combinatorics, Vol. 2, 1999, Section 5.3).  Each arc u -> v is coloured by a
class c(u) of its tail and weighs w(u), so T has outdeg_T(u) arcs of colour
c(u), weighing w(u) each, and y_v = x_c(v) r^w(v) with x_q = 1.  So the
expansion is, for every histogram, the sum of r^w(T) over its arborescences:
the count table at r = 1, `c_alpha_r` at any r, and `min_weight` as its
lowest power of r.  Tail-coloured rows mix colours and have content 1, so
the head-coloured family covers the content step: colouring u -> v by c(v)
and doubling every arc, row v is 2 x_c(v) times a row of constants, and
every arborescence has one histogram and 2^(n - 1) n^(n - 2) copies.
"""

import random

import pytest

from ccarb.counting import count, count_table, find
from ccarb.graph import ColoredDigraph, Edge
from ccarb.minweight import c_alpha_r, find_min, min_weight
from ccarb.oracle import color_histogram, is_arborescence


def complete(n: int, q: int, seed: int, weighted: bool = False, by_head: bool = False, copies: int = 1):
    """(graph, class of each vertex, weight of each vertex or 0): the complete digraph, each arc
    coloured by its tail's class (or its head's) and weighing its tail's weight, `copies` times over."""
    rng = random.Random(seed)
    colour = {v: rng.randint(1, q) for v in range(1, n + 1)}
    weight = {v: rng.randint(1, 3) if weighted else 0 for v in range(1, n + 1)}
    arcs = [
        (u, v, colour[v if by_head else u], weight[u] or None)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v
        for _ in range(copies)
    ]
    return ColoredDigraph(n, q, tuple(Edge(i, *arc) for i, arc in enumerate(arcs))), colour, weight


def cayley(n: int, q: int, root: int, colour: dict, weight: dict) -> dict:
    """y_root (sum_v y_v)^(n - 2) as {(alpha, power of r): coefficient}, y_v = x_colour(v) r^weight(v)."""

    def y(v):
        return tuple(int(colour[v] == c) for c in range(1, q)), weight[v]

    def times(poly, factor):
        out = {}
        for (alpha, k), coeff in poly.items():
            for (beta, j), other in factor.items():
                key = tuple(a + b for a, b in zip(alpha, beta)), k + j
                out[key] = out.get(key, 0) + coeff * other
        return out

    total = {}
    for v in range(1, n + 1):
        total[y(v)] = total.get(y(v), 0) + 1
    poly = {y(root): 1}
    for _ in range(n - 2):
        poly = times(poly, total)
    return poly


@pytest.mark.parametrize("n, q, seed", [(12, 3, 1), (20, 3, 2), (40, 2, 3)])
def test_count_table_is_the_cayley_expansion(n, q, seed):
    graph, colour, weight = complete(n, q, seed)
    assert count_table(graph, 1) == {alpha: coeff for (alpha, _), coeff in cayley(n, q, 1, colour, weight).items()}


@pytest.mark.parametrize("n, q, seed", [(12, 3, 4), (20, 3, 5), (20, 4, 6)])
def test_each_row_sheds_its_content_on_the_head_coloured_family(n, q, seed):
    graph, colour, _ = complete(n, q, seed, by_head=True, copies=2)
    root = 2
    alpha = tuple(sum(colour[v] == c for v in colour if v != root) for c in range(1, q))
    assert count_table(graph, root) == {alpha: 2 ** (n - 1) * n ** (n - 2)}


@pytest.mark.parametrize("n, q, seed", [(8, 2, 7), (10, 3, 8), (12, 2, 9)])
def test_weights_follow_the_cayley_expansion(n, q, seed):
    graph, colour, weight = complete(n, q, seed, weighted=True)
    root = n
    expansion = cayley(n, q, root, colour, weight)
    alphas = sorted({alpha for alpha, _ in expansion})
    # The first, middle and last histograms; the searches are checked by certificate.
    for alpha in alphas[:: max(1, (len(alphas) - 1) // 2)]:
        terms = {k: coeff for (beta, k), coeff in expansion.items() if beta == alpha}
        assert count(graph, root, alpha) == sum(terms.values())
        assert c_alpha_r(graph, root, alpha, 3) == sum(coeff * 3**k for k, coeff in terms.items())
        assert min_weight(graph, root, alpha) == min(terms)
        arb, weighs = find_min(graph, root, alpha)
        assert weighs == min(terms) == sum(graph.edge(i).weight for i in arb.edge_ids)
        for found in (arb, find(graph, root, alpha)):
            assert is_arborescence(graph, root, found.edge_ids)
            assert color_histogram(graph, found.edge_ids)[: q - 1] == alpha
