"""Counting, deciding, and finding color-constrained arborescences.

The count of arborescences rooted at s with a prescribed color histogram is
the coefficient of the matching monomial in the determinant of the symbolic
in-degree Laplacian with row and column s deleted.  Spanning trees of an
undirected graph reduce to arborescences of the bidirected graph, and
functional subgraphs whose cycles are all self-loops are counted by the
determinant of the full out-degree Laplacian.
"""

from __future__ import annotations

from collections import namedtuple

from .determinant import det_poly
from .graph import (
    ColoredDigraph,
    ColoredMultigraph,
    Edge,
    bidirect,
    check_directed,
    check_index,
    check_integer,
    color_histogram,
    dedup_min_weight,
    is_arborescence,
    lightest,
    reaches_all,
    reverse,
)
from .laplacian import build_laplacian, root_minor


class Arborescence(namedtuple("Arborescence", "root edge_ids")):
    """Spanning out-tree rooted at `root`: the ids of its n-1 edges, ascending."""

    __slots__ = ()


def _checked_alpha(q: int, alpha) -> tuple[int, ...]:
    values = tuple(check_integer(a, "color constraint entry") for a in alpha)
    if len(values) != q - 1:
        raise ValueError(f"color constraint must have q-1 = {q - 1} entries, got {len(values)}")
    if any(a < 0 for a in values):
        raise ValueError("color constraint entries must be nonnegative")
    return values


def _checked_root(graph: ColoredDigraph, root: int) -> None:
    check_directed(graph)
    check_index(root, "root", graph.n)
    if graph.has_self_loops:
        raise ValueError("self-loops are not allowed here")


def count_table(graph: ColoredDigraph, root: int) -> dict[tuple[int, ...], int]:
    """Counts of root-arborescences for every color constraint at once.

    Returns a map from exponent vectors (edge counts of colors 1..q-1; the
    color-q count is implied by the n-1 total) to positive counts.  Absent
    vectors mean count zero; a graph with no arborescence yields an empty
    table, at once when some vertex is unreachable from the root.  Raises
    ValueError unless `graph` is a ColoredDigraph without self-loops and
    `root` is one of its vertices.
    """
    _checked_root(graph, root)
    if not reaches_all(graph, root):
        return {}
    return det_poly(root_minor(graph.n, graph.q, graph.edges, root))


def count(graph: ColoredDigraph, root: int, alpha) -> int:
    """Number of root-arborescences with exactly alpha_c edges of color c."""
    constraint = _checked_alpha(graph.q, alpha)
    return count_table(graph, root).get(constraint, 0)


def decide(graph: ColoredDigraph, root: int, alpha) -> bool:
    """Whether at least one arborescence satisfies the color constraint."""
    return count(graph, root, alpha) > 0


def _search(
    graph: ColoredDigraph, root: int, alpha: tuple[int, ...], r: int, above: int, floor=None, slack: int = 0
) -> Arborescence:
    """The first solution by the in-arc id of vertex 1, then 2, ...; a question holds unless `above` divides it.

    The search's one state is `live`, each non-root vertex's list of live
    in-arcs, at first those of `dedup_min_weight(graph)` but for colors
    with no room and, given `floor` (the map of each non-root vertex v to
    its lightest in-weight m_v), but for arcs with w - m_v > slack.  A
    question is such a map; its arcs are the union of the lists.  It is one
    `det_poly` call, on the minor `root_minor` builds from them at the root
    with arc values r^w, or r^(w - m_v) given `floor`, and its alpha
    coefficient modulo `above` answers it.  Each vertex v, in ascending
    order, is left one live in-arc, the smallest-id one some solution still
    uses: a one-arc row, which `determinant._reduce` contracts.  v's candidates
    are its live in-arcs whose tail does not lead back to v through the
    decided vertices' arcs, one per color and "top" (where those arcs lead
    the tail), picked as `dedup_min_weight` picks.  The first is asked
    about alone; that probe, like the final take, also drops its color's
    arcs into later vertices if it fills the color's room.  If unused, the
    rest are halved, each half asked as `{**live, v: half}` and kept when
    some solution uses it.  The last is taken unasked: at most
    1 + ceil(log2(d - 1)) questions for d candidates.  The result is
    certified against `graph` (ValueError if not).
    """
    room = [*alpha, graph.n - 1 - sum(alpha)]
    live: dict[int, list[Edge]] = {v: [] for v in range(1, graph.n + 1) if v != root}
    for e in dedup_min_weight(graph).edges:
        if e.head != root and room[e.color - 1] > 0 and (floor is None or e.weight - floor[e.head] <= slack):
            live[e.head].append(e)

    def taking(arc: Edge) -> dict[int, list[Edge]]:
        # live with arc alone into its head, and none of its color into later vertices if it fills the room.
        lists = {**live, arc.head: [arc]}
        if room[arc.color - 1] < 2:
            lists.update({w: [e for e in arcs if e.color != arc.color] for w, arcs in lists.items() if w > arc.head})
        return lists

    def top(vertex: int) -> int:
        while vertex < v and vertex != root:
            vertex = live[vertex][0].tail
        return vertex

    for v in list(live):
        tries = [e for e in lightest(live[v], lambda e: (top(e.tail), e.color)) if top(e.tail) != v]
        if not tries:  # only a wrong answer leaves v no usable in-arc
            raise ValueError("certificate check failed: the result is not an arborescence")
        size = 1
        while len(tries) > 1:
            half, rest = tries[:size], tries[size:]
            probe = taking(half[0]) if size == 1 else {**live, v: half}
            question = [e for arcs in probe.values() for e in arcs]
            kept = det_poly(root_minor(graph.n, graph.q, question, root, r, floor)).get(alpha, 0) % above
            tries = half if kept else rest
            size = len(tries) // 2
        live = taking(tries[0])
        room[tries[0].color - 1] -= 1
    edge_ids = tuple(sorted(arcs[0].id for arcs in live.values()))
    if not is_arborescence(graph, root, edge_ids):
        raise ValueError("certificate check failed: the result is not an arborescence")
    if color_histogram(graph, edge_ids)[: graph.q - 1] != alpha:
        raise ValueError("certificate check failed: the color histogram differs from alpha")
    return Arborescence(root, edge_ids)


def find(graph: ColoredDigraph, root: int, alpha) -> Arborescence | None:
    """Find one arborescence matching the color constraint, or None.

    Counts the matching arborescences once (None when there are none).
    Then each non-root vertex, in ascending order, keeps the smallest-id
    in-arc that a matching arborescence still uses, and its other in-arcs
    are deleted.  Each question is the union of the non-root vertices'
    lists of live in-arcs, which hold only usable arcs of the input (the
    lightest, then smallest-id, of each parallel same-color group; none of
    a color whose room is filled).  Its coefficient counts its matching
    arborescences, at most the count, so it holds unless count + 1
    divides it, which is when it is nonzero: `find_min`'s rule at W = 0
    and r = count + 1.  A vertex with d candidates asks at most
    1 + ceil(log2(d - 1)) questions.  On an unweighted graph the result is
    the first match by the in-arc id of vertex 1, then 2, and so on.  It
    is checked to be an arborescence with the requested histogram
    (ValueError if not).  Edge ids refer to the input.
    """
    constraint = _checked_alpha(graph.q, alpha)
    matching = count_table(graph, root).get(constraint, 0)
    return _search(graph, root, constraint, 1, matching + 1) if matching else None


def count_spanning_trees(graph: ColoredMultigraph, alpha) -> int:
    """Number of spanning trees of an undirected graph with histogram alpha.

    Reduction: orient every edge both ways; spanning trees of the original
    graph correspond to arborescences of the bidirected graph rooted at the
    first vertex.
    """
    if not isinstance(graph, ColoredMultigraph):
        raise ValueError(f"this operation needs an undirected graph, got {type(graph).__name__}")
    return count(bidirect(graph), 1, alpha)


def count_functional(graph: ColoredDigraph, alpha) -> int:
    """Spanning functional subgraphs whose every cycle is a self-loop.

    Counts subgraphs choosing one outgoing edge per vertex with histogram
    alpha.  Unlike the arborescence operations this accepts self-loops, and
    no row or column is deleted from the Laplacian.  Only directed graphs
    are accepted.
    """
    check_directed(graph)
    constraint = _checked_alpha(graph.q, alpha)
    # The out-degree Laplacian of a graph is the in-degree Laplacian of its reverse.
    return det_poly(build_laplacian(reverse(graph))).get(constraint, 0)
