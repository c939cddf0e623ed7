"""Counting, deciding, and finding color-constrained arborescences.

The count of arborescences rooted at s with a prescribed color histogram is
the coefficient of the matching monomial in the determinant of the symbolic
in-degree Laplacian with row and column s deleted.  Spanning trees of an
undirected graph reduce to arborescences of the bidirected graph, and
functional subgraphs whose cycles are all self-loops are counted by the
determinant of the full out-degree Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .determinant import det_poly
from .graph import (
    ColoredDigraph,
    ColoredMultigraph,
    bidirect,
    check_directed,
    check_index,
    check_integer,
    color_histogram,
    contract,
    dedup_min_weight,
    is_arborescence,
    reaches_all,
    remove_edge,
    reverse,
)
from .laplacian import build_laplacian, minor


@dataclass(frozen=True)
class Arborescence:
    """Spanning out-tree rooted at `root`: the ids of its n-1 edges, ascending."""

    root: int
    edge_ids: tuple[int, ...]


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
    # Arcs into the root touch only the root's row, which the minor deletes.
    reduced = minor(build_laplacian(graph), root)
    return det_poly(reduced)


def count(graph: ColoredDigraph, root: int, alpha) -> int:
    """Number of root-arborescences with exactly alpha_c edges of color c."""
    constraint = _checked_alpha(graph.q, alpha)
    return count_table(graph, root).get(constraint, 0)


def decide(graph: ColoredDigraph, root: int, alpha) -> bool:
    """Whether at least one arborescence satisfies the color constraint."""
    return count(graph, root, alpha) > 0


class _Question(NamedTuple):
    """Has `graph` a `root`-arborescence with histogram `alpha`?  `spent`: weight contracted out so far."""

    graph: ColoredDigraph
    root: int
    alpha: tuple[int, ...]
    spent: int


def _question(graph: ColoredDigraph, root: int, alpha: tuple[int, ...], spent: int) -> _Question:
    """The question with only the arcs a solution can use; color q has room for n - 1 - sum(alpha) arcs."""
    room, graph = (*alpha, graph.n - 1 - sum(alpha)), dedup_min_weight(graph)
    unusable = (e.id for e in graph.edges if e.head == root or room[e.color - 1] <= 0)
    return _Question(remove_edge(graph, *unusable), root, alpha, spent)


def _through(question: _Question, arc) -> _Question:
    """The question whose solutions are, by their other arcs, those of `question` through `arc`."""
    return _question(
        contract(question.graph, arc.id),
        question.root - (question.root > arc.head),
        tuple(a - (c == arc.color) for c, a in enumerate(question.alpha, 1)),
        question.spent + (arc.weight or 0),
    )


def _drop(question: _Question, arcs) -> _Question:
    return question._replace(graph=remove_edge(question.graph, *(e.id for e in arcs)))


def _search(graph: ColoredDigraph, root: int, alpha: tuple[int, ...], keeps) -> Arborescence:
    """The first solution by the in-arc id of vertex 1, then 2, ...; `keeps(question)` answers a `_Question`.

    Every question holds only the arcs a solution can use: of each parallel
    same-color group the lightest, none into the root, none of a color alpha
    has no room left for.  Each non-root vertex v in ascending order takes
    the smallest-id in-arc some solution still uses, which is contracted
    out, so later questions see one vertex fewer.  v's first usable in-arc
    is asked about alone, by contraction; if unused, it is deleted and the
    rest halved, keeping the first half when some solution uses it (asked
    with the rest deleted, or by contraction for one arc).  The last is
    taken unasked: at most 1 + ceil(log2(d - 1)) questions for d usable
    in-arcs.  The result is certified against `graph` (ValueError if not).
    """
    question = _question(graph, root, alpha, 0)
    taken = []
    for v in range(1, graph.n + 1):
        if v == root:
            continue
        # Every vertex below v but the root has been contracted out.
        head = v - (graph.n - question.graph.n)
        tries, size, through = [e for e in question.graph.edges if e.head == head], 1, None
        if not tries:
            break  # only a wrong answer leaves v no usable in-arc; the certificates refuse the result
        while through is None and len(tries) > 1:
            half, rest = tries[:size], tries[size:]
            if size > 1:
                without = _drop(question, rest)
                question, tries = (without, half) if keeps(without) else (_drop(question, half), rest)
            elif keeps(probe := _through(question, half[0])):
                through, tries = probe, half
            else:
                question, tries = _drop(question, half), rest
            size = len(tries) // 2
        taken.append(tries[0].id)
        if len(taken) < graph.n - 1:  # the last vertex's arc leaves nothing to ask about
            question = through or _through(question, tries[0])
    edge_ids = tuple(sorted(taken))
    if not is_arborescence(graph, root, edge_ids):
        raise ValueError("certificate check failed: the result is not an arborescence")
    if color_histogram(graph, edge_ids)[: graph.q - 1] != alpha:
        raise ValueError("certificate check failed: the color histogram differs from alpha")
    return Arborescence(root, edge_ids)


def find(graph: ColoredDigraph, root: int, alpha) -> Arborescence | None:
    """Find one arborescence matching the color constraint, or None.

    After one decide on the whole graph, each non-root vertex, in ascending
    order, takes the smallest-id in-arc that a matching arborescence still
    uses and contracts it out.  Decides see only usable arcs (the lightest,
    then smallest-id, of each parallel same-color group; none into the root
    or of a color alpha has no room left for), at most 1 + ceil(log2(d - 1))
    for a vertex with d usable in-arcs.  On an unweighted graph the result
    is the first match by the in-arc id of vertex 1, then 2, and so on.  It
    is checked to be an arborescence with the requested histogram
    (ValueError if not).  Edge ids refer to the input.
    """
    constraint = _checked_alpha(graph.q, alpha)
    if not decide(graph, root, constraint):
        return None
    return _search(graph, root, constraint, lambda question: decide(question.graph, question.root, question.alpha))


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
