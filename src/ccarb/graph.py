"""One model for both kinds of edge-colored graph, with its parser, checks and transforms."""

from __future__ import annotations

import operator
from collections import namedtuple


class GraphParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


def _parse_fail(line_no: int, message: str) -> GraphParseError:
    return GraphParseError(f"line {line_no}: {message}")


class Edge(namedtuple("Edge", "id tail head color weight")):
    """One arc (or undirected edge): endpoints, color, optional weight."""

    __slots__ = ()

    def __new__(cls, id: int, tail: int, head: int, color: int, weight: int | None = None):
        fields = (id, tail, head, color, weight)
        if not (type(id) is type(tail) is type(head) is type(color) is int and (weight is None or type(weight) is int)):
            # An `operator.index` value is stored as the plain int it stands for.
            fields = tuple(
                value if value is None and name == "weight" else check_integer(value, f"edge {name}")
                for name, value in zip(cls._fields, fields)
            )
        return tuple.__new__(cls, fields)


class Frozen:
    """A slotted value that refuses assignment and equals only its own class with equal `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _Graph(Frozen):
    """A q-colored multigraph on vertices 1..n; graphs of different kinds never compare equal.

    `edges` (of `Edge`s or `(id, tail, head, color[, weight])` tuples, each built and checked as an
    `Edge`) and `labels` may be any iterables; both are stored as tuples.  `labels[i-1]` names vertex
    i for the first `len(labels)` vertices.  Edge ids are input-order ordinals, every loop over edges
    runs in ascending id, and transforms return new graphs.  Both public constructors check every
    field; `_trusted` builds, unchecked, the graphs whose fields are checked already: the parser's,
    which checks each field as it reads it, the transforms' of a checked graph, `bidirect`'s arcs of
    a checked multigraph and the reachability graph of `is_arborescence`.
    """

    _fields = ("n", "q", "edges", "labels")
    __slots__ = (*_fields, "_edges_by_id")

    def __init__(self, n: int, q: int, edges, labels=()):
        n, q = check_integer(n, "vertex count"), check_integer(q, "color count")
        edges, labels = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges), tuple(labels)
        if n < 1:
            raise ValueError("vertex count must be positive")
        if q < 1:
            raise ValueError("color count must be positive")
        if len(labels) > n:
            raise ValueError("more labels than vertices")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        by_id: dict[int, Edge] = {}
        for e in edges:
            id, tail, head, color, weight = e
            if id in by_id:
                raise ValueError(f"duplicate edge id {id}")
            by_id[id] = e
            if not (1 <= tail <= n and 1 <= head <= n):
                raise ValueError(f"edge {id}: endpoint out of range 1..{n}")
            if not (1 <= color <= q):
                raise ValueError(f"edge {id}: color out of range 1..{q}")
            if weight is not None and weight < 1:
                raise ValueError(f"edge {id}: weight must be >= 1")
        for name, value in zip(_Graph.__slots__, (n, q, edges, labels, by_id)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, n: int, q: int, edges: tuple, labels: tuple = ()) -> _Graph:
        # The graph without the checks, for fields already checked (see the
        # class docstring): `edges`, a tuple of `Edge`s with distinct ids, and
        # `labels` are stored as they are.
        graph = object.__new__(cls)
        for name, value in zip(_Graph.__slots__, (n, q, edges, labels, {e[0]: e for e in edges})):
            object.__setattr__(graph, name, value)
        return graph

    def edge(self, edge_id: int) -> Edge:
        """The stored `Edge` with this id, read from the map that each constructor fills; ValueError if none."""
        try:
            return self._edges_by_id[check_integer(edge_id, "edge id")]
        except KeyError:
            raise ValueError(f"unknown edge id {edge_id}") from None

    @property
    def weighted(self) -> bool:
        return all(e.weight is not None for e in self.edges)

    @property
    def has_self_loops(self) -> bool:
        return any(e.tail == e.head for e in self.edges)

    def vertex_index(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def vertex_label(self, index: int) -> str:
        if not (1 <= check_integer(index, "vertex") <= len(self.labels)):
            raise ValueError(f"vertex {index} has no label")
        return self.labels[index - 1]


class ColoredDigraph(_Graph):
    """A q-colored multidigraph; only the parser and the arborescence operations refuse self-loops."""

    __slots__ = ()


class ColoredMultigraph(_Graph):
    """An undirected q-colored multigraph; `tail`/`head` are the endpoints."""

    __slots__ = ()


def check_integer(value, name: str) -> int:
    """`value` as an int; a float, a bool or any other non-integer raises ValueError naming it."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} {value!r} is not an integer")


def check_index(value, name: str, top: int) -> None:
    """Refuse `value` unless it is an integer in 1..top; the message names it."""
    if not (1 <= check_integer(value, name) <= top):
        raise ValueError(f"{name} {value} out of range 1..{top}")


def check_directed(graph) -> None:
    """Refuse anything but a ColoredDigraph (an undirected graph has no arc directions)."""
    if not isinstance(graph, ColoredDigraph):
        raise ValueError(f"this operation needs a directed graph, got {type(graph).__name__}")


def color_histogram(graph: ColoredDigraph, edge_ids) -> tuple[int, ...]:
    """Edge counts per color 1..q for the given edge ids."""
    counts = [0] * graph.q
    for edge_id in edge_ids:
        counts[graph.edge(edge_id).color - 1] += 1
    return tuple(counts)


def is_arborescence(graph: ColoredDigraph, root: int, edge_ids) -> bool:
    """Whether the edges form a spanning out-tree rooted at `root`.

    Every id must be the graph's, each non-root vertex the head of exactly
    one of them, the root the head of none, and every vertex reachable.
    """
    try:
        arcs = tuple(graph.edge(edge_id) for edge_id in edge_ids)
    except ValueError:
        return False
    if sorted([root, *(e.head for e in arcs)]) != list(range(1, graph.n + 1)):
        return False
    return reaches_all(ColoredDigraph._trusted(graph.n, graph.q, arcs), root)


def parse_graph(text: str) -> ColoredDigraph | ColoredMultigraph:
    """Parse a graph file.

    First significant line: ``n q``.  An optional ``directed`` or
    ``undirected`` line may follow (default directed).  Every further line is
    one edge, ``tail head color`` or ``tail head color weight``; a file must
    not mix weighted and unweighted edge lines.  Lines starting with ``#``
    and blank lines are ignored, and so is a leading byte order mark.  Vertex
    labels are whitespace-free strings that do not start with ``#``,
    numbered 1..n by first appearance.
    """
    header: tuple[int, int] | None = None
    directed: bool | None = None
    weighted: bool | None = None
    labels: dict[str, int] = {}
    edges: list[Edge] = []

    def vertex(token: str, line_no: int) -> int:
        idx = labels.get(token)
        if idx is None:
            if token.startswith("#"):
                # A line it began would be read as a comment.
                raise _parse_fail(line_no, f"vertex label {token!r} starts with '#'")
            if len(labels) >= header[0]:
                raise _parse_fail(line_no, f"more than {header[0]} distinct vertex labels")
            idx = labels[token] = len(labels) + 1
        return idx

    def integer(token: str, line_no: int, message: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise _parse_fail(line_no, message) from None

    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if header is None:
            if len(fields) != 2:
                raise _parse_fail(line_no, "expected header 'n q'")
            header = tuple(integer(token, line_no, "header values must be integers") for token in fields)
            if min(header) < 1:
                raise _parse_fail(line_no, "vertex and color counts must be positive")
            continue
        if len(fields) == 1 and fields[0] in ("directed", "undirected"):
            if directed is not None:
                raise _parse_fail(line_no, "duplicate orientation header")
            if edges:
                raise _parse_fail(line_no, "orientation header must precede edge lines")
            directed = fields[0] == "directed"
            continue
        if len(fields) not in (3, 4):
            raise _parse_fail(line_no, f"expected an edge line with 3 or 4 fields, got {len(fields)}")
        has_weight = len(fields) == 4
        if weighted is None:
            weighted = has_weight
        elif weighted != has_weight:
            raise _parse_fail(line_no, "mixed weighted and unweighted edge lines")
        tail, head = vertex(fields[0], line_no), vertex(fields[1], line_no)
        if tail == head:
            raise _parse_fail(line_no, f"self-loop at vertex {fields[0]!r}")
        color = integer(fields[2], line_no, "color must be an integer")
        if not (1 <= color <= header[1]):
            raise _parse_fail(line_no, f"color {color} out of range 1..{header[1]}")
        weight = integer(fields[3], line_no, "weight must be an integer") if has_weight else None
        if has_weight and weight < 1:
            raise _parse_fail(line_no, f"weight must be positive, got {weight}")
        # Every field is checked above, so the Edge is built as the plain tuple it is.
        edges.append(tuple.__new__(Edge, (len(edges), tail, head, color, weight)))

    if header is None:
        raise _parse_fail(1, "missing header 'n q'")
    cls = ColoredDigraph if directed in (None, True) else ColoredMultigraph
    return cls._trusted(header[0], header[1], tuple(edges), tuple(labels))


def _with_edges(graph: _Graph, edges) -> _Graph:
    """The graph, of the same kind and labels, with `edges` in place of its own.

    Each transform passes `Edge`s of the checked `graph`, or their flips, so they are stored unchecked.
    """
    return type(graph)._trusted(graph.n, graph.q, tuple(edges), graph.labels)


def reverse(graph: ColoredDigraph) -> ColoredDigraph:
    """Flip every arc; ids, colors and weights are preserved.  Only directed graphs are accepted."""
    check_directed(graph)
    return _with_edges(graph, (Edge(e.id, e.head, e.tail, e.color, e.weight) for e in graph.edges))


def dedup_min_weight(graph: ColoredDigraph) -> ColoredDigraph:
    """Keep one minimum-weight edge of each parallel same-color group.

    Ties go to the smallest edge id, and so does every group of an
    unweighted graph, whose edges all tie.  The kept edge can stand in for
    any other of its group in an arborescence without changing its colors
    or raising its weight, so a search needs no other.  Only directed
    graphs are accepted.
    """
    check_directed(graph)
    return _with_edges(graph, lightest(graph.edges, lambda e: (e.tail, e.head, e.color)))


def lightest(edges, key) -> list[Edge]:
    """The minimum-weight edge of each group of equal `key(edge)`, the first of the group on ties, sorted (by id)."""
    best: dict = {}
    for e in edges:
        kept = best.setdefault(group := key(e), e)
        if (e.weight or 0) < (kept.weight or 0):
            best[group] = e
    return sorted(best.values())


def reaches_all(graph: ColoredDigraph, root: int) -> bool:
    """Whether every vertex is reachable from `root`: exactly when a root-arborescence exists."""
    successors: dict[int, list[int]] = {}
    for e in graph.edges:
        successors.setdefault(e.tail, []).append(e.head)
    seen, stack = {root}, [root]
    while stack:
        for w in successors.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n


# No operation calls these two; kept for benchmark/spans.py's tracer and the tests until ROADMAP items 1 and 12.
def remove_in_arcs(graph: ColoredDigraph, vertex: int) -> ColoredDigraph:
    """Delete every arc whose head is `vertex`.  Only directed graphs are accepted."""
    check_directed(graph)
    check_index(vertex, "vertex", graph.n)
    return _with_edges(graph, (e for e in graph.edges if e.head != vertex))


def remove_edge(graph: _Graph, *edge_ids: int) -> _Graph:
    """Delete the edges with the given ids, keeping the graph's kind; every id must be one of the graph's."""
    dropped = {graph.edge(edge_id).id for edge_id in edge_ids}
    return _with_edges(graph, (e for e in graph.edges if e.id not in dropped))


def bidirect(graph: ColoredMultigraph) -> ColoredDigraph:
    """Replace each undirected edge {u, v} by the arc pair (u, v), (v, u)."""
    arcs: list[Edge] = []
    for e in graph.edges:
        arcs.append(tuple.__new__(Edge, (len(arcs), e.tail, e.head, e.color, e.weight)))
        arcs.append(tuple.__new__(Edge, (len(arcs), e.head, e.tail, e.color, e.weight)))
    return ColoredDigraph._trusted(graph.n, graph.q, tuple(arcs), graph.labels)
