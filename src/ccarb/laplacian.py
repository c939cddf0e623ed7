"""Symbolic in-degree Laplacians of colored multidigraphs and their minors.

Row v holds only v's in-arcs, so rows are stored sparsely as terms, which
`determinant._reduce` reads too: it rewrites them and sums them for the
Leibniz bound.  `det_poly` evaluates the rows it leaves at each point
through `_evaluate`, which `SymbolicMatrix.evaluate` calls once it has
checked the point.  Builders pass lists; `SymbolicMatrix` stores tuples.
Color q contributes to the constant term (x_q is fixed to 1).  Every
matrix the operations take is built by `root_minor`, without the row and
column of a real root; the full Laplacian is the minor at an added vertex
with no arcs.

`SymbolicMatrix(...)` checks every term.  `root_minor`, the only builder
that skips the checks (through `SymbolicMatrix._trusted`), trusts its
callers: its arcs come from a checked graph (endpoints in 1..n, colors in
1..q, integer weights, which `minweight` may lower to reduced costs that
are never negative), its root is a checked vertex or the added one, and
its base r is an int, checked where it enters, in `minweight.c_alpha_r`.
So no question of a search pays for checks of the engine's own terms.
"""

from __future__ import annotations

from .graph import ColoredDigraph, Frozen, check_index, check_integer


class SymbolicMatrix(Frozen):
    """Square matrix whose entries have degree at most one in each variable.

    `nvars`, the number of variables, is an int.  `rows` is any iterable of rows, each any iterable of
    terms, stored as a tuple of tuples.  A term is three ints (column, slot, coefficient): columns are
    0-based, slot 0 is the constant term and slot c the coefficient of x_c.  Terms with the same
    (column, slot) add up; an entry without terms is 0.
    """

    __slots__ = _fields = ("nvars", "rows")

    def __init__(self, nvars: int, rows):
        object.__setattr__(self, "nvars", nvars := check_integer(nvars, "variable count"))
        object.__setattr__(self, "rows", rows := tuple(map(tuple, rows)))
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        dim = len(rows)
        for i, row in enumerate(rows):
            for term in row:
                if not (type(term) is tuple and len(term) == 3 and type(term[0]) is type(term[1]) is type(term[2]) is int):
                    raise ValueError(f"row {i}: term {term} is not three integers")
                if not (0 <= term[0] < dim and 0 <= term[1] <= nvars):
                    raise ValueError(f"row {i}: term {term} is outside columns 0..{dim - 1} or slots 0..{nvars}")

    @classmethod
    def _trusted(cls, nvars: int, rows) -> SymbolicMatrix:
        # The matrix without the checks, for root_minor, whose terms are
        # three ints in range by construction (see the module docstring).
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "nvars", nvars)
        object.__setattr__(matrix, "rows", tuple(map(tuple, rows)))
        return matrix

    @property
    def dim(self) -> int:
        return len(self.rows)

    def evaluate(self, point: tuple[int, ...]) -> list[list[int]]:
        """Substitute integers for x_1..x_nvars; the entries are exact integers."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        return _evaluate(self.rows, point)


def _evaluate(rows, point: tuple[int, ...]) -> list[list[int]]:
    # The integer rows of square rows of terms at x_1..x_nvars = point, unchecked.
    values = (1, *point)
    scalar = []
    for row in rows:
        out = [0] * len(rows)
        for column, slot, coeff in row:
            out[column] += coeff * values[slot]
        scalar.append(out)
    return scalar


def root_minor(n: int, q: int, arcs, root: int, r: int = 1) -> SymbolicMatrix:
    """The in-degree Laplacian of the arcs on vertices 1..n, without row and column `root`.

    Each arc u -> v of color c and weight w is worth r^w, an unweighted arc
    weighing 0 as `graph.lightest` takes it, so every arc is worth 1 at the
    default r = 1.  It adds the term (v, c, +value) to row v and, unless
    u = v or u is the root, the term (u, c, -value), so the terms of one
    entry share a sign.  Arcs into the root touch only the root's row, so
    they are skipped.  Parallel arcs add up, so the determinant sums over
    them as over distinct arcs.
    """
    column = [v - 1 - (v > root) for v in range(n + 1)]
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n - 1)]
    # An Edge is the tuple of its fields, and unpacking it beats reading them by name.
    for _, tail, head, color, weight in arcs:
        if head == root:
            continue
        value = r ** (weight or 0)
        slot = 0 if color == q else color
        row = rows[column[head]]
        row.append((column[head], slot, value))
        if tail != head and tail != root:
            row.append((column[tail], slot, -value))
    return SymbolicMatrix._trusted(q - 1, rows)


def build_laplacian(graph: ColoredDigraph) -> SymbolicMatrix:
    """The in-degree Laplacian of all the graph's arcs, each worth 1: the minor at an added vertex with no arcs."""
    return root_minor(graph.n + 1, graph.q, graph.edges, graph.n + 1)


# No operation calls `minor`; kept for benchmark/spans.py's tracer and the tests until ROADMAP items 1 and 12.
def minor(matrix: SymbolicMatrix, index: int) -> SymbolicMatrix:
    """Delete row and column `index` (1-based); remaining order is preserved."""
    check_index(index, "index", matrix.dim)
    drop = index - 1
    rows = (row for i, row in enumerate(matrix.rows) if i != drop)
    renumbered = ([(j - (j > drop), slot, coeff) for j, slot, coeff in row if j != drop] for row in rows)
    return SymbolicMatrix(matrix.nvars, renumbered)
