"""Symbolic in-degree Laplacians of colored multidigraphs and their minors.

Row v holds only v's in-arcs, so rows are stored sparsely as terms; this is
the only module that reads that layout.  Color q contributes to the
constant term (x_q is fixed to 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ColoredDigraph

Term = tuple[int, int, int]


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix whose entries have degree at most one in each variable.

    Row i is a tuple of terms (column, slot, coefficient): columns are
    0-based, slot 0 is the constant term and slot c the coefficient of x_c.
    Terms with the same (column, slot) add up; an entry without terms is 0.
    """

    nvars: int
    rows: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("variable count must be nonnegative")
        for i, row in enumerate(self.rows):
            for term in row:
                if not (0 <= term[0] < self.dim and 0 <= term[1] <= self.nvars):
                    raise ValueError(
                        f"row {i}: term {term} is outside columns 0..{self.dim - 1} or slots 0..{self.nvars}"
                    )

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def variable_rows(self) -> tuple[int, ...]:
        """Number of rows with a nonzero x_c term (the determinant's degree bound), for c = 1..nvars."""
        counts = [0] * (self.nvars + 1)
        for row in self.rows:
            for slot in {slot for _, slot, coeff in row if coeff}:
                counts[slot] += 1
        return tuple(counts[1:])

    def evaluate(self, point: tuple[int, ...]) -> list[list[int]]:
        """Substitute integers for x_1..x_nvars; the entries are exact integers."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        values = (1, *point)
        scalar = []
        for row in self.rows:
            out = [0] * len(self.rows)
            for column, slot, coeff in row:
                out[column] += coeff * values[slot]
            scalar.append(out)
        return scalar


def build_laplacian(graph: ColoredDigraph, r: int | None = None) -> SymbolicMatrix:
    """Build the symbolic in-degree Laplacian.

    Each arc u -> v of color c adds the term (v, c, +value) to row v and,
    unless u = v, the term (u, c, -value), so the terms of one entry share
    a sign.  The value is 1, or r^w for an arc of weight w when a base r is
    given, which requires every edge to carry a weight.  Parallel arcs add
    up, so the determinant sums over them as over distinct arcs.
    """
    if r is not None and not graph.weighted:
        raise ValueError("a weighted Laplacian requires all edges to carry weights")
    rows: list[list[Term]] = [[] for _ in range(graph.n)]
    for e in graph.edges:
        value = 1 if r is None else r**e.weight
        slot = 0 if e.color == graph.q else e.color
        row = rows[e.head - 1]
        row.append((e.head - 1, slot, value))
        if e.tail != e.head:
            row.append((e.tail - 1, slot, -value))
    return SymbolicMatrix(graph.q - 1, tuple(map(tuple, rows)))


def minor(matrix: SymbolicMatrix, index: int) -> SymbolicMatrix:
    """Delete row and column `index` (1-based); remaining order is preserved."""
    if not (1 <= index <= matrix.dim):
        raise ValueError(f"index {index} out of range 1..{matrix.dim}")
    drop = index - 1
    rows = (row for i, row in enumerate(matrix.rows) if i != drop)
    renumbered = tuple(tuple((j - (j > drop), slot, coeff) for j, slot, coeff in row if j != drop) for row in rows)
    return SymbolicMatrix(matrix.nvars, renumbered)
