"""Expected answers for benchmark ops, computed without ccarb's determinant engine.

Instances with n <= 7 are settled by brute force (`ccarb.oracle`), which
enumerates arborescences directly.  Larger `count-all` tables are checked
against an exact fraction-free (Bareiss) determinant of the colored
Laplacian minor, built here from the arc list, at random integer points.
Larger `find`/`decide` instances get their truth from the generator: a
feasible constraint is the histogram of a tree found in the graph, and an
infeasible one asks for more arcs of a color than can fit (see suite.py).
Every printed tree is certified directly: it must be a spanning
arborescence with the requested histogram and, for `find-min`, the
expected minimum weight.
"""

from __future__ import annotations

import random
from typing import Callable

from ccarb.graph import ColoredDigraph, Edge
from ccarb.oracle import color_histogram, enumerate_arborescences, is_arborescence

from suite import Arc, Instance, Op

ORACLE_MAX_N = 7

Check = Callable[[str, int], bool]


def digraph(inst: Instance) -> ColoredDigraph:
    """The instance as a ColoredDigraph; undirected edges become arc pairs."""
    arcs = list(inst.arcs)
    if not inst.directed:
        arcs = [b for a in arcs for b in (a, Arc(a.head, a.tail, a.color, a.weight))]
    edges = tuple(Edge(i, a.tail, a.head, a.color, a.weight) for i, a in enumerate(arcs))
    return ColoredDigraph(inst.n, inst.q, edges, tuple(f"v{i}" for i in range(1, inst.n + 1)))


def _trees_by_alpha(graph: ColoredDigraph, root: int) -> dict[tuple[int, ...], list[int]]:
    """Weights (0 when unweighted) of all root-arborescences, keyed by constraint."""
    table: dict[tuple[int, ...], list[int]] = {}
    for arb in enumerate_arborescences(graph, root, cap=ORACLE_MAX_N):
        alpha = color_histogram(graph, arb.edge_ids)[: graph.q - 1]
        weight = sum(graph.edge(i).weight or 0 for i in arb.edge_ids)
        table.setdefault(alpha, []).append(weight)
    return table


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1] if size else 1


def laplacian_minor_at(inst: Instance, point: tuple[int, ...]) -> list[list[int]]:
    """In-degree Laplacian with x_c = point[c-1] (x_q = 1), root row and column removed."""
    size = inst.n
    mat = [[0] * size for _ in range(size)]
    for a in inst.arcs:
        x = point[a.color - 1] if a.color < inst.q else 1
        mat[a.head - 1][a.head - 1] += x
        mat[a.head - 1][a.tail - 1] -= x
    keep = [i for i in range(size) if i != inst.root - 1]
    return [[mat[i][j] for j in keep] for i in keep]


def _parse_table(stdout: str, nvars: int, n: int) -> dict[tuple[int, ...], int] | None:
    table: dict[tuple[int, ...], int] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("\t")
        if not sep:
            return None
        alpha = tuple(int(a) for a in key.split(","))
        count = int(value)
        if len(alpha) != nvars or min(alpha) < 0 or sum(alpha) > n - 1 or count <= 0 or alpha in table:
            return None
        table[alpha] = count
    return table if list(table) == sorted(table) else None


def _edge_ids(graph: ColoredDigraph, lines: list[str], weighted: bool) -> list[int] | None:
    """Map printed `tail head color [weight]` lines to ids of matching edges."""
    by_key = {}
    for e in graph.edges:
        key = (graph.vertex_label(e.tail), graph.vertex_label(e.head), str(e.color))
        if weighted:
            key += (str(e.weight),)
        by_key.setdefault(key, e.id)
    ids = [by_key.get(tuple(line.split())) for line in lines]
    return None if None in ids else ids


def _table_text(table: dict[tuple[int, ...], list[int]]) -> str:
    return "".join(f"{','.join(map(str, alpha))}\t{len(table[alpha])}\n" for alpha in sorted(table))


def prepare(op: Op) -> Check:
    """Work out the expected answer of `op`; return a check of (stdout, exit code).

    The generator's feasibility claim is confirmed by brute force when
    n <= 7; a disagreement raises ValueError.
    """
    inst, feasible = op.instance, op.feasible
    graph = digraph(inst)
    root = inst.root if inst.directed else 1
    alpha = op.alpha
    trees = _trees_by_alpha(graph, root) if inst.n <= ORACLE_MAX_N else None
    if trees is not None and alpha is not None and feasible is not None and feasible != (alpha in trees):
        raise ValueError(f"op {op.id}: generator feasibility claim is wrong")

    if op.command == "count-all":
        if trees is not None:
            expected = _table_text(trees)
            return lambda out, code: code == 0 and out == expected
        rng = random.Random(op.id)
        points = [tuple(rng.randint(1, 1 << 32) for _ in range(inst.q - 1)) for _ in range(2)]
        dets = [bareiss_det(laplacian_minor_at(inst, x)) for x in points]

        def check_table(out: str, code: int) -> bool:
            try:
                table = _parse_table(out, inst.q - 1, inst.n)
            except ValueError:
                return False
            if code != 0 or table is None:
                return False
            for x, det in zip(points, dets):
                value = 0
                for exps, count in table.items():
                    term = count
                    for base, e in zip(x, exps):
                        term *= base**e
                    value += term
                if value != det:
                    return False
            return True

        return check_table

    if op.command == "spanning-trees":
        expected = f"{len(trees.get(alpha, []))}\n"
        return lambda out, code: code == 0 and out == expected

    if op.command == "decide":
        return lambda out, code: (code, out) == ((0, "yes\n") if feasible else (1, "no\n"))

    if op.command == "find":
        if not feasible:
            return lambda out, code: (code, out) == (1, "none\n")

        def check_find(out: str, code: int) -> bool:
            ids = _edge_ids(graph, out.splitlines(), weighted=False)
            return code == 0 and ids is not None and _certified(graph, root, ids, alpha)

        return check_find

    best = min(trees[alpha]) if alpha in trees else None
    if best is None:
        return lambda out, code: (code, out) == (1, "infeasible\n")
    if op.command == "min-weight":
        return lambda out, code: (code, out) == (0, f"{best}\n")
    if op.command == "find-min":

        def check_find_min(out: str, code: int) -> bool:
            head, *lines = out.splitlines() or [""]
            ids = _edge_ids(graph, lines, weighted=True)
            return (
                code == 0
                and head == str(best)
                and ids is not None
                and _certified(graph, root, ids, alpha)
                and sum(graph.edge(i).weight for i in ids) == best
            )

        return check_find_min
    raise ValueError(f"no checker for {op.command!r}")


def _certified(graph: ColoredDigraph, root: int, ids: list[int], alpha) -> bool:
    return is_arborescence(graph, root, ids) and color_histogram(graph, ids)[: graph.q - 1] == tuple(alpha)
