"""Shared test helpers: independent reference computations and generators.

The polynomial arithmetic and determinants here are deliberately naive and
separate from the library code paths they check.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import strategies as st

from ccarb import counting
from ccarb.graph import ColoredDigraph, ColoredMultigraph, Edge
from ccarb.laplacian import SymbolicMatrix, build_laplacian, minor

# ---------------------------------------------------------------- dict polys

DictPoly = dict  # exponent tuple -> signed int coefficient


def poly_add(a: DictPoly, b: DictPoly) -> DictPoly:
    out = dict(a)
    for exps, coeff in b.items():
        out[exps] = out.get(exps, 0) + coeff
    return {k: v for k, v in out.items() if v}


def poly_mul(a: DictPoly, b: DictPoly) -> DictPoly:
    out: DictPoly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def poly_eval(a: DictPoly, point) -> int:
    total = 0
    for exps, coeff in a.items():
        term = coeff
        for base, exp in zip(point, exps):
            term *= base**exp
        total += term
    return total


def poly_values(poly: DictPoly, points) -> dict:
    """`poly` at every one of `points`, all of one length, summed out one axis at a time.

    Each axis's exponents are replaced by the values at the nodes the points
    use on that axis, so the work is the partial sums times the nodes per
    axis, where calling `poly_eval` per point costs points times terms.
    """
    points = list(points)
    partial = dict(poly)
    for axis in range(len(points[0]) if points else 0):
        nodes = {point[axis] for point in points}
        summed: DictPoly = {}
        for exps, coeff in partial.items():
            for x in nodes:
                key = exps[:axis] + (x,) + exps[axis + 1 :]
                summed[key] = summed.get(key, 0) + coeff * x ** exps[axis]
        partial = summed
    return {point: partial.get(point, 0) for point in points}


def entry_poly(entry, nvars: int) -> DictPoly:
    """SymbolicMatrix coefficient vector -> dict polynomial."""
    poly: DictPoly = {}
    if entry[0]:
        poly[(0,) * nvars] = entry[0]
    for var, coeff in enumerate(entry[1:]):
        if coeff:
            exps = tuple(1 if j == var else 0 for j in range(nvars))
            poly[exps] = poly.get(exps, 0) + coeff
    return poly


def dense_rows(matrix: SymbolicMatrix) -> list[list[tuple[int, ...]]]:
    """The matrix as rows of coefficient vectors: slot 0 constant, slot c for x_c."""
    dense = [[[0] * (matrix.nvars + 1) for _ in range(matrix.dim)] for _ in range(matrix.dim)]
    for out, row in zip(dense, matrix.rows):
        for column, slot, coeff in row:
            out[column][slot] += coeff
    return [[tuple(entry) for entry in row] for row in dense]


def cofactor_det(matrix: SymbolicMatrix) -> DictPoly:
    """Symbolic determinant by expansion along the first row."""
    rows = [[entry_poly(e, matrix.nvars) for e in row] for row in dense_rows(matrix)]
    return _cofactor(rows, matrix.nvars)


def _cofactor(rows, nvars: int) -> DictPoly:
    size = len(rows)
    if size == 0:
        return {(0,) * nvars: 1}
    if size == 1:
        return dict(rows[0][0])
    total: DictPoly = {}
    sign = 1
    for j in range(size):
        if rows[0][j]:
            sub = [[rows[i][k] for k in range(size) if k != j] for i in range(1, size)]
            for exps, coeff in poly_mul(rows[0][j], _cofactor(sub, nvars)).items():
                total[exps] = total.get(exps, 0) + sign * coeff
        sign = -sign
    return {k: v for k, v in total.items() if v}


def dict_poly_mod(poly: DictPoly, p: int) -> DictPoly:
    """Residues mod p in [0, p), zero residues left out."""
    return {exps: coeff % p for exps, coeff in poly.items() if coeff % p}


def bareiss_det(matrix) -> int:
    """Exact integer determinant, fraction-free elimination."""
    size = len(matrix)
    if size == 0:
        return 1
    rows = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), -1)
            if swap < 0:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[-1][-1]


def is_prime_below_2_32(value: int) -> bool:
    """Miller-Rabin with bases 2, 7 and 61, which is exact below 4,759,123,141."""
    if value < 2:
        return False
    for small in (2, 3, 5, 7, 61):
        if value % small == 0:
            return value == small
    d, s = value - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 7, 61):
        x = pow(base, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(s - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def classical_in_laplacian_minor(graph: ColoredDigraph, root: int, point):
    """Integer in-degree Laplacian at x = point (x_q = 1), row/column `root` removed.

    Built from the arc list: an arc of color c weighs point[c - 1].
    """
    size = graph.n
    values = (*point, 1)
    mat = [[0] * size for _ in range(size)]
    for e in graph.edges:
        value = values[e.color - 1]
        if e.tail != e.head:
            mat[e.head - 1][e.tail - 1] -= value
        mat[e.head - 1][e.head - 1] += value
    keep = [i for i in range(size) if i != root - 1]
    return [[mat[i][j] for j in keep] for i in keep]


# ------------------------------------------------------------- random inputs


def random_digraph(
    rng: random.Random,
    n: int,
    q: int,
    *,
    density: float = 0.3,
    double_chance: float = 0.2,
    allow_loops: bool = False,
) -> ColoredDigraph:
    labels = tuple(f"v{i}" for i in range(1, n + 1))
    edges: list[Edge] = []
    for tail in range(1, n + 1):
        for head in range(1, n + 1):
            if tail == head and not allow_loops:
                continue
            for color in range(1, q + 1):
                if rng.random() >= density:
                    continue
                multiplicity = 2 if rng.random() < double_chance else 1
                for _ in range(multiplicity):
                    edges.append(Edge(len(edges), tail, head, color))
    return ColoredDigraph(n, q, tuple(edges), labels)


def random_symbolic_matrix(
    rng: random.Random, dim: int, nvars: int, low: int = -3, high: int = 3
) -> SymbolicMatrix:
    """Each entry's coefficients drawn from [low, high]; some split into two terms."""
    rows = []
    for _ in range(dim):
        row = []
        for column in range(dim):
            for slot in range(nvars + 1):
                coeff = rng.randint(low, high)
                if coeff and rng.random() < 0.2:
                    part = rng.randint(low, high)
                    row += [(column, slot, part), (column, slot, coeff - part)]
                elif coeff:
                    row.append((column, slot, coeff))
        rows.append(tuple(row))
    return SymbolicMatrix(nvars, tuple(rows))


def random_laplacian_style_matrix(rng: random.Random, dim: int, nvars: int) -> SymbolicMatrix:
    """Laplacian minor plus nonnegative diagonal slack.

    Such matrices always have determinants with nonnegative coefficients
    (sums of forest counts).
    """
    graph = random_digraph(rng, dim + 1, nvars + 1, density=rng.uniform(0.2, 0.5))
    root = rng.randint(1, dim + 1)
    base = minor(build_laplacian(graph), root)
    rows = tuple(row + ((i, 0, rng.randint(0, 2)),) for i, row in enumerate(base.rows))
    return SymbolicMatrix(nvars, rows)


def planted_digraph(rng: random.Random, n: int, q: int, max_weight: int | None) -> tuple[ColoredDigraph, int]:
    """A digraph on 1..n in which each vertex but the root has in-degree 3, and the root.

    One in-arc of each vertex comes from the vertex before it on a path
    from the root through every vertex in random order, so an arborescence
    exists; the two others come from random other vertices.  Colors are
    drawn from 1..q and weights, if max_weight is given, from 1..max_weight.
    """
    root = rng.randint(1, n)
    path = [root, *rng.sample([v for v in range(1, n + 1) if v != root], n - 1)]
    arcs = list(zip(path, path[1:]))
    arcs += [(rng.choice([u for u in range(1, n + 1) if u != v]), v) for v in path[1:] for _ in range(2)]
    weight = (lambda: None) if max_weight is None else (lambda: rng.randint(1, max_weight))
    return ColoredDigraph(n, q, tuple(Edge(i, t, h, rng.randint(1, q), weight()) for i, (t, h) in enumerate(arcs))), root


def shaped_digraph(rng: random.Random, n: int, q: int, max_weight: int | None, shape: str) -> tuple[ColoredDigraph, int]:
    """A planted digraph as above in which every third non-root vertex has a shape, and the root.

    With shape "sinks" those vertices have no out-arc: the path runs through
    the others, and each sink takes its three in-arcs from random path
    vertices, so its column of the root minor holds only its diagonal.  With
    shape "single_tail" each of them takes all three in-arcs from the vertex
    before it on the path, the first two in different colors (q >= 2), so
    its row is p on the diagonal and -p in one other column, p holding two
    or three colors.
    """
    root = rng.randint(1, n)
    others = rng.sample([v for v in range(1, n + 1) if v != root], n - 1)
    shaped = set(others[::3])
    path = [root, *(v for v in others if shape != "sinks" or v not in shaped)]
    arcs = []
    for v in others:
        if shape == "sinks" and v in shaped:
            arcs += [(rng.choice(path), v, rng.randint(1, q)) for _ in range(3)]
            continue
        tail = path[path.index(v) - 1]
        if v in shaped:
            first = rng.randint(1, q)
            arcs += [(tail, v, first), (tail, v, first % q + 1), (tail, v, rng.randint(1, q))]
        else:
            arcs.append((tail, v, rng.randint(1, q)))
            arcs += [(rng.choice([u for u in path if u != v]), v, rng.randint(1, q)) for _ in range(2)]
    weight = (lambda: None) if max_weight is None else (lambda: rng.randint(1, max_weight))
    return ColoredDigraph(n, q, tuple(Edge(i, t, h, c, weight()) for i, (t, h, c) in enumerate(arcs))), root


@st.composite
def small_digraphs(draw, weights=False):
    """Loopless colored multidigraphs small enough for the oracle.

    Usually a random arborescence rooted at vertex 1 plus up to 9 further
    arcs, so that most instances have solutions.  Parallel same-color arcs
    are kept; with `weights`, every arc carries a weight from 1 to 6.
    """
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 3))
    picks = []
    if draw(st.integers(0, 3)):
        for head in range(2, n + 1):
            picks.append((draw(st.integers(1, head - 1)), head, draw(st.integers(1, q))))
    slots = [(t, h, c) for t in range(1, n + 1) for h in range(1, n + 1) if t != h for c in range(1, q + 1)]
    picks += draw(st.lists(st.sampled_from(slots), max_size=9)) if slots else []
    edges = []
    for t, h, c in picks:
        w = draw(st.integers(1, 6)) if weights else None
        edges.append(Edge(len(edges), t, h, c, w))
    return ColoredDigraph(n, q, tuple(edges))


@st.composite
def small_multigraphs(draw):
    """Undirected colored multigraphs, usually a random spanning tree plus extra edges."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 3))
    picks = []
    if draw(st.integers(0, 3)):
        picks += [(draw(st.integers(1, b - 1)), b, draw(st.integers(1, q))) for b in range(2, n + 1)]
    slots = [(a, b, c) for a in range(1, n + 1) for b in range(a + 1, n + 1) for c in range(1, q + 1)]
    picks += draw(st.lists(st.sampled_from(slots), max_size=6)) if slots else []
    return ColoredMultigraph(n, q, tuple(Edge(i, a, b, c) for i, (a, b, c) in enumerate(picks)))


def alphas(q: int, total: int):
    """Color constraints for q colors with entries summing to at most `total`."""
    return st.lists(st.integers(0, total), min_size=q - 1, max_size=q - 1).map(tuple)


# -------------------------------------------------------------- undirected


def spanning_tree_histogram(graph: ColoredMultigraph) -> dict[tuple[int, ...], int]:
    """Brute-force spanning-tree counts per color constraint."""
    hist: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(graph.edges, graph.n - 1):
        parent = list(range(graph.n + 1))

        def root_of(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in subset:
            ra, rb = root_of(e.tail), root_of(e.head)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        counts = [0] * graph.q
        for e in subset:
            counts[e.color - 1] += 1
        alpha = tuple(counts[: graph.q - 1])
        hist[alpha] = hist.get(alpha, 0) + 1
    return hist


# ------------------------------------------------------------ search questions


def unusable_arcs(graph: ColoredDigraph, root: int, alpha) -> list[Edge]:
    """The arcs no root-arborescence with histogram alpha can use, or can use only in place of another.

    Those are the arcs into the root, the arcs of a color alpha has no room
    left for (color q has n - 1 - sum(alpha)) and every arc of a parallel
    same-color group but the first.
    """
    room = (*alpha, graph.n - 1 - sum(alpha))
    seen, unusable = set(), []
    for e in graph.edges:
        if e.head == root or room[e.color - 1] <= 0 or (e.tail, e.head, e.color) in seen:
            unusable.append(e)
        seen.add((e.tail, e.head, e.color))
    return unusable


@contextmanager
def questions_asked():
    """Capture every minor `counting` builds, as (graph of its arcs, r), and every table its det_poly returns.

    The first minor is that of the whole graph, for the count that find and
    find_min each make once; each later one is a search question's.
    """
    minors, tables = [], []
    build, det = counting.root_minor, counting.det_poly

    def root_minor(n, q, arcs, root, r=1, floor=None):
        minors.append((ColoredDigraph(n, q, tuple(arcs)), r))
        return build(n, q, arcs, root, r, floor)

    with mock.patch.multiple(counting, root_minor=root_minor, det_poly=lambda m: tables.append(det(m)) or tables[-1]):
        yield minors, tables


def recorded(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` for the rest of the test; returns the list its calls' argument tuples go to."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls
