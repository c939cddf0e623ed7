"""Seeded workloads: graph instances and the CLI ops run on them.

Every workload is a fixed list of instance shapes (vertex count n, declared
colors q, colors actually used, arc count m, maximum weight W).  The seed
only decides where the arcs go, their colors and weights, the root, the
color constraint and the op order, so op costs have the same distribution
for every seed and run-to-run spread stays small.

Each generated graph contains a planted spanning arborescence, so a tree
grown from the root by random frontier arcs always spans, and its color
histogram is a feasible constraint by construction.  An infeasible
constraint asks for more arcs of some color than there are non-root
vertices with an in-arc of that color, which no arborescence can meet
(each non-root vertex has exactly one in-arc).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("count_all", "search", "weighted")

# Charged time of a failed op, well above the slowest op of the workload.
TIME_LIMIT_S = {"count_all": 5.0, "search": 5.0, "weighted": 10.0}

# The seed engine refuses a coefficient bound needing more primes than this.
SEED_PRIME_BUDGET = 512


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    color: int
    weight: int | None = None


@dataclass(frozen=True)
class Instance:
    """A graph on vertices 1..n labelled v1..vn; `root` is unused when undirected."""

    name: str
    n: int
    q: int
    arcs: tuple[Arc, ...]
    root: int = 1
    directed: bool = True

    def text(self) -> str:
        lines = [f"{self.n} {self.q}", "directed" if self.directed else "undirected"]
        for a in self.arcs:
            fields = [f"v{a.tail}", f"v{a.head}", str(a.color)]
            if a.weight is not None:
                fields.append(str(a.weight))
            lines.append(" ".join(fields))
        return "\n".join(lines) + "\n"

    @property
    def colors_used(self) -> int:
        return len({a.color for a in self.arcs})

    @property
    def max_weight(self) -> int | None:
        weights = [a.weight for a in self.arcs if a.weight is not None]
        return max(weights) if weights else None


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, instance and color constraint."""

    id: int
    command: str
    instance: Instance
    alpha: tuple[int, ...] | None = None
    feasible: bool | None = None  # the generator's claim, for constrained ops

    def argv(self, graph_path: str, workers: int = 1) -> list[str]:
        args = [self.command, graph_path]
        if self.instance.directed:
            args += ["--root", f"v{self.instance.root}"]
        if self.alpha is not None:
            args += ["--alpha", ",".join(str(a) for a in self.alpha)]
        if workers != 1:
            args += ["--workers", str(workers)]
        return args

    def descriptor(self) -> dict:
        inst = self.instance
        return {
            "n": inst.n,
            "q": inst.q,
            "colors_used": inst.colors_used,
            "m": len(inst.arcs),
            "W": inst.max_weight,
            "grid": inst.n ** (inst.q - 1),
            "unused_colors": inst.colors_used < inst.q,
            "over_budget": self.command in ("min-weight", "find-min") and weighted_primes_needed(inst) > SEED_PRIME_BUDGET,
        }


def _plant(rng: random.Random, n: int, root: int, colors: list[int]) -> list[tuple[int, int, int]]:
    # Random recursive tree: each vertex hangs below the root or an earlier vertex.
    order = [v for v in range(1, n + 1) if v != root]
    rng.shuffle(order)
    placed = [root]
    tree = []
    for v in order:
        tree.append((rng.choice(placed), v, rng.choice(colors)))
        placed.append(v)
    return tree


def _digraph(rng, n, q, used, m, *, parallel=0, max_weight=None) -> Instance:
    colors = rng.sample(range(1, q + 1), used)
    root = rng.randint(1, n)
    others = [v for v in range(1, n + 1) if v != root]
    triples = _plant(rng, n, root, colors)
    # Arcs entering the root and parallel copies change the coefficient
    # bound and prime floor, so their numbers are fixed per shape (one arc
    # enters the root): then every seed asks for the same number of primes.
    while len(triples) < n:
        triple = (rng.choice(others), root, rng.choice(colors))
        if triple not in triples:
            triples.append(triple)
    pending = list(colors)  # every used color appears at least once
    keys = set(triples)
    while len(triples) < m - parallel:
        tail, head = rng.choice(range(1, n + 1)), rng.choice(others)
        color = pending[-1] if pending else rng.choice(colors)
        if tail == head or (tail, head, color) in keys:
            continue
        if pending:
            pending.pop()
        keys.add((tail, head, color))
        triples.append((tail, head, color))
    triples += rng.sample([t for t in triples if t[1] != root], parallel)
    weights = [None] * m
    if max_weight is not None:
        weights = [rng.randint(1, max_weight) for _ in triples]
        weights[rng.randrange(n - 1)] = max_weight  # on a planted arc, so never trimmed
    arcs = [Arc(t, h, c, w) for (t, h, c), w in zip(triples, weights)]
    rng.shuffle(arcs)
    return Instance("", n, q, tuple(arcs), root)


def _multigraph(rng, n, q, m) -> Instance:
    colors = list(range(1, q + 1))
    triples = _plant(rng, n, 1, colors)
    while len(triples) < m:
        a, b = rng.sample(range(1, n + 1), 2)
        triples.append((a, b, rng.choice(colors)))
    rng.shuffle(triples)
    return Instance("", n, q, tuple(Arc(t, h, c) for t, h, c in triples), directed=False)


def feasible_alpha(rng: random.Random, inst: Instance) -> tuple[int, ...]:
    """The histogram of some spanning arborescence (undirected: spanning tree).

    Grown from the root by adding a random frontier arc at each step; the
    planted tree makes every vertex reachable, so the growth always spans.
    """
    arcs = list(inst.arcs)
    if not inst.directed:
        arcs += [Arc(a.head, a.tail, a.color) for a in inst.arcs]
    reached = {inst.root}
    colors = []
    while len(reached) < inst.n:
        frontier = [a for a in arcs if a.tail in reached and a.head not in reached]
        pick = rng.choice(frontier)
        reached.add(pick.head)
        colors.append(pick.color)
    return tuple(colors.count(c) for c in range(1, inst.q))


def infeasible_alpha(rng: random.Random, inst: Instance) -> tuple[int, ...] | None:
    """A constraint with total <= n-1 that no arborescence meets, if one exists."""
    for c in rng.sample(range(1, inst.q), inst.q - 1):
        heads = {a.head for a in inst.arcs if a.color == c and a.head != inst.root}
        if len(heads) + 1 <= inst.n - 1:
            alpha = [0] * (inst.q - 1)
            alpha[c - 1] = len(heads) + 1
            return tuple(alpha)
    return None


def weighted_primes_needed(inst: Instance) -> int:
    """Primes the seed engine needs for the largest r in min-weight.

    Mirrors the seed's rule from the outside.  Parallel same-color arcs keep
    their lightest copy; r runs over the n primes above max(m, 2n) with m
    counting all kept arcs; the CRT bound is m'^n r^(nW) with m' and W taken
    over kept arcs not entering the root, and the CRT primes are consecutive
    primes above max(m', 2n) whose product beats it.
    """
    lightest: dict[tuple[int, int, int], int] = {}
    for a in inst.arcs:
        key = (a.tail, a.head, a.color)
        lightest[key] = min(a.weight, lightest.get(key, a.weight))
    r = max(len(lightest), 2 * inst.n)
    for _ in range(inst.n):
        r = _next_prime(r)
    trimmed = [w for (_, head, _), w in lightest.items() if head != inst.root]
    m = len(trimmed)
    bound = max(m, 1) ** inst.n * r ** (inst.n * max(trimmed, default=1))
    count, product, p = 0, 1, max(m, 2 * inst.n)
    while product <= bound or count == 0:
        p = _next_prime(p)
        product *= p
        count += 1
    return count


def _next_prime(value: int) -> int:
    candidate = value + 1
    while any(candidate % d == 0 for d in range(2, int(candidate**0.5) + 1)):
        candidate += 1
    return candidate


# Instance shapes per workload, each with its number of ops.  Many shapes
# with few ops each give a smooth spread of op costs, so the median and
# 90th percentile do not jump between seeds.
# count_all: (n, q, colors used, m, ops).  n falls as q grows; about one
# op in five declares colors that no arc uses.
_COUNT_ALL = (
    (10, 2, 2, 30, 10), (12, 2, 2, 36, 10), (14, 2, 2, 42, 10), (16, 2, 2, 48, 10),
    (18, 2, 2, 54, 10), (20, 2, 2, 60, 8), (22, 2, 2, 66, 6),
    (7, 3, 3, 24, 10), (8, 3, 3, 28, 10), (9, 3, 3, 32, 10), (10, 3, 3, 35, 10),
    (11, 3, 3, 38, 8), (12, 3, 3, 42, 6),
    (5, 4, 4, 20, 10), (6, 4, 4, 24, 10), (7, 4, 4, 28, 8), (4, 5, 5, 16, 10), (5, 5, 5, 22, 8),
    (7, 3, 2, 21, 10), (8, 3, 2, 24, 10), (6, 4, 2, 18, 10), (7, 4, 3, 25, 8),
    (5, 5, 3, 18, 8), (8, 4, 2, 24, 6), (6, 5, 2, 18, 6),
)
# spanning-trees: (n, q, m, ops) on undirected multigraphs.
_SPANNING = ((5, 2, 8, 8), (6, 3, 9, 8), (7, 2, 10, 8), (7, 3, 11, 8))
# search: (n, q, m) shapes, each run as find and as decide, 8 ops apiece.
_SEARCH = (
    (6, 2, 14), (6, 2, 18), (7, 2, 16), (7, 2, 21), (8, 2, 19), (8, 2, 24), (9, 2, 22),
    (9, 2, 27), (6, 3, 15), (6, 3, 19), (7, 3, 18), (7, 3, 22), (8, 3, 20),
)
# weighted: (command, n, q, m, W, ops).
_WEIGHTED = (
    ("min-weight", 5, 2, 11, 4, 24), ("min-weight", 5, 2, 11, 30, 10), ("min-weight", 5, 2, 11, 100, 6),
    ("min-weight", 6, 2, 13, 4, 20), ("min-weight", 6, 2, 13, 10, 10), ("min-weight", 6, 2, 13, 60, 6),
    ("min-weight", 7, 2, 15, 4, 12), ("min-weight", 7, 2, 15, 20, 8), ("min-weight", 7, 2, 15, 40, 4),
    ("min-weight", 5, 3, 12, 10, 10), ("min-weight", 5, 3, 12, 30, 4), ("min-weight", 6, 3, 14, 8, 4),
    ("find-min", 5, 2, 10, 4, 24), ("find-min", 5, 2, 10, 8, 16), ("find-min", 5, 2, 10, 12, 10),
    ("find-min", 6, 2, 12, 4, 16), ("find-min", 6, 2, 12, 8, 6), ("find-min", 7, 2, 14, 4, 6),
    ("find-min", 5, 3, 11, 4, 8),
)
# Instances the seed refuses (n = 7, W >= 150): run once per run, untimed.
_REFUSED = ((7, 2, 15, 150), (7, 2, 15, 200), (7, 2, 15, 250), (7, 2, 15, 300))


def build(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """The timed ops of a workload in run order, and its untimed probe ops.

    Every fifth constrained op drafted asks for an infeasible constraint
    when the graph admits one (only min-weight ops in the weighted workload).
    """
    rng = random.Random(f"{workload}/{seed}")
    drafts: list[tuple] = []
    probes: list[tuple] = []
    if workload == "count_all":
        for n, q, used, m, ops in _COUNT_ALL:
            drafts += [("count-all", _digraph(rng, n, q, used, m, parallel=m // 10)) for _ in range(ops)]
        for n, q, m, ops in _SPANNING:
            for _ in range(ops):
                inst = _multigraph(rng, n, q, m)
                drafts.append(("spanning-trees", inst, feasible_alpha(rng, inst), True))
    elif workload == "search":
        for command in ("find", "decide"):
            for n, q, m in _SEARCH:
                for _ in range(8):
                    inst = _digraph(rng, n, q, q, m, parallel=m // 10)
                    drafts.append(_constrained(rng, command, inst, len(drafts) % 5 == 4))
    elif workload == "weighted":
        for command, n, q, m, w, ops in _WEIGHTED:
            for _ in range(ops):
                inst = _digraph(rng, n, q, q, m, max_weight=w)
                drafts.append(_constrained(rng, command, inst, command == "min-weight" and len(drafts) % 5 == 4))
        for n, q, m, w in _REFUSED:
            probes.append(_constrained(rng, "min-weight", _digraph(rng, n, q, q, m, max_weight=w), False))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(drafts)
    timed = [_op(i, *draft) for i, draft in enumerate(drafts)]
    return timed, [_op(len(timed) + i, *draft) for i, draft in enumerate(probes)]


def _constrained(rng, command, inst, infeasible):
    alpha = infeasible_alpha(rng, inst) if infeasible else None
    if alpha is not None:
        return command, inst, alpha, False
    return command, inst, feasible_alpha(rng, inst), True


def _op(op_id: int, command: str, inst: Instance, alpha=None, feasible=None) -> Op:
    named = Instance(f"op{op_id:03d}.g", inst.n, inst.q, inst.arcs, inst.root, inst.directed)
    return Op(op_id, command, named, alpha, feasible)
