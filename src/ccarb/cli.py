"""Command-line interface.

    ccarb count graph.g --root s --alpha 1,0
    ccarb count-all graph.g --root s [--poly]
    ccarb decide graph.g --root s --alpha 1
    ccarb find graph.g --root s --alpha 1
    ccarb min-weight weighted.g --root s --alpha 1
    ccarb find-min weighted.g --root s --alpha 1
    ccarb spanning-trees undirected.g --alpha 2,1

Every subcommand accepts `--json` (one structured object mirroring the
text output) and `--workers K`, which is accepted for compatibility and has
no effect.  Exit codes: 0 success, 1 negative answer (no / none /
infeasible), 2 usage or input errors.  Output is deterministic: identical
runs print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .counting import count, count_table, count_spanning_trees, decide, find
from .graph import (
    ColoredDigraph,
    ColoredMultigraph,
    GraphParseError,
    dedup_min_weight,
    parse_graph,
)
from .minweight import find_min, min_weight
from .polynomials import render_poly


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccarb",
        description="Count, decide, find, and weight-minimize color-constrained arborescences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, *, root: bool, alpha: bool, help_text: str):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("graph", type=Path, help="graph file")
        if root:
            sub.add_argument("--root", required=True, help="root vertex label")
        if alpha:
            sub.add_argument(
                "--alpha",
                default=None,
                help="comma-separated color constraint a1,...,a_{q-1} (omit when q = 1)",
            )
        sub.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
        sub.add_argument("--json", action="store_true", help="emit one JSON object")
        return sub

    subcommand("count", root=True, alpha=True, help_text="print the arborescence count")
    count_all = subcommand("count-all", root=True, alpha=False, help_text="print counts for all constraints")
    count_all.add_argument("--poly", action="store_true", help="also print the counting polynomial")
    subcommand("decide", root=True, alpha=True, help_text="print yes/no")
    subcommand("find", root=True, alpha=True, help_text="print one matching arborescence")
    subcommand("min-weight", root=True, alpha=True, help_text="print the minimum weight")
    subcommand("find-min", root=True, alpha=True, help_text="print a minimum-weight arborescence")
    subcommand("spanning-trees", root=False, alpha=True, help_text="print the spanning-tree count")
    return parser


def _load(path: Path) -> ColoredDigraph | ColoredMultigraph:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    return parse_graph(text)


def _need_digraph(graph, command: str) -> ColoredDigraph:
    if not isinstance(graph, ColoredDigraph):
        raise _UsageError(f"{command} needs a directed graph file")
    return graph


def _resolve_root(graph, label: str) -> int:
    try:
        return graph.vertex_index(label)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_alpha(text: str | None, q: int) -> tuple[int, ...]:
    if text is None or text.strip() == "":
        if q == 1:
            return ()
        raise _UsageError(f"--alpha with {q - 1} comma-separated values is required")
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"invalid --alpha {text!r}") from None
    if len(values) != q - 1 or any(v < 0 for v in values):
        raise _UsageError(f"--alpha must list {q - 1} nonnegative values")
    return values


def _weighted(graph: ColoredDigraph) -> ColoredDigraph:
    if graph.edges and not graph.weighted:
        raise _UsageError("this command needs a weighted graph file")
    return dedup_min_weight(graph)


def _edge_objects(graph: ColoredDigraph, edge_ids) -> list[dict]:
    objects = []
    for edge_id in sorted(edge_ids):
        e = graph.edge(edge_id)
        obj = {
            "tail": graph.vertex_label(e.tail),
            "head": graph.vertex_label(e.head),
            "color": e.color,
        }
        if e.weight is not None:
            obj["weight"] = e.weight
        objects.append(obj)
    return objects


def _edge_lines(graph: ColoredDigraph, edge_ids) -> list[str]:
    return [" ".join(str(value) for value in obj.values()) for obj in _edge_objects(graph, edge_ids)]


def _emit(args, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text, end="")


def _run_count(args) -> int:
    graph = _need_digraph(_load(args.graph), "count")
    root = _resolve_root(graph, args.root)
    alpha = _parse_alpha(args.alpha, graph.q)
    value = count(graph, root, alpha)
    _emit(args, f"{value}\n", {"count": value})
    return 0


def _run_count_all(args) -> int:
    graph = _need_digraph(_load(args.graph), "count-all")
    root = _resolve_root(graph, args.root)
    table = count_table(graph, root)
    rows = [(alpha, table[alpha]) for alpha in sorted(table)]
    lines = [f"{','.join(str(a) for a in alpha)}\t{value}\n" for alpha, value in rows]
    payload: dict = {"counts": [{"alpha": list(alpha), "count": value} for alpha, value in rows]}
    if args.poly:
        rendering = render_poly(table)
        lines.append(rendering + "\n")
        payload["polynomial"] = rendering
    _emit(args, "".join(lines), payload)
    return 0


def _run_decide(args) -> int:
    graph = _need_digraph(_load(args.graph), "decide")
    root = _resolve_root(graph, args.root)
    alpha = _parse_alpha(args.alpha, graph.q)
    answer = decide(graph, root, alpha)
    _emit(args, "yes\n" if answer else "no\n", {"decision": answer})
    return 0 if answer else 1


def _run_find(args) -> int:
    graph = _need_digraph(_load(args.graph), "find")
    root = _resolve_root(graph, args.root)
    alpha = _parse_alpha(args.alpha, graph.q)
    arb = find(graph, root, alpha)
    if arb is None:
        _emit(args, "none\n", {"arborescence": None})
        return 1
    lines = _edge_lines(graph, arb.edge_ids)
    _emit(args, "".join(line + "\n" for line in lines), {"arborescence": _edge_objects(graph, arb.edge_ids)})
    return 0


def _run_min_weight(args) -> int:
    graph = _need_digraph(_load(args.graph), "min-weight")
    root = _resolve_root(graph, args.root)
    alpha = _parse_alpha(args.alpha, graph.q)
    weight = min_weight(_weighted(graph), root, alpha)
    if weight is None:
        _emit(args, "infeasible\n", {"min_weight": None})
        return 1
    _emit(args, f"{weight}\n", {"min_weight": weight})
    return 0


def _run_find_min(args) -> int:
    graph = _need_digraph(_load(args.graph), "find-min")
    root = _resolve_root(graph, args.root)
    alpha = _parse_alpha(args.alpha, graph.q)
    result = find_min(_weighted(graph), root, alpha)
    if result is None:
        _emit(args, "infeasible\n", {"min_weight": None, "arborescence": None})
        return 1
    arb, weight = result
    lines = [f"{weight}"] + _edge_lines(graph, arb.edge_ids)
    payload = {"min_weight": weight, "arborescence": _edge_objects(graph, arb.edge_ids)}
    _emit(args, "".join(line + "\n" for line in lines), payload)
    return 0


def _run_spanning_trees(args) -> int:
    graph = _load(args.graph)
    if not isinstance(graph, ColoredMultigraph):
        raise _UsageError("spanning-trees needs an undirected graph file")
    alpha = _parse_alpha(args.alpha, graph.q)
    value = count_spanning_trees(graph, alpha)
    _emit(args, f"{value}\n", {"count": value})
    return 0


_HANDLERS = {
    "count": _run_count,
    "count-all": _run_count_all,
    "decide": _run_decide,
    "find": _run_find,
    "min-weight": _run_min_weight,
    "find-min": _run_find_min,
    "spanning-trees": _run_spanning_trees,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (GraphParseError, _UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
