"""Command-line interface.

    ccarb count graph.g --root s --alpha 1,0
    ccarb count-all graph.g --root s [--poly]
    ccarb decide graph.g --root s --alpha 1
    ccarb find graph.g --root s --alpha 1
    ccarb min-weight weighted.g --root s --alpha 1
    ccarb find-min weighted.g --root s --alpha 1
    ccarb spanning-trees undirected.g --alpha 2,1

Each subcommand computes one answer object: `--json` prints it as one JSON
object, and the text output is a rendering of it.  `--workers K` is
accepted for compatibility and has no effect.  Exit codes: 2 on refused
input (the library's ValueError, printed as one line), else 1 exactly when
a value of the answer is null or false (no / none / infeasible), else 0.
Output is deterministic: identical runs print identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from gettext import gettext
from pathlib import Path

from .counting import count, count_table, count_spanning_trees, decide, find
from .graph import decimal, parse_graph
from .minweight import find_min, min_weight
from .polynomials import render_poly


def _parent(*args, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


# Every argument, -h included, is built once, at import, in a parent parser
# of its own, and each parser takes the parents' Action objects by
# reference; add_subparsers is given its prog.  So a call adds no argument
# (each would cost a HelpFormatter and a terminal-size lookup) and formats
# no usage line.  argparse keeps parsed values in the namespace, never on an
# Action, and -h prints the parser it is invoked on, so calls share no
# state.  The eight parsers are still built per call: about 0.4 ms of a
# 1.5 ms op, 0.7 ms under a UTF-8 locale, where each of the 16 gettext
# lookups searches for catalogs.  Caching them let a 35 s `search` run make
# 54% more executions (26,001 to 40,009 on a 2-vCPU VM), but
# benchmark/loop.py logs every execution, so its peak RSS rose 24%, past its
# 10% bound (ROADMAP item 1).
HELP = _parent("-h", "--help", action="help", default=argparse.SUPPRESS, help=gettext("show this help message and exit"))
GRAPH = _parent("graph", type=Path, help="graph file")
ROOT = _parent("--root", required=True, help="root vertex label")
ALPHA = _parent("--alpha", default=None, help="comma-separated color constraint a1,...,a_{q-1} (omit when q = 1)")
WORKERS = _parent("--workers", type=int, default=1, help="accepted for compatibility; no effect")
JSON = _parent("--json", action="store_true", help="emit one JSON object")
POLY = _parent("--poly", action="store_true", help="also print the counting polynomial")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccarb",
        description="Count, decide, find, and weight-minimize color-constrained arborescences.",
        parents=[HELP],
        add_help=False,
    )
    commands = parser.add_subparsers(dest="command", required=True, prog="ccarb")

    def subcommand(name: str, *, root: bool, alpha: bool, help_text: str, poly: bool = False):
        parents = [HELP, GRAPH, *[ROOT] * root, *[ALPHA] * alpha, WORKERS, JSON, *[POLY] * poly]
        commands.add_parser(name, help=help_text, parents=parents, add_help=False)

    subcommand("count", root=True, alpha=True, help_text="print the arborescence count")
    subcommand("count-all", root=True, alpha=False, help_text="print counts for all constraints", poly=True)
    subcommand("decide", root=True, alpha=True, help_text="print yes/no")
    subcommand("find", root=True, alpha=True, help_text="print one matching arborescence")
    subcommand("min-weight", root=True, alpha=True, help_text="print the minimum weight")
    subcommand("find-min", root=True, alpha=True, help_text="print a minimum-weight arborescence")
    subcommand("spanning-trees", root=False, alpha=True, help_text="print the spanning-tree count")
    return parser


def _edge_objects(graph, arb) -> list[dict] | None:
    if arb is None:
        return None
    objects = []
    for e in map(graph.edge, arb.edge_ids):
        obj = {
            "tail": graph.vertex_label(e.tail),
            "head": graph.vertex_label(e.head),
            "color": e.color,
        }
        if e.weight is not None:
            obj["weight"] = e.weight
        objects.append(obj)
    return objects


def _answer(args) -> dict:
    """The subcommand's answer: exactly the object that --json prints."""
    try:
        text = args.graph.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {args.graph}: {exc}") from None
    graph = parse_graph(text)
    # count-all takes no --alpha; the library checks the entry count and signs.
    alpha_text = getattr(args, "alpha", None) or ""
    try:
        alpha = tuple(decimal(part) for part in alpha_text.split(",")) if alpha_text.strip() else ()
    except ValueError:
        raise ValueError(f"invalid --alpha {alpha_text!r}") from None
    if args.command == "spanning-trees":
        return {"count": count_spanning_trees(graph, alpha)}
    root = graph.vertex_index(args.root)
    if args.command == "count-all":
        table = count_table(graph, root)
        answer: dict = {"counts": [{"alpha": list(alpha), "count": table[alpha]} for alpha in sorted(table)]}
        if args.poly:
            answer["polynomial"] = render_poly(table)
        return answer
    if args.command == "count":
        return {"count": count(graph, root, alpha)}
    if args.command == "decide":
        return {"decision": decide(graph, root, alpha)}
    if args.command == "find":
        return {"arborescence": _edge_objects(graph, find(graph, root, alpha))}
    if args.command == "min-weight":
        return {"min_weight": min_weight(graph, root, alpha)}
    arb, weight = find_min(graph, root, alpha) or (None, None)
    return {"min_weight": weight, "arborescence": _edge_objects(graph, arb)}


def _render(answer: dict) -> str:
    """The text output: one line per value, table row or edge; a null value ends it."""
    lines = []
    for key, value in answer.items():
        if value is None:
            lines.append("none" if key == "arborescence" else "infeasible")
            break
        if key == "decision":
            lines.append("yes" if value else "no")
        elif key == "counts":
            lines += [f"{','.join(str(a) for a in row['alpha'])}\t{row['count']}" for row in value]
        elif key == "arborescence":
            lines += [" ".join(str(field) for field in edge.values()) for edge in value]
        else:
            lines.append(str(value))
    return "".join(line + "\n" for line in lines)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        answer = _answer(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json  # here, so that no text call pays its import at start-up
    print(json.dumps(answer) + "\n" if args.json else _render(answer), end="")
    return int(any(value is None or value is False for value in answer.values()))
