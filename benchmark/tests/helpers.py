"""Run benchmark ops in-process, traced or not."""

from __future__ import annotations

import loop  # imports ccarb.cli, which spans.Tracer.install needs loaded
import spans


def write(tmp_path, ops) -> dict:
    paths = {}
    for op in ops:
        path = tmp_path / op.instance.name
        path.write_text(op.instance.text(), encoding="utf-8")
        paths[op.id] = str(path)
    return paths


def run(argvs, tracer: spans.Tracer | None = None, limit: float = 60.0) -> list[dict]:
    """Run CLI calls back to back; with a tracer, inside its wrappers."""
    uninstall = tracer.install() if tracer else None
    try:
        results = []
        for index, argv in enumerate(argvs):
            if tracer:
                tracer.op = index
            results.append(loop.run_op(argv, limit))
            if tracer:
                tracer.fold()
        return results
    finally:
        if uninstall:
            uninstall()


def sample(ops, per_command: int = 2):
    """The first `per_command` ops of each subcommand, cheapest shapes first."""
    chosen, seen = [], {}
    for op in sorted(ops, key=lambda o: (o.instance.n ** o.instance.q, len(o.instance.arcs), o.id)):
        if seen.get(op.command, 0) < per_command:
            seen[op.command] = seen.get(op.command, 0) + 1
            chosen.append(op)
    return chosen
