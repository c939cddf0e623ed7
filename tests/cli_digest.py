"""SHA-256 digests per benchmark workload of the CLI's answers and of the engine's polynomials.

    python3 tests/cli_digest.py 1 2 3

For each workload of ``benchmark/suite.py`` and each seed given (default 1),
every timed op and probe is run in-process through ``ccarb.cli.main``, once
as text and once with ``--json``.  The first digest covers each call's exit
code, stdout and stderr in run order.  The second covers every polynomial
``det_poly`` returned to the operations (``ccarb.counting.det_poly`` and
``ccarb.minweight.det_poly``), as its sorted (monomial, coefficient) pairs,
in call order.  So two checkouts print the same line for a workload exactly
when their CLI bytes and their engine's answers agree on it.  A last line
covers argparse's own output at COLUMNS=80: the exit code, stdout and
stderr of every ``--help`` and of the command-line refusals argparse makes
itself.  The very last line counts the lines of ``src/ccarb``'s modules, the
code size that ROADMAP aim 2 tracks.  The suite is read, not changed, and
ccarb is imported from this checkout's ``src``.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ccarb.cli  # noqa: E402
import ccarb.counting  # noqa: E402
import ccarb.minweight  # noqa: E402

COMMANDS = ["count", "count-all", "decide", "find", "min-weight", "find-min", "spanning-trees"]
# No call here reads its graph path.
PARSER_CALLS = [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    ["-h"],
    ["count-all", "-h"],
    ["oracle-count", "graph.g"],
    ["count", "graph.g", "--alpha", "1"],
    ["count", "graph.g", "--root", "s", "--workers", "x"],
    ["count-all", "graph.g", "--root", "s", "--alpha", "1"],
    ["spanning-trees", "graph.g", "--root", "s"],
    ["count", "--root", "s"],
]


def load_suite():
    spec = importlib.util.spec_from_file_location("benchmark_suite", ROOT / "benchmark" / "suite.py")
    suite = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = suite  # its dataclasses look their module up
    spec.loader.exec_module(suite)
    return suite


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ccarb.cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def spy_on_engine() -> list[dict]:
    """Have the operations' `det_poly` append every polynomial it returns to the list returned."""
    returned = []
    for module in (ccarb.counting, ccarb.minweight):
        module.det_poly = lambda matrix, det_poly=module.det_poly: returned.append(det_poly(matrix)) or returned[-1]
    return returned


def digest(suite, workload: str, seeds: list[int], returned: list[dict]) -> tuple[int, str, int, str]:
    """(CLI calls made, hex SHA-256 of their exit codes, stdout and stderr,
    det_poly calls made, hex SHA-256 of the polynomials they returned)."""
    sha, calls = hashlib.sha256(), 0
    returned.clear()
    for seed in seeds:
        timed, probes = suite.build(workload, seed)
        for op in timed + probes:
            # Relative paths, so no message can differ by where it ran.
            Path(op.instance.name).write_text(op.instance.text(), encoding="utf-8")
            for extra in ([], ["--json"]):
                sha.update(json.dumps(call(op.argv(op.instance.name) + extra)).encode() + b"\n")
                calls += 1
    engine = hashlib.sha256()
    for poly in returned:
        engine.update(repr(sorted(poly.items())).encode() + b"\n")
    return calls, sha.hexdigest(), len(returned), engine.hexdigest()


def parser_digest() -> str:
    """Hex SHA-256 of the exit code, stdout and stderr of every PARSER_CALLS call."""
    sha = hashlib.sha256()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in PARSER_CALLS:
            sha.update(json.dumps(call(argv)).encode() + b"\n")
    return sha.hexdigest()


def source_lines() -> int:
    """Lines in the modules of this checkout's `src/ccarb`."""
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src" / "ccarb").glob("*.py"))


def main(argv: list[str]) -> None:
    seeds = [int(seed) for seed in argv] or [1]
    suite = load_suite()
    returned = spy_on_engine()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for workload in suite.WORKLOADS:
                calls, cli, det_calls, engine = digest(suite, workload, seeds, returned)
                print(f"{workload}\t{calls} calls\t{cli}\t{det_calls} det_poly\t{engine}")
        finally:
            os.chdir(home)
    print(f"parser\t{len(PARSER_CALLS)} calls\t{parser_digest()}")
    print(f"src/ccarb\t{source_lines()} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
