"""Every benchmark op's CLI bytes, and every polynomial the engine returns on the way, pinned.

Each answer is an exact integer read off one determinant, so what the CLI
prints for an op of `benchmark/suite.py`, and each polynomial `det_poly`
returns while it answers, is a fixed function of the op.  For each
workload, seeds 1-3, every timed op and probe runs in-process through
`ccarb.cli.main`, once as text and once with `--json`.  Two digests are
pinned with their call counts: the SHA-256 of each call's exit code, stdout
and stderr, in run order, and the SHA-256 of every polynomial `det_poly`
returned to the operations (`ccarb.counting.det_poly` and
`ccarb.minweight.det_poly`), as its sorted (monomial, coefficient) pairs,
in call order.  Next to them is pinned the engine's work: the number of
points at which `det_poly` evaluates its reduced rows.  A change that
alters any of them on purpose updates its pin here and says why in
CHANGES.md.  The suite is read, not changed.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ccarb.counting
import ccarb.determinant
import ccarb.minweight
from ccarb.cli import main

SUITE = Path(__file__).resolve().parents[1] / "benchmark" / "suite.py"
SEEDS = (1, 2, 3)

PINS = {
    "count_all": {
        "cli": (1524, "8a1b3f2a0b1efb4b059c19730ffda06e900ea2b13b6b909c4a38161fbab64759"),
        "det_poly": (1524, "47923f158d13422707f820bd991e622ed4ffe1b4ef74395d503595d3562d1e7e"),
        "points": 1584,
    },
    "search": {
        "cli": (1248, "ac7968609f1baef29159cbf55ff69506010366a8bbc744a61331deec966dac9b"),
        "det_poly": (3302, "fbb18b18a1807c8168f43178777eee935daa83d9c3e8fe87b976396af982484c"),
        "points": 3048,
    },
    "weighted": {
        "cli": (1248, "00b3d35ca46a67af7a45bb8607084455b6b2386230bfb754e9ba88c9ab49462e"),
        "det_poly": (3096, "ad7c354da06df9512016532d44d9a56e8dc7c32c2d00ce0d4fdf5e2e2df1eb6d"),
        "points": 3022,
    },
}


def load_suite(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_suite", SUITE)
    suite = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, suite)  # its dataclasses look their module up
    spec.loader.exec_module(suite)
    return suite


def test_every_workload_is_pinned(monkeypatch):
    assert tuple(PINS) == load_suite(monkeypatch).WORKLOADS


@pytest.mark.parametrize("workload", PINS)
def test_cli_bytes_and_polynomials_match_their_pins(monkeypatch, tmp_path, capsys, workload):
    suite = load_suite(monkeypatch)
    returned = []
    for module in (ccarb.counting, ccarb.minweight):
        monkeypatch.setattr(module, "det_poly", lambda matrix, det_poly=module.det_poly: returned.append(det_poly(matrix)) or returned[-1])
    points, evaluate = [], ccarb.determinant._evaluate
    monkeypatch.setattr(ccarb.determinant, "_evaluate", lambda rows, point: points.append(None) or evaluate(rows, point))
    # Relative paths, so no message can differ by where it ran.
    monkeypatch.chdir(tmp_path)
    cli, calls = hashlib.sha256(), 0
    for seed in SEEDS:
        timed, probes = suite.build(workload, seed)
        for op in timed + probes:
            Path(op.instance.name).write_text(op.instance.text(), encoding="utf-8")
            for extra in ([], ["--json"]):
                code = main(op.argv(op.instance.name) + extra)
                captured = capsys.readouterr()
                cli.update(json.dumps([code, captured.out, captured.err]).encode() + b"\n")
                calls += 1
    engine = hashlib.sha256()
    for poly in returned:
        engine.update(repr(sorted(poly.items())).encode() + b"\n")
    digests = {"cli": (calls, cli.hexdigest()), "det_poly": (len(returned), engine.hexdigest()), "points": len(points)}
    assert digests == PINS[workload]
