"""The harness must not change what the program prints, and must catch wrong answers."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import helpers
import spans
import suite

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_stdout_identical_traced_and_across_workers(tmp_path, workload):
    ops = helpers.sample(suite.build(workload, 2)[0])
    paths = helpers.write(tmp_path, ops)
    plain = helpers.run([op.argv(paths[op.id]) for op in ops])
    traced = helpers.run([op.argv(paths[op.id]) for op in ops], spans.Tracer())
    two_workers = helpers.run([op.argv(paths[op.id], workers=2) for op in ops])
    for op, a, b, c in zip(ops, plain, traced, two_workers):
        assert a["error"] is None
        assert (a["code"], a["stdout"]) == (b["code"], b["stdout"]) == (c["code"], c["stdout"])
        assert checker.prepare(op)(a["stdout"], a["code"])


def _tampered(op, stdout: str) -> str:
    lines = stdout.splitlines()
    if op.command == "count-all":
        alpha, count = lines[0].split("\t")
        lines[0] = f"{alpha}\t{int(count) + 1}"
    elif op.command in ("find", "find-min"):
        lines = lines[:-1]
    elif op.command in ("decide",):
        lines = ["no" if lines[0] == "yes" else "yes"]
    else:
        lines = [str(int(lines[0]) + 1)]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_checker_rejects_wrong_answers(tmp_path, workload):
    ops = [op for op in helpers.sample(suite.build(workload, 3)[0]) if op.feasible is not False]
    if workload == "count_all":  # also a table checked by random points (n > 7)
        ops.append(min((op for op in suite.build(workload, 3)[0] if op.instance.n > 7), key=lambda op: op.instance.n))
    paths = helpers.write(tmp_path, ops)
    for op, result in zip(ops, helpers.run([op.argv(paths[op.id]) for op in ops])):
        check = checker.prepare(op)
        assert check(result["stdout"], result["code"])
        assert not check(_tampered(op, result["stdout"]), result["code"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**spans.LAYER_METRICS, **run.DESCRIPTOR_METRICS}


def test_ops_not_started_before_the_deadline_are_charged_as_failed():
    import loop
    import run

    ops = [["count-all", "missing.g"]] * 3
    log: list[dict] = []
    assert not loop._pass(ops, 5.0, None, 0.0, log)
    assert [(ex["op"], ex["error"]) for ex in log] == [(0, "deadline"), (1, "deadline"), (2, "deadline")]
    assert run.judge(log, [lambda stdout, code: True] * 3, 5.0) == (0, True)
    assert [ex["charged"] for ex in log] == [5.0] * 3
    assert run.op_stats(log, "charged")["ok_share"] == 0.0
    optional: list[dict] = []
    assert loop._pass(ops, 5.0, None, 0.0, optional, complete=False)
    assert optional == []
