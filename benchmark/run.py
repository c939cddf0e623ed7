"""ccarb benchmark: run one seeded workload and print its metrics.

    python3 benchmark/run.py --workload count_all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  The graph files and expected answers are made from the
seed before timing starts.  A fresh child process then runs the ops in a
closed loop (see loop.py) and every answer is checked (see checker.py).

With ``--trace 0`` the metrics are the end-to-end ones: the time for a
fresh interpreter to ``import ccarb.cli``; median and 90th-percentile
charged time per op; correct ops per charged second; the share of ops
answered correctly; and the child's peak resident memory.  Times are wall
times scaled to a reference CPU speed (see CALIBRATION_REFERENCE_S); the
unscaled figures are printed on the line before, as JSON under "wall".
An op's charged time is the median over its executions in the run.  A
failed op (exit 2 on valid input, an exception, a wrong answer, running
past the workload's time limit, or not started before its pass's
deadline) is charged the time limit.  With ``--trace 1`` the metrics are
the per-layer ones from spans.py, the tracing overhead, and
input-descriptor shares.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans
import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 21
CHILD_TIMEOUT_S = 165
# Op times are reported at a reference CPU speed: each is scaled by this
# over the calibration time measured around the op (loop.calibrate).  The
# CPU speed of a shared VM drifts by 15% or more over seconds to minutes,
# which would otherwise swamp any comparison between runs.
CALIBRATION_REFERENCE_S = 0.001

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
DESCRIPTOR_METRICS = {
    "trace.overhead": "share",
    "ops.unused_colors_share": "share",
    "ops.over_budget_share": "share",
    "ops.refused_share": "share",
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to finish `import ccarb.cli`: scaled, and wall."""
    import loop

    command = [sys.executable, "-c", "import ccarb.cli"]
    subprocess.run(command, env=_env(), cwd=ROOT, check=True)  # writes bytecode caches
    scaled, wall = [], []
    before = loop.calibrate()
    for _ in range(SETUP_SPAWNS):
        # No timeout: waiting with one polls in steps of up to 50 ms, which
        # would quantize the measurement.
        start = time.perf_counter()
        subprocess.run(command, env=_env(), cwd=ROOT, check=True)
        wall.append(time.perf_counter() - start)
        after = loop.calibrate()
        scaled.append(wall[-1] * CALIBRATION_REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def run_child(plan: dict, work: Path) -> dict:
    plan_path, results_path = work / "plan.json", work / "results.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "loop.py"), str(plan_path), str(results_path)],
        env=_env(),
        cwd=ROOT,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(results_path.read_text(encoding="utf-8"))


def judge(executions: list[dict], checks: list, limit: float) -> tuple[int, bool]:
    """Check and charge each execution; return the correct count and whether no answer was wrong.

    Each execution gains "ok", "wall" (its wall time, or `limit` if it
    failed) and "charged" (the same at the reference CPU speed).
    """
    verdicts: dict = {}
    correct_count, no_wrong = 0, True
    for ex in executions:
        ok = False
        if ex["error"] is None and ex["code"] in (0, 1):
            key = (ex["op"], ex["code"], ex["stdout"])
            if key not in verdicts:
                verdicts[key] = checks[ex["op"]](ex["stdout"], ex["code"])
            ok = verdicts[key]
            no_wrong = no_wrong and ok
        ok = ok and ex["seconds"] <= limit
        ex["ok"] = ok
        ex["wall"] = ex["seconds"] if ok else limit
        ex["charged"] = ex["seconds"] * CALIBRATION_REFERENCE_S / ex["calibration"] if ok else limit
        correct_count += ok
    return correct_count, no_wrong


def op_stats(executions: list[dict], key: str) -> dict:
    """Median and 90th percentile over ops of each op's median time, and correct ops per second.

    Throughput is taken over one pass of the op list at those medians, so
    where a run stopped inside its last pass does not matter.
    """
    per_op: dict = defaultdict(list)
    for ex in executions:
        per_op[ex["op"]].append(ex[key])
    op_times = [statistics.median(v) for v in per_op.values()]
    ok_share = sum(ex["ok"] for ex in executions) / len(executions)
    return {
        "op_p50_s": statistics.median(op_times),
        "op_p90_s": statistics.quantiles(op_times, n=10)[8],
        "ops_per_s": ok_share * len(op_times) / sum(op_times),
        "ok_share": ok_share,
    }


def layers(results: dict, ops: list) -> dict:
    metrics = dict(results["layers"])
    # Overhead over the ops that ran in both passes, so a pass cut short by
    # its deadline is not compared with a full one.
    ran = [{ex["op"] for ex in results["executions"] if ex["traced"] == traced and ex["error"] != "deadline"}
           for traced in (False, True)]
    both = ran[0] & ran[1]
    passes = [sum(ex["charged"] for ex in results["executions"] if ex["traced"] == traced and ex["op"] in both)
              for traced in (False, True)]
    refused = {ex["op"] for ex in results["executions"] + results["probes"] if ex["code"] == 2}
    descriptors = [op.descriptor() for op in ops]
    metrics["trace.overhead"] = passes[1] / passes[0] - 1
    metrics["ops.unused_colors_share"] = sum(d["unused_colors"] for d in descriptors) / len(ops)
    metrics["ops.over_budget_share"] = sum(d["over_budget"] for d in descriptors) / len(ops)
    metrics["ops.refused_share"] = len(refused) / len(ops)
    units = {**spans.LAYER_METRICS, **DESCRIPTOR_METRICS}
    return {name: (metrics[name], units[name]) for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ccarb" / "cli.py").is_file():
        print(f"error: no ccarb sources at {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checker

    timed, probes = suite.build(args.workload, args.seed)
    checks = [checker.prepare(op) for op in timed + probes]
    limit = suite.TIME_LIMIT_S[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for op in timed + probes:
            (work / op.instance.name).write_text(op.instance.text(), encoding="utf-8")
        setup_s, setup_wall = (None, None) if args.trace else measure_setup()
        plan = {
            "seconds": args.seconds,
            "limit": limit,
            "trace": args.trace,
            "ops": [op.argv(str(work / op.instance.name)) for op in timed],
            "probes": [op.argv(str(work / op.instance.name)) for op in probes],
        }
        results = run_child(plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    executions = results["executions"]
    correct_count, correct = judge(executions, checks, limit)
    for ex in results["probes"]:
        ex["op"] += len(timed)
    # Probes are expected to be refused at the seed; only a wrong answer counts.
    correct = judge(results["probes"], checks, limit)[1] and correct

    if args.trace:
        metrics = layers(results, timed + probes)
        print(json.dumps({"descriptors": [dict(id=op.id, command=op.command, **op.descriptor()) for op in timed + probes]}))
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": results["peak_rss_mb"], **op_stats(executions, "charged")}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        wall = {"setup_s": setup_wall, **op_stats(executions, "wall")}
        print(json.dumps({"wall": {k: wall[k] for k in ("setup_s", "op_p50_s", "op_p90_s", "ops_per_s")}}))
    if results["truncated"]:
        print(f"# warning: a pass reached its deadline; {sum(ex['error'] == 'deadline' for ex in executions)} "
              "executions were not started and are charged as failed")
    print(f"# {args.workload} seed={args.seed} ops={len(timed)} executions={len(executions)} probes={len(probes)}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:36s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(executions),
                "failed": len(executions) - correct_count,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
