"""Run every workload over several seeds and print all metrics with their spread.

    python3 benchmark/report.py --seeds 1 2 3 4 5 6 7 8 9 10 [--trace] [--out FILE]

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed and prints each end-to-end metric's median, quartiles and spread
(interquartile range over median) against its bound, and the medians of
the unscaled wall-clock figures.  Against the recorded baseline
(BASELINE.json next to this file), it prints each metric's change, scaled
and wall clock, and marks CHECK where the two move in opposite directions
by more than a third of the bound or differ by more than the bound: there
the CPU-speed scaling, not the program, may have decided the verdict.
With ``--trace``, each workload also runs traced twice on the first seed;
the per-layer metrics are printed and their counters must repeat exactly.
``--out`` writes everything, with the rationale per workload, the machine,
and the line count of ``src/ccarb``, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and its unscaled wall-clock figures (untraced runs only)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    wall = next((json.loads(line)["wall"] for line in lines if line.startswith('{"wall"')), {})
    return result, wall


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def compare(entry: dict, base: dict | None, bounds: dict) -> None:
    """Print each metric's change from the baseline, scaled and wall clock, marking disagreements."""
    if not base:
        return
    for metric, wall in entry["wall"].items():
        if metric not in base.get("wall", {}):
            continue
        scaled = entry["end_to_end"][metric]["median"] / base["end_to_end"][metric]["median"] - 1
        clock = wall / base["wall"][metric] - 1
        bound = bounds[metric]["bound"]
        disagree = (scaled * clock < 0 and max(abs(scaled), abs(clock)) > bound / 3) or abs(scaled - clock) > bound
        print(f"  vs baseline {metric:14s} scaled {scaled:+.3f} wall {clock:+.3f}" + (" CHECK" if disagree else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline_path = HERE / "BASELINE.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))["workloads"] if baseline_path.is_file() else {}
    report: dict = {
        "seeds": args.seeds,
        "run_seconds": seconds,
        "machine": {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()},
        "src_ccarb_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "ccarb").glob("*.py")),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs, walls = zip(*(run(name, seed, seconds, 0) for seed in args.seeds))
        entry: dict = {"why": workload["why"], "failed": sum(r["failed"] for r in runs), "end_to_end": {}, "wall": {}}
        print(f"{name}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} ops, {entry['failed']} failed")
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = {"unit": bound["unit"], **stats}
            flag = "ok" if stats["spread"] <= bound["bound"] / 3 else "WIDE"
            print(f"  {metric:14s} {stats['median']:12.6g} {bound['unit']:6s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f} (bound {bound['bound']}) {flag}")
        for metric in walls[0]:
            entry["wall"][metric] = statistics.median(w[metric] for w in walls)
        print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in entry["wall"].items()))
        compare(entry, baseline.get(name), bounds)
        if args.trace:
            first, second = (run(name, args.seeds[0], seconds, 1)[0]["metrics"] for _ in range(2))
            counters = [k for k, v in first.items() if v["unit"] == "count"]
            repeat = all(first[k]["value"] == second[k]["value"] for k in counters)
            entry["per_layer"] = {k: v for k, v in first.items()}
            entry["counters_repeat"] = repeat
            print(f"  per-layer (seed {args.seeds[0]}), counters repeat exactly: {repeat}")
            for metric, value in first.items():
                print(f"    {metric:36s} {value['value']:14.6g} {value['unit']}")
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
