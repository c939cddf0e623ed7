"""Closed-loop op runner; one fresh process per workload run.

    python3 loop.py PLAN.json RESULTS.json

with ``src`` on PYTHONPATH.  One client runs the plan's ops back to back,
each as an in-process call ``ccarb.cli.main(argv)`` with stdout and stderr
captured.  A fixed calibration computation runs between ops; its time,
averaged over the runs just before and just after an op, records how fast
the CPU was while the op ran.  Untraced mode cycles through the ops until
the plan's seconds have passed and every op ran at least once.  Traced
mode runs one untraced pass and then one traced pass, whose spans give the
per-layer metrics.  Probe ops run once afterwards, untimed.  Each op is
interrupted at the plan's time limit.  A pass that must cover every op but
reaches its deadline first logs each op it did not start as a failed
execution ("deadline") and marks the results truncated.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

import ccarb.cli

# A pass stops starting ops this many seconds after it began, and probes
# stop this many seconds after the child began, even if unfinished, so a
# run ends inside its 180 s allowance however slow the program gets (each
# op may still run for its time limit).  Untraced and traced passes each
# get PASS_STOP_S, about twice what the slowest workload needs at the seed.
PASS_STOP_S = 65.0
PROBE_STOP_S = 150.0


class OpTimeout(Exception):
    """Raised by SIGALRM when an op exceeds the time limit."""


def _alarm(signum, frame):
    raise OpTimeout


def calibrate() -> float:
    """Seconds for a fixed pure-Python computation (modular elimination, like the engine's)."""
    p, size = 1_000_003, 12
    start = time.perf_counter()
    for shift in range(5):
        rows = [[(7 * i + 13 * j + shift) ** 2 % p + (i == j) for j in range(size)] for i in range(size)]
        for col in range(size):
            inverse = pow(rows[col][col] or 1, -1, p)
            for r in range(col + 1, size):
                scale = rows[r][col] * inverse % p
                upper, lower = rows[col], rows[r]
                for c in range(col, size):
                    lower[c] = (lower[c] - scale * upper[c]) % p
    return time.perf_counter() - start


def run_op(argv: list[str], limit: float) -> dict:
    """One CLI call: seconds, exit code, stdout, and the error if it raised."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ccarb.cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout"
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any crash is a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-300:], "error": error}


def _pass(ops, limit, tracer, deadline, log, complete=True) -> bool:
    """Run ops in order until `deadline`; return False if it cut a `complete` pass short."""
    before = calibrate()
    for index, argv in enumerate(ops):
        if time.perf_counter() > deadline:
            if not complete:
                return True
            for skipped in range(index, len(ops)):
                log.append({"seconds": limit, "code": None, "stdout": "", "stderr": "", "error": "deadline",
                            "calibration": before, "op": skipped, "traced": tracer is not None})
            return False
        if tracer is not None:
            tracer.op = index
        result = run_op(argv, limit)
        if tracer is not None:
            tracer.fold()
        after = calibrate()
        result["calibration"] = (before + after) / 2
        before = after
        result["op"] = index
        result["traced"] = tracer is not None
        log.append(result)
    return True


def main(plan_path: str, results_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    ops, limit = plan["ops"], plan["limit"]
    began = time.perf_counter()
    log: list[dict] = []
    probes: list[dict] = []
    results: dict = {"executions": log, "probes": probes}
    complete = _pass(ops, limit, None, began + PASS_STOP_S, log)
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            complete = _pass(ops, limit, tracer, time.perf_counter() + PASS_STOP_S, log) and complete
            complete = _pass(plan["probes"], limit, tracer, began + PROBE_STOP_S, probes) and complete
        finally:
            uninstall()
        results["layers"] = tracer.metrics()
    else:
        deadline = began + min(plan["seconds"], PASS_STOP_S)
        while time.perf_counter() < deadline:
            _pass(ops, limit, None, deadline, log, complete=False)
        complete = _pass(plan["probes"], limit, None, began + PROBE_STOP_S, probes) and complete
    results["truncated"] = not complete
    results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
