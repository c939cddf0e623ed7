"""Traced counters: exact values on a tiny graph, repeatability, wrapper coverage."""

from __future__ import annotations

import pytest

import helpers
import spans
import suite

# Root s, vertices a and b.  Arborescences: {sa, sb} (alpha 1, weight 3),
# {sa, ab} (alpha 2, weight 4) and {ba, sb} (alpha 0, weight 3).
TINY = "3 2\ns a 1\ns b 2\na b 1\nb a 2\n"
TINY_WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"


def _traced(tmp_path, text: str, *argvs: list[str]) -> tuple[spans.Tracer, list[dict]]:
    path = tmp_path / "tiny.g"
    path.write_text(text, encoding="utf-8")
    tracer = spans.Tracer()
    results = helpers.run([[argv[0], str(path), *argv[1:]] for argv in argvs], tracer)
    return tracer, results


def test_count_all_counters(tmp_path):
    # One det_poly on the 2x2 minor: m = 4 arcs, bound 4^3 = 64, primes
    # above max(4, 2n = 6): 7 and 11 (7 <= 64 < 77).  Each prime evaluates
    # the 3-point grid of the single variable.
    tracer, results = _traced(tmp_path, TINY, ["count-all", "--root", "s"])
    assert results[0]["stdout"] == "0\t1\n1\t1\n2\t1\n"
    m = tracer.metrics()
    assert m["determinant.det_poly_calls"] == 1
    assert m["determinant.prime_passes"] == 2
    assert m["determinant.scalar_dets"] == 6
    assert m["laplacian.evaluate_calls"] == 6
    assert m["polynomials.interpolate_calls"] == 2
    assert m["polynomials.crt_moduli"] == 2
    assert m["counting.decide_calls"] == 0


def test_find_counters(tmp_path):
    # One feasibility decide, then one decide per edge in id order:
    #   drop s->a: no tree with alpha 1 (keep), drop s->b: none (keep),
    #   drop a->b: {sa, sb} remains (delete), drop b->a: {sa, sb} (delete).
    # Every decide is one det_poly with 2 primes: bounds 4^3, 3^3, 3^3, 3^3
    # and 2^3 all lie in [7, 77).  Each prime evaluates 3 grid points.
    tracer, results = _traced(tmp_path, TINY, ["find", "--root", "s", "--alpha", "1"])
    assert results[0]["stdout"] == "s a 1\ns b 2\n"
    m = tracer.metrics()
    assert m["counting.decide_calls"] == 5
    assert m["counting.decide_yes_share"] == pytest.approx(3 / 5)
    assert m["determinant.det_poly_calls"] == 5
    assert m["determinant.prime_passes"] == 10
    assert m["determinant.scalar_dets"] == 30
    assert m["graph.transform_calls"] == 4 + 5  # remove_edge, remove_in_arcs


def test_min_weight_counters(tmp_path):
    # r runs over the n = 3 primes above max(4, 6): 7, 11, 13.  c_alpha_r's
    # bound is 4^3 r^(3*3); CRT primes start at 7 with running products
    # 7, 77, 1001, 17017, 323323, 7436429, 215656441, 6685349671 (8 primes),
    # 247357937827 (9), 10141675450907 (10).  64*7^9 = 2582630848 needs 8,
    # 64*11^9 = 150908652224 needs 9, 64*13^9 = 678687959872 needs 10.
    tracer, results = _traced(tmp_path, TINY_WEIGHTED, ["min-weight", "--root", "s", "--alpha", "1"])
    assert results[0]["stdout"] == "3\n"
    m = tracer.metrics()
    assert m["minweight.c_alpha_r_calls"] == 3
    assert m["determinant.det_poly_calls"] == 3
    assert m["determinant.prime_passes"] == 8 + 9 + 10
    assert m["determinant.scalar_dets"] == 3 * 27
    assert m["determinant.refusals"] == 0


def _counts(tracer: spans.Tracer) -> dict:
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


def test_counters_repeat_exactly(tmp_path):
    ops = helpers.sample(suite.build("search", 7)[0])
    paths = helpers.write(tmp_path, ops)
    argvs = [op.argv(paths[op.id]) for op in ops]
    first, second = spans.Tracer(), spans.Tracer()
    helpers.run(argvs, first)
    helpers.run(argvs, second)
    assert _counts(first) == _counts(second)
    assert _counts(first)["counting.decide_calls"] > 0


def test_every_wrapper_fires_across_workloads(tmp_path):
    # A wrapper bound under a stale name would silently count zero.
    tracer = spans.Tracer()
    for workload in suite.WORKLOADS:
        timed, probes = suite.build(workload, 1)
        ops = helpers.sample(timed, per_command=1) + probes[:1]
        paths = helpers.write(tmp_path, ops)
        helpers.run([op.argv(paths[op.id]) for op in ops], tracer)
    fired = {name for name, count in tracer.counts.items() if count}
    assert {attr.rpartition(".")[2] for _, attr in spans.TARGETS} <= fired
    assert tracer.counts["refusals"] >= 1  # the probe hits the seed's prime budget


def test_wrappers_are_installed_everywhere_and_removed():
    import ccarb.counting
    import ccarb.determinant
    import ccarb.minweight

    original = ccarb.determinant.det_poly
    uninstall = spans.Tracer().install()
    try:
        assert ccarb.counting.det_poly is ccarb.minweight.det_poly is ccarb.determinant.det_poly
        assert ccarb.counting.det_poly is not original
    finally:
        uninstall()
    assert ccarb.counting.det_poly is original and ccarb.minweight.det_poly is original
