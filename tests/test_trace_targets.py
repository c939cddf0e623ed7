"""Every function the benchmark's layer tracer wraps exists under its traced name, and fires.

`benchmark/run.py --trace 1` wraps each (module, attribute) in
`benchmark/spans.py` TARGETS and fails with AttributeError on a missing one.
A wrapper fires only where the program looks the function up through a
module attribute that `Tracer.install` rebinds, so the tracer's counts of
a few CLI calls are checked against counts derived by hand.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import ccarb.cli
from ccarb.determinant import det_poly_mod_p
from ccarb.polynomials import crt_combine

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_traced_arguments_keep_their_positions():
    # The tracer reads det_poly_mod_p's prime as args[1] and crt_combine's
    # residue mapping as args[0].
    assert list(inspect.signature(det_poly_mod_p).parameters)[:2] == ["matrix", "p"]
    assert list(inspect.signature(crt_combine).parameters)[0] == "residue_polys"


# Rooted at s, the arborescences {sb, ba}, {sa, sb} and {sa, ab} weigh 3, 3
# and 4 and take 0, 1 and 2 arcs of color 1; the triangle u has two
# spanning trees with one edge of color 1.
WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"
UNDIRECTED = "3 2\nundirected\ns a 1\ns b 2\na b 1\n"

# Counts derived by hand.  Every call makes one main and one parse_graph.  No
# det_poly here interpolates or calls SymbolicMatrix.evaluate: x1 is the only
# variable and is packed, and the reduced rows are evaluated through
# laplacian._evaluate, which is not traced.
TRACED = [
    # One count_table, whose det_poly takes the minor at s.
    (["count-all", "g", "--root", "s"], "0\t1\n1\t1\n2\t1\n", {"count_table": 1, "det_poly": 1}),
    # count_spanning_trees bidirects the triangle and counts at its first vertex.
    (
        ["spanning-trees", "u", "--alpha", "1"],
        "2\n",
        {"count_spanning_trees": 1, "bidirect": 1, "count": 1, "count_table": 1, "det_poly": 1},
    ),
    # One count, then the search's one dedup_min_weight.  a has two
    # candidates, sa and ba: the probe of sa is one det_poly and holds; b's
    # one candidate, sb, is taken unasked.
    (["find", "g", "--root", "s", "--alpha", "1"], "s a 1 1\ns b 2 2\n", {"find": 1, "count_table": 1, "det_poly": 2, "dedup_min_weight": 1}),
    # One count, one det_poly of the lowered minor at r = 2 and its one
    # valuation, then the search as for find (ab, with w - m_b = 1 above
    # the slack 0, is never offered).
    (
        ["find-min", "g", "--root", "s", "--alpha", "1"],
        "3\ns a 1 1\ns b 2 2\n",
        {"find_min": 1, "count_table": 1, "det_poly": 3, "valuation": 1, "dedup_min_weight": 1},
    ),
]


@pytest.mark.parametrize("argv, out, counts", TRACED, ids=[argv[0] for argv, _, _ in TRACED])
def test_the_tracer_counts_cli_calls_as_derived(monkeypatch, tmp_path, capsys, argv, out, counts):
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    monkeypatch.chdir(tmp_path)
    Path("g").write_text(WEIGHTED, encoding="utf-8")
    Path("u").write_text(UNDIRECTED, encoding="utf-8")
    main, tracer = ccarb.cli.main, spans.Tracer()
    uninstall = tracer.install()
    try:
        code = ccarb.cli.main(argv)
    finally:
        uninstall()
    assert ccarb.cli.main is main
    assert (code, capsys.readouterr().out) == (0, out)
    assert dict(tracer.counts) == {"main": 1, "parse_graph": 1, **counts}
