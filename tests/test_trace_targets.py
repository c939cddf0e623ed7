"""Every function the benchmark's layer tracer wraps exists under its traced name.

`benchmark/run.py --trace 1` wraps each (module, attribute) in
`benchmark/spans.py` TARGETS and fails with AttributeError on a missing one.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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

