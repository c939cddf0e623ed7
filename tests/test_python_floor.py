"""The sources parse as the oldest Python that pyproject.toml's requires-python admits.

`ast.parse` with `feature_version` refuses syntax newer than that version.
It checks grammar only, not which standard-library names exist.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()))


def test_the_floor_is_3_10():
    assert FLOOR == (3, 10)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ccarb").glob("*.py")), ids=lambda path: path.name)
def test_every_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_refused():
    # except* arrived in Python 3.11.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
