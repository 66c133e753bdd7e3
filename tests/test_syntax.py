import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "markovtraj").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_as_the_oldest_supported_python(path):
    # The grammar of pyproject's oldest Python, checked by whichever
    # interpreter runs the tests: newer syntax such as `except*` fails here.
    pyproject = (ROOT / "pyproject.toml").read_text()
    minor = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.MULTILINE)[1]
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, int(minor)))
