"""Rules the library source must keep."""

from __future__ import annotations

import ast
from pathlib import Path

import cyclealg

SOURCES = sorted(Path(cyclealg.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a runtime guard written as one
    # silently disappears; library checks must raise real exceptions
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
