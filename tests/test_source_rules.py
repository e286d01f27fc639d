"""Rules the library source must keep."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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


def _batched_spectral_norms(tree):
    """Calls of np.linalg.svd, or of np.linalg.norm with ord and axis."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name.endswith("svd"):
            yield node
        elif name.endswith("linalg.norm") and (
            len(node.args) >= 3 or any(k.arg == "axis" for k in node.keywords)
        ):
            yield node


def test_batched_spectral_norms_live_in_algebra():
    # the spectral residuals are decided in one place, spectral_norms, which
    # decomposes only the matrices that can reach the maximum
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in _batched_spectral_norms(
            ast.parse(path.read_text(), str(path))
        )
        if path.name != "algebra.py"
    ]
    assert found == []
    algebra = next(path for path in SOURCES if path.name == "algebra.py")
    assert list(_batched_spectral_norms(ast.parse(algebra.read_text())))


def test_only_poly_and_the_ladder_name_poly():
    # an element is one coefficient array, and every element API takes or
    # returns arrays; Poly is left to its own module and the approximate-
    # identity ladder of derivations
    named = [
        path.name
        for path in SOURCES
        if re.search(r"\bPoly\b", path.read_text())
    ]
    assert named == ["derivations.py", "poly.py"]


@pytest.mark.parametrize(
    "module",
    ["cyclealg"] + [f"cyclealg.{path.stem}" for path in SOURCES
                    if path.stem != "__init__"],
)
def test_star_import_succeeds(module):
    # an __all__ entry left behind by a deletion fails here, not in a
    # user's import
    exec(f"from {module} import *", {})
