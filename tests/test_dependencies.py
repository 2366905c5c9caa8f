"""The package depends on numpy alone: every module under src/moticomp imports
only numpy, the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "moticomp").glob("*.py"))


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in path; relative imports stay
    inside the package and give none."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "autodiff", "cli", "dct", "vae"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_numpy_the_standard_library_and_the_package(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "moticomp"}
    assert imported_roots(path) - allowed == set()
