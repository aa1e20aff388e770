"""Packaging rules that hold for the whole runtime."""

import ast
import sys
from pathlib import Path

import dtm2d

SOURCES = sorted(Path(dtm2d.__file__).resolve().parent.glob("*.py"))


def _imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) >= 6
    for path in SOURCES:
        for name in _imported_modules(path):
            assert name in sys.stdlib_module_names or name == "dtm2d", (path.name, name)
