"""Rules the library's source files must keep."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nnfopt").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, and the library's checks must
    # survive it; raise an exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_at_module_level():
    # a module's dependencies show in its header; an import inside a
    # function usually hides a cycle between modules
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
