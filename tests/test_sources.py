"""Rules the library's source files must keep."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nnfopt").glob("*.py"))


def test_no_assert_statements_in_src():
    # python -O strips assert statements, and the library's checks must
    # survive it; raise an exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # a module-level import that its module never names is dead weight;
    # the package's __init__ imports to re-export, so it is exempt
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES
    assert found == []


def test_imports_at_module_level():
    # a module's dependencies show in its header; an import inside a
    # function usually hides a cycle between modules.  numpy alone is
    # imported where the brute-force oracle uses it, to keep it off the
    # CLI's start-up path (test_cli_import_leaves_numpy_out)
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.Import) and [a.name for a in node.names] == ["numpy"])]
    assert found == []


def test_cli_import_leaves_numpy_out():
    # only the brute-force oracle needs numpy, and it costs the CLI's
    # start-up more than the rest of the package together
    src = str(SOURCES[0].parent.parent)
    code = "import sys, nnfopt.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
