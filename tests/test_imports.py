"""Every module-level import in the library is used by its module.

Standard library only: each module is parsed with ast, and an imported name
counts as used when it appears as a name anywhere else in the module.
`__future__` imports, package `__init__` re-exports and lines marked
`# noqa: F401` are exempt.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poolbo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\nimport csv\nimport json  # noqa: F401\n"
              "from os import (\n    path,\n    sep,\n)\nprint(sep)\n")
    assert unused_imports(source) == ["csv (line 2)", "path (line 5)"]
