"""Every module-level import in the library is used by its module, every
module-level logger logs, and every module-level private helper is used by
the library.

Standard library only: each module is parsed with ast, and an imported name
counts as used when it appears as a name anywhere else in the module.
`__future__` imports, package `__init__` re-exports and lines marked
`# noqa: F401` are exempt. A module-level name bound to a `getLogger(...)`
call logs when some call in its module goes through it, as in
`logger.info(...)`. A `_`-prefixed module-level function or class counts as
used when some library module names it, as a name, an attribute or an
import, outside its own definition.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poolbo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(node) -> list:
    """Every name, attribute and imported name under node, with repeats."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name)
    return out


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


def silent_loggers(source: str) -> list:
    """The module-level names bound to a getLogger(...) call that no call in
    the module goes through."""
    tree = ast.parse(source)
    bound = {target.id for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute)
             and node.value.func.attr == "getLogger"
             for target in node.targets if isinstance(target, ast.Name)}
    called = {n.func.value.id for n in ast.walk(tree) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute) and isinstance(n.func.value, ast.Name)}
    return sorted(bound - called)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_silent_module_loggers(path):
    assert silent_loggers(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources: dict) -> list:
    """The `_`-prefixed module-level functions and classes of {module: source}
    that no module names outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names = [name for tree in trees.values() for name in _names(tree)]
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and names.count(node.name) == _names(node).count(node.name)):
                dead.append(f"{module}.{node.name}")
    return sorted(dead)


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_checker_flags_a_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n\ndef _called():\n    pass\n\nclass C:\n    x = _called\n",
    }
    assert dead_helpers(sources) == ["a._Gone", "a._dead"]


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\nimport csv\nimport json  # noqa: F401\n"
              "from os import (\n    path,\n    sep,\n)\nprint(sep)\n")
    assert unused_imports(source) == ["csv (line 2)", "path (line 5)"]


def test_checker_flags_a_silent_logger():
    source = ("import logging\nlogger = logging.getLogger(__name__)\n"
              "log = logging.getLogger('a')\nquiet = logging.getLogger('b')\n"
              "name = logger.name\n\ndef f():\n    log.info('x')\n")
    assert silent_loggers(source) == ["logger", "quiet"]
