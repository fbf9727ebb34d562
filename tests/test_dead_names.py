"""No package or test module keeps a private module-level name that it never
reads.

No linter is part of the toolchain, so a leftover import or binding, such as
an enum member bound once for handlers that no longer use it, or a test
helper that no test calls any more, fails here.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sentinelsim"
# __init__.py binds names to re-export them, not to read them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def _targets(target):
    """The names an assignment target binds."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _targets(element)
    elif isinstance(target, ast.Starred):
        yield from _targets(target.value)


def _module_bindings(body):
    """Every name bound at module level, inside `if` blocks too."""
    for stmt in body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                yield from _targets(target)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            yield from _targets(stmt.target)
        elif isinstance(stmt, ast.If):
            yield from _module_bindings(stmt.body + stmt.orelse)


def _unread_private_names(tree: ast.Module) -> list[str]:
    private = {
        name for name in _module_bindings(tree.body)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }
    # `_n += 1` reads `_n` through a Store-context name
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } | {
        node.target.id for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
    }
    return sorted(private - read)


def test_the_check_finds_a_leftover_import_and_binding():
    source = (
        "from __future__ import annotations\n"
        "import os as _os\n"
        "_A, _B = 1, 2\n"
        "def f():\n"
        "    return _A\n"
    )
    assert _unread_private_names(ast.parse(source)) == ["_B", "_os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_reads_every_private_name_it_binds(path):
    assert _unread_private_names(ast.parse(path.read_text(), str(path))) == []
