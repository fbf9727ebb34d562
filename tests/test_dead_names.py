"""No package or test module keeps a private module-level name that it never
reads, and no test module keeps any module-level name that nothing reads.

No linter is part of the toolchain, so a leftover import or binding, such as
an enum member bound once for handlers that no longer use it, or a test
helper that no test calls any more, fails here. A package module's public
names are its interface, so only its private names are checked; nothing
imports a test module but `oracles.py`, so each of its names must be read
in the module, by pytest (a test or a fixture), or, for `oracles.py`, by a
test module that imports it.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sentinelsim"
# __init__.py binds names to re-export them, not to read them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))
MODULES += TEST_MODULES


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


def _is_fixture(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target) == "pytest.fixture"


def _unread_names(tree: ast.Module, read_elsewhere=()) -> list[str]:
    """Module-level names that neither the module, pytest (a test or a
    fixture) nor `read_elsewhere` reads."""
    bound = {
        name for name in _module_bindings(tree.body)
        if not (name.startswith("__") and name.endswith("__"))
    }
    # `_n += 1` reads `_n` through a Store-context name
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } | {
        node.target.id for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
    } | {
        stmt.name for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        and (stmt.name.startswith("test") or any(map(_is_fixture, stmt.decorator_list)))
    }
    return sorted(bound - read - set(read_elsewhere))


def _unread_private_names(tree: ast.Module) -> list[str]:
    return [name for name in _unread_names(tree) if name.startswith("_")]


def _imported_from_oracles() -> set[str]:
    return {
        alias.name
        for path in TEST_MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }


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


def test_the_check_finds_an_unread_public_test_helper():
    source = (
        "import pytest\n"
        "LIMIT = 3\n"
        "def unused_helper():\n"
        "    return 1\n"
        "def used_helper():\n"
        "    return LIMIT\n"
        "class Unused:\n"
        "    pass\n"
        "@pytest.fixture\n"
        "def world():\n"
        "    return used_helper()\n"
        "@pytest.fixture(scope='module')\n"
        "def grid():\n"
        "    return 2\n"
        "def test_world(world):\n"
        "    assert world\n"
    )
    tree = ast.parse(source)
    assert _unread_private_names(tree) == []
    assert _unread_names(tree) == ["Unused", "unused_helper"]
    assert _unread_names(tree, read_elsewhere={"Unused"}) == ["unused_helper"]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: path.stem)
def test_test_module_reads_every_name_it_binds(path):
    read_elsewhere = _imported_from_oracles() if path.name == "oracles.py" else ()
    tree = ast.parse(path.read_text(), str(path))
    assert _unread_names(tree, read_elsewhere) == []
