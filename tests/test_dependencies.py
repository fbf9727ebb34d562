"""The package needs nothing beyond the standard library, and the `test`
extra of pyproject.toml declares every third-party module the tests import,
so `pip install -e .[test]` gives a suite that collects."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def _requirement_name(requirement: str) -> str:
    """The project name at the head of a PEP 508 requirement string."""
    return _normalized(re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0))


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_test_extra_declares_every_third_party_import():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {_requirement_name(r) for r in requirements}
    local = {
        path.stem for folder in ("tests", "benchmark") for path in (ROOT / folder).glob("*.py")
    }
    own = set(sys.stdlib_module_names) | local | {"sentinelsim"}
    imported = set().union(*(_imported_roots(path) for path in (ROOT / "tests").glob("*.py")))
    assert {"pytest", "hypothesis", "sentinelsim"} <= imported  # the walk sees the suite
    third_party = {_normalized(name) for name in imported - own}
    assert sorted(third_party - declared) == []


def test_package_has_no_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_import_loads_no_numpy():
    # numpy's import was most of the package's start-up time
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    code = "import sys, sentinelsim; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "False"
