"""The per-event code reads no enum member through its enum class.

Reading `NodeState.ACTIVE` costs a global lookup plus an enum attribute
lookup, several times the cost of reading a module global. The functions
below run once per event, per receiver or per probe cycle, so they use the
members their modules bind once (`_ACTIVE`, `_WAKE`, ...).
"""

import ast
import inspect

import pytest

from sentinelsim import engine, peas, protocol

ENUMS = {"NodeState", "EventKind"}

HANDLERS = ("on_wake", "on_probe_request", "on_probe_reply", "on_reply_timeout",
            "on_withdrawal_check")

PER_EVENT = [
    (engine, "run"),
    (engine, "_handle_delivery"),
    (engine, "_probe_step"),
    (engine, "_record_sample"),
    (engine, "_handle_failure"),
    (engine, "World.push"),
    (engine, "World.charge"),
    (engine, "World.broadcast"),
    (engine, "World._sync_state"),
    (engine, "World._deplete"),
    (engine, "World._enter_active"),
    *[(protocol, name) for name in (*HANDLERS, "go_to_sleep", "_adapt_and_sleep")],
    (peas, "on_probe_reply"),
    (peas, "on_withdrawal_check"),
]


def _definition(module, qualname: str) -> ast.FunctionDef:
    """The function or method `qualname` ("f" or "Class.f") in the module's source."""
    scope = ast.parse(inspect.getsource(module)).body
    *owners, name = qualname.split(".")
    for owner in owners:
        scope = next(n for n in scope if isinstance(n, ast.ClassDef) and n.name == owner).body
    return next(n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name)


def _enum_reads(tree: ast.AST) -> list[str]:
    """Every `NodeState.X` or `EventKind.X` read, also through a module."""
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if name in ENUMS:
            reads.append(f"line {node.lineno}: {name}.{node.attr}")
    return reads


@pytest.mark.parametrize(
    "module,qualname", PER_EVENT, ids=[f"{m.__name__.rsplit('.', 1)[1]}.{q}" for m, q in PER_EVENT]
)
def test_per_event_code_reads_no_enum_member(module, qualname):
    assert _enum_reads(_definition(module, qualname)) == []


def test_the_check_sees_enum_reads():
    source = (
        "def f(node, kind):\n"
        "    return node.state is NodeState.ACTIVE or kind is engine.EventKind.WAKE\n"
    )
    assert _enum_reads(ast.parse(source)) == [
        "line 2: NodeState.ACTIVE",
        "line 2: EventKind.WAKE",
    ]
    assert _enum_reads(ast.parse("x = _ACTIVE\ny = node.state.name\n")) == []
