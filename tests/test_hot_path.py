"""Pins on how the per-event code is built, each for the speed it keeps, and
each looking inside the source of one function.

Reading `NodeState.ACTIVE` costs a global and an enum attribute lookup,
several times a module global's, so the functions below, which run once per
event, receiver or probe cycle, read members bound once, such as `_ACTIVE`.

Every event and every metrics sample reads `World` and `SensorNode`
attributes, and every delivery a `Frame`'s; a slot is cheaper to reach than
an instance dict entry, so none of the three has a `__dict__`. A finished
run keeps every `MetricsRecord` it sampled, so those take no dict either.

The sampler visits every node at every sample through one `World.charge`
call and has no node loop of its own; the charge's node loop makes no call
but the rare `_deplete`. The run's one event loop charges each receiver of a
frame inline with the same float steps, with no call. The event loop reads
the config only through the locals it binds before the loop. Every probe a
node sends is the one `ProbeRequest` it was built with.

What spans functions is held by results, not by form: `oracles.checked`
re-derives what the engine decides before every event of the property tests,
whose tick grid kills nodes and pauses between sends, so a radio that forgets
its frames on the air at a death or a pause miscounts a collision there. The
golden `calls` digests count each push through `World.push`, and a world
marked finished too early refuses its next run call. A redundancy proof's rate
update and sleep draw build no `WeibullParams`: a sentinel run counts the
builds.
"""

import ast
import dataclasses
import inspect
import textwrap
from collections import Counter

import pytest

from sentinelsim import engine, peas, protocol, scheduling
from sentinelsim.analysis import MetricsRecord
from sentinelsim.engine import Frame, SimConfig, deploy, simulate
from sentinelsim.protocol import NodeState, ProbeRequest, SensorNode
from sentinelsim.scheduling import WeibullParams

from oracles import spying

PER_EVENT = [
    engine.run, engine._record_sample, engine.inject_failure, engine.World.push,
    engine.World.charge, engine.World.broadcast, engine.World._sync_state, engine.World._deplete,
    engine.World._enter_active, engine._ids, protocol.on_wake, protocol.on_probe_request,
    protocol.on_probe_reply, protocol.on_reply_timeout, protocol.on_withdrawal_check,
    protocol.go_to_sleep, protocol._adapt_and_sleep, peas.on_probe_reply, peas.on_withdrawal_check,
    scheduling.adapt_and_draw, scheduling.update_probe_rate, scheduling._hazard, scheduling._draw,
]

ENUMS = ("NodeState", "EventKind")


def _tree(fn) -> ast.Module:
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _scoped(tree: ast.AST, scope: str = ""):
    """(scope, node) for every node below `tree` but class and function
    definitions, in source order; scope is "Class.method", "" at module level."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield scope, child
            yield from _scoped(child, scope)


def _found(tree: ast.AST, match, inside=None, scope: str = "") -> list[str]:
    """"scope: source" for each node below `tree` that `match` accepts, in
    source order; with `inside`, only below the nodes that `inside` accepts."""
    if inside:
        return [hit for where, node in _scoped(tree, scope) if inside(node)
                for hit in _found(node, match, scope=where)]
    return [f"{where}: {ast.unparse(node)}" for where, node in _scoped(tree, scope) if match(node)]


def _enum_read(node: ast.AST) -> bool:
    """A `NodeState.X` or `EventKind.X` read, also through a module."""
    return isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith(ENUMS)


def _call_but_deplete(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) != "_deplete"


def _loop(head: str):
    """Accepts a `for` loop over, or a `while` loop on, a source that ends with `head`."""
    return lambda node: isinstance(node, (ast.For, ast.While)) and ast.unparse(
        node.test if isinstance(node, ast.While) else node.iter).endswith(head)


def _config_use(node: ast.AST) -> bool:
    """A `config` attribute, or a node that uses `cfg` but as a call argument."""
    passed = node.args if isinstance(node, ast.Call) else []
    used = [child for child in ast.iter_child_nodes(node) if getattr(child, "id", None) == "cfg"]
    return getattr(node, "attr", None) == "config" or any(name not in passed for name in used)


def _call(suffix: str):
    """Accepts a call of a function whose source ends with `suffix`."""
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith(suffix)


@pytest.mark.parametrize(
    "fn", PER_EVENT, ids=[f"{fn.__module__.split('.')[1]}.{fn.__qualname__}" for fn in PER_EVENT]
)
def test_per_event_code_reads_no_enum_member(fn):
    assert _found(_tree(fn), _enum_read) == []


def test_the_sampler_node_loop_calls_only_deplete():
    charge = _tree(engine.World.charge)
    assert [ast.unparse(n.iter) for _, n in _scoped(charge) if type(n) is ast.For] == ["nodes"]
    assert _found(charge, _call_but_deplete, _loop("nodes")) == []
    sample = _tree(engine._record_sample)
    assert _found(sample, lambda node: isinstance(node, (ast.For, ast.While))) == []
    assert _found(sample, _call("charge")) == ["_record_sample: world.charge(world.nodes, now)"]


def test_the_event_loop_only_passes_the_config_on():
    assert _found(_tree(engine.run), _config_use, _loop("heap")) == []


def test_the_delivery_receiver_loop_calls_no_charge():
    assert len(_found(_tree(engine.run), _loop(".receivers"))) == 1
    assert _found(_tree(engine.run), _call("charge"), _loop(".receivers")) == []


CHECKS = {
    "enum_reads": (_enum_read, None, """
        def f(node, kind):
            x = _ACTIVE, node.state.name
            return node.state is NodeState.ACTIVE or kind is engine.EventKind.WAKE
        """, ["f: NodeState.ACTIVE", "f: engine.EventKind.WAKE"]),
    "calls_in_node_loops": (_call_but_deplete, _loop("nodes"), """
        def f(world, nodes, now):
            for node in world.nodes:
                world.charge((node,), now)
                if node.spent_total > 1.0:
                    node.spent_state += world._deplete(node, now)
            for node in nodes:
                print(node)
            for node in others:
                print(node)
        """, ["f: world.charge((node,), now)", "f: print(node)"]),
    "config_reads": (_config_use, _loop("heap"), """
        while heap:
            handler(node, cfg, now)
            t_w = cfg.t_w
            jitter = world.config.reply_jitter
            config = cfg
        """, [": cfg.t_w", ": world.config", ": config = cfg"]),
    "charge_calls": (_call("charge"), _loop(".receivers"), """
        for rid in frame.receivers:
            world.charge(nodes[rid], now)
            charge(nodes[rid], now)
            nodes[rid].spent_rx += world._deplete(nodes[rid], now)
        """, [": world.charge(nodes[rid], now)", ": charge(nodes[rid], now)"]),
}


@pytest.mark.parametrize("match,inside,source,expected", CHECKS.values(), ids=CHECKS)
def test_the_check_sees(match, inside, source, expected):
    assert _found(ast.parse(textwrap.dedent(source)), match, inside) == expected


@pytest.mark.parametrize("name", ["World", "SensorNode", "Frame"])
def test_per_event_objects_are_slotted(name):
    world = deploy(SimConfig(n_nodes=2, duration=10.0))
    frame = Frame(ProbeRequest(0), 0.0, 0.001, [1], 0b10)
    obj = {"World": world, "SensorNode": world.nodes[0], "Frame": frame}[name]
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.ad_hoc = 1


def test_metrics_rows_are_slotted_and_frozen():
    row = simulate(SimConfig(n_nodes=2, duration=10.0)).rows[0]
    assert isinstance(row, MetricsRecord) and not hasattr(row, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.time = 1.0


def test_the_proof_sleep_builds_no_weibull_params():
    calls = Counter()

    def count(name, *args):
        calls[name] += 1

    with spying(protocol, ["_adapt_and_sleep"], count):
        with spying(WeibullParams, ["__post_init__"], count):
            simulate(SimConfig(n_nodes=60, duration=300.0, seed=12))
    assert calls["_adapt_and_sleep"] > 0
    assert calls["__post_init__"] == 0


def test_every_probe_of_a_node_is_its_one_request():
    config = SimConfig()
    node = SensorNode(id=7, x=0.0, y=0.0)
    first = protocol.on_wake(node, config, 1.0)
    retries = [protocol.on_reply_timeout(node, config, 2.0 + k) for k in range(config.k_probes - 1)]
    assert first == ProbeRequest(7)
    assert all(retry is first for retry in retries)
    assert node.state is NodeState.PROBING
    protocol.go_to_sleep(node, 5.0, 1.0)
    assert protocol.on_wake(node, config, 6.0) is first
