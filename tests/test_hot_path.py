"""The per-event code reads no enum member through its enum class, and the
objects it reads most are slotted.

Reading `NodeState.ACTIVE` costs a global lookup plus an enum attribute
lookup, several times the cost of reading a module global. The functions
below run once per event, per receiver or per probe cycle, so they use the
members their modules bind once (`_ACTIVE`, `_WAKE`, ...).

Every event and every metrics sample reads `World` and `SensorNode`
attributes, and every delivery a `Frame`'s; a slot is cheaper to reach than
an instance dict entry, so none of the three has a `__dict__`. A finished
run keeps every `MetricsRecord` it sampled, so those take no dict either.

The sampler visits every node at every sample, so its node loop makes no
call but the rare `_deplete`: the charge is inlined, and the radio and guard
masks and the dead count are the engine's. Those three are the engine's only
copies of its nodes' states, so one method writes them all, besides the
constructor that zeroes them. Likewise only the radio replaces its list of
frames on the air, and only the run, which empties it when it ends. Only
`World.push` and the run, which adds its pause, push onto the event queue, and
only the run marks a world finished.

The run's one event loop charges each receiver of a frame inline the same
way, and reads the config only through the locals it binds before the loop.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from sentinelsim import engine, peas, protocol
from sentinelsim.analysis import MetricsRecord
from sentinelsim.engine import Frame, SimConfig, deploy, simulate
from sentinelsim.protocol import ProbeRequest

ENUMS = {"NodeState", "EventKind"}

HANDLERS = ("on_wake", "on_probe_request", "on_probe_reply", "on_reply_timeout",
            "on_withdrawal_check")

PER_EVENT = [
    (engine, "run"),
    (engine, "_record_sample"),
    (engine, "inject_failure"),
    (engine, "World.push"),
    (engine, "World.charge"),
    (engine, "World.broadcast"),
    (engine, "World._sync_state"),
    (engine, "World._deplete"),
    (engine, "World._enter_active"),
    (engine, "_ids"),
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


def _calls_in_node_loops(tree: ast.AST) -> list[str]:
    """Every call inside a `for ... in world.nodes` loop, but `_deplete`."""
    calls = []
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and ast.unparse(loop.iter) == "world.nodes"):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                func = node.func
                if not (isinstance(func, ast.Attribute) and func.attr == "_deplete"):
                    calls.append(f"line {node.lineno}: {ast.unparse(func)}")
    return calls


def test_the_sampler_node_loop_calls_only_deplete():
    tree = _definition(engine, "_record_sample")
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For)]
    assert [ast.unparse(loop.iter) for loop in loops] == ["world.nodes"]
    assert _calls_in_node_loops(tree) == []


def test_the_check_sees_calls_in_node_loops():
    source = (
        "def f(world, now):\n"
        "    for node in world.nodes:\n"
        "        world.charge(node, now)\n"
        "        if node.spent_total > 1.0:\n"
        "            world._deplete(node, 'spent_state', now)\n"
        "    for node in others:\n"
        "        print(node)\n"
    )
    assert _calls_in_node_loops(ast.parse(source)) == ["line 3: world.charge"]


def _event_loop() -> ast.While:
    """The `while heap:` loop of `run`."""
    return next(
        n for n in ast.walk(_definition(engine, "run"))
        if isinstance(n, ast.While) and ast.unparse(n.test) == "heap"
    )


def _config_reads(tree: ast.AST) -> list[str]:
    """Every read of `world.config` or of an attribute of `cfg`, and every
    use of `cfg` but as a call argument."""
    passed = {
        id(arg) for call in ast.walk(tree) if isinstance(call, ast.Call) for arg in call.args
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "config":
            reads.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "cfg" and id(node) not in passed:
            reads.append((node.lineno, "cfg"))
    return [f"line {line}: {read}" for line, read in sorted(reads)]


def test_the_event_loop_only_passes_the_config_on():
    assert _config_reads(_event_loop()) == []


def test_the_check_sees_config_reads():
    source = (
        "while heap:\n"
        "    handler(node, cfg, now)\n"
        "    t_w = cfg.t_w\n"
        "    jitter = world.config.reply_jitter\n"
        "    config = cfg\n"
    )
    assert _config_reads(ast.parse(source)) == [
        "line 3: cfg", "line 4: world.config", "line 5: cfg"
    ]


def _charge_calls(tree: ast.AST) -> list[str]:
    """Every call to a function or method named `charge` in the tree."""
    return [
        f"line {n.lineno}: {ast.unparse(n.func)}" for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "attr", getattr(n.func, "id", None)) == "charge"
    ]


def test_the_delivery_receiver_loop_calls_no_charge():
    loops = [
        n for n in ast.walk(_event_loop())
        if isinstance(n, ast.For) and ast.unparse(n.iter).endswith(".receivers")
    ]
    assert len(loops) == 1
    assert _charge_calls(loops[0]) == []


def test_the_check_sees_charge_calls():
    source = (
        "for rid in frame.receivers:\n"
        "    world.charge(nodes[rid], now)\n"
        "    charge(nodes[rid], now)\n"
        "    world._deplete(nodes[rid], 'spent_rx', now)\n"
    )
    assert _charge_calls(ast.parse(source)) == ["line 2: world.charge", "line 3: charge"]


STATE_COPIES = {"_radio_mask", "_guard_mask", "_dead"}


def _scoped(tree: ast.AST, scope: str = ""):
    """(scope, node) for every node below `tree` but class and function
    definitions, in source order; scope is "Class.method", "" at module level."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield scope, child
            yield from _scoped(child, scope)


def _writers(tree: ast.AST, names: set[str]) -> list[str]:
    """Each assignment to an attribute in `names`, as "enclosing scope: target"."""
    writers = []
    for scope, node in _scoped(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Attribute) and n.attr in names:
                        writers.append(f"{scope}: {ast.unparse(n)}")
    return writers


def _package_writers(names: set[str]) -> list[str]:
    """The scopes, as "module.scope", that assign an attribute in `names`."""
    return sorted({
        f"{path.stem}.{w.split(':')[0]}"
        for path in Path(engine.__file__).parent.glob("*.py")
        for w in _writers(ast.parse(path.read_text()), names)
    })


def test_only_the_state_sync_writes_the_masks_and_the_dead_count():
    assert _package_writers(STATE_COPIES) == ["engine.World.__init__", "engine.World._sync_state"]


def test_only_the_radio_and_the_run_write_the_onair_list():
    assert _package_writers({"_onair"}) == [
        "engine.World.__init__", "engine.World.broadcast", "engine.run"
    ]


def _heap_pushers(tree: ast.AST) -> tuple[list[str], list[str]]:
    """The scopes that call `heappush`, and those that read a `_heap` attribute."""
    pushers, readers = set(), set()
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("heappush"):
            pushers.add(scope)
        if isinstance(node, ast.Attribute) and node.attr == "_heap":
            readers.add(scope)
    return sorted(pushers), sorted(readers)


def test_only_push_and_the_run_push_onto_the_heap():
    package = Path(engine.__file__).parent.glob("*.py")
    found = [_heap_pushers(ast.parse(path.read_text())) for path in package]
    pushers = sorted(p for pushing, _ in found for p in pushing)
    readers = sorted(r for _, reading in found for r in reading)
    assert pushers == ["World.push", "run"]
    # an alias of the queue is taken only where it is pushed onto, or made
    assert readers == ["World.__init__", "World.push", "run"]


def test_the_check_sees_heap_pushes():
    source = (
        "class World:\n"
        "    def push(self, item):\n"
        "        heapq.heappush(self._heap, item)\n"
        "def run(world):\n"
        "    heap = world._heap\n"
        "    heappush(heap, 1)\n"
        "def peek(world):\n"
        "    return world._heap[0]\n"
    )
    assert _heap_pushers(ast.parse(source)) == (
        ["World.push", "run"], ["World.push", "peek", "run"]
    )


def test_only_the_constructor_and_the_run_write_finished():
    assert _package_writers({"_finished"}) == ["engine.World.__init__", "engine.run"]


def test_the_check_sees_state_copy_writes():
    source = (
        "class World:\n"
        "    def __init__(self):\n"
        "        self._dead = 0\n"
        "    def _sync_state(self, bit):\n"
        "        self._radio_mask ^= bit\n"
        "def deploy(world, n):\n"
        "    world._guard_mask, world.clock = 0, 0.0\n"
        "    world._dead: int = n\n"
        "    world._deadline = 1.0\n"
        "    print(world._dead)\n"
    )
    assert _writers(ast.parse(source), STATE_COPIES) == [
        "World.__init__: self._dead",
        "World._sync_state: self._radio_mask",
        "deploy: world._guard_mask",
        "deploy: world._dead",
    ]


def _slotted_objects():
    world = deploy(SimConfig(n_nodes=2, duration=10.0))
    return {
        "World": world,
        "SensorNode": world.nodes[0],
        "Frame": Frame(ProbeRequest(0), 0.0, 0.001, [1], 0b10),
    }


@pytest.mark.parametrize("name", ["World", "SensorNode", "Frame"])
def test_per_event_objects_are_slotted(name):
    obj = _slotted_objects()[name]
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.ad_hoc = 1


def test_a_frame_keeps_its_fate_in_two_node_masks():
    assert Frame.__slots__ == ("msg", "start", "end", "receivers", "live", "dropped")
    frame = Frame(ProbeRequest(0), 0.0, 0.001, [1, 3], 0b1010)
    assert (frame.live, frame.dropped) == (0b1010, 0)


def test_metrics_rows_are_slotted_and_frozen():
    row = simulate(SimConfig(n_nodes=2, duration=10.0)).rows[0]
    assert isinstance(row, MetricsRecord) and not hasattr(row, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.time = 1.0
