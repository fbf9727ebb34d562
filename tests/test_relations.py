"""Three metamorphic relations hold the handlers' decisions, which no oracle
re-derives because they are the model. Each scales one dimension of a
`configs()` world by a power of two k and runs it again: every output then
equals the first run's times k to the power its unit has of that dimension, bit
for bit, so a count, a fraction or an id stays equal.

- Energy x k: the three powers, `e_tx`, `e_rx` and `initial_energy`. Every
  energy total and `spent_*` scales by k; nothing else moves.
- Length x k: the field, `r_sense`, `r_comm`, `delta`, `coverage_resolution`
  and `peas_probing_range`. The positions (of the nodes and of the holes)
  scale by k; nothing else moves.
- Time x k, with rates and powers x 1/k: the times of the config and its
  failures, against `lambda_*`, `lambda_peas`, `bitrate` and the three powers.
  Every row, activation, hole and final node time and every conflict age
  scales by k, each probe rate by 1/k; nothing else moves.

Exactness needs k to be a power of two, and no value that overflows or is
subnormal, so times below 2**-900 s become 0. `UNITS` gives each `SimConfig`
field its unit, and a field without one fails here, so each new field must
declare how it scales. Each relation fails on a fault planted beneath it."""

import math
from dataclasses import fields, make_dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentinelsim import protocol
from sentinelsim.analysis import CSV_COLUMNS
from sentinelsim.engine import SimConfig, World, deploy, run
from sentinelsim.protocol import NodeState, SensorNode

from test_properties import configs

# Each unit's exponents of energy, length and time
DIMENSIONS = ("energy", "length", "time")
EXPONENTS = {"energy": (1, 0, 0), "power": (1, 0, -1), "length": (0, 1, 0), "time": (0, 0, 1),
             "rate": (0, 0, -1), "none": (0, 0, 0)}

# The unit of each SimConfig field; a failure injection's time is a time
UNITS = {
    "field_width": "length", "field_height": "length", "n_nodes": "none", "r_sense": "length",
    "r_comm": "length", "delta": "length", "duration": "time", "seed": "none",
    "protocol": "none", "beta": "none", "lambda_init": "rate", "t_w": "time",
    "k_probes": "none", "msg_size": "none", "bitrate": "rate", "loss_probability": "none",
    "collisions": "none", "reply_jitter": "time", "age_tie_margin": "time",
    "ts_initial": "time", "lambda_min": "rate", "lambda_max": "rate", "t_sleep_min": "time",
    "t_sleep_max_scale": "none", "lambda_peas": "rate", "peas_probing_range": "length",
    "metrics_interval": "time", "coverage_resolution": "length", "p_sleep": "power",
    "p_probe_listen": "power", "p_active": "power", "e_tx": "energy", "e_rx": "energy",
    "initial_energy": "energy", "failure_injections": "time",
}

# The unit of each output a run keeps that is not a count, flag, id or fraction
ROW_UNITS = {"time": "time", "total_energy_consumed": "energy"}
NODE_UNITS = {"x": "length", "y": "length", "probe_rate": "rate", "activity_start": "time",
              "wake_deadline": "time", "spent_state": "energy", "spent_tx": "energy",
              "spent_rx": "energy", "spent_total": "energy", "last_charge_time": "time"}


def factor(unit, dimension, k):
    """k to the power that `unit` has of `dimension`."""
    return k ** EXPONENTS[unit][DIMENSIONS.index(dimension)]


def scaled(cfg, dimension, k):
    """cfg with each field times its unit's factor; None stays None."""
    changes = {}
    for name, unit in UNITS.items():
        f, value = factor(unit, dimension, k), getattr(cfg, name)
        if f != 1 and value is not None:
            changes[name] = ([(nid, t * f) for nid, t in value] if name == "failure_injections"
                             else value * f)
    return replace(cfg, **changes)


def outputs(cfg, stops):
    """Everything a run keeps, as (name, value, unit): each row's columns, each node's
    fields and the run logs, after one `run` call per stop and one to the end."""
    world = deploy(cfg)
    for until in stops:
        run(world, until)
    result = run(world)
    out = []
    for i, row in enumerate(result.rows):
        out += [(f"row {i} {c}", getattr(row, c), ROW_UNITS.get(c, "none")) for c in CSV_COLUMNS]
    for node in world.nodes:
        out += [(f"node {node.id} {f.name}", getattr(node, f.name), NODE_UNITS.get(f.name, "none"))
                for f in fields(SensorNode) if f.repr]
    for i, (t, nid) in enumerate(result.activations):
        out += [(f"activation {i} time", t, "time"), (f"activation {i} node", nid, "none")]
    for i, (t, age) in enumerate(result.conflict_ages):
        out += [(f"conflict age {i} time", t, "time"), (f"conflict age {i}", age, "time")]
    out.append(("false activations", sorted(result.false_activation_ids), "none"))
    for i, hole in enumerate(result.recoveries):
        out += [(f"hole {i} node", hole.node_id, "none"), (f"hole {i} time", hole.time, "time"),
                (f"hole {i} x", hole.position[0], "length"),
                (f"hole {i} y", hole.position[1], "length"),
                (f"hole {i} recovered_at", hole.recovered_at, "time")]
    return out


def holds(dimension, cfg, k, stops=()):
    """Assert that the run of `cfg` scaled along `dimension` by k keeps every output
    of the run of `cfg` times its unit's factor, pausing at the scaled stops."""
    f = factor("time", dimension, k)
    moved = {name: value for name, value, _ in
             outputs(scaled(cfg, dimension, k), [t * f for t in stops])}
    for name, value, unit in outputs(cfg, stops):
        want = value if value is None or unit == "none" else value * factor(unit, dimension, k)
        got = moved.pop(name, "missing")
        assert got == want, f"{dimension} x{k}: {name} is {got!r}, not {want!r}"
    assert not moved, f"{dimension} x{k}: {min(moved)} is new"


def normal(t):
    """t, or 0.0 for a time below 2**-900 s, whose scaled products could be subnormal."""
    return t if t >= 2.0**-900 else 0.0


@st.composite
def cases(draw, time=False):
    """A `configs()` world with no time below 2**-900 s but 0, k and up to three pauses.
    With `time`, the duration lies on a 2**-10 s grid, as the sample times of its 10 s
    interval do: see the time relation."""
    cfg = draw(configs())
    duration = math.ceil(cfg.duration * 1024) / 1024 if time else normal(cfg.duration)
    cfg = replace(cfg, duration=duration,
                  failure_injections=[(nid, normal(t)) for nid, t in cfg.failure_injections])
    stops = draw(st.lists(st.floats(0.0, cfg.duration).map(normal), max_size=3))
    stops = sorted(t for t in stops if t < cfg.duration)
    return cfg, draw(st.sampled_from([0.5, 2.0, 4.0])), stops


def unitless(cls):
    """The fields of a SimConfig class with no unit, and the units with no field."""
    return {f.name for f in fields(cls)} ^ set(UNITS)


def test_every_config_field_has_a_unit():
    assert unitless(SimConfig) == set()
    grown = make_dataclass("Grown", [("antenna_gain", float, 1.0)], bases=(SimConfig,))
    assert unitless(grown) == {"antenna_gain"}


# Each fault below fails its relation on this case, a 30-node world at k = 2 with a
# pause, and each relation takes it as an example, so no draw of cases can miss it.
CASE = (SimConfig(n_nodes=30, duration=300.0, seed=1), 2.0, [100.0])


# 0.4-0.9 s each for its 101 cases, 1.5-2.6 s for the three relations and 2.7-4.2 s for
# this module with collection over three runs (2-core x86-64 VM, CPython 3.11.7); under
# 5 s, so the quick lane runs them.
@settings(max_examples=100, deadline=None)
@given(cases())
@example(CASE)
def test_energy_scales_every_spend_and_nothing_else(case):
    holds("energy", *case)


@settings(max_examples=100, deadline=None)
@given(cases())
@example(CASE)
def test_length_scales_every_position_and_nothing_else(case):
    holds("length", *case)


@settings(max_examples=100, deadline=None)
@given(cases(time=True))
@example(CASE)
def test_time_scales_every_time_and_rate_and_nothing_else(case):
    """The one exception, which `cases` keeps out: `_queue_sample` drops the sample
    that prints at the CSV's fixed 1 us as the end does, and that rule is not scale
    free. A 10.0000006 s run keeps its 10 s row, but halved it drops its 5 s row
    (`test_a_sample_that_prints_apart_from_the_end_keeps_its_row`). On a 2**-10 s
    grid, the duration lies on a sample time or 0.5 ms or more from each at k = 1/2."""
    holds("time", *case)


def with_delta_literal(handler):
    """The policy handler with 20.0, the default, in place of `config.delta`."""
    return lambda node, msg, config, *args: handler(node, msg, replace(config, delta=20.0), *args)


def late_wake(world, node, prev, now, sync=World._sync_state):
    """`_sync_state` with each sleeper's deadline, and so its wake, 0.25 s late."""
    if node.state is NodeState.SLEEPING:
        node.wake_deadline += 0.25
    sync(world, node, prev, now)


def fixed_tx_cost(world, *args, broadcast=World.broadcast):
    """`World.broadcast` with 50e-6, the default, in place of `config.e_tx`."""
    cfg = world.config
    world.config = replace(cfg, e_tx=50e-6)
    frame = broadcast(world, *args)
    world.config = cfg
    return frame


# Each fault passes at the defaults, so it can hide wherever the defaults run.
@pytest.mark.parametrize("dimension,owner,name,fault", [
    ("length", protocol, "on_probe_reply", with_delta_literal(protocol.on_probe_reply)),
    ("length", protocol, "on_withdrawal_check", with_delta_literal(protocol.on_withdrawal_check)),
    ("time", World, "_sync_state", late_wake),
    ("energy", World, "broadcast", fixed_tx_cost),
], ids=["delta_in_on_probe_reply", "delta_in_on_withdrawal_check", "late_wake", "fixed_e_tx"])
def test_each_relation_fails_on_a_fault_beneath_it(monkeypatch, dimension, owner, name, fault):
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(AssertionError, match=f"^{dimension} x2.0: "):
        holds(dimension, *CASE)
