"""Event kernel: config validation, deployment, neighbour sets, the radio's
edges (airtime, a reply draw of 0.0, the pruning gap and the exact fate rule it
fails), charges, failure injection and metrics. What `oracles.checked`
re-derives before each event of `test_properties.py`'s runs (each frame's fate,
every timer and random draw, every ledger, row column and run log) is not
pinned here case by case."""

import dataclasses
import gc
import math
import random
import sys
import tracemalloc
import typing
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentinelsim.protocol as protocol_mod
from sentinelsim import cli, engine
from sentinelsim.analysis import MetricsRecord, metrics_to_csv
from sentinelsim.engine import (
    EventKind,
    SimConfig,
    SimError,
    World,
    deploy,
    inject_failure,
    run,
    simulate,
)
from sentinelsim.protocol import NodeState, ProbeReply, ProbeRequest, ProtocolError

from golden_outputs import SCENARIOS
from oracles import (brute_force_neighbors, cell_by_cell_csv, checked, exact, placed,
                     popping, spying)


def small_config(**kw):
    defaults = dict(n_nodes=4, duration=100.0, seed=3, loss_probability=0.0)
    defaults.update(kw)
    return SimConfig(**defaults)


# -- config validation ---------------------------------------------------------


INVALID_CONFIGS = [
    (dict(delta=25.0), "^delta must be <= 2"),
    (dict(r_comm=5.0), "^r_comm "),
    (dict(loss_probability=1.0), "^loss_probability"),
    (dict(loss_probability=-0.1), "^loss_probability"),
    (dict(n_nodes=-1), "^n_nodes must be >= 0"),
    (dict(k_probes=0), "^k_probes must be >= 1"),
    (dict(duration=-5.0), "^duration must be >= 0"),
    (dict(protocol="flood"), "^protocol must be one of"),
    (dict(failure_injections=[(99, 10.0)]), "unknown node id 99"),
    (dict(failure_injections=[(0, 7000.0)]), "t=7000.0 lies outside the run"),
    (dict(reply_jitter=2.0), "^reply_jitter"),
    (dict(delta=math.nan), "^delta must be finite"),
    (dict(duration=math.nan), "^duration must be finite"),
    (dict(t_w=math.nan), "^t_w must be finite"),
    (dict(beta=math.nan), "^beta must be finite"),
    (dict(lambda_init=math.inf), "^lambda_init must be finite"),
    (dict(lambda_peas=-1.0), "^lambda_peas must be positive"),
    (dict(peas_probing_range=0.0), "^peas_probing_range must be positive"),
    (dict(t_w=0.0), "^t_w must be positive"),
    (dict(delta=30.0, r_sense=10.0), "^delta must be <= 2"),
    (dict(coverage_resolution=0.0), "^coverage_resolution must be positive"),
    (dict(age_tie_margin=-1.0), "^age_tie_margin must be >= 0"),
    (dict(t_sleep_max_scale=0.0), "^t_sleep_max_scale must be positive"),
    (dict(t_sleep_max_scale=-1.0), "^t_sleep_max_scale must be positive"),
    (dict(field_width=0.0), "^field_width must be positive"),
    (dict(field_height=-1.0), "^field_height must be positive"),
    (dict(r_sense=0.0), "^r_sense must be positive"),
    (dict(r_comm=0.0), "^r_comm must be positive"),
    (dict(delta=0.0), "^delta must be positive"),
    (dict(msg_size=0), "^msg_size must be positive"),
    (dict(bitrate=0.0), "^bitrate must be positive"),
    (dict(beta=0.0), "^beta must be positive"),
    (dict(lambda_init=0.0), "^lambda_init must be positive"),
    (dict(lambda_min=0.0), "^lambda_min must be positive"),
    (dict(lambda_max=1e-4), "^lambda_max .* must be >= lambda_min"),
    (dict(ts_initial=0.0), "^ts_initial must be positive"),
    (dict(p_sleep=-1e-6), "^p_sleep must be >= 0"),
    (dict(e_tx=-1e-6), "^e_tx must be >= 0"),
    (dict(e_rx=-1e-6), "^e_rx must be >= 0"),
    # wrong types: each would run silently wrong or fail deep in the engine
    (dict(k_probes=2.5), "^k_probes must be int"),  # ran as k_probes = 3
    (dict(collisions="no"), "^collisions must be bool"),  # ran with collisions on
    (dict(n_nodes=10.5), "^n_nodes must be int"),  # TypeError in deploy
    (dict(failure_injections=[(1.5, 10.0)]), "^failure_injections must be"),  # TypeError in run
    (dict(failure_injections=[(1, 10.0, 2.0)]), "^failure_injections must be"),
    (dict(failure_injections=[1]), "^failure_injections must be"),
    # the energy model
    (dict(p_sleep=0.1), "^p_sleep must be below"),
    (dict(initial_energy=0.0), "^initial_energy must be positive"),
    (dict(p_active=math.nan), "^p_active must be finite"),
    (dict(initial_energy=math.inf), "^initial_energy must be finite"),
    # an int past the float range: math.isfinite raised OverflowError
    (dict(n_nodes=10**400), "^n_nodes must be finite"),  # else deploy would loop over them
    (dict(k_probes=10**400), "^k_probes must be finite"),
    (dict(seed=-(10**400)), "^seed must be finite"),
    (dict(duration=10**400), "^duration must be finite"),
]


@pytest.mark.parametrize(
    "kw,match", INVALID_CONFIGS, ids=[f"kw{i}" for i in range(len(INVALID_CONFIGS))]
)
def test_invalid_configs_rejected(kw, match):
    base = dict(n_nodes=10)
    base.update(kw)
    with pytest.raises(ValueError, match=match):
        SimConfig(**base).validate()


def _float_fields(cls):
    hints = typing.get_type_hints(cls)
    return [k for k, t in hints.items() if float in (t, *typing.get_args(t))]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_non_finite_float_field_rejected(bad):
    assert "lambda_peas" in _float_fields(SimConfig)  # optional floats included
    assert "initial_energy" in _float_fields(SimConfig)  # and the energy model
    for name in _float_fields(SimConfig):
        with pytest.raises(ValueError, match=name):
            SimConfig(n_nodes=10, **{name: bad}).validate()


# A value of the wrong type for each declared field type; a bool is no number.
WRONG_TYPE = {
    int: 2.5,
    float: True,
    float | None: "0.5",
    bool: "no",
    str: 1,
    list[tuple[int, float]]: [(1.5, 10.0)],
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimConfig)])
def test_every_field_rejects_a_value_of_the_wrong_type(name):
    value = WRONG_TYPE[typing.get_type_hints(SimConfig)[name]]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        SimConfig(**{"n_nodes": 10, name: value}).validate()


def test_ints_and_numpy_numbers_pass_as_their_field_types():
    floats = [k for k, t in typing.get_type_hints(SimConfig).items() if t is float]
    assert "duration" in floats and "initial_energy" in floats
    defaults = SimConfig()
    as_ints = {k: int(getattr(defaults, k)) for k in floats if getattr(defaults, k) >= 1}
    assert len(as_ints) > 10
    SimConfig(**as_ints).validate()
    SimConfig(lambda_peas=1, peas_probing_range=np.int64(5)).validate()
    SimConfig(
        n_nodes=np.int64(10), duration=np.float32(20.0), failure_injections=[(np.int64(1), 5)]
    ).validate()
    # an int where a float is declared runs exactly like the float
    assert simulate(SimConfig(n_nodes=10, duration=20)).rows == simulate(
        SimConfig(n_nodes=10, duration=20.0)
    ).rows


@pytest.mark.parametrize(
    "rates",
    [
        dict(beta=0.5, lambda_init=1e-320, lambda_min=1e-320),
        dict(protocol="peas", lambda_peas=1e-320),
    ],
    ids=["sentinel", "peas"],
)
def test_a_rate_whose_reciprocal_overflows_runs_to_the_end(rates):
    # validation takes any positive rate; the mean sleep 1 / rate is then inf
    result = simulate(SimConfig(n_nodes=30, duration=200.0, seed=3, **rates))
    assert result.rows[-1].time == 200.0


# -- deployment ----------------------------------------------------------------


def test_empty_world_yields_all_zero_metrics():
    result = simulate(SimConfig(n_nodes=0, duration=0.0))
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.time == 0.0
    assert row.active_count == row.dead_count == row.probes_sent == 0
    assert row.total_energy_consumed == 0.0
    assert row.coverage_fraction == 0.0


@pytest.mark.parametrize(
    "kw,match",
    [
        (dict(positions=[(1.0, 1.0)] * 3), "expected 4 positions, got 3"),
        (dict(initial_sleeps=[1.0] * 5), "expected 4 initial sleeps, got 5"),
        (dict(positions=[(1.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (1.0, 1.0)]),
         r"^position 2 must be finite and lie in \[0, 50.0\] x \[0, 50.0\], got \(nan, 1.0\)"),
        (dict(positions=[(1.0, 1.0), (500.0, -30.0), (1.0, 1.0), (1.0, 1.0)]),
         r"^position 1 must be finite .* got \(500.0, -30.0\)"),
        (dict(positions=[(1.0, math.inf)] * 4), r"^position 0 must be finite"),
        (dict(positions=[(1.0, 1.0)] * 3 + [(-0.1, 1.0)]), r"^position 3 must be finite"),
        (dict(positions=[(1.0, 1.0)] * 3 + [(1.0, 50.1)]), r"^position 3 must be finite"),
        (dict(initial_sleeps=[1.0, 1.0, 1.0, math.nan]),
         r"^initial sleep 3 must be finite and >= 0, got nan"),
        (dict(initial_sleeps=[1.0, -1.0, 1.0, 1.0]), r"^initial sleep 1 must be finite"),
        (dict(initial_sleeps=[math.inf] * 4), r"^initial sleep 0 must be finite"),
        (dict(positions=[(1.0, 1.0)] * 3 + [(True, 1.0)]), r"^position 3 .* got \(True, 1.0\)"),
        (dict(positions=[(1.0, 1.0), "ab", (1.0, 1.0), (1.0, 1.0)]), r"^position 1 .* got 'ab'"),
        (dict(positions=[None] * 4), r"^position 0 .* got None"),
        (dict(positions=[(1.0, 1.0, 1.0)] * 4), r"^position 0 .* got \(1.0, 1.0, 1.0\)"),
        (dict(initial_sleeps=[1.0, True, 1.0, 1.0]), r"^initial sleep 1 .* got True"),
        (dict(initial_sleeps=[1.0, 1.0, "1", 1.0]), r"^initial sleep 2 .* got '1'"),
        (dict(initial_sleeps=[None] * 4), r"^initial sleep 0 .* got None"),
    ],
)
def test_deploy_rejects_overrides_of_the_wrong_length(kw, match):
    """Overrides are checked for count and value: a position that is not a
    pair of real numbers in the field, or a sleep that is not a finite real
    >= 0, names its index; a bool is no real number, as in SimConfig."""
    with pytest.raises(ValueError, match=match):
        deploy(small_config(), **kw)


def test_deploy_accepts_overrides_on_the_bounds():
    corners = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)]
    world = deploy(small_config(), positions=corners, initial_sleeps=[0.0, 1.0, 2.0, 3.0])
    assert [n.position for n in world.nodes] == corners
    assert world.nodes[0].wake_deadline == 0.0


# -- neighbour sets --------------------------------------------------------------


def masks(sets) -> list[int]:
    return [sum(1 << j for j in s) for s in sets]


def clamped(r_comm=20.0, **kw) -> SimConfig:
    """A config whose r_sense, and delta with it, fit under any r_comm."""
    r_sense = min(10.0, r_comm)
    return SimConfig(r_comm=r_comm, r_sense=r_sense, delta=r_sense, **kw)


@pytest.mark.parametrize("n,seed", [(100, 11), (200, 12), (400, 13)])
def test_neighbor_sets_match_the_brute_force_oracle(n, seed):
    # kept: every mask, sleepers' bits too, where `checked` compares only a sender's radio-on
    # receivers, and a 400-node field, twice the largest checked run
    world = deploy(SimConfig(n_nodes=n, seed=seed))
    assert world.neighbor_masks == brute_force_neighbors(world)


# coarse coordinates make equal x, coincident nodes and exact-range pairs common
coordinates = st.one_of(st.floats(0.0, 60.0), st.integers(0, 12).map(lambda k: k * 5.0))


@settings(max_examples=200, deadline=None)
@given(
    positions=st.lists(st.tuples(coordinates, coordinates), max_size=40),
    r_comm=st.one_of(st.floats(0.01, 100.0), st.sampled_from([5.0, 10.0, 20.0])),
)
def test_neighbor_sets_match_the_oracle_on_any_field(positions, r_comm):
    world = placed(clamped(r_comm, field_width=60.0, field_height=60.0), positions)
    assert world.neighbor_masks == brute_force_neighbors(world)


@pytest.mark.parametrize(
    "far,linked",
    [
        ((20.0, 0.0), True),
        ((0.0, 20.0), True),
        ((12.0, 16.0), True),  # 3-4-5 diagonal: 144 + 256 = 400
        ((math.nextafter(20.0, 21.0), 0.0), False),
        ((0.0, math.nextafter(20.0, 21.0)), False),
    ],
    ids=["x", "y", "diagonal", "x-beyond", "y-beyond"],
)
def test_nodes_exactly_r_comm_apart_are_neighbors(far, linked):
    world = placed(clamped(), [(5.0, 5.0), (5.0 + far[0], 5.0 + far[1]), (45.0, 45.0)])
    pair = [{1}, {0}] if linked else [set(), set()]
    assert world.neighbor_masks == masks([*pair, set()])
    assert world.neighbor_masks == brute_force_neighbors(world)


@pytest.mark.parametrize(
    "positions,r_comm,expected",
    [
        ([(10.0, 10.0), (10.0, 10.0), (10.0, 30.0), (10.0, 30.5), (30.0, 10.0)], 20.0,
         [{1, 2, 4}, {0, 2, 4}, {0, 1, 3}, {2}, {0, 1}]),
        ([(0.0, 0.0), (50.0, 50.0), (0.0, 50.0), (50.0, 0.0), (25.0, 25.0)], 71.0,
         [{1, 2, 3, 4}, {0, 2, 3, 4}, {0, 1, 3, 4}, {0, 1, 2, 4}, {0, 1, 2, 3}]),
        ([], 20.0, []),
        ([(25.0, 25.0)], 20.0, [set()]),
    ],
    ids=["equal-x-and-coincident", "r_comm-past-the-diagonal", "no-nodes", "one-node"],
)
def test_neighbor_sets_of_degenerate_fields(positions, r_comm, expected):
    world = placed(clamped(r_comm), positions)
    assert world.neighbor_masks == masks(expected)
    assert world.neighbor_masks == brute_force_neighbors(world)


def test_deploys_of_one_field_get_equal_masks_in_lists_of_their_own():
    engine._neighbor_masks.cache_clear()
    cfg = SimConfig(n_nodes=60, seed=5)
    first, second = deploy(cfg), deploy(dataclasses.replace(cfg, protocol="peas"))
    assert engine._neighbor_masks.cache_info()[:2] == (1, 1)  # hits, misses
    expected = brute_force_neighbors(first)
    assert first.neighbor_masks == second.neighbor_masks == expected
    assert first.neighbor_masks is not second.neighbor_masks
    first.neighbor_masks[0] ^= 0b10
    first.neighbor_masks.append(1)
    assert second.neighbor_masks == expected
    assert deploy(cfg).neighbor_masks == expected


def test_another_r_comm_on_the_same_field_builds_its_own_masks():
    engine._neighbor_masks.cache_clear()
    cfg = SimConfig(n_nodes=60, seed=5)
    deploy(cfg)
    world = deploy(dataclasses.replace(cfg, r_comm=12.0))
    assert engine._neighbor_masks.cache_info()[:2] == (0, 2)
    assert world.neighbor_masks == brute_force_neighbors(world)


def test_at_most_one_field_stays_cached():
    for seed in range(3):
        deploy(SimConfig(n_nodes=20, seed=seed))
    info = engine._neighbor_masks.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)


def test_a_paired_sweep_builds_each_seeds_masks_once(tmp_path):
    path = tmp_path / "paired.cfg"
    path.write_text(f"n_nodes = 30\nduration = 20\nprotocol = both\nreplications = 2\n"
                    f"output_dir = {tmp_path / 'out'}\n")
    engine._neighbor_masks.cache_clear()
    calls = []
    with spying(engine, ["_neighbor_masks"], lambda name, coords, r_comm: calls.append(coords)):
        assert cli.main(["--config", str(path)]) == 0
    assert len(calls) == 4 and len(set(calls)) == 2
    assert engine._neighbor_masks.cache_info()[:2] == (2, 2)  # built twice, not four times


def test_neighbour_masks_stay_small_in_a_400_node_deploy():
    """n bits per node: frozensets of the same neighbours took 2.5 MiB, and
    deploy peaked at 5.7 MiB while it built them from plain sets."""
    tracemalloc.start()
    try:
        world = deploy(SimConfig(n_nodes=400, seed=11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sum(sys.getsizeof(m) for m in world.neighbor_masks) < 64 << 10


def test_deployments_are_seed_deterministic():
    cfg = SimConfig(n_nodes=200, seed=42)
    w1, w2 = deploy(cfg), deploy(SimConfig(n_nodes=200, seed=42))
    snap1 = [(n.id, n.x, n.y, n.wake_deadline) for n in w1.nodes]
    snap2 = [(n.id, n.x, n.y, n.wake_deadline) for n in w2.nodes]
    assert snap1 == snap2
    w3 = deploy(SimConfig(n_nodes=200, seed=43))
    assert snap1 != [(n.id, n.x, n.y, n.wake_deadline) for n in w3.nodes]


def test_deployment_positions_within_field_and_sleeps_in_window():
    cfg = SimConfig(n_nodes=200, seed=7)
    world = deploy(cfg)
    for node in world.nodes:
        assert 0.0 <= node.x <= 50.0 and 0.0 <= node.y <= 50.0
        assert 0.0 < node.wake_deadline <= cfg.ts_initial
        assert node.state is NodeState.SLEEPING
        assert node.spent_total == 0.0


def test_duration_zero_produces_single_row_and_no_activity():
    result = simulate(SimConfig(n_nodes=20, duration=0.0, seed=1))
    assert len(result.rows) == 1
    assert result.rows[0].probes_sent == 0


# -- single-node lifecycle --------------------------------------------------------


def test_lone_node_drains_to_death():
    # active draw 15 mW: a 0.01 J budget above the probing cost dies ~0.667 s in
    budget = 0.0108 + 3 * 50e-6 + 2e-6 * 3
    cfg = small_config(n_nodes=1, duration=3000.0, initial_energy=budget)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    run(world)
    node = world.nodes[0]
    assert node.state is NodeState.DEAD
    assert node.spent_total == cfg.initial_energy


# -- radio ---------------------------------------------------------------------


def test_airtime_of_default_frame():
    assert SimConfig().airtime == pytest.approx(0.0008, rel=1e-12)


def test_a_reply_draw_of_zero_is_drawn_again():
    # Kept for the one fault that no other test meets, as no real generator draws 0.0:
    # delivery handing a reply's r of 0.0 on, undrawn. The draws are the probe's and the
    # reply's loss draws (no jitter draw at zero jitter), then the reply's r: seed 3's
    # third, which reads 0.0 here.
    class ZeroBelowHalf(random.Random):
        def random(self):
            r = super().random()
            return r if r >= 0.5 else 0.0

    world = placed(small_config(duration=2.0, reply_jitter=0.0), [(0.0, 0.0), (5.0, 0.0)],
                   sleeps=[1e9, 1.0], guards=[0])
    world.rng = ZeroBelowHalf(3)
    with checked(world):
        run(world)
    assert world.nodes[1].state is NodeState.SLEEPING


def test_dead_sender_cannot_broadcast():
    cfg = small_config(n_nodes=1)
    world = deploy(cfg, positions=[(0.0, 0.0)], initial_sleeps=[1.0])
    node = world.nodes[0]
    world.set_state(node, NodeState.DEAD, 0.0)
    with pytest.raises(SimError):
        world.broadcast(node, ProbeRequest(0), 0.5)


def out_of_order_replies(rule=None):
    """Guards A, B and C put replies on the air out of start order around a prober: C's
    [1.001, 1.0018] overlaps B's [1.0015, 1.0023] there, A's starts at 1.004. Sent and run,
    under `checked` with the fate rule `rule` unless it is None; returns the frames by id."""
    world = placed(small_config(duration=10.0), [(25.0, 25.0), (30.0, 25.0), (20.0, 25.0),
                                                 (25.0, 30.0)], guards=[1, 2, 3], probers=[0])
    _, a, b, c = world.nodes
    with checked(world, rule) if rule else nullcontext():
        frames = {g.id: world.broadcast(g, ProbeReply(g.id, g.position, 0.0), t)
                  for g, t in ((c, 1.001), (a, 1.004), (b, 1.0015))}
        run(world)
    return frames


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known gap: broadcast clears its receivers from the live mask of frames "
    "that end by the new frame's start, so a reply scheduled later drops frames "
    "that an earlier reply, put on the air after it, still overlaps",
)
def test_out_of_order_reply_starts_still_collide_at_the_prober():
    frames = out_of_order_replies()
    assert frames[3].dropped & 1 and frames[2].dropped & 1  # C's and B's, at the prober


def test_out_of_order_reply_starts_fail_the_exact_fate_rule():
    # the exact rule has B's frame collide with C's at A and at the prober, the radio at A only
    with pytest.raises(AssertionError, match=r"^row at 0.0: \[\('collisions', 1, 2\)\]$"):
        out_of_order_replies(exact)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known gap: depletion is lazy, "
                   "so a node whose budget ran out stays in its state until next charged")
def test_no_live_node_outlives_its_budget():
    # before each event of the two depletion golden runs, no live node's spend
    # projected to the event may reach its budget: it died when it ran out
    for name in ("depletion", "depletion_peas"):
        world = deploy(SimConfig(**SCENARIOS[name]))
        power, budget = world._power, world.config.initial_energy

        def before(entry):
            for node in world.nodes:
                spend = node.spent_total + power[node.state] * (entry[0] - node.last_charge_time)
                assert node.state is NodeState.DEAD or spend < budget, (name, entry[0], node.id)

        with popping(world, before):
            run(world)


def test_broadcast_before_the_clock_rejected():
    # frames that ended by the clock are forgotten, so none may start before it
    world = placed(small_config(), [(0.0, 0.0), (5.0, 0.0)], guards=[0], probers=[1])
    a, b = world.nodes
    world.clock = 5.0
    state = world.rng.getstate()
    with pytest.raises(SimError, match="before clock"):
        world.broadcast(a, ProbeRequest(a.id), 4.999)
    assert world.probes_sent == 0 and world.rng.getstate() == state
    assert world.broadcast(a, ProbeRequest(a.id), 5.0).receivers == [b.id]


def test_event_in_the_past_rejected():
    world = deploy(small_config(n_nodes=1))
    world.clock = 50.0
    with pytest.raises(SimError):
        world.push(10.0, EventKind.WAKE, 0)


def test_run_refuses_an_event_before_the_clock():
    world = deploy(small_config(n_nodes=1))
    world.clock = 50.0  # the sample at 0 s now lies in the past
    with pytest.raises(SimError, match="violates clock monotonicity"):
        run(world)
    assert world.result.rows == []


def test_world_runs_only_once():
    world = deploy(small_config(n_nodes=1))
    run(world)
    with pytest.raises(SimError):
        run(world)


def test_finished_world_holds_no_frame(monkeypatch):
    frames = []
    broadcast = World.broadcast

    def kept(self, sender, msg, start):
        frame = broadcast(self, sender, msg, start)
        frames.append(frame)
        return frame

    monkeypatch.setattr(World, "broadcast", kept)
    world = deploy(small_config(n_nodes=30, duration=200.0, seed=5))
    run(world)
    assert frames and world.collisions
    # a finished world cannot run again, so it keeps neither its queue nor its radio
    assert [r for f in frames for r in gc.get_referrers(f) if r is not frames] == []


@pytest.mark.parametrize("until", [5.0, 300.0, 100.0, math.nan, math.inf])
def test_run_length_comes_only_from_the_config(until):
    # `until` only pauses the run inside the config's duration (100 s): one past
    # it, or no time at all, is refused and leaves the world as it was
    world = deploy(small_config(n_nodes=1))
    if 0.0 <= until <= 100.0:
        run(world, until)
        assert world.clock == until
    else:
        with pytest.raises(ValueError, match="^until must lie in"):
            run(world, until)
        assert world.clock == 0.0 and world.result.rows == []
    if until != 100.0:  # a run to the duration finishes the world
        assert run(world).rows[-1].time == 100.0


@pytest.mark.parametrize("until", [19.0, -1.0, True, "50"])
def test_run_refuses_an_until_before_the_clock_or_not_a_time(until):
    world = deploy(small_config(n_nodes=10, seed=4))
    run(world, 20.0)
    rows, state = list(world.result.rows), world.rng.getstate()
    with pytest.raises(ValueError, match="^until must lie in"):
        run(world, until)
    assert world.clock == 20.0 and world.result.rows == rows
    assert world.rng.getstate() == state
    assert metrics_to_csv(run(world).rows) == metrics_to_csv(simulate(world.config).rows)


def test_a_paused_run_resumes_where_it_stopped():
    cfg = small_config(n_nodes=30, seed=5, duration=200.0)
    world = deploy(cfg)
    run(world, 0.0)
    assert world.clock == 0.0 and world.result.rows == []
    run(world, 50.0)
    run(world, 50.0)  # nothing lies before 50 s any more
    # a pause stops before the events at its time: the sample at 50 s is next
    assert world.clock == 50.0 and world.result.rows[-1].time == 40.0
    assert run(world) is world.result
    assert metrics_to_csv(world.result.rows) == metrics_to_csv(simulate(cfg).rows)
    with pytest.raises(SimError, match="already been run"):
        run(world, 150.0)


def test_an_injected_failure_equals_a_configured_one():
    cfg = small_config(n_nodes=40, seed=6, duration=300.0)
    world = deploy(cfg)
    run(world, 120.0)
    victim = min(world.active_ids)
    inject_failure(world, victim)
    assert world.nodes[victim].state is NodeState.DEAD
    live = run(world)
    configured = simulate(dataclasses.replace(cfg, failure_injections=[(victim, 120.0)]))
    assert [(e.node_id, e.time) for e in live.recoveries] == [(victim, 120.0)]
    assert live.recoveries == configured.recoveries
    assert metrics_to_csv(live.rows) == metrics_to_csv(configured.rows)


@pytest.mark.parametrize("node_id", [-1, 4, True, 1.0])
def test_inject_failure_refuses_an_unknown_node(node_id):
    world = deploy(small_config(), initial_sleeps=[0.5] * 4)
    run(world, 10.0)
    with pytest.raises(ValueError, match=f"^failure injection names unknown node id {node_id}$"):
        inject_failure(world, node_id)
    assert world.result.recoveries == []
    assert NodeState.DEAD not in {node.state for node in world.nodes}


def test_inject_failure_refuses_a_finished_world():
    world = deploy(small_config())
    run(world)
    with pytest.raises(SimError, match="already been run"):
        inject_failure(world, 0)
    assert world.result.recoveries == []


def test_injecting_a_dead_node_leaves_no_hole():
    world = deploy(small_config(n_nodes=2), initial_sleeps=[0.5, 0.5])
    run(world, 10.0)
    inject_failure(world, 0)
    (hole,) = world.result.recoveries
    assert (hole.node_id, hole.time) == (0, 10.0)
    inject_failure(world, 0)
    assert world.result.recoveries == [hole]


# -- state changes outside the protocol handlers ----------------------------------


def test_set_state_keeps_the_books():
    cfg = small_config(n_nodes=2)
    world = deploy(cfg, positions=[(10.0, 10.0), (40.0, 40.0)], initial_sleeps=[1e9, 1e9])
    node = world.nodes[0]
    with pytest.raises(ProtocolError):
        world.set_state(node, NodeState.ACTIVE, 0.0)
    assert node.state is NodeState.SLEEPING
    with pytest.raises(SimError):
        world.broadcast(node, ProbeRequest(node.id), 0.0)
    world.set_state(node, NodeState.PROBING, 0.0)
    world.broadcast(node, ProbeRequest(node.id), 0.0)
    assert world.probes_sent == 1
    world.set_state(node, NodeState.ACTIVE, 1.0)
    assert world.active_ids == {node.id}
    assert world.result.activations == [(1.0, node.id)]
    node.wake_deadline = 50.0
    world.set_state(node, NodeState.SLEEPING, 2.0)
    assert world.active_ids == set()
    # the engine scheduled the wake: at 50 s the node probes alone, three 1 s
    # windows, and goes back on duty
    run(world)
    assert world.result.activations == [(1.0, node.id), (53.0, node.id)]


def test_set_state_bills_the_time_before_the_move_at_the_old_power():
    cfg = small_config(n_nodes=1)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1e9])
    node = world.nodes[0]
    world.set_state(node, NodeState.PROBING, 5.0)  # asleep since t=0
    world.charge((node,), 6.0)
    assert node.spent_state == cfg.p_sleep * 5.0 + cfg.p_probe_listen * 1.0
    assert node.spent_state == pytest.approx(0.060015, rel=1e-12)


@pytest.mark.parametrize("new", [NodeState.DEAD, NodeState.PROBING])
def test_set_state_on_a_node_its_charge_depletes(new):
    # 5 s asleep cost 15 uJ, more than the 10 uJ budget: the node dies at the charge
    cfg = small_config(n_nodes=1, initial_energy=1e-5)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1e9])
    node = world.nodes[0]
    if new is NodeState.DEAD:
        world.set_state(node, new, 5.0)  # a no-op move
    else:
        with pytest.raises(ProtocolError, match="DEAD -> PROBING"):
            world.set_state(node, new, 5.0)
    assert node.state is NodeState.DEAD
    assert node.spent_state == node.spent_total == cfg.initial_energy


def test_a_guard_placed_by_set_state_answers_with_its_age(monkeypatch):
    # the move to ACTIVE at 3 s is the guard's activity start
    cfg = small_config(n_nodes=2, duration=10.0, reply_jitter=0.0)
    world = deploy(cfg, positions=[(25.0, 25.0), (30.0, 25.0)], initial_sleeps=[1e9, 5.0])
    guard, prober = world.nodes
    world.set_state(guard, NodeState.PROBING, 3.0)
    world.set_state(guard, NodeState.ACTIVE, 3.0)
    assert guard.activity_start == 3.0
    replies = []
    real = protocol_mod.on_probe_request

    def spy(node, msg, now):
        replies.append(real(node, msg, now))
        return replies[-1]

    monkeypatch.setattr(protocol_mod, "on_probe_request", spy)
    run(world)
    # the prober's probe of 5 s is answered as it lands, one airtime later
    assert [r.activity_age for r in replies] == [pytest.approx(5.0 + cfg.airtime - 3.0, rel=1e-12)]
    assert prober.state is NodeState.SLEEPING


def test_a_node_whose_budget_runs_out_asleep_dies_at_its_wake_without_probing():
    # 1 s asleep costs 3 uJ, more than the 1 uJ budget: the wake's charge kills it
    cfg = small_config(n_nodes=1, duration=10.0, initial_energy=1e-6)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    run(world)
    node = world.nodes[0]
    assert node.state is NodeState.DEAD
    assert world.probes_sent == 0
    assert node.spent_state == node.spent_total == cfg.initial_energy


# -- energy conservation -----------------------------------------------------------


def _charge_world():
    """Five nodes on a 0.1 J budget: a sleeper, a prober whose listening
    spends its budget by 2 s, a dead node, a sleeper already charged at 2 s
    and a guard."""
    cfg = small_config(n_nodes=5, initial_energy=0.1)
    world = placed(cfg, [(5.0 + 10.0 * i, 25.0) for i in range(5)], guards=[4], probers=[1])
    world.set_state(world.nodes[2], NodeState.DEAD, 0.0)
    world.charge((world.nodes[3],), 2.0)
    return world


def _books(world):
    ledgers = [repr((n.state, n.spent_state, n.spent_total, n.last_charge_time)) for n in world.nodes]
    return ledgers, world._radio_mask, world._guard_mask, world._dead


def test_one_charge_of_several_nodes_is_one_charge_per_node_in_order():
    batched, single = _charge_world(), _charge_world()
    total = batched.charge(batched.nodes, 2.0)
    for node in single.nodes:
        single.charge((node,), 2.0)
    assert _books(batched) == _books(single)
    cfg = batched.config
    sleeper, prober, dead, charged, guard = batched.nodes
    # the prober dies mid-sequence, and the nodes after it are charged still
    assert prober.state is NodeState.DEAD
    assert prober.spent_state == prober.spent_total == cfg.initial_energy
    assert dead.spent_total == 0.0 and dead.last_charge_time == 2.0
    assert charged.spent_state == sleeper.spent_state == cfg.p_sleep * 2.0
    assert guard.spent_state == cfg.p_active * 2.0 and guard.last_charge_time == 2.0
    # the spends added left to right from the int 0
    expected = 0
    for spend in (cfg.p_sleep * 2.0, cfg.initial_energy, 0.0, cfg.p_sleep * 2.0, cfg.p_active * 2.0):
        expected += spend
    assert total == expected


@pytest.mark.parametrize("nodes", [(), []])
def test_a_charge_of_no_nodes_totals_the_int_zero(nodes):
    world = _charge_world()
    before = _books(world)
    total = world.charge(nodes, 2.0)
    assert total == 0 and type(total) is int
    assert _books(world) == before


# -- metrics -------------------------------------------------------------------


# the last two end within the CSV's 6 decimals of a sample time
@pytest.mark.parametrize(
    "interval,duration",
    [(0.1, 1.0), (0.3, 6.0), (0.03, 0.33), (1.0, 10.0000004), (1.0, 1e-7)],
)
def test_sample_times_do_not_drift_into_a_duplicate_final_row(interval, duration):
    result = simulate(
        SimConfig(n_nodes=5, duration=duration, seed=2, metrics_interval=interval)
    )
    times = [row.time for row in result.rows]
    assert len(times) == round(duration / interval) + 1
    assert times[:-1] == [k * interval for k in range(len(times) - 1)]
    assert times[-1] == duration
    csv_times = [line.split(",")[0] for line in metrics_to_csv(result.rows).splitlines()[1:]]
    assert len(set(csv_times)) == len(csv_times)


def test_a_sample_that_prints_apart_from_the_end_keeps_its_row():
    # the CSV prints 6 decimals, so 10.0 and 10.0000006 are two distinct rows; the
    # same run at half the time scale ends at 5.0000003, which prints as its 5 s
    # sample does, so that sample gives way: the one exception to the time relation
    for duration, interval, last in [(10.0000006, 1.0, ["9.000000", "10.000000", "10.000001"]),
                                     (5.0000003, 0.5, ["4.000000", "4.500000", "5.000000"])]:
        rows = simulate(SimConfig(n_nodes=0, duration=duration, metrics_interval=interval)).rows
        csv_times = [line.split(",")[0] for line in metrics_to_csv(rows).splitlines()[1:]]
        assert csv_times[-3:] == last


def test_csv_formats_each_column_by_its_annotation():
    # int sample times, and the int-0 energy sum of a run without nodes, are floats
    rows = simulate(SimConfig(n_nodes=0, duration=30, metrics_interval=10)).rows
    cells = [line.split(",") for line in metrics_to_csv(rows).splitlines()[1:]]
    assert [c[0] for c in cells] == ["0.000000", "10.000000", "20.000000", "30.000000"]
    assert {c[5] for c in cells} == {"0.000000"}


FLOAT_COLUMNS = {f.name for f in dataclasses.fields(MetricsRecord) if f.type == "float"}
# what a float-annotated cell may hold: int times and the int-0 total, -0.0,
# nan, the infinities and magnitudes up to the largest float
float_cells = st.one_of(
    st.floats(), st.integers(-(10**300), 10**300), st.sampled_from([0, -0.0, 1e300, -1.7e308])
)
metrics_rows = st.lists(st.builds(MetricsRecord, **{
    f.name: float_cells if f.name in FLOAT_COLUMNS else st.integers(-(10**30), 10**30)
    for f in dataclasses.fields(MetricsRecord)
}), max_size=5)


# About 1 s for the 200 examples on a 2-core x86-64 VM with CPython 3.11.7.
@settings(max_examples=200, deadline=None)
@given(metrics_rows)
def test_csv_rows_render_as_the_cell_by_cell_reference(rows):
    assert metrics_to_csv(rows) == cell_by_cell_csv(rows)


# -- failure injection ---------------------------------------------------------


def test_killed_guard_leaves_hole_until_reserve_wakes():
    cfg = small_config(n_nodes=2, duration=4010.0, failure_injections=[(0, 3000.0)])
    world = deploy(
        cfg, positions=[(25.0, 25.0), (30.0, 25.0)], initial_sleeps=[0.5, 4000.0]
    )
    result = run(world)
    assert world.nodes[0].state is NodeState.DEAD
    assert world.nodes[1].state is NodeState.ACTIVE
    cov = {row.time: row.coverage_fraction for row in result.rows}
    assert cov[2990.0] > 0.0
    assert cov[3000.0] == 0.0  # hole opens the moment the guard dies
    assert cov[4010.0] > 0.0
    (ev,) = result.recoveries
    assert ev.recovered_at == pytest.approx(4003.0)
    assert ev.latency == pytest.approx(1003.0)


# -- conflict resolution through the full stack -------------------------------------


def test_conflicting_guards_resolve_within_two_wait_timers_of_traffic():
    # A and B activate 0.4 s apart and stand 5 m from each other; the first
    # probe that lands near them triggers replies and the younger one yields
    cfg = small_config(n_nodes=3, duration=30.0)
    world = deploy(
        cfg,
        positions=[(0.0, 0.0), (5.0, 0.0), (2.0, 0.0)],
        initial_sleeps=[0.2, 0.6, 5.0],
    )
    result = run(world)
    a, b, c = world.nodes
    assert result.activations[:2] == [(3.2, 0), (3.6, 1)]
    assert world.withdrawals == 1
    assert b.state is NodeState.SLEEPING  # the younger guard backed off
    assert a.state is NodeState.ACTIVE
    assert c.state is NodeState.SLEEPING
    resolved_by = [t for t, age in result.conflict_ages if age == 0.0 and t >= 10.0]
    assert resolved_by  # conflict gone well before the run ends
    # the pair conflicted only between b's activation and the reply exchange
    # triggered by c's probe at t=5: under two wait timers of traffic
    assert all(age <= 2 * cfg.t_w + cfg.airtime for t, age in result.conflict_ages if t >= 10.0)
