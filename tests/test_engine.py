"""Event kernel: deployment, radio semantics, energy ledger, failure injection."""

import math
import random
import typing

import pytest

from sentinelsim.analysis import CoverageGrid, coverage_fraction
from sentinelsim.engine import (
    EnergyModel,
    EventKind,
    SimConfig,
    SimError,
    World,
    deploy,
    _record_sample,
    run,
    simulate,
)
from sentinelsim.protocol import NodeState, ProbeReply, ProbeRequest, ProtocolError


def small_config(**kw):
    defaults = dict(n_nodes=4, duration=100.0, seed=3, loss_probability=0.0)
    defaults.update(kw)
    return SimConfig(**defaults)


# -- config validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(delta=25.0),
        dict(r_comm=5.0),
        dict(loss_probability=1.0),
        dict(loss_probability=-0.1),
        dict(n_nodes=-1),
        dict(k_probes=0),
        dict(duration=-5.0),
        dict(protocol="flood"),
        dict(failure_injections=[(99, 10.0)]),
        dict(failure_injections=[(0, 7000.0)]),
        dict(reply_jitter=2.0),
        dict(delta=math.nan),
        dict(duration=math.nan),
        dict(t_w=math.nan),
        dict(beta=math.nan),
        dict(lambda_init=math.inf),
        dict(lambda_peas=-1.0),
        dict(peas_probing_range=0.0),
        dict(t_w=0.0),
        dict(delta=30.0, r_sense=10.0),
        dict(coverage_resolution=0.0),
        dict(age_tie_margin=-1.0),
    ],
)
def test_invalid_configs_rejected(kw):
    base = dict(n_nodes=10)
    base.update(kw)
    with pytest.raises(ValueError):
        SimConfig(**base).validate()


def test_energy_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(p_sleep=0.1).validate()
    with pytest.raises(ValueError):
        EnergyModel(initial_energy=0.0).validate()
    with pytest.raises(ValueError):
        EnergyModel(p_active=math.nan).validate()
    with pytest.raises(ValueError):
        EnergyModel(initial_energy=math.inf).validate()


def _float_fields(cls):
    hints = typing.get_type_hints(cls)
    return [k for k, t in hints.items() if float in (t, *typing.get_args(t))]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_non_finite_float_field_rejected(bad):
    assert "lambda_peas" in _float_fields(SimConfig)  # optional floats included
    for name in _float_fields(SimConfig):
        with pytest.raises(ValueError, match=name):
            SimConfig(n_nodes=10, **{name: bad}).validate()
    for name in _float_fields(EnergyModel):
        with pytest.raises(ValueError, match=name):
            EnergyModel(**{name: bad}).validate()


# -- deployment ----------------------------------------------------------------


def test_empty_world_yields_all_zero_metrics():
    result = simulate(SimConfig(n_nodes=0, duration=0.0))
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.time == 0.0
    assert row.active_count == row.dead_count == row.probes_sent == 0
    assert row.total_energy_consumed == 0.0
    assert row.coverage_fraction == 0.0


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
        assert node.energy_remaining == cfg.energy.initial_energy


def test_duration_zero_produces_single_row_and_no_activity():
    result = simulate(SimConfig(n_nodes=20, duration=0.0, seed=1))
    assert len(result.rows) == 1
    assert result.rows[0].probes_sent == 0


# -- single-node lifecycle --------------------------------------------------------


def test_lone_node_probes_k_times_then_stands_guard():
    cfg = small_config(n_nodes=1, duration=50.0)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[2.0])
    result = run(world)
    node = world.nodes[0]
    assert node.state is NodeState.ACTIVE
    assert world.probes_sent == 3
    assert result.activations == [(5.0, 0)]  # wake at 2 + three 1 s windows
    assert result.false_activation_ids == set()


def test_lone_node_drains_to_death():
    # active draw 15 mW: a 0.01 J budget above the probing cost dies ~0.667 s in
    energy = EnergyModel(initial_energy=0.0108 + 3 * 50e-6 + 2e-6 * 3)
    cfg = small_config(n_nodes=1, duration=3000.0, energy=energy)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    run(world)
    node = world.nodes[0]
    assert node.state is NodeState.DEAD
    assert node.energy_remaining == 0.0
    assert node.spent_total == energy.initial_energy


def test_active_interval_drains_state_power_exactly():
    # 10 s on guard at 15 mW is 0.15 J on the state ledger
    cfg = small_config(n_nodes=1, duration=14.0)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    run(world)
    e = cfg.energy
    expected_state = e.p_sleep * 1.0 + e.p_probe_listen * 3.0 + e.p_active * 10.0
    node = world.nodes[0]
    assert node.spent_state == pytest.approx(expected_state, rel=1e-12)
    assert node.spent_tx == pytest.approx(3 * e.e_tx, rel=1e-12)
    assert node.spent_rx == 0.0


# -- radio ---------------------------------------------------------------------


def test_airtime_of_default_frame():
    assert SimConfig().airtime == pytest.approx(0.0008, rel=1e-12)


def test_configured_message_size_drives_airtime(force_state):
    # 50-octet frames at 250 kbit/s occupy the air for 1.6 ms
    cfg = small_config(n_nodes=2, duration=10.0, msg_size=50)
    world = deploy(cfg, positions=[(0.0, 0.0), (5.0, 0.0)], initial_sleeps=[1e9, 1e9])
    sender, receiver = world.nodes
    force_state(world, sender, NodeState.ACTIVE)
    sender.activity_start = 0.0
    force_state(world, receiver, NodeState.PROBING)
    world.broadcast(sender, ProbeRequest(0, sender.position), 1.0)
    # heap entries are (time, seq, kind, payload)
    delivery = min(ev for ev in world._heap if ev[2] is EventKind.MESSAGE_DELIVERY)
    assert delivery[0] == pytest.approx(1.0016, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 11, 23, 2**31 - 1])
@pytest.mark.parametrize("jitter", [1e-6, 0.005, 0.3, 0.999])
def test_reply_jitter_is_uniform_from_one_draw(seed, jitter):
    # delivery draws a reply's jitter as jitter * random(): the same float as
    # Random.uniform(0.0, jitter), from the same single draw
    scaled, uniform = random.Random(seed), random.Random(seed)
    for _ in range(200):
        assert jitter * scaled.random() == uniform.uniform(0.0, jitter)
    assert scaled.getstate() == uniform.getstate()


def test_overlapping_frames_collide_destructively_at_common_receiver(force_state):
    # senders out of each other's range, both audible at the middle node
    cfg = small_config(n_nodes=3, duration=100.0)
    world = deploy(
        cfg, positions=[(0.0, 0.0), (30.0, 0.0), (15.0, 0.0)], initial_sleeps=[90.0] * 3
    )
    a, b, c = world.nodes
    force_state(world, a, NodeState.ACTIVE)
    a.activity_start = 0.0
    force_state(world, b, NodeState.ACTIVE)
    b.activity_start = 0.0
    force_state(world, c, NodeState.PROBING)
    world.broadcast(a, ProbeRequest(a.id, a.position), 5.0)
    world.broadcast(b, ProbeRequest(b.id, b.position), 5.0004)
    run(world, duration=6.0)
    assert world.collisions == 1
    assert c.spent_rx == 0.0  # both frames died at the shared receiver


def _three_guards_around_a_prober(force_state, **kw):
    """Guards a, b and d, out of each other's range, all audible at prober c."""
    cfg = small_config(n_nodes=4, duration=100.0, **kw)
    world = deploy(
        cfg,
        positions=[(0.0, 0.0), (30.0, 0.0), (15.0, 0.0), (15.0, 15.0)],
        initial_sleeps=[90.0] * 4,
    )
    a, b, c, d = world.nodes
    for guard in (a, b, d):
        force_state(world, guard, NodeState.ACTIVE)
        guard.activity_start = 0.0
    force_state(world, c, NodeState.PROBING)
    return cfg, world


def test_abutting_frames_both_arrive(force_state):
    cfg, world = _three_guards_around_a_prober(force_state)
    a, b, c, _ = world.nodes
    world.broadcast(a, ProbeRequest(a.id, a.position), 5.0)
    world.broadcast(b, ProbeRequest(b.id, b.position), 5.0 + cfg.airtime)  # a's end
    run(world, duration=6.0)
    assert world.collisions == 0
    assert c.spent_rx == pytest.approx(2 * cfg.energy.e_rx, rel=1e-12)


def test_frame_overlapping_two_inflight_frames_collides_once(force_state):
    cfg, world = _three_guards_around_a_prober(force_state)
    a, b, c, d = world.nodes
    # airtime 0.8 ms: a's [5.0, 5.0008] and b's [5.001, 5.0018] are apart at c,
    # and d's [5.0006, 5.0014] overlaps both
    world.broadcast(b, ProbeRequest(b.id, b.position), 5.001)
    world.broadcast(a, ProbeRequest(a.id, a.position), 5.0)
    assert world.collisions == 0
    world.broadcast(d, ProbeRequest(d.id, d.position), 5.0006)
    run(world, duration=6.0)
    assert world.collisions == 1
    assert c.spent_rx == 0.0  # all three frames died at c


def test_overlapping_frames_all_arrive_without_the_collision_model(force_state):
    cfg, world = _three_guards_around_a_prober(force_state, collisions=False)
    a, b, c, d = world.nodes
    world.broadcast(a, ProbeRequest(a.id, a.position), 5.0)
    world.broadcast(b, ProbeRequest(b.id, b.position), 5.0002)
    world.broadcast(d, ProbeRequest(d.id, d.position), 5.0004)
    run(world, duration=6.0)
    assert world.collisions == 0
    assert c.spent_rx == pytest.approx(3 * cfg.energy.e_rx, rel=1e-12)


def test_sleeping_receiver_hears_nothing_and_never_collides(force_state):
    cfg = small_config(n_nodes=2, duration=10.0)
    world = deploy(cfg, positions=[(0.0, 0.0), (5.0, 0.0)], initial_sleeps=[9.0, 9.5])
    a, b = world.nodes
    force_state(world, a, NodeState.ACTIVE)
    a.activity_start = 0.0
    world.broadcast(a, ProbeRequest(a.id, a.position), 1.0)
    run(world, duration=2.0)
    assert world.probes_received == 0
    assert world.collisions == 0
    assert b.spent_rx == 0.0


def test_no_delivery_beyond_communication_radius(force_state):
    cfg = small_config(n_nodes=2, duration=10.0)
    world = deploy(cfg, positions=[(0.0, 0.0), (25.0, 0.0)], initial_sleeps=[1e9, 1.0])
    a, b = world.nodes
    force_state(world, a, NodeState.ACTIVE)
    a.activity_start = 0.0
    run(world)  # b probes at 1 s; a is out of range so the request dies unheard
    assert world.probes_sent == 3
    assert world.probes_received == 0
    assert b.state is NodeState.ACTIVE


def test_dead_sender_cannot_broadcast():
    cfg = small_config(n_nodes=1)
    world = deploy(cfg, positions=[(0.0, 0.0)], initial_sleeps=[1.0])
    node = world.nodes[0]
    node.state = NodeState.DEAD
    with pytest.raises(SimError):
        world.broadcast(node, ProbeRequest(0, node.position), 0.5)


def test_first_valid_reply_wins_and_later_ones_find_radio_off(force_state):
    # two guards (out of each other's range) answer one prober; the second
    # reply arrives after the prober already went back to sleep
    cfg = small_config(n_nodes=3, duration=20.0, collisions=False)
    world = deploy(
        cfg,
        positions=[(0.0, 0.0), (30.0, 0.0), (15.0, 0.0)],
        initial_sleeps=[1e9, 1e9, 2.0],
    )
    a, b, prober = world.nodes
    for guard in (a, b):
        force_state(world, guard, NodeState.ACTIVE)
        guard.activity_start = 0.0
    run(world, duration=4.0)
    assert prober.state is NodeState.SLEEPING
    assert world.replies_sent == 2
    assert world.replies_received == 1
    assert prober.spent_rx == pytest.approx(cfg.energy.e_rx, rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known gap: broadcast prunes a receiver's in-flight frames by the new "
    "frame's start, so a reply scheduled later drops frames that an earlier "
    "reply, put on the air after it, still overlaps",
)
def test_out_of_order_reply_starts_still_collide_at_the_prober(force_state):
    cfg = small_config(n_nodes=4, duration=10.0)
    world = deploy(
        cfg,
        positions=[(25.0, 25.0), (30.0, 25.0), (20.0, 25.0), (25.0, 30.0)],
        initial_sleeps=[1e9] * 4,
    )
    prober, a, b, c = world.nodes
    force_state(world, prober, NodeState.PROBING)
    for guard in (a, b, c):
        force_state(world, guard, NodeState.ACTIVE)
        guard.activity_start = 0.0
    # airtime 0.8 ms: C's frame [1.001, 1.0018] overlaps B's [1.0015, 1.0023]
    for guard, start in ((c, 1.001), (a, 1.004), (b, 1.0015)):
        world.broadcast(guard, ProbeReply(guard.id, guard.position, 0.0), start)
    frames = {
        ev[3].msg.sender_id: ev[3] for ev in world._heap if ev[2] is EventKind.MESSAGE_DELIVERY
    }
    assert prober.id in frames[c.id].dropped
    assert prober.id in frames[b.id].dropped


def test_event_in_the_past_rejected():
    world = deploy(small_config(n_nodes=1))
    world.clock = 50.0
    with pytest.raises(SimError):
        world.push(10.0, EventKind.WAKE, 0)


def test_world_runs_only_once():
    world = deploy(small_config(n_nodes=1))
    run(world, duration=1.0)
    with pytest.raises(SimError):
        run(world, duration=2.0)


# -- state changes outside the protocol handlers ----------------------------------


def test_set_state_keeps_the_books():
    cfg = small_config(n_nodes=2)
    world = deploy(cfg, positions=[(10.0, 10.0), (40.0, 40.0)], initial_sleeps=[1e9, 1e9])
    node = world.nodes[0]
    with pytest.raises(ProtocolError):
        world.set_state(node, NodeState.ACTIVE, 0.0)
    assert node.state is NodeState.SLEEPING
    with pytest.raises(SimError):
        world.broadcast(node, ProbeRequest(node.id, node.position), 0.0)
    world.set_state(node, NodeState.PROBING, 0.0)
    world.broadcast(node, ProbeRequest(node.id, node.position), 0.0)
    assert world.probes_sent == 1
    world.set_state(node, NodeState.ACTIVE, 1.0)
    assert world.active_ids == {node.id}
    assert world.result.activations == [(1.0, node.id)]
    node.wake_deadline = 50.0
    world.set_state(node, NodeState.SLEEPING, 2.0)
    assert world.active_ids == set()
    # heap entries are (time, seq, kind, payload)
    assert (50.0, EventKind.WAKE, node.id) in [(t, k, p) for t, _, k, p in world._heap]


# -- energy conservation -----------------------------------------------------------


def test_energy_ledger_reconciles_on_a_real_run():
    cfg = SimConfig(n_nodes=60, duration=800.0, seed=12)
    world = deploy(cfg)
    run(world)
    for node in world.nodes:
        consumed = node.initial_energy - node.energy_remaining
        parts = node.spent_state + node.spent_tx + node.spent_rx
        assert consumed == pytest.approx(parts, rel=1e-9, abs=1e-12)
    total = world.result.rows[-1].total_energy_consumed
    assert total == pytest.approx(sum(n.spent_total for n in world.nodes), rel=1e-12)


def test_dead_nodes_stop_consuming():
    energy = EnergyModel(initial_energy=0.02)
    cfg = small_config(n_nodes=1, duration=2000.0, energy=energy)
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    run(world)
    node = world.nodes[0]
    assert node.state is NodeState.DEAD
    assert node.spent_total == energy.initial_energy
    # totals frozen across the remaining samples
    trailing = {row.total_energy_consumed for row in world.result.rows if row.time > 100.0}
    assert len(trailing) == 1


# -- metrics -------------------------------------------------------------------


def test_state_counts_sum_to_population_every_sample():
    cfg = SimConfig(n_nodes=80, duration=400.0, seed=9)
    result = simulate(cfg)
    for row in result.rows:
        total = row.active_count + row.sleeping_count + row.probing_count + row.dead_count
        assert total == 80


def test_metrics_are_sampled_on_the_configured_grid():
    result = simulate(SimConfig(n_nodes=5, duration=100.0, seed=2, metrics_interval=25.0))
    assert [row.time for row in result.rows] == [0.0, 25.0, 50.0, 75.0, 100.0]


def test_runs_are_deterministic():
    cfg_a = SimConfig(n_nodes=120, duration=600.0, seed=31)
    cfg_b = SimConfig(n_nodes=120, duration=600.0, seed=31)
    assert simulate(cfg_a).rows == simulate(cfg_b).rows


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


def test_guard_dead_of_depletion_leaves_no_coverage():
    # wake at 1 s, three 1 s probe windows, then 9.5 s on duty at 15 mW
    e = EnergyModel()
    budget = e.p_sleep * 1.0 + (e.p_probe_listen + e.e_tx) * 3.0 + e.p_active * 9.5
    cfg = small_config(
        n_nodes=1, duration=30.0, metrics_interval=1.0, energy=EnergyModel(initial_energy=budget)
    )
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    result = run(world)
    first_dead = next(i for i, row in enumerate(result.rows) if row.dead_count == 1)
    assert result.rows[first_dead - 1].coverage_fraction > 0.0
    assert result.rows[first_dead].coverage_fraction == 0.0
    assert result.recoveries == []  # died of its budget, not by injection


def test_sampler_sees_guards_placed_between_samples(force_state):
    cfg = small_config(n_nodes=2)
    world = deploy(cfg, positions=[(10.0, 10.0), (40.0, 40.0)], initial_sleeps=[1e9, 1e9])
    _record_sample(world, 0.0)
    force_state(world, world.nodes[0], NodeState.ACTIVE)
    _record_sample(world, 1.0)
    _record_sample(world, 2.0)
    force_state(world, world.nodes[1], NodeState.ACTIVE)
    _record_sample(world, 3.0)
    grid = CoverageGrid(cfg.field_width, cfg.field_height, cfg.coverage_resolution)
    one = coverage_fraction([(10.0, 10.0)], cfg.r_sense, grid)
    both = coverage_fraction([(10.0, 10.0), (40.0, 40.0)], cfg.r_sense, grid)
    assert [row.coverage_fraction for row in world.result.rows] == [0.0, one, one, both]


def test_killing_a_dead_node_is_a_noop():
    energy = EnergyModel(initial_energy=0.02)
    cfg = small_config(
        n_nodes=1, duration=2000.0, energy=energy, failure_injections=[(0, 1500.0)]
    )
    world = deploy(cfg, positions=[(25.0, 25.0)], initial_sleeps=[1.0])
    result = run(world)  # node died of depletion long before the injection
    assert world.nodes[0].state is NodeState.DEAD
    assert result.recoveries == []


def test_failure_outside_duration_rejected_at_validation():
    with pytest.raises(ValueError):
        small_config(n_nodes=2, duration=100.0, failure_injections=[(0, 500.0)]).validate()


def test_hole_already_covered_recovers_instantly():
    cfg = small_config(n_nodes=2, duration=20.0, failure_injections=[(0, 10.0)])
    world = deploy(
        cfg, positions=[(25.0, 25.0), (30.0, 25.0)], initial_sleeps=[0.5, 1.0]
    )
    result = run(world)
    # both activated in the opening wave (neither heard the other in time);
    # the survivor sits 5 m away, inside the dead guard's disk
    (ev,) = result.recoveries
    assert ev.latency == 0.0


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
