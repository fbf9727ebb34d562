"""Engine invariants under `oracles.checked`, which re-derives the state masks,
every column of each sample row, every energy ledger, each frame's fate and
delivery time, every timer and random draw and the run logs before each event:
over small random configs, both policies, finished and paused runs; over frames
sent by hand on a tick grid, with sleepers in range and pauses and deaths
between sends, whose examples hold the radio's hand-built cases (overlapping,
abutting and out-of-order frames, the collision model off, an asleep receiver)
and its list of frames on the air; under the exact fate rule without reply
jitter; and over the named workload configs for 600 s. Also paused runs against
uninterrupted ones, false activations on a clean channel, and three self-tests
of the check, one of them on the tick grid's examples."""

import heapq
import math
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentinelsim import engine, protocol
from sentinelsim.engine import PROTOCOLS, EventKind, SimConfig, World, deploy, run, simulate
from sentinelsim.protocol import NodeState, ProbeRequest

from oracles import check_finished, checked, exact, placed, run_texts, spying

plain_configs = st.builds(
    SimConfig,
    n_nodes=st.integers(0, 30),
    duration=st.floats(0.0, 300.0),
    seed=st.integers(0, 2**16),
    protocol=st.sampled_from(PROTOCOLS),
    collisions=st.booleans(),
    loss_probability=st.floats(0.0, 0.5),
    k_probes=st.integers(1, 3),
    # a few joules run out within the run, so the depletion path is exercised
    initial_energy=st.one_of(st.just(SimConfig().initial_energy), st.floats(0.5, 3.0)),
)


@st.composite
def configs(draw):
    """A plain config plus up to three failure injections inside the run."""
    cfg = draw(plain_configs)
    if cfg.n_nodes:
        injection = st.tuples(st.integers(0, cfg.n_nodes - 1), st.floats(0.0, cfg.duration))
        cfg.failure_injections = draw(st.lists(injection, max_size=3))
    return cfg


# The examples add four fixed runs of 60-200 nodes, each longer than most
# generated ones; on the 200-node field a neighbour walk cut short after 64
# x-sorted successors misses receivers. In the fifth a lone node's first probe
# spends its budget, which voids the probe's reply timeout. Under the per-event
# check the test takes 1.1-1.9 s and the paused-run test 1.7-2.7 s, against
# 1.0-1.6 s and 1.9-2.3 s with three examples and no row or log re-derivation
# (four alternating runs each, 2-core x86-64 VM, CPython 3.11.7).
@settings(max_examples=200, deadline=None)
@given(configs())
@example(SimConfig(n_nodes=60, duration=800.0, seed=12))
@example(SimConfig(n_nodes=80, duration=400.0, seed=9))
@example(SimConfig(n_nodes=120, duration=600.0, seed=31))
@example(SimConfig(n_nodes=200, duration=100.0, seed=12))
@example(SimConfig(n_nodes=1, duration=10.0, ts_initial=1.0, initial_energy=1e-5))
def test_finished_run_keeps_the_engine_invariants(cfg):
    world = deploy(cfg)
    with checked(world):
        result = run(world)
    assert result is world.result
    check_finished(world)

    injections = set(cfg.failure_injections)
    assert all(world.nodes[nid].state is NodeState.DEAD for nid, _ in injections)
    assert len(result.recoveries) <= len(cfg.failure_injections)
    for hole in result.recoveries:
        assert (hole.node_id, hole.time) in injections
        assert hole.recovered_at is None or hole.time <= hole.recovered_at <= cfg.duration

    replay = simulate(cfg)
    assert replay.rows == result.rows
    assert replay.recoveries == result.recoveries


# airtime 2**-10 s, and starts on a 2**-12 s grid: frames abut and overlap
# exactly, and jitter up to 20 steps (4.9 ms) puts starts out of order
TICK = 2.0**-12
radio_runs = st.fixed_dictionaries({
    "positions": st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
                          min_size=2, max_size=8),
    "seed": st.integers(0, 2**16),
    "collisions": st.booleans(),
    "loss_probability": st.sampled_from([0.0, 0.3]),
    # nodes left asleep: in range of the senders, with the radio off
    "asleep": st.sets(st.integers(0, 7), max_size=3),
    # (sender, clock advance in ticks, start jitter in ticks, node killed before the send)
    "steps": st.lists(st.tuples(st.integers(0, 7), st.integers(0, 8), st.integers(0, 20),
                                st.none() | st.integers(0, 7)), max_size=40),
})
# Three nodes on one spot, loss 0: node 1's frame overlaps node 0's at node 2
# across a pause, and node 0's second frame its first across node 1's death.
# A radio that forgets its frames on the air at a pause or at a death misses
# the collision; the random cases seldom build either.
SPOT = {"positions": [(20.0, 20.0)] * 3, "seed": 0, "collisions": True, "loss_probability": 0.0,
        "asleep": set()}
PAUSED = {**SPOT, "steps": [(0, 0, 0, None), (1, 1, 0, None)]}
KILLED = {**SPOT, "steps": [(0, 0, 0, None), (0, 1, 0, 1)]}
# Senders 0, 1 and 3 stand 30 m or 21.2 m apart, out of each other's 20 m
# range, and node 2 hears them all. Node 1's frame overlaps node 0's at node 2,
# or starts at its end; node 3's overlaps two frames that do not overlap each
# other, sent out of order; the overlap without the collision model, and with
# node 2 asleep.
LINE = {**SPOT, "positions": [(0.0, 0.0), (30.0, 0.0), (15.0, 0.0), (15.0, 15.0)]}
OVERLAP = {**LINE, "steps": [(0, 0, 0, None), (1, 0, 2, None)]}
ABUT = {**LINE, "steps": [(0, 0, 0, None), (1, 0, 4, None)]}
TWO_IN_FLIGHT = {**LINE, "steps": [(1, 0, 5, None), (0, 0, 0, None), (3, 0, 3, None)]}
NO_MODEL = {**OVERLAP, "collisions": False}
ASLEEP = {**OVERLAP, "asleep": {2}}


def send_on_a_tick_grid(case):
    """Send each step's probe by hand under `checked`, after a pause and the
    step's kill; only a probing sender sends, so a dead or sleeping one sends
    nothing. The run goes through `engine.run`, which a self-test patches."""
    positions = case["positions"]
    n = len(positions)
    cfg = SimConfig(n_nodes=n, duration=1.0, seed=case["seed"],
                    collisions=case["collisions"], loss_probability=case["loss_probability"],
                    msg_size=32, bitrate=2.0**18, field_width=40.0, field_height=40.0)
    assert cfg.airtime == 4 * TICK
    world = placed(cfg, positions, probers=[i for i in range(n) if i not in case["asleep"]])
    with checked(world):
        for sender, advance, jitter, killed in case["steps"]:
            engine.run(world, world.clock + advance * TICK)
            if killed is not None:
                engine.inject_failure(world, killed % n)
            node = world.nodes[sender % n]
            if node.state is NodeState.PROBING:
                world.broadcast(node, ProbeRequest(node.id), world.clock + jitter * TICK)
        engine.run(world)


# 0.9-1.5 s, against 1.0-1.3 s with no row or log re-derivation or delivery-time
# check (four alternating runs each, 2-core x86-64 VM, CPython 3.11.7)
@settings(max_examples=300, deadline=None)
@given(radio_runs)
@example(PAUSED)
@example(KILLED)
@example(OVERLAP)
@example(ABUT)
@example(TWO_IN_FLIGHT)
@example(NO_MODEL)
@example(ASLEEP)
def test_broadcast_fates_hold_on_a_tick_grid(case):
    """Probes sent by hand between pauses and kills, each checked by
    `checked`'s fate rule: abutting, overlapping and out-of-order frames,
    loss and the collision model on and off, receivers asleep and dead."""
    send_on_a_tick_grid(case)


def outputs(cfg, stops=(None,)):
    """A run's outputs as exact text (`run_texts`) and its generator's final state. The
    run is one checked `run` call per stop, the last of which is None or the duration."""
    world = deploy(cfg)
    with checked(world):
        for until in stops:
            run(world, until)
    return run_texts(world), world.rng.getstate()


@contextmanager
def call_clocks(*names):
    """Record the clock at each call to the named `World` methods while the
    block runs, per name."""
    clocks = {name: [] for name in names}
    with spying(World, names, lambda name, world, *args: clocks[name].append(world.clock)):
        yield clocks


# With `run` emptying the on-air list at every pause, its 200 random
# examples all passed once: the tick grid's pause example holds that fault.
@settings(max_examples=200, deadline=None)
@given(configs(), st.data())
def test_a_paused_run_equals_one_uninterrupted_run(cfg, data):
    """Pauses at 0, sample times, failure times, sends that may overlap a
    frame sent before the pause, and any time before the end, then one stop
    at the end, change nothing."""
    methods = ("push", "charge", "broadcast")
    with call_clocks(*methods) as whole_calls:
        whole = outputs(cfg)
    end, interval = cfg.duration, cfg.metrics_interval
    marks = [k * interval for k in range(int(end / interval) + 1)]
    marks += [t for _, t in cfg.failure_injections]
    # a frame goes on the air up to reply_jitter after its send, for one airtime
    sends = whole_calls["broadcast"]
    reach = cfg.reply_jitter + cfg.airtime
    marks += [b for a, b in zip(sends, sends[1:]) if a < b < a + reach]
    times = data.draw(st.lists(st.one_of(st.sampled_from(marks), st.floats(0.0, end)), max_size=6))
    stops = [*sorted(t for t in times if t < end), data.draw(st.sampled_from([None, end]))]
    with call_clocks(*methods) as paused_calls:
        paused = outputs(cfg, stops)
    assert paused == whole
    assert paused_calls == whole_calls


def test_the_per_event_check_reports_a_miscount():
    # at 1 J nodes run out within the run, and one frame collides at four receivers
    depleting = lambda: deploy(SimConfig(n_nodes=30, duration=300.0, seed=3, initial_energy=1.0))
    # a prober out of radio range of a guard exactly delta (20 m) away goes on duty at 4 s
    at_delta = lambda: placed(SimConfig(r_comm=10.0, duration=10.0), [(0.0, 0.0), (20.0, 0.0)],
                              sleeps=[1e9, 1.0], guards=[0])
    for world in depleting(), at_delta():
        with checked(world):
            run(world)  # the same runs, unpatched, pass
    sync, broadcast, enter = World._sync_state, World.broadcast, World._enter_active
    withdrawal, push = protocol.on_withdrawal_check, World.push

    def once_per_frame(world, *args):
        collisions = world.collisions
        frame = broadcast(world, *args)
        world.collisions = min(world.collisions, collisions + 1)
        return frame

    def counted_before_the_probing_test(node, *args):  # the loop's world counts a guard's too
        world.replies_received += 1
        return withdrawal(node, *args)

    def strictly_closer(world, node, now):  # a false activation at < delta, not <=
        cfg = world.config
        world.config = replace(cfg, delta=math.nextafter(cfg.delta, 0.0))
        enter(world, node, now)
        world.config = cfg

    faults = {
        # no failure is injected, so this drops only _deplete's _sync_state
        "recount": (depleting, World, "_sync_state", lambda world, node, prev, now: (
            node.state is NodeState.DEAD or sync(world, node, prev, now))),
        "'collisions'": (depleting, World, "broadcast", once_per_frame),
        "'replies_received'": (depleting, protocol, "on_withdrawal_check",
                               counted_before_the_probing_test),
        "false_activation_ids": (at_delta, World, "_enter_active", strictly_closer),
        # the faults below sit beneath the check's spies, so the check sees the faulted
        # engine: a WAKE 0.25 s late, a REPLY_TIMEOUT at now + 1.5 * t_w, a halved jitter
        "^WAKE": (depleting, World, "push", lambda world, t, kind, *rest: push(
            world, t + 0.25 if kind is EventKind.WAKE else t, kind, *rest)),
        "^REPLY_TIMEOUT": (depleting, World, "push", lambda world, t, kind, *rest: push(
            world, t + 0.5 * (t - world.clock) if kind is EventKind.REPLY_TIMEOUT else t,
            kind, *rest)),
        "drawn for": (depleting, World, "broadcast", lambda world, sender, msg, t: broadcast(
            world, sender, msg, world.clock + 0.5 * (t - world.clock))),
    }
    for match, (make, owner, name, fault) in faults.items():
        world = make()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, fault)
            with pytest.raises(AssertionError, match=match), checked(world):
                run(world)


# Without reply jitter every frame goes on the air at the clock, in start order, so the
# radio's gap cannot arise. 0.4-0.9 s for 100 examples (2-core x86-64 VM, CPython 3.11.7).
@settings(max_examples=100, deadline=None)
@given(configs(), st.sampled_from([0.0, 0.3]))
def test_frames_sent_at_the_clock_meet_the_exact_fate_rule(cfg, loss):
    world = deploy(replace(cfg, reply_jitter=0.0, loss_probability=loss))
    with checked(world, exact):
        run(world)


# The paired and dense workload configs that `benchmark/workloads.py` builds, at
# seed 11 and cut to 600 s: dense_400 kills 20 seeded nodes at 1/6 and 4/6 of the run.
VICTIMS = random.Random(11).sample(range(400), 20)
WORKLOADS = {
    "paired_default_sentinel": SimConfig(n_nodes=200, duration=600.0, seed=11),
    "paired_default_peas": SimConfig(n_nodes=200, duration=600.0, seed=11, protocol="peas"),
    "dense_400": SimConfig(n_nodes=400, duration=600.0, seed=11, failure_injections=[
        (nid, 100.0 if i < 10 else 400.0) for i, nid in enumerate(VICTIMS)]),
}


# 0.3-0.5, 1.5-2.4 and 0.9-1.6 s, 2.7-4.4 s in all over five runs, against 0.3,
# 1.8-2.0 and 1.0-1.5 s before the timer and draw checks (2-core x86-64 VM,
# CPython 3.11.7); over 2 s, so the quick lane skips it.
@pytest.mark.slow
@pytest.mark.parametrize("name", WORKLOADS)
def test_the_named_workloads_keep_the_engine_invariants(name):
    world = deploy(WORKLOADS[name])
    with checked(world):
        run(world)
    check_finished(world)


def test_the_tick_grid_examples_catch_a_forgotten_onair_list():
    sync, pause = World._sync_state, engine.run

    def forget_at_a_death(world, node, prev, now):
        sync(world, node, prev, now)
        if node.state is NodeState.DEAD:
            world._onair = []

    def forget_at_a_pause(world, until=None):
        result = pause(world, until)
        world._onair = []
        return result

    for case, owner, name, fault in [(KILLED, World, "_sync_state", forget_at_a_death),
                                     (PAUSED, engine, "run", forget_at_a_pause)]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, fault)
            with pytest.raises(AssertionError, match="dropped mask"):
                send_on_a_tick_grid(case)


def test_the_per_event_check_fails_when_no_pop_goes_through_it():
    # as it would if `run` bound heappop before the check patched the module
    world = deploy(SimConfig(n_nodes=5, duration=10.0))
    with pytest.raises(AssertionError, match="no run popped"), checked(world):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "heappop", heapq.heappop)
            run(world)


clean_channel_configs = st.builds(
    SimConfig,
    n_nodes=st.integers(2, 60),
    duration=st.floats(10.0, 300.0),
    seed=st.integers(0, 2**16),
    protocol=st.sampled_from(PROTOCOLS),
    collisions=st.just(False),
    loss_probability=st.just(0.0),
    delta=st.floats(1.0, 20.0),  # <= r_comm: a guard within delta hears every probe
    k_probes=st.integers(1, 3),
    ts_initial=st.floats(0.5, 10.0),  # short first sleeps make more races
)


# 0.4-0.7 s for the 100 examples on a 2-core x86-64 VM with CPython 3.11.7.
@settings(max_examples=100, deadline=None)
@given(clean_channel_configs)
def test_a_clean_channel_activates_within_delta_of_a_guard_only_in_a_race(cfg):
    """With no loss and no collisions, a guard within delta answers each probe
    it hears and the prober hears the answer, which sends it to sleep. So a
    node goes on duty within delta of a guard only if every such guard went
    on duty after the node's last probe reached it, and at or before the node
    did. A guard that went on duty at the arrival time itself counts: its
    step may run after the delivery, which then found it still probing."""
    world = deploy(cfg)
    reached = {}  # node id -> the time its last probe reached its receivers
    races = []  # (node id, time on duty, its last probe's arrival, guards' duty starts)

    def before(name, world, node, *args):
        if name == "broadcast":
            msg, start = args
            if isinstance(msg, ProbeRequest):
                reached[node.id] = start + cfg.airtime
            return
        now, = args
        starts = [
            guard.activity_start for guard in world.nodes
            if guard is not node and guard.state is NodeState.ACTIVE
            and math.hypot(node.x - guard.x, node.y - guard.y) <= cfg.delta
        ]
        if starts:
            races.append((node.id, now, reached[node.id], starts))

    with spying(World, ["broadcast", "_enter_active"], before):
        result = run(world)
    assert {nid for nid, *_ in races} == result.false_activation_ids
    for nid, now, reach, starts in races:
        assert all(reach <= start <= now for start in starts), nid


def paused_guard_geometry(protocol, seed):
    """Run 200 nodes for 1,500 s on a clean channel, pausing at every sample
    time, and return, at each pause, its time, the pairs of guards closer
    than delta and the live nodes farther than delta from every guard."""
    cfg = SimConfig(n_nodes=200, duration=1500.0, seed=seed, protocol=protocol,
                    collisions=False, loss_probability=0.0)
    world = deploy(cfg)
    pauses = []
    for k in range(1, round(cfg.duration / cfg.metrics_interval) + 1):
        t = k * cfg.metrics_interval
        run(world, t)
        guards = [(n.id, n.x, n.y) for n in world.nodes if n.state is NodeState.ACTIVE]
        close = [
            (a, b) for i, (a, ax, ay) in enumerate(guards) for b, bx, by in guards[i + 1:]
            if math.hypot(ax - bx, ay - by) < cfg.delta
        ]
        bare = [
            n.id for n in world.nodes
            if n.state is not NodeState.DEAD
            and all(math.hypot(n.x - x, n.y - y) > cfg.delta for _, x, y in guards)
        ]
        pauses.append((t, close, bare))
    return pauses


# 0.3-0.5 s for the three runs on a 2-core x86-64 VM with CPython 3.11.7.
@pytest.mark.parametrize("seed", [11, 12])
def test_clean_channel_sentinel_guards_stand_delta_apart_and_dominate(seed):
    """With no loss and no collisions, every guard answers each probe within
    delta, so no two guards stand closer than delta, and once the first
    sleepers have woken (a settle window of 20 s) every live node lies within
    delta of a guard. Domination of the nodes is not coverage of the field."""
    pauses = paused_guard_geometry("sentinel", seed)
    assert len(pauses) == 150
    assert [(t, close) for t, close, _ in pauses if close] == []
    assert [(t, bare) for t, _, bare in pauses if bare and t >= 20.0] == []


def test_clean_channel_peas_guards_stand_closer_than_delta():
    # PEAS guards never withdraw, so two that went on duty in a race stay on
    # duty together: on the same channel the geometry check above can fail.
    assert any(close for _, close, _ in paused_guard_geometry("peas", 11))
