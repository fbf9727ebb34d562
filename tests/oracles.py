"""The brute-force oracles that several test files check against, one record
of a run's outputs, one way to spy on calls, one way to place a test world, one
hook on the run's pops, a check before every event that re-derives the engine's
books, each frame's fate, every column of each metrics row and the run logs, and
a check of a finished run. Pytest collects nothing here; tests import it as
`oracles`."""

import math
import random
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import reduce
from operator import add

import pytest

from sentinelsim import engine
from sentinelsim.analysis import (
    CSV_COLUMNS,
    CoverageGrid,
    MetricsRecord,
    RecoveryEvent,
    coverage_fraction,
    format_csv_value,
    metrics_to_csv,
    overhead_report,
)
from sentinelsim.engine import EventKind, World, deploy
from sentinelsim.protocol import NodeState, ProbeRequest


def brute_force_fraction(positions, r_sense, width, height, resolution):
    """Independent oracle: per-cell distance scan in plain loops."""
    nx = max(1, int(round(width / resolution)))
    ny = max(1, int(round(height / resolution)))
    covered = 0
    for i in range(nx):
        cx = (i + 0.5) * resolution
        for j in range(ny):
            cy = (j + 0.5) * resolution
            for x, y in positions:
                if (cx - x) ** 2 + (cy - y) ** 2 <= r_sense * r_sense:
                    covered += 1
                    break
    return covered / (nx * ny)


def ks_statistic(samples, cdf) -> float:
    """The Kolmogorov-Smirnov distance of the samples from the distribution `cdf`."""
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        worst = max(worst, abs((i + 1) / n - f), abs(i / n - f))
    return worst


def brute_force_neighbors(world) -> list[int]:
    """The oracle: every pair of nodes, with deploy's float distance test, as
    masks with bit j set for each neighbour j."""
    nodes = world.nodes
    r2 = world.config.r_comm * world.config.r_comm
    adjacency = [0] * len(nodes)
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            dx = a.x - nodes[j].x
            dy = a.y - nodes[j].y
            if dx * dx + dy * dy <= r2:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


def cell_by_cell_csv(rows) -> str:
    """The reference metrics CSV: each cell in its own call, format_csv_value
    for a float-annotated column and str for the rest."""
    formats = [format_csv_value if f.type == "float" else str for f in fields(MetricsRecord)]
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, col)) for fmt, col in zip(formats, CSV_COLUMNS)))
    return "\n".join(lines) + "\n"


def run_texts(world) -> dict[str, str]:
    """A finished run's outputs as exact text: the metrics CSV, each node's
    energy ledger, whose split into state, transmit and receive costs the CSV
    does not show, and the run logs (activations, conflict ages, false
    activations and hole recoveries), which no output file shows in full."""
    result = world.result
    ledger = "".join(
        f"{n.spent_state!r},{n.spent_tx!r},{n.spent_rx!r},{n.spent_total!r}\n" for n in world.nodes
    )
    logs = (result.activations, result.conflict_ages, sorted(result.false_activation_ids),
            result.recoveries)
    return {"metrics_csv": metrics_to_csv(result.rows), "ledger": ledger, "logs": repr(logs)}


@contextmanager
def spying(owner, names, before):
    """Call before(name, *args) ahead of each call to the named attributes of
    `owner`, a class or a module, for the length of the block. Hypothesis
    tests cannot take the `monkeypatch` fixture, so this opens its own."""
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            def spy(*args, name=name, original=getattr(owner, name)):
                before(name, *args)
                return original(*args)
            patch.setattr(owner, name, spy)
        yield


def place(world, node, state):
    """Place a node into a lifecycle state through World.set_state at the
    world's clock, via PROBING when the target is ACTIVE."""
    if state is NodeState.ACTIVE and node.state is not NodeState.PROBING:
        world.set_state(node, NodeState.PROBING, world.clock)
    world.set_state(node, state, world.clock)


def placed(config, positions, *, sleeps=None, guards=(), probers=()):
    """Deploy `config` with one node at each position, every node asleep past
    the run (1e9 s) unless `sleeps` is given, then place the guards (ids) on
    duty in the order given, and then the probers. No other config value is
    set."""
    n = len(positions)
    world = deploy(
        replace(config, n_nodes=n),
        positions=positions,
        initial_sleeps=[1e9] * n if sleeps is None else sleeps,
    )
    for nid in guards:
        place(world, world.nodes[nid], NodeState.ACTIVE)
    for nid in probers:
        place(world, world.nodes[nid], NodeState.PROBING)
    return world


def recount(world):
    """Assert that the radio and guard masks and the dead count match a recount of the node
    states and that each ledger adds up within its budget; return the two masks and the counts."""
    masks, budget = [0] * len(NodeState), world.config.initial_energy
    for node in world.nodes:
        masks[node.state] |= 1 << node.id
        total, parts = node.spent_total, node.spent_state + node.spent_tx + node.spent_rx
        assert abs(parts - total) <= max(1e-9 * total, 1e-12) and total <= budget, node.id
    guards = masks[NodeState.ACTIVE]
    radio = masks[NodeState.PROBING] | guards
    counts = [mask.bit_count() for mask in masks]
    kept, found = (world._radio_mask, world._guard_mask, world._dead), (radio, guards, counts[-1])
    assert kept == found, f"radio and guard masks and dead count {kept}, recount {found}"
    return radio, guards, counts


@contextmanager
def popping(world, before):
    """Call before(entry) with each entry `run` pops off the world's queue, ahead of its
    event (`run` looks `heappop` up in the engine module at every pop). Fails unless the
    last pop through it was the END that stopped the world, so no run can pop past it."""
    heap, ends = world._heap, []

    def pop(queue, original=engine.heappop):
        entry = original(queue)
        if queue is heap:
            before(entry)
            if entry[2] is EventKind.END_OF_RUN:
                ends.append(entry[0])
        return entry

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "heappop", pop)
        yield
    assert ends and ends[-1] == world.clock, "no run popped its events through the hook"


@contextmanager
def checked(world):
    """Check a deployed world before each event run in the block and at its end: `recount`,
    every row sampled since against a row re-derived from it and from the traffic below, and
    each node's state power times the time to the event added to its re-derived state spend.
    A `World.broadcast` spy checks each frame's receivers against the in-range radio-on
    recount and re-derives its fate. Loss replays the generator: one draw per receiver, in id
    order, and no other draw. Collisions keep one in-flight list per receiver: a frame leaves
    receiver j's list once a frame to j starts at or after its end (the README's gap), and a
    frame that overlaps one still on j's list kills both there and counts one collision. Each
    delivery must pop at its start plus `cfg.airtime`, with its re-derived dropped mask.
    Traffic: sends count by message type at each broadcast. A delivery's hearers are its
    radio-on receivers that did not drop it; once its event has run, a request counts as
    received by a hearer on duty at the pop that is alive or sent its reply, and a reply by a
    probing hearer still alive, or as a withdrawal by a hearer on duty that went to sleep.
    Run logs: a node that went on duty since the last event activated at that event's time,
    falsely when within delta (<=) of a guard that stood before; an `engine.inject_failure`
    spy logs the hole of each live node it kills, covered at once by a guard within delta
    (<=), and a hole closes at the first activation within delta (<=) of it. A sample's
    conflict age is the largest, over pairs of guards closer than delta, of its time less the
    pair's later activity start, or 0.0 with no such pair. At the end each node that never ran
    out must match its re-derived `spent_state`, `spent_tx` (e_tx per frame sent) and
    `spent_rx` (e_rx per frame heard by a radio-on receiver that did not drop it) to 1e-9."""
    cfg, nodes, result = world.config, world.nodes, world.result
    rows, delta = result.rows, cfg.delta
    power = dict(zip(NodeState, (cfg.p_sleep, cfg.p_probe_listen, cfg.p_active, 0.0)))
    spent, sent, heard = [0.0] * len(nodes), [0] * len(nodes), [0] * len(nodes)
    neighbours = brute_force_neighbors(world)
    grid = CoverageGrid(cfg.field_width, cfg.field_height, cfg.coverage_resolution)
    last = {"time": world.clock, "rows": len(rows), "guards": recount(world)[1]}
    inflight = [[] for _ in nodes]  # per receiver: [start, end, dropped mask] of each frame
    fates = {}  # each frame with receivers -> its [start, end, dropped mask], until delivered
    draws = random.Random()  # the world's generator, replayed at each broadcast
    traffic = {column.name: getattr(world, column.name) for column in fields(MetricsRecord)[7:]}
    landed, replied = [], set()  # the last delivery's (hearer, state, request), reply senders
    logs = {"activations": list(result.activations), "recoveries": list(result.recoveries),
            "false_activation_ids": set(result.false_activation_ids)}

    def books(now):
        then, stood = last["time"], last["guards"]  # the last event's time and guards before it
        assert now >= then, "the clock ran back"
        radio, guards, counts = recount(world)
        for node, state, request in landed:  # the event of the delivery has run
            alive, on_duty = node.state is not NodeState.DEAD, state is NodeState.ACTIVE
            if request:
                traffic["probes_received"] += on_duty and (alive or node.id in replied)
            else:
                traffic["replies_received"] += state is NodeState.PROBING and alive
                traffic["withdrawals"] += on_duty and node.state is NodeState.SLEEPING
        landed.clear()
        replied.clear()
        joined = guards & ~stood
        for node in [n for n in nodes if joined >> n.id & 1] if joined else ():
            logs["activations"].append((then, node.id))
            if any(math.dist(node.position, g.position) <= delta
                   for g in nodes if stood >> g.id & 1):
                logs["false_activation_ids"].add(node.id)
            logs["recoveries"] = [
                replace(hole, recovered_at=then) if hole.recovered_at is None
                and math.dist(node.position, hole.position) <= delta else hole
                for hole in logs["recoveries"]]
        for name, derived in logs.items():
            assert getattr(result, name) == derived, f"{name} at {then}"
        for k in range(last["rows"], len(rows)):
            actives = [node for node in nodes if guards >> node.id & 1]
            total = reduce(add, (node.spent_total for node in nodes), 0)  # as the sampler adds
            coverage = coverage_fraction([n.position for n in actives], cfg.r_sense, grid)
            derived = MetricsRecord(then, counts[2], counts[0], counts[1], counts[3], total,
                                    coverage, **traffic)
            diff = [(c, getattr(rows[k], c), getattr(derived, c)) for c in CSV_COLUMNS
                    if getattr(rows[k], c) != getattr(derived, c)]
            assert not diff, f"row at {then}: {diff}"
            age = max((then - max(a.activity_start, b.activity_start)
                       for i, a in enumerate(actives) for b in actives[i + 1:]
                       if math.dist(a.position, b.position) < delta), default=0.0)
            assert result.conflict_ages[k] == (then, age), f"conflict age at {then}"
        last.update(time=now, rows=len(rows), guards=guards)
        spent[:] = [s + power[node.state] * (now - then) for s, node in zip(spent, nodes)]
        return radio

    def before(entry):
        now, _, kind, payload = entry
        radio = books(now)
        if kind is EventKind.MESSAGE_DELIVERY:
            start, end, dropped = fates.pop(payload)
            assert now == end, f"frame sent at {start} delivered at {now}"
            assert payload.dropped == dropped, f"dropped mask of the frame at {now}"
            for rid in payload.receivers:
                if (radio & ~dropped) >> rid & 1:
                    heard[rid] += 1
                    landed.append((nodes[rid], nodes[rid].state,
                                   isinstance(payload.msg, ProbeRequest)))

    def broadcast(self, sender, msg, start, original=World.broadcast):  # this world runs alone
        radio = [n.id for n in nodes if n.state in (NodeState.PROBING, NodeState.ACTIVE)]
        draws.setstate(self.rng.getstate())
        frame = original(self, sender, msg, start)
        receivers = [j for j in radio if neighbours[sender.id] >> j & 1]
        assert frame.receivers == receivers, sender.id
        fate = [start, start + cfg.airtime, 0]
        for j in receivers:
            lost, live, hit = draws.random() < cfg.loss_probability, [fate], False
            for other in inflight[j]:
                if other[1] > start:
                    live.append(other)
                    if cfg.collisions and other[0] < fate[1]:
                        other[2] |= 1 << j
                        hit = True
            inflight[j] = live
            traffic["collisions"] += hit
            fate[2] |= (lost or hit) << j
        assert draws.getstate() == self.rng.getstate(), f"loss draws of node {sender.id}"
        if receivers:
            fates[frame] = fate
        sent[sender.id] += 1
        if isinstance(msg, ProbeRequest):
            traffic["probes_sent"] += 1
        else:
            traffic["replies_sent"] += 1
            replied.add(sender.id)
        return frame

    def inject_failure(w, node_id, original=engine.inject_failure):
        node = nodes[node_id]
        live = node.state is not NodeState.DEAD
        original(w, node_id)
        if live:
            covered = any(g.state is NodeState.ACTIVE and math.dist(g.position, node.position)
                          <= delta for g in nodes)
            hole = RecoveryEvent(node_id, w.clock, node.position, w.clock if covered else None)
            logs["recoveries"].append(hole)

    with pytest.MonkeyPatch.context() as patch, popping(world, before):
        patch.setattr(World, "broadcast", broadcast)
        patch.setattr(engine, "inject_failure", inject_failure)
        yield
    books(world.clock)
    for node in nodes:
        if node.spent_total < cfg.initial_energy:
            unbilled = power[node.state] * (world.clock - node.last_charge_time)
            for derived, kept in ((spent[node.id], node.spent_state + unbilled),
                                  (cfg.e_tx * sent[node.id], node.spent_tx),
                                  (cfg.e_rx * heard[node.id], node.spent_rx)):
                assert abs(derived - kept) <= max(1e-9 * derived, 1e-12), node.id


def check_finished(world):
    """Assert what every finished run keeps: `recount` holds, every sample counts every node
    on a strictly rising clock that ends at the duration, replies are conserved, and the last
    energy total is the exact sum."""
    cfg, nodes, rows = world.config, world.nodes, world.result.rows
    recount(world)
    for row in rows:
        states = row.active_count + row.sleeping_count + row.probing_count + row.dead_count
        assert states == cfg.n_nodes, row.time
    times = [row.time for row in rows]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert world.clock == times[-1] == cfg.duration
    assert overhead_report(world.result).replies_conserved
    # the sampler adds the spends left to right from the int 0, inside its
    # charge loop: sum()'s float arithmetic up to 3.11 (later sum() compensates)
    total = reduce(add, (node.spent_total for node in nodes), 0)
    assert rows[-1].total_energy_consumed == total
    if sys.version_info < (3, 12):
        assert total == sum(node.spent_total for node in nodes)
