"""Deterministic discrete-event kernel: seeded deployment, unit-disk broadcast
radio with destructive collisions, per-state energy accounting, failure
injection, and the metrics sampler.

The loop is single threaded; events are processed in (time, sequence) order
and all randomness flows through one seeded generator, so identical configs
replay identical runs. Concurrency is only sensible across worlds.
"""

from __future__ import annotations

import math
import numbers
import random
import typing
from dataclasses import dataclass, field, replace
from enum import IntEnum
from heapq import heappop, heappush

from . import peas, protocol
from .analysis import CoverageGrid, MetricsRecord, RecoveryEvent, RunResult, coverage_fraction
from .protocol import NodeState, ProbeRequest, SensorNode, change_state

# Each policy module supplies wake_rate and the reply and withdrawal handlers;
# wake, request and timeout handling are the sentinel module's for both.
POLICIES = {"sentinel": protocol, "peas": peas}
PROTOCOLS = tuple(POLICIES)


class SimError(RuntimeError):
    """Event-queue or run-contract violation; aborts the run with context."""


class EventKind(IntEnum):
    WAKE = 0
    REPLY_TIMEOUT = 1
    MESSAGE_DELIVERY = 2
    METRICS_SAMPLE = 3
    FAILURE_INJECTION = 4
    END_OF_RUN = 5


# The members, bound once for the per-event code: a module global is one dict
# lookup, an enum member an attribute lookup on top.
_WAKE, _TIMEOUT, _DELIVERY, _SAMPLE, _FAILURE, _END = EventKind
_SLEEPING, _PROBING, _ACTIVE, _DEAD = NodeState


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    field_width: float = 50.0      # m
    field_height: float = 50.0     # m
    n_nodes: int = 200
    r_sense: float = 10.0          # m
    r_comm: float = 20.0           # m, must be >= r_sense
    delta: float = 20.0            # m, active-node distance threshold, <= 2*r_sense
    duration: float = 6000.0       # s simulated
    seed: int = 1
    protocol: str = "sentinel"     # or "peas"
    beta: float = 2.0
    lambda_init: float = 0.01      # 1/s, probe rate at deployment
    t_w: float = 1.0               # s, reply wait timer
    k_probes: int = 3
    msg_size: int = 25             # octets
    bitrate: float = 250_000.0     # bit/s
    loss_probability: float = 0.05
    collisions: bool = True        # destructive overlap model on/off
    # Max random delay before a probe reply goes out. Scaled like a low-rate
    # radio's rx/tx turnaround plus CSMA backoff; simultaneous responders
    # therefore collide with realistic frequency.
    reply_jitter: float = 0.005    # s
    # Activity ages within this band count as a tie and fall back to the id
    # rule. Must exceed the message airtime, which inflates the local age
    # relative to the age stamped into the reply.
    age_tie_margin: float = 0.01   # s, withdrawal tie band
    ts_initial: float = 10.0       # s, initial sleeps drawn uniform from (0, this]
    # Operational probe-rate clamps. Tighter than the bare math defaults: at
    # spec densities an uncapped rate saturates the shared channel (every
    # sleeper waking at ~1 Hz keeps the medium >40% busy), so the ceiling is
    # set where duty cycling still beats an always-on baseline.
    lambda_min: float = 1e-3       # 1/s
    lambda_max: float = 0.05       # 1/s
    t_sleep_min: float = 1.0       # s
    t_sleep_max_scale: float = 10.0
    lambda_peas: float | None = None       # None: match mean initial sleep
    peas_probing_range: float | None = None  # None: use delta
    metrics_interval: float = 10.0  # s
    coverage_resolution: float = 1.0  # m per grid cell
    # Energy model: per-state draws in watts, per-message costs in joules.
    # The active draw blends sensing duty with a mostly idle radio, so it sits
    # below the full probe-listen draw. Defaults approximate a low-rate sensor
    # mote on a 2xAA pack.
    p_sleep: float = 3e-6          # W
    p_probe_listen: float = 0.060  # W
    p_active: float = 0.015        # W
    e_tx: float = 50e-6            # J per frame sent
    e_rx: float = 50e-6            # J per frame received
    initial_energy: float = 18_720.0  # J per node
    failure_injections: list[tuple[int, float]] = field(default_factory=list)

    def validate(self) -> None:
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if not _fits(value, kind):
                expected = kind if typing.get_origin(kind) else kind.__name__
                raise ValueError(f"{name} must be {expected}, got {value!r}")
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in _POSITIVE:  # None (lambda_peas, peas_probing_range) means derived
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # age_tie_margin < 0: both sides of a conflict withdraw
        for name in ("n_nodes", "duration", "age_tie_margin", "p_sleep", "e_tx", "e_rx"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.delta > 2.0 * self.r_sense:
            raise ValueError(
                f"delta must be <= 2 * r_sense ({2 * self.r_sense}), got {self.delta}"
            )
        if self.r_comm < self.r_sense:
            raise ValueError(f"r_comm ({self.r_comm}) must be >= r_sense ({self.r_sense})")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must lie in [0, 1), got {self.loss_probability}"
            )
        if self.k_probes < 1:
            raise ValueError(f"k_probes must be >= 1, got {self.k_probes}")
        if self.lambda_max < self.lambda_min:
            raise ValueError(
                f"lambda_max ({self.lambda_max}) must be >= lambda_min ({self.lambda_min})"
            )
        if self.reply_jitter < 0 or self.reply_jitter >= self.t_w:
            raise ValueError("reply_jitter must lie in [0, t_w)")
        if self.p_sleep >= self.p_probe_listen or self.p_sleep >= self.p_active:
            raise ValueError("p_sleep must be below the probing and active draws")
        for node_id, when in self.failure_injections:
            if not 0 <= node_id < self.n_nodes:
                raise ValueError(f"failure injection names unknown node id {node_id}")
            if not 0.0 <= when <= self.duration:
                raise ValueError(
                    f"failure injection at t={when} lies outside the run "
                    f"duration {self.duration}"
                )

    @property
    def airtime(self) -> float:
        return self.msg_size * 8.0 / self.bitrate


# Each field's declared type, read once; the CLI parses values by it too.
FIELD_TYPES = typing.get_type_hints(SimConfig)

# Fields that must be > 0. t_sleep_max_scale = 0 means nodes never sleep, and
# below 0 they wake in the past.
_POSITIVE = (
    "field_width", "field_height", "r_sense", "r_comm", "delta", "t_w", "msg_size",
    "bitrate", "beta", "lambda_init", "lambda_min", "ts_initial", "t_sleep_max_scale",
    "lambda_peas", "peas_probing_range", "metrics_interval", "coverage_resolution",
    "initial_energy",
)


# The number types each numeric annotation accepts; a bool is never a number.
_NUMBERS = {int: numbers.Integral, float: numbers.Real, float | None: (numbers.Real, type(None))}


def _fits(value, kind) -> bool:
    """Whether value has a field's declared type; an int is a real number."""
    if kind in _NUMBERS:
        return isinstance(value, _NUMBERS[kind]) and not isinstance(value, bool)
    if kind is bool or kind is str:
        return isinstance(value, kind)
    # failure_injections: (node id, time) pairs
    return isinstance(value, list) and all(
        isinstance(e, (tuple, list)) and len(e) == 2 and _fits(e[0], int) and _fits(e[1], float)
        for e in value
    )


class Frame:
    """One transmission on the air: interval, audience, and per-receiver fate."""

    __slots__ = ("msg", "start", "end", "receivers", "dropped")

    def __init__(self, msg, start: float, end: float, receivers: list[int]):
        self.msg = msg
        self.start = start
        self.end = end
        self.receivers = receivers
        self.dropped: set[int] = set()


class World:
    """A deployed population plus the event queue and all run bookkeeping."""

    # Every event reads these; a slot is cheaper to reach than a dict entry.
    __slots__ = (
        "config", "policy", "clock", "rng", "nodes", "neighbor_sets", "result",
        "probes_sent", "probes_received", "replies_sent", "replies_received",
        "collisions", "withdrawals", "_heap", "_seq", "_inflight", "_radio_on",
        "_conflicts", "_grid", "_sampled_ids", "_sampled_coverage", "_power",
        "_finished",
    )

    def __init__(self, config: SimConfig):
        self.config = config
        # Its handlers are looked up at call time, so patching the module's
        # functions after deploy takes effect.
        self.policy = POLICIES[config.protocol]
        self.clock = 0.0
        self.rng = random.Random(config.seed)
        self.nodes: list[SensorNode] = []
        self.neighbor_sets: list[frozenset[int]] = []
        # the run log, filled in place as the run goes; run returns it
        self.result = RunResult(config=config, rows=[])
        # cumulative control-traffic counters
        self.probes_sent = 0
        self.probes_received = 0
        self.replies_sent = 0
        self.replies_received = 0
        self.collisions = 0
        self.withdrawals = 0
        self._heap: list[tuple] = []  # (time, seq, kind, payload)
        self._seq = 0
        self._inflight: dict[int, list[Frame]] = {}
        self._radio_on: set[int] = set()
        self._conflicts: dict[tuple[int, int], float] = {}
        self._grid = CoverageGrid(
            config.field_width, config.field_height, config.coverage_resolution
        )
        # active ids of the last coverage computation, and its result
        self._sampled_ids: tuple[int, ...] | None = None
        self._sampled_coverage = 0.0
        self._power = {
            NodeState.SLEEPING: config.p_sleep,
            NodeState.PROBING: config.p_probe_listen,
            NodeState.ACTIVE: config.p_active,
            NodeState.DEAD: 0.0,
        }
        self._finished = False

    # -- event queue ---------------------------------------------------------

    def push(self, time: float, kind: EventKind, payload=None) -> None:
        if time < self.clock - 1e-9:
            raise SimError(
                f"event {kind.name} scheduled at t={time} before clock {self.clock}"
            )
        heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    # -- energy --------------------------------------------------------------

    def _deplete(self, node: SensorNode, category: str, now: float) -> None:
        """Spend the rest of the node's budget on its `category` field; it dies.

        A charge that fits the budget is added inline by its caller, to its
        field and to spent_total; only one that does not fit comes here.
        """
        initial = self.config.initial_energy
        budget = initial - node.spent_total
        setattr(node, category, getattr(node, category) + budget)
        node.spent_total = initial
        if node.state is not _DEAD:
            prev = node.state
            change_state(node, _DEAD)
            self._sync_state(node, prev, now)

    def charge(self, node: SensorNode, now: float) -> None:
        """Advance the node's state-power integral to `now`, applying death by
        depletion the moment the budget runs out."""
        dt = now - node.last_charge_time
        if dt <= 0.0:
            return
        node.last_charge_time = now
        p = self._power[node.state]
        if p > 0.0:
            amount = p * dt
            if amount < self.config.initial_energy - node.spent_total:
                node.spent_state += amount
                node.spent_total += amount
            else:
                self._deplete(node, "spent_state", now)

    # -- state bookkeeping ----------------------------------------------------

    def set_state(self, node: SensorNode, new: NodeState, now: float) -> None:
        """Move a node to `new` outside a protocol handler, with the engine's
        books. The node is charged up to `now` at its old state's power first,
        so the time before the move is billed at that power. A node dead by
        then (that charge may spend its budget) stays so: a move to DEAD is a
        no-op. An illegal move raises ProtocolError and leaves the state."""
        self.charge(node, now)
        if new is _DEAD and node.state is _DEAD:
            return
        prev = node.state
        change_state(node, new)
        self._sync_state(node, prev, now)

    def _sync_state(self, node: SensorNode, prev: NodeState, now: float) -> None:
        """Engine-side consequences of a protocol state transition."""
        state = node.state
        if state is _PROBING:
            self._radio_on.add(node.id)
        elif state is _ACTIVE:
            self._enter_active(node, now)
        else:  # SLEEPING or DEAD
            self._radio_on.discard(node.id)
            if prev is _ACTIVE and self._conflicts:
                nid = node.id
                self._conflicts = {
                    pair: t for pair, t in self._conflicts.items() if nid not in pair
                }
            if state is _SLEEPING:
                self.push(node.wake_deadline, _WAKE, node.id)

    def _enter_active(self, node: SensorNode, now: float) -> None:
        redundant = False
        delta = self.config.delta
        for other in self.nodes:
            if other.state is not _ACTIVE or other is node:
                continue
            d = math.hypot(node.x - other.x, node.y - other.y)
            if d <= delta:
                redundant = True
            if d < delta:
                pair = (other.id, node.id) if other.id < node.id else (node.id, other.id)
                self._conflicts[pair] = now
        if redundant:
            self.result.false_activation_ids.add(node.id)
        self.result.activations.append((now, node.id))
        holes = self.result.recoveries
        for i, hole in enumerate(holes):
            if hole.recovered_at is None:
                d = math.hypot(node.x - hole.position[0], node.y - hole.position[1])
                if d <= delta:
                    holes[i] = replace(hole, recovered_at=now)

    # -- radio ----------------------------------------------------------------

    def broadcast(self, sender: SensorNode, msg, start: float) -> Frame:
        """Put one frame on the air at `start` and return it.

        Every other in-range node whose radio is on is a receiver; each draws
        an independent loss and, when the frame overlaps another transmission
        audible at that receiver, all overlapping frames die there and the
        collision counter ticks once per overlap event.
        """
        if sender.id not in self._radio_on:
            raise SimError(f"node {sender.id} cannot transmit in state {sender.state.name}")
        cfg = self.config
        end = start + cfg.airtime
        receivers = sorted(self._radio_on & self.neighbor_sets[sender.id])
        frame = Frame(msg, start, end, receivers)
        random = self.rng.random
        loss = cfg.loss_probability
        collide = cfg.collisions
        inflight = self._inflight
        dropped = frame.dropped
        for rid in receivers:
            lost = random() < loss
            live = [frame]
            hit = False
            # one walk of the receiver's frames: keep the ones still on the air
            # at `start`, and mark those that overlap this frame
            for f in inflight.get(rid, ()):
                if f.end > start:
                    live.append(f)
                    if collide and f.start < end:
                        f.dropped.add(rid)
                        hit = True
            inflight[rid] = live
            if hit:
                self.collisions += 1
                dropped.add(rid)
            if lost:
                dropped.add(rid)
        if isinstance(msg, ProbeRequest):
            self.probes_sent += 1
        else:
            self.replies_sent += 1
        e_tx = cfg.e_tx
        if e_tx < cfg.initial_energy - sender.spent_total:
            sender.spent_tx += e_tx
            sender.spent_total += e_tx
        else:
            self._deplete(sender, "spent_tx", start)
        if receivers:
            self.push(end, _DELIVERY, frame)
        return frame

    # -- introspection ---------------------------------------------------------

    @property
    def active_ids(self) -> set[int]:
        return {n.id for n in self.nodes if n.state is _ACTIVE}


def deploy(
    config: SimConfig,
    *,
    positions: list[tuple[float, float]] | None = None,
    initial_sleeps: list[float] | None = None,
) -> World:
    """Build a world: seeded uniform deployment, everyone asleep with a wake
    event drawn from (0, ts_initial].

    positions and initial_sleeps override the random draws for engineered
    scenarios; lengths must equal n_nodes, positions must lie in the field and
    sleeps must be finite and >= 0.
    """
    config.validate()
    world = World(config)
    rng = world.rng
    n = config.n_nodes
    if positions is None:
        positions = [
            (rng.uniform(0.0, config.field_width), rng.uniform(0.0, config.field_height))
            for _ in range(n)
        ]
    elif len(positions) != n:
        raise ValueError(f"expected {n} positions, got {len(positions)}")
    if initial_sleeps is None:
        initial_sleeps = [config.ts_initial * (1.0 - rng.random()) for _ in range(n)]
    elif len(initial_sleeps) != n:
        raise ValueError(f"expected {n} initial sleeps, got {len(initial_sleeps)}")

    rate = world.policy.wake_rate(config)
    w, h = config.field_width, config.field_height
    for i in range(n):
        x, y = positions[i]
        sleep = initial_sleeps[i]
        # NaN fails every comparison, and the field is finite
        if not (0.0 <= x <= w and 0.0 <= y <= h):
            raise ValueError(
                f"position {i} must be finite and lie in [0, {w}] x [0, {h}], got ({x}, {y})"
            )
        if not 0.0 <= sleep < math.inf:
            raise ValueError(f"initial sleep {i} must be finite and >= 0, got {sleep}")
        node = SensorNode(
            id=i,
            x=x,
            y=y,
            state=NodeState.SLEEPING,
            probe_rate=rate,
            wake_deadline=sleep,
        )
        world.nodes.append(node)

    # Sweep line: walk each node's successors in x order and stop at the first
    # whose x gap alone exceeds r_comm. Along that order dx * dx only grows, so
    # no later node can pass the distance test, which is the same float test
    # for every pair that reaches it.
    r2 = config.r_comm * config.r_comm
    swept = sorted((node.x, node.y, node.id) for node in world.nodes)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for a, (xi, yi, i) in enumerate(swept):
        near = adjacency[i]
        for x, y, j in swept[a + 1:]:
            dx = x - xi
            dx2 = dx * dx
            if dx2 > r2:
                break
            dy = y - yi
            if dx2 + dy * dy <= r2:
                near.add(j)
                adjacency[j].add(i)
    world.neighbor_sets = [frozenset(s) for s in adjacency]

    for node in world.nodes:
        world.push(node.wake_deadline, EventKind.WAKE, node.id)
    # Hardware failures: the node dies at its time regardless of its remaining
    # energy. Killing an already dead node is a no-op at run time.
    for node_id, when in config.failure_injections:
        world.push(when, EventKind.FAILURE_INJECTION, node_id)
    return world


def _probe_step(world: World, node: SensorNode, now: float, handler) -> None:
    """Run a wake or reply-timeout handler on a node, then put the probe it
    returns on the air and arm a fresh reply timeout."""
    world.charge(node, now)
    if node.state is _DEAD:
        return  # depleted while asleep or listening
    prev = node.state
    req = handler(node, world.config, now)
    if node.state is not prev:
        world._sync_state(node, prev, now)
    if req is not None:
        world.broadcast(node, req, now)
        node.timeout_token += 1
        world.push(now + world.config.t_w, _TIMEOUT, (node.id, node.timeout_token))


def _handle_delivery(world: World, frame: Frame, now: float) -> None:
    cfg = world.config
    e_rx = cfg.e_rx
    budget = cfg.initial_energy
    jitter = cfg.reply_jitter
    dropped = frame.dropped
    radio_on = world._radio_on
    nodes = world.nodes
    charge = world.charge
    random = world.rng.random
    policy = world.policy  # its handlers are still looked up per call
    msg = frame.msg
    is_request = isinstance(msg, ProbeRequest)
    for rid in frame.receivers:
        if rid in dropped or rid not in radio_on:
            continue  # lost, or slept or died while the frame was in the air
        node = nodes[rid]
        charge(node, now)
        if rid not in radio_on:
            continue
        if e_rx < budget - node.spent_total:
            node.spent_rx += e_rx
            node.spent_total += e_rx
        else:
            world._deplete(node, "spent_rx", now)
            continue
        if is_request:
            # received-probe accounting follows the message's purpose: only
            # guards are probe destinations, overhearing probers are not
            if node.state is _ACTIVE:
                world.probes_received += 1
                # the same float from the same one draw as rng.uniform(0.0, jitter)
                tx_start = now + jitter * random() if jitter > 0 else now
                reply = protocol.on_probe_request(node, msg, tx_start)
                if reply is not None:
                    world.broadcast(node, reply, tx_start)
        else:
            r = random()  # uniform on the open interval (0, 1)
            while r == 0.0:
                r = random()
            prev = node.state
            if prev is _PROBING:
                world.replies_received += 1
                policy.on_probe_reply(node, msg, cfg, now, r)
            else:  # ACTIVE: overheard replies route to the withdrawal check
                if policy.on_withdrawal_check(node, msg, cfg, now, r):
                    world.withdrawals += 1
            if node.state is not prev:
                world._sync_state(node, prev, now)


def _handle_failure(world: World, node_id: int, now: float) -> None:
    node = world.nodes[node_id]
    if node.state is _DEAD:
        return
    world.set_state(node, _DEAD, now)
    covered = any(
        math.hypot(node.x - other.x, node.y - other.y) <= world.config.delta
        for other in world.nodes
        if other.state is _ACTIVE
    )
    hole = RecoveryEvent(node.id, now, node.position, now if covered else None)
    world.result.recoveries.append(hole)


def _record_sample(world: World, now: float) -> None:
    counts = [0] * len(NodeState)
    charge = world.charge
    guards: list[int] = []
    append = guards.append
    # summed left to right from the int 0, as sum() does on 3.11
    total = 0
    for node in world.nodes:
        charge(node, now)  # a depletion here changes only this node's state
        total += node.spent_total
        state = node.state
        counts[state] += 1
        if state is _ACTIVE:
            append(node.id)
    # Coverage depends only on which nodes are on duty, and that set rarely
    # changes between samples, so it is recomputed only when the set moves.
    ids = tuple(guards)
    if ids != world._sampled_ids:
        actives = [(world.nodes[i].x, world.nodes[i].y) for i in ids]
        world._sampled_coverage = coverage_fraction(actives, world.config.r_sense, world._grid)
        world._sampled_ids = ids
    world.result.rows.append(
        MetricsRecord(
            time=now,
            active_count=counts[_ACTIVE],
            sleeping_count=counts[_SLEEPING],
            probing_count=counts[_PROBING],
            dead_count=counts[_DEAD],
            total_energy_consumed=total,
            coverage_fraction=world._sampled_coverage,
            probes_sent=world.probes_sent,
            probes_received=world.probes_received,
            replies_sent=world.replies_sent,
            replies_received=world.replies_received,
            collisions=world.collisions,
            withdrawals=world.withdrawals,
        )
    )
    oldest = max((now - t for t in world._conflicts.values()), default=0.0)
    world.result.conflict_ages.append((now, oldest))


def run(world: World, duration: None = None) -> RunResult:
    """Drive the event loop to SimConfig.duration; return world.result.
    `duration` stays for callers that pass None; any other value raises."""
    if duration is not None:
        raise ValueError(f"the run length is SimConfig.duration, not run's {duration!r}")
    if world._finished:
        raise SimError("world has already been run")
    cfg = world.config
    duration = cfg.duration
    world.push(duration, _END)
    if duration > 0.0:
        world.push(0.0, _SAMPLE)

    heap = world._heap
    nodes = world.nodes
    while heap:
        now, _, kind, payload = heappop(heap)
        if now < world.clock - 1e-9:
            raise SimError(
                f"event {kind.name} at t={now} violates clock monotonicity "
                f"(clock={world.clock})"
            )
        world.clock = now
        if kind is _DELIVERY:
            _handle_delivery(world, payload, now)
        elif kind is _WAKE:
            node = nodes[payload]
            if node.state is not _DEAD:
                _probe_step(world, node, now, protocol.on_wake)
        elif kind is _TIMEOUT:
            nid, token = payload
            node = nodes[nid]
            # a reply or a state change since arming cancels the timeout
            if node.state is _PROBING and token == node.timeout_token:
                _probe_step(world, node, now, protocol.on_reply_timeout)
        elif kind is _SAMPLE:
            _record_sample(world, now)
            nxt = now + cfg.metrics_interval
            if nxt < duration:
                world.push(nxt, _SAMPLE)
        elif kind is _FAILURE:
            _handle_failure(world, payload, now)
        elif kind is _END:
            break

    rows = world.result.rows
    if not rows or rows[-1].time != duration:
        _record_sample(world, duration)
    world._finished = True
    return world.result


def simulate(config: SimConfig) -> RunResult:
    """Deploy and run in one call."""
    return run(deploy(config))
