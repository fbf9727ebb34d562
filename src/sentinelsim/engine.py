"""Deterministic discrete-event kernel: seeded deployment, unit-disk broadcast
radio with destructive collisions, per-state energy accounting, failure
injection, and the metrics sampler.

The loop is single threaded; events are processed in (time, sequence) order
and all randomness flows through one seeded generator, so identical configs
replay identical runs. Concurrency is only sensible across worlds.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
import typing
from dataclasses import dataclass, field, replace
from enum import IntEnum
from heapq import heappop, heappush

from . import peas, protocol
from .analysis import (CoverageGrid, MetricsRecord, RecoveryEvent, RunResult,
                       coverage_fraction, format_csv_value)
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
    """One transmission on the air: interval, audience, and per-receiver fate.

    `live` and `dropped` are node masks: bit j of `live` is set while the
    frame still counts as in flight at receiver j, bit j of `dropped` when j
    loses the frame to channel loss or a collision.
    """

    __slots__ = ("msg", "start", "end", "receivers", "live", "dropped")

    def __init__(self, msg, start: float, end: float, receivers: list[int], live: int):
        self.msg = msg
        self.start = start
        self.end = end
        self.receivers = receivers
        self.live = live
        self.dropped = 0


class World:
    """A deployed population plus the event queue and all run bookkeeping."""

    # Every event reads these; a slot is cheaper to reach than a dict entry.
    __slots__ = (
        "config", "policy", "clock", "rng", "nodes", "neighbor_masks", "result",
        "probes_sent", "probes_received", "replies_sent", "replies_received",
        "collisions", "withdrawals", "_heap", "_seq", "_onair", "_radio_mask",
        "_guard_mask", "_dead", "_conflicts", "_grid", "_sampled_guards",
        "_sampled_coverage", "_power", "_finished", "_airtime",
    )

    def __init__(self, config: SimConfig):
        self.config = config
        # Its handlers are looked up at call time, so patching the module's
        # functions after deploy takes effect.
        self.policy = POLICIES[config.protocol]
        self.clock = 0.0
        self.rng = random.Random(config.seed)
        self.nodes: list[SensorNode] = []
        # bit j of neighbor_masks[i] is set when node j is within r_comm of i
        self.neighbor_masks: list[int] = []
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
        # the frames that can still collide with a new one: ending after the
        # clock, and in flight at one receiver at least (none without collisions)
        self._onair: list[Frame] = []
        # masks of the radio-on (PROBING, ACTIVE) and guard (ACTIVE) ids, and the
        # dead count; only _sync_state writes them, so the sampler need not count
        self._radio_mask = 0
        self._guard_mask = 0
        self._dead = 0
        self._conflicts: dict[tuple[int, int], float] = {}
        self._grid = CoverageGrid(
            config.field_width, config.field_height, config.coverage_resolution
        )
        # guard mask of the last coverage computation, and its result
        self._sampled_guards: int | None = None
        self._sampled_coverage = 0.0
        self._power = {
            NodeState.SLEEPING: config.p_sleep,
            NodeState.PROBING: config.p_probe_listen,
            NodeState.ACTIVE: config.p_active,
            NodeState.DEAD: 0.0,
        }
        self._finished = False
        # every frame's airtime, read once: msg_size and bitrate are fixed by now
        self._airtime = config.airtime

    # -- event queue ---------------------------------------------------------

    def push(self, time: float, kind: EventKind, payload=None) -> None:
        if time < self.clock - 1e-9:
            raise SimError(
                f"event {kind.name} scheduled at t={time} before clock {self.clock}"
            )
        heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    # -- energy --------------------------------------------------------------

    def _deplete(self, node: SensorNode, now: float) -> float:
        """Spend the rest of a live node's budget and return it, for the caller to
        add to the field it was charging; the node dies. A charge that fits the
        budget is added inline by its caller; only one that does not fit comes
        here, never for a dead node (its power is 0, it cannot send or hear)."""
        initial = self.config.initial_energy
        budget = initial - node.spent_total
        node.spent_total = initial
        prev = node.state
        change_state(node, _DEAD)
        self._sync_state(node, prev, now)
        return budget

    def charge(self, nodes: typing.Iterable[SensorNode], now: float) -> float:
        """Advance each node's state-power integral to `now`, in order, and
        return their spent_totals added left to right from the int 0. A node
        whose budget ran out since its last charge dies at this charge, not at
        the moment it ran out: depletion is lazy (see the README's Energy note)."""
        power = self._power
        budget = self.config.initial_energy
        total = 0
        for node in nodes:
            dt = now - node.last_charge_time
            if dt > 0.0:
                node.last_charge_time = now
                p = power[node.state]
                if p > 0.0:
                    amount = p * dt
                    if amount < budget - node.spent_total:
                        node.spent_state += amount
                        node.spent_total += amount
                    else:
                        node.spent_state += self._deplete(node, now)
            total += node.spent_total
        return total

    # -- state bookkeeping ----------------------------------------------------

    def set_state(self, node: SensorNode, new: NodeState, now: float) -> None:
        """Move a node to `new` outside a protocol handler, with the engine's
        books. The node is charged up to `now` at its old state's power first,
        so the time before the move is billed at that power. A node dead by
        then (that charge may spend its budget) stays so: a move to DEAD is a
        no-op. An illegal move raises ProtocolError and leaves the state. A
        node moved to ACTIVE goes on duty at `now`, its activity age's origin.
        A node placed PROBING gets no reply timeout: it sends no probe, and
        listens until an overheard reply sends it to sleep, its budget runs
        out or it is moved again."""
        self.charge((node,), now)
        if new is _DEAD and node.state is _DEAD:
            return
        prev = node.state
        change_state(node, new)
        if new is _ACTIVE:
            node.activity_start = now
        self._sync_state(node, prev, now)

    def _sync_state(self, node: SensorNode, prev: NodeState, now: float) -> None:
        """Engine-side consequences of a state transition, and the one writer
        of the radio and guard masks and the dead count. The move voids the
        node's pending wake or reply timeout: timer events carry the token
        they were armed with, and only the current one fires."""
        node.timer_token += 1
        state = node.state
        if state is _PROBING:
            self._radio_mask ^= 1 << node.id  # only a sleeper starts probing
        elif state is _ACTIVE:  # only a prober goes on duty: its radio is on
            self._enter_active(node, now)
            self._guard_mask ^= 1 << node.id
        else:  # SLEEPING or DEAD
            nid = node.id
            if prev is not _SLEEPING:  # a sleeper dying had its radio off
                self._radio_mask ^= 1 << nid
            if state is _DEAD:
                self._dead += 1
            if prev is _ACTIVE:
                self._guard_mask ^= 1 << nid
                if self._conflicts:
                    self._conflicts = {
                        pair: t for pair, t in self._conflicts.items() if nid not in pair
                    }
            if state is _SLEEPING:
                self.push(node.wake_deadline, _WAKE, (node.id, node.timer_token))

    def _enter_active(self, node: SensorNode, now: float) -> None:
        redundant = False
        delta = self.config.delta
        nodes = self.nodes
        for gid in _ids(self._guard_mask):  # the other guards: node joins after
            other = nodes[gid]
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
        in flight at that receiver, all overlapping frames die there and the
        collision counter ticks once per overlap event. A frame stops being
        in flight at a receiver once a frame to it starts at or after its
        end, and everywhere once the clock reaches its end, so no start may
        lie before the clock.
        """
        if not self._radio_mask >> sender.id & 1:
            raise SimError(f"node {sender.id} cannot transmit in state {sender.state.name}")
        if start < self.clock:
            raise SimError(
                f"frame of node {sender.id} at t={start} starts before clock {self.clock}"
            )
        cfg = self.config
        end = start + self._airtime
        audience = self._radio_mask & self.neighbor_masks[sender.id]
        random = self.rng.random
        loss = cfg.loss_probability
        receivers = []
        dropped = 0
        rest = audience
        while rest:  # one loss draw per receiver, in id order, as _ids walks
            low = rest & -rest
            receivers.append(low.bit_length() - 1)
            if random() < loss:
                dropped |= low
            rest ^= low
        frame = Frame(msg, start, end, receivers, audience)
        if audience and cfg.collisions:
            # one walk of the frames on the air: mark the ones that overlap
            # this frame at a shared receiver, take this frame's receivers out
            # of those that end by its start, and keep those still in flight
            clock = self.clock
            hits = 0
            onair = [frame]
            for f in self._onair:
                f_end = f.end
                if f_end <= clock:
                    continue
                if f_end > start:
                    if f.start < end:
                        hit = f.live & audience
                        f.dropped |= hit
                        hits |= hit
                else:
                    f.live &= ~audience
                if f.live:
                    onair.append(f)
            self._onair = onair
            self.collisions += hits.bit_count()
            dropped |= hits
        frame.dropped = dropped
        if isinstance(msg, ProbeRequest):
            self.probes_sent += 1
        else:
            self.replies_sent += 1
        e_tx = cfg.e_tx
        if e_tx < cfg.initial_energy - sender.spent_total:
            sender.spent_tx += e_tx
            sender.spent_total += e_tx
        else:
            sender.spent_tx += self._deplete(sender, start)
        if receivers:
            self.push(end, _DELIVERY, frame)
        return frame

    # -- introspection ---------------------------------------------------------

    @property
    def active_ids(self) -> set[int]:
        return set(_ids(self._guard_mask))


def _ids(mask: int) -> list[int]:
    """The set bits of a node mask, lowest first: the ids it holds."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def deploy(
    config: SimConfig,
    *,
    positions: list[tuple[float, float]] | None = None,
    initial_sleeps: list[float] | None = None,
) -> World:
    """Build a world: seeded uniform deployment, everyone asleep with a wake
    event drawn from (0, ts_initial].

    positions and initial_sleeps override the random draws for engineered
    scenarios; lengths must equal n_nodes, each position must be a pair of real
    numbers in the field and each sleep a finite real >= 0 (a bool is neither).
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
        position, sleep = positions[i], initial_sleeps[i]
        # _fits' rule: a pair of real numbers, no bool; NaN fails every comparison,
        # and the field is finite
        if not (isinstance(position, (tuple, list)) and len(position) == 2
                and _fits(position[0], float) and _fits(position[1], float)
                and 0.0 <= position[0] <= w and 0.0 <= position[1] <= h):
            raise ValueError(
                f"position {i} must be finite and lie in [0, {w}] x [0, {h}], got {position!r}"
            )
        if not (_fits(sleep, float) and 0.0 <= sleep < math.inf):
            raise ValueError(f"initial sleep {i} must be finite and >= 0, got {sleep!r}")
        x, y = position
        node = SensorNode(
            id=i,
            x=x,
            y=y,
            state=NodeState.SLEEPING,
            probe_rate=rate,
            wake_deadline=sleep,
        )
        world.nodes.append(node)

    # A list of the world's own: changing it changes no other world's masks.
    world.neighbor_masks = list(
        _neighbor_masks(tuple((node.x, node.y) for node in world.nodes), config.r_comm)
    )

    for node in world.nodes:
        world.push(node.wake_deadline, EventKind.WAKE, (node.id, node.timer_token))
    # Hardware failures: the node dies at its time regardless of its remaining
    # energy. Killing an already dead node is a no-op at run time.
    for node_id, when in config.failure_injections:
        world.push(when, EventKind.FAILURE_INJECTION, node_id)
    world.push(config.duration, _END)  # and sample 0, unless the closing one takes its place
    _queue_sample(world, 0)
    return world


# One entry: the two runs of a paired seed deploy the same field one after
# the other, so the second reuses the first's masks. The key is the field
# alone; no RNG or run state goes in or comes out.
@functools.lru_cache(maxsize=1)
def _neighbor_masks(coords: tuple[tuple[float, float], ...], r_comm: float) -> tuple[int, ...]:
    """Bit j of the i-th mask is set when coords[j] is within r_comm of coords[i]."""
    # Sweep line: walk each node's successors in x order and stop at the first
    # whose x gap alone exceeds r_comm. Along that order dx * dx only grows, so
    # no later node can pass the distance test, which is the same float test
    # for every pair that reaches it. A node's neighbours are the set bits of
    # one int, n bits wide, where a frozenset would take a hash slot each.
    n = len(coords)
    r2 = r_comm * r_comm
    swept = sorted((x, y, i) for i, (x, y) in enumerate(coords))
    bits = [1 << j for j in range(n)]
    adjacency = [0] * n
    for a, (xi, yi, i) in enumerate(swept):
        near = 0
        for x, y, j in swept[a + 1:]:
            dx = x - xi
            dx2 = dx * dx
            if dx2 > r2:
                break
            dy = y - yi
            if dx2 + dy * dy <= r2:
                near |= bits[j]
                adjacency[j] |= bits[i]
        adjacency[i] |= near
    return tuple(adjacency)


def _queue_sample(world: World, k: int) -> None:
    """Queue sample k at k * interval (a sum of k intervals drifts), unless it lies within a
    billionth of an interval of the end or prints at its CSV time: the closing one replaces it."""
    duration, interval = world.config.duration, world.config.metrics_interval
    t = k * interval
    if duration - t > 1e-9 * interval and format_csv_value(t) != format_csv_value(duration):
        world.push(t, _SAMPLE, k)


def inject_failure(world: World, node_id: int) -> None:
    """Kill a live node at world.clock, whatever its energy, and log its hole."""
    nodes, now = world.nodes, world.clock
    if not _fits(node_id, int) or not 0 <= node_id < len(nodes):
        raise ValueError(f"failure injection names unknown node id {node_id}")
    if world._finished:
        raise SimError("world has already been run")
    node = nodes[node_id]
    if node.state is _DEAD:
        return
    world.set_state(node, _DEAD, now)
    covered = any(
        math.hypot(node.x - nodes[gid].x, node.y - nodes[gid].y) <= world.config.delta
        for gid in _ids(world._guard_mask)
    )
    hole = RecoveryEvent(node.id, now, node.position, now if covered else None)
    world.result.recoveries.append(hole)


def _record_sample(world: World, now: float) -> None:
    # The masks and the dead count are _sync_state's, read after the charge,
    # so a depletion there (which changes only that node's state) is counted.
    total = world.charge(world.nodes, now)
    guards = world._guard_mask
    active = guards.bit_count()
    probing = world._radio_mask.bit_count() - active
    # Coverage depends only on which nodes are on duty, and that set rarely
    # changes between samples, so it is recomputed only when the set moves.
    if guards != world._sampled_guards:
        actives = [(world.nodes[i].x, world.nodes[i].y) for i in _ids(guards)]
        world._sampled_coverage = coverage_fraction(actives, world.config.r_sense, world._grid)
        world._sampled_guards = guards
    world.result.rows.append(
        MetricsRecord(
            time=now,
            active_count=active,
            sleeping_count=len(world.nodes) - active - probing - world._dead,
            probing_count=probing,
            dead_count=world._dead,
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


def run(world: World, until: float | None = None) -> RunResult:
    """Process every event before `until`, SimConfig.duration by default, and
    return world.result; a run paused short of the duration resumes on the next call.
    It ends at the END entry that `deploy` queues after its wakes and failures: the
    last call runs deploy's events at the duration, but none the run queued for it."""
    if world._finished:
        raise SimError("world has already been run")
    cfg = world.config
    duration = cfg.duration
    until = duration if until is None else until
    if not _fits(until, float) or not world.clock <= until <= duration:
        raise ValueError(f"until must lie in [clock {world.clock}, {duration}], got {until!r}")
    heap = world._heap
    if until < duration:  # a pause: it sorts before every event at `until`
        heappush(heap, (float(until), -1, _END, None))

    # Bound once per call, so a World method patched during a pause takes
    # effect at the next call; the protocol and policy handlers are looked up
    # at every call.
    nodes, power, policy, random = world.nodes, world._power, world.policy, world.rng.random
    e_rx, budget, jitter, t_w = cfg.e_rx, cfg.initial_energy, cfg.reply_jitter, cfg.t_w
    push, broadcast, charge = world.push, world.broadcast, world.charge
    deplete, sync_state = world._deplete, world._sync_state
    while heap:
        now, _, kind, payload = heappop(heap)
        if now < world.clock - 1e-9:
            raise SimError(
                f"event {kind.name} at t={now} violates clock monotonicity "
                f"(clock={world.clock})"
            )
        world.clock = now
        if kind is _DELIVERY:
            msg = payload.msg
            is_request = isinstance(msg, ProbeRequest)
            # Handling a receiver changes only its own state, so the radio bits
            # of the receivers after it hold for the whole frame.
            heard = world._radio_mask & ~payload.dropped
            for rid in payload.receivers:
                if not heard >> rid & 1:
                    continue  # lost, or slept or died while the frame was in the air
                node = nodes[rid]
                # World.charge's float steps, inline, without a call per receiver
                dt = now - node.last_charge_time
                if dt > 0.0:
                    node.last_charge_time = now
                    p = power[node.state]
                    if p > 0.0:
                        amount = p * dt
                        if amount < budget - node.spent_total:
                            node.spent_state += amount
                            node.spent_total += amount
                        else:
                            node.spent_state += deplete(node, now)
                            continue  # the charge spent its budget
                if e_rx < budget - node.spent_total:
                    node.spent_rx += e_rx
                    node.spent_total += e_rx
                else:
                    node.spent_rx += deplete(node, now)
                    continue
                if is_request:
                    # received-probe accounting follows the message's purpose:
                    # only guards are probe destinations, overhearing probers are not
                    if node.state is _ACTIVE:
                        world.probes_received += 1
                        # the same float from the same one draw as rng.uniform(0.0, jitter)
                        tx_start = now + jitter * random() if jitter > 0 else now
                        reply = protocol.on_probe_request(node, msg, tx_start)
                        if reply is not None:
                            broadcast(node, reply, tx_start)
                else:
                    r = random()  # uniform on the open interval (0, 1)
                    while r == 0.0:
                        r = random()
                    prev = node.state
                    if prev is _PROBING:
                        world.replies_received += 1
                        policy.on_probe_reply(node, msg, cfg, now, r)
                    # ACTIVE: overheard replies route to the withdrawal check
                    elif policy.on_withdrawal_check(node, msg, cfg, now, r):
                        world.withdrawals += 1
                    if node.state is not prev:
                        sync_state(node, prev, now)
        elif kind is _WAKE or kind is _TIMEOUT:
            # run the node's wake or reply-timeout handler, then put the probe
            # it returns on the air and arm a fresh reply timeout
            nid, token = payload
            node = nodes[nid]
            if token != node.timer_token:
                continue  # a state change since arming voids the timer
            charge((node,), now)
            if node.state is _DEAD:
                continue  # depleted while asleep or listening
            prev = node.state
            handler = protocol.on_wake if kind is _WAKE else protocol.on_reply_timeout
            req = handler(node, cfg, now)
            if node.state is not prev:
                sync_state(node, prev, now)
            if req is not None:
                token = node.timer_token  # a death by the probe's own cost voids it
                broadcast(node, req, now)
                push(now + t_w, _TIMEOUT, (nid, token))
        elif kind is _SAMPLE:
            _record_sample(world, now)
            _queue_sample(world, payload + 1)
        elif kind is _FAILURE:
            inject_failure(world, payload)
        elif kind is _END:
            break

    if until == duration:  # only the end frees the events and frames a pause keeps
        _record_sample(world, duration)  # every sample above lies before the end
        heap.clear()  # a finished world cannot run again
        world._onair = []
        world._finished = True
    return world.result


def simulate(config: SimConfig) -> RunResult:
    """Deploy and run in one call."""
    return run(deploy(config))
