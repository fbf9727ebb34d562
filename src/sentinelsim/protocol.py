"""Sentinel node state machine: probing rounds, redundancy check, activation,
and the activity-withdrawal procedure between conflicting guards.

Handlers move the state machine of the node they are given and return any
message the node wants on the air. The engine arms and voids the timers: it
schedules each wake and reply timeout, and every state change voids the node's
pending one. Delivery is the engine's job too. No handler reads another node's
state directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

from .scheduling import sample_sleep_time, update_probe_rate, weibull_params

if TYPE_CHECKING:
    from .engine import SimConfig


class ProtocolError(RuntimeError):
    """An illegal state transition or handler precondition violation."""


class NodeState(IntEnum):
    SLEEPING = 0
    PROBING = 1
    ACTIVE = 2
    DEAD = 3


# The members, bound once for the handlers: a module global is one dict
# lookup, an enum member an attribute lookup on top.
_SLEEPING, _PROBING, _ACTIVE = NodeState.SLEEPING, NodeState.PROBING, NodeState.ACTIVE


# Dead is absorbing; Active can only leave by withdrawal or death.
ALLOWED_TRANSITIONS = frozenset(
    {
        (NodeState.SLEEPING, NodeState.PROBING),
        (NodeState.PROBING, NodeState.SLEEPING),
        (NodeState.PROBING, NodeState.ACTIVE),
        (NodeState.ACTIVE, NodeState.SLEEPING),
        (NodeState.ACTIVE, NodeState.DEAD),
        (NodeState.PROBING, NodeState.DEAD),
        (NodeState.SLEEPING, NodeState.DEAD),
    }
)


@dataclass(frozen=True)
class ProbeRequest:
    """Broadcast by a waking node looking for a nearby guard.

    A guard answers every probe it hears, wherever the prober stands, so the
    request carries only its sender.
    """

    sender_id: int


@dataclass(frozen=True)
class ProbeReply:
    """Broadcast by an active node in response to a probe request.

    Carries the sender's coordinates and its activity age (seconds since it
    went on duty, stamped when the reply is transmitted).
    """

    sender_id: int
    sender_position: tuple[float, float]
    activity_age: float

    def __post_init__(self) -> None:
        if self.activity_age < 0:
            raise ValueError(f"activity_age must be >= 0, got {self.activity_age}")


@dataclass(slots=True)
class SensorNode:
    """Protocol actor: position, lifecycle state, energy ledger, probe rate.

    Energy is tracked as spent amounts per category against the budget in
    SimConfig.initial_energy, so the ledger always reconciles. last_charge_time
    marks how far the state-power integral has been advanced.
    """

    id: int
    x: float
    y: float
    state: NodeState = NodeState.SLEEPING
    probe_rate: float = 0.01          # 1/s
    activity_start: float | None = None
    wake_deadline: float = 0.0
    probes_sent_this_round: int = 0
    timer_token: int = 0              # bumped by the engine at every state change
    spent_state: float = 0.0          # J, integral of state power over time
    spent_tx: float = 0.0             # J, per-message transmit costs
    spent_rx: float = 0.0             # J, per-message receive costs
    spent_total: float = 0.0          # J, all of the above in charge order
    last_charge_time: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


def change_state(node: SensorNode, new: NodeState) -> None:
    """Apply a lifecycle transition, aborting on any move outside the allowed set."""
    if (node.state, new) not in ALLOWED_TRANSITIONS:
        raise ProtocolError(
            f"illegal transition {node.state.name} -> {new.name} for node {node.id}"
        )
    node.state = new


def distance_to(node: SensorNode, position: tuple[float, float]) -> float:
    """Distance from the node to a message's sender coordinates."""
    return math.hypot(node.x - position[0], node.y - position[1])


def scan_check(d: float, delta: float) -> bool:
    """Redundancy test: a replying guard at distance d covers us iff d <= delta."""
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return d <= delta


def go_to_sleep(node: SensorNode, now: float, t_s: float) -> None:
    """Send the node to sleep for t_s seconds; the caller schedules the wake
    at node.wake_deadline. Shared by both policies."""
    change_state(node, _SLEEPING)
    node.activity_start = None
    node.probes_sent_this_round = 0
    node.wake_deadline = now + t_s


def _adapt_and_sleep(node: SensorNode, config: SimConfig, now: float, r: float) -> None:
    """Refresh the probe rate from the network age, then sleep for a Weibull
    duration at the new rate drawn with the uniform r."""
    node.probe_rate = update_probe_rate(
        node.probe_rate,
        now,
        config.beta,
        lambda_min=config.lambda_min,
        lambda_max=config.lambda_max,
    )
    weib = weibull_params(1.0 / node.probe_rate, config.beta)
    t_s = sample_sleep_time(
        weib,
        r,
        t_min=config.t_sleep_min,
        t_max=config.t_sleep_max_scale * weib.alpha,
    )
    go_to_sleep(node, now, t_s)


def wake_rate(config: SimConfig) -> float:
    """Probe rate every node starts the run with."""
    return config.lambda_init


def on_wake(node: SensorNode, config: SimConfig, now: float) -> ProbeRequest:
    """Wake from sleep and open a probing round.

    Returns the first probe request of the round. The caller broadcasts the
    request and schedules a reply timeout at now + t_w.
    """
    if node.state is not _SLEEPING:
        raise ProtocolError(
            f"wake fired for node {node.id} in state {node.state.name}"
        )
    change_state(node, _PROBING)
    node.probes_sent_this_round = 1
    return ProbeRequest(node.id)


def on_probe_request(node: SensorNode, msg: ProbeRequest, now: float) -> ProbeReply | None:
    """Answer a probe request. Only active nodes speak, and only when probed.

    now is the instant the reply goes on the air, so the stamped activity age
    is exact at transmission start.
    """
    if node.state is not _ACTIVE:
        return None
    return ProbeReply(node.id, (node.x, node.y), now - node.activity_start)


def on_probe_reply(
    node: SensorNode, msg: ProbeReply, config: SimConfig, now: float, r: float
) -> bool:
    """Handle a reply while probing.

    A reply from within the distance threshold proves redundancy: the node
    refreshes its probe rate from the network age, samples a new sleep time
    with the fresh uniform draw r, and goes back to sleep (returns True).
    Replies from beyond the threshold are ignored and the round continues.
    """
    if node.state is not _PROBING:
        raise ProtocolError(
            f"probe reply routed to node {node.id} in state {node.state.name}"
        )
    if not scan_check(distance_to(node, msg.sender_position), config.delta):
        return False
    _adapt_and_sleep(node, config, now, r)
    return True


def on_reply_timeout(node: SensorNode, config: SimConfig, now: float) -> ProbeRequest | None:
    """A probe attempt expired with no valid reply: retry or go on duty.

    Returns the next probe request while attempts remain (caller rebroadcasts
    and schedules a fresh timeout); returns None once the node has used its
    k_probes budget and switched to Active.
    """
    if node.state is not _PROBING:
        raise ProtocolError(
            f"reply timeout fired for node {node.id} in state {node.state.name}"
        )
    if node.probes_sent_this_round < config.k_probes:
        node.probes_sent_this_round += 1
        return ProbeRequest(node.id)
    change_state(node, _ACTIVE)
    node.activity_start = now
    node.probes_sent_this_round = 0
    return None


def on_withdrawal_check(
    node: SensorNode, msg: ProbeReply, config: SimConfig, now: float, r: float
) -> bool:
    """Resolve a conflict between two active nodes that can hear each other.

    A reply overheard from another guard closer than delta means both stand
    watch over the same area; the younger one withdraws and re-enters the
    sleep cycle (returns True). Ages within age_tie_margin count as a tie and
    the higher id yields, so exactly one side of a conflicting pair backs off.
    """
    if node.state is not _ACTIVE:
        raise ProtocolError(
            f"withdrawal check on node {node.id} in state {node.state.name}"
        )
    if msg.sender_id == node.id:
        return False
    d = distance_to(node, msg.sender_position)
    if d >= config.delta:
        return False
    age_diff = (now - node.activity_start) - msg.activity_age
    younger = age_diff < -config.age_tie_margin
    tied = abs(age_diff) <= config.age_tie_margin
    if not (younger or (tied and node.id > msg.sender_id)):
        return False
    _adapt_and_sleep(node, config, now, r)
    return True
