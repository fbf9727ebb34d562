"""PEAS baseline policy: exponential wake timers at a fixed rate, permanent
activation, no conflict resolution.

Wake, request handling, and timeout mechanics are shared with the sentinel
policy (protocol.on_wake / on_probe_request / on_reply_timeout); this module
supplies the wake rate and the two handlers that differ. As there, handlers
move the state machine and the engine arms and voids the timers. A node under
PEAS that activates never sleeps again, and its probe rate never adapts:
node.probe_rate stays the run's fixed wake rate, wake_rate(config).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .protocol import NodeState, ProbeReply, ProtocolError, SensorNode, distance_to, go_to_sleep

if TYPE_CHECKING:
    from .engine import SimConfig

_PROBING = NodeState.PROBING  # bound once for on_probe_reply


def peas_sample_sleep(lambda_peas: float, r: float) -> float:
    """Exponential sleep draw: ln(1/r) / lambda_peas."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in the open interval (0, 1), got {r}")
    if lambda_peas <= 0:
        raise ValueError(f"lambda_peas must be positive, got {lambda_peas}")
    return math.log(1.0 / r) / lambda_peas


def matched_rate(lambda_init: float, beta: float) -> float:
    """Wake rate whose exponential mean sleep equals the sentinel policy's
    mean initial Weibull sleep (scale 1/lambda_init, shape beta)."""
    return lambda_init / math.gamma(1.0 + 1.0 / beta)


def wake_rate(config: SimConfig) -> float:
    """The fixed wake rate: lambda_peas, or by default the rate matching the
    sentinel policy's mean initial sleep."""
    if config.lambda_peas is not None:
        return config.lambda_peas
    return matched_rate(config.lambda_init, config.beta)


def on_probe_reply(
    node: SensorNode, msg: ProbeReply, config: SimConfig, now: float, r: float
) -> bool:
    """Any reply from within probing range sends the node back to sleep for an
    exponential duration at the unchanged rate (returns True)."""
    if node.state is not _PROBING:
        raise ProtocolError(
            f"probe reply routed to node {node.id} in state {node.state.name}"
        )
    radius = config.peas_probing_range
    if radius is None:
        radius = config.delta
    if distance_to(node, msg.sender_position) > radius:
        return False
    go_to_sleep(node, now, peas_sample_sleep(node.probe_rate, r))
    return True


def on_withdrawal_check(
    node: SensorNode, msg: ProbeReply, config: SimConfig, now: float, r: float
) -> bool:
    """Working nodes never stand down: overheard replies are ignored."""
    return False
