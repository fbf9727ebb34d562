"""Node state machine: handler-level transitions, SCAN, and withdrawal."""

import math
from dataclasses import replace

import pytest

from sentinelsim.engine import SimConfig
from sentinelsim.peas import on_probe_reply as peas_on_probe_reply
from sentinelsim.protocol import (
    ALLOWED_TRANSITIONS,
    NodeState,
    ProbeReply,
    ProbeRequest,
    ProtocolError,
    SensorNode,
    _adapt_and_sleep,
    change_state,
    on_probe_reply,
    on_probe_request,
    on_reply_timeout,
    on_wake,
    on_withdrawal_check,
    scan_check,
)
from sentinelsim.scheduling import WeibullParams

PARAMS = SimConfig()


def make_node(nid=0, x=0.0, y=0.0, state=NodeState.SLEEPING, **kw):
    return SensorNode(id=nid, x=x, y=y, state=state, **kw)


# -- lifecycle ---------------------------------------------------------------


def test_dead_is_absorbing():
    assert not any(src is NodeState.DEAD for src, _ in ALLOWED_TRANSITIONS)


@pytest.mark.parametrize(
    "src,dst",
    [
        (NodeState.SLEEPING, NodeState.ACTIVE),
        (NodeState.ACTIVE, NodeState.PROBING),
        (NodeState.DEAD, NodeState.SLEEPING),
        (NodeState.SLEEPING, NodeState.SLEEPING),
    ],
)
def test_illegal_transitions_abort(src, dst):
    node = make_node(state=src)
    with pytest.raises(ProtocolError):
        change_state(node, dst)


# -- on_wake -----------------------------------------------------------------


def test_wake_opens_probing_round():
    node = make_node(nid=3, x=1.0, y=2.0, wake_deadline=120.0)
    req = on_wake(node, PARAMS, 120.0)
    assert node.state is NodeState.PROBING
    assert node.probes_sent_this_round == 1
    assert req == ProbeRequest(sender_id=3)


def test_the_node_keeps_no_copy_of_the_budget():
    # the budget is SimConfig.initial_energy, read by the engine alone
    assert "initial_energy" not in SensorNode.__slots__
    assert not hasattr(SensorNode, "energy_remaining")


TIMER, HEARD = (PARAMS, 10.0), (ProbeReply(1, (0.0, 0.0), 5.0), PARAMS, 10.0, 0.5)
# each handler, its arguments after the node, its error's head, and the one state it takes
PRECONDITIONS = {
    "on_wake": (on_wake, TIMER, "wake fired for", NodeState.SLEEPING),
    "on_probe_reply": (on_probe_reply, HEARD, "probe reply routed to", NodeState.PROBING),
    "on_reply_timeout": (on_reply_timeout, TIMER, "reply timeout fired for", NodeState.PROBING),
    "on_withdrawal_check": (on_withdrawal_check, HEARD, "withdrawal check on", NodeState.ACTIVE),
    "peas.on_probe_reply": (peas_on_probe_reply, HEARD, "probe reply routed to", NodeState.PROBING),
}


@pytest.mark.parametrize("handler,state", [  # the wake cases keep their ids from before
    pytest.param(h, s, id=s.name if h == "on_wake" else f"{h}-{s.name}")
    for h, (*_, legal) in PRECONDITIONS.items() for s in NodeState if s is not legal
])
def test_wake_on_active_node_is_an_invariant_violation(handler, state):
    # the engine voids a node's wake at every state change, so only a sleeping
    # node is ever woken, and routes each other event only to the state it takes
    function, args, head, _ = PRECONDITIONS[handler]
    node = make_node(state=state, activity_start=0.0)
    with pytest.raises(ProtocolError, match=f"{head} node 0 in state {state.name}"):
        function(node, *args)
    assert node.state is state


# -- on_probe_request ----------------------------------------------------------


def test_active_node_replies_with_its_age():
    node = make_node(nid=9, x=4.0, y=5.0, state=NodeState.ACTIVE, activity_start=100.0)
    reply = on_probe_request(node, ProbeRequest(1), now=150.0)
    assert reply == ProbeReply(sender_id=9, sender_position=(4.0, 5.0), activity_age=50.0)


@pytest.mark.parametrize("state", [NodeState.SLEEPING, NodeState.PROBING])
def test_only_active_nodes_reply(state):
    node = make_node(state=state)
    assert on_probe_request(node, ProbeRequest(1), now=5.0) is None


# -- scan_check ----------------------------------------------------------------


@pytest.mark.parametrize("d,delta,expected", [(15.0, 20.0, True), (25.0, 20.0, False), (20.0, 20.0, True)])
def test_scan_check_boundary_inclusive(d, delta, expected):
    assert scan_check(d, delta) is expected


def test_scan_check_rejects_negative_distance():
    with pytest.raises(ValueError):
        scan_check(-1.0, 20.0)


# -- on_probe_reply --------------------------------------------------------------


def _probing_node(nid=0, rate=0.01):
    node = make_node(nid=nid, probe_rate=rate)
    on_wake(node, PARAMS, 10.0)
    return node


def test_valid_reply_updates_rate_and_sleeps():
    node = _probing_node()
    reply = ProbeReply(sender_id=7, sender_position=(10.0, 0.0), activity_age=3.0)
    assert on_probe_reply(node, reply, PARAMS, now=100.0, r=0.5) is True
    assert node.state is NodeState.SLEEPING
    # hazard refresh: h(100) at scale 1/0.01 gives 0.02
    assert node.probe_rate == pytest.approx(0.02, rel=1e-12)
    # sleep liveness: the scheduled wake is finite and inside the clamp window
    t_s = node.wake_deadline - 100.0
    assert PARAMS.t_sleep_min <= t_s <= PARAMS.t_sleep_max_scale / node.probe_rate
    assert node.probes_sent_this_round == 0


def test_reply_from_beyond_threshold_is_ignored():
    node = _probing_node()
    reply = ProbeReply(sender_id=7, sender_position=(30.0, 0.0), activity_age=3.0)
    assert on_probe_reply(node, reply, PARAMS, now=100.0, r=0.5) is False
    assert node.state is NodeState.PROBING
    assert node.probe_rate == 0.01


# -- on_reply_timeout -------------------------------------------------------------


def test_timeout_retries_until_budget_exhausted():
    node = _probing_node()
    req = on_reply_timeout(node, PARAMS, now=11.0)
    assert req is not None and node.probes_sent_this_round == 2
    req = on_reply_timeout(node, PARAMS, now=12.0)
    assert req is not None and node.probes_sent_this_round == 3
    assert on_reply_timeout(node, PARAMS, now=13.0) is None
    assert node.state is NodeState.ACTIVE
    assert node.activity_start == 13.0
    assert node.probes_sent_this_round == 0


def test_single_attempt_config_activates_immediately():
    params = SimConfig(k_probes=1)
    node = make_node()
    on_wake(node, params, 10.0)
    assert on_reply_timeout(node, params, now=11.0) is None
    assert node.state is NodeState.ACTIVE


# -- on_withdrawal_check -----------------------------------------------------------


def _active_node(nid, x, started, rate=0.01):
    node = make_node(nid=nid, x=x, state=NodeState.PROBING, probe_rate=rate)
    change_state(node, NodeState.ACTIVE)
    node.activity_start = started
    return node


def test_younger_guard_yields():
    now = 100.0
    node = _active_node(nid=2, x=0.0, started=now - 5.0)
    reply = ProbeReply(sender_id=1, sender_position=(10.0, 0.0), activity_age=12.0)
    assert on_withdrawal_check(node, reply, PARAMS, now, r=0.5) is True
    assert node.state is NodeState.SLEEPING
    assert node.activity_start is None


def test_older_guard_ignores_younger_reply():
    now = 100.0
    node = _active_node(nid=2, x=0.0, started=now - 12.0)
    reply = ProbeReply(sender_id=1, sender_position=(10.0, 0.0), activity_age=5.0)
    assert on_withdrawal_check(node, reply, PARAMS, now, r=0.5) is False
    assert node.state is NodeState.ACTIVE


def test_distant_guards_do_not_conflict():
    now = 100.0
    node = _active_node(nid=2, x=0.0, started=now - 5.0)
    reply = ProbeReply(sender_id=1, sender_position=(20.0, 0.0), activity_age=12.0)
    assert on_withdrawal_check(node, reply, PARAMS, now, r=0.5) is False


def test_a_guard_ignores_its_own_reply():
    # the engine never hands a node its own reply, as no node is its own
    # neighbour; from another guard, this reply would make the node withdraw
    now = 100.0
    node = _active_node(nid=2, x=0.0, started=now - 5.0)
    reply = ProbeReply(sender_id=2, sender_position=(0.0, 0.0), activity_age=12.0)
    assert on_withdrawal_check(node, reply, PARAMS, now, r=0.5) is False
    assert node.state is NodeState.ACTIVE


def test_age_tie_breaks_on_higher_id():
    now = 100.0
    hi = _active_node(nid=5, x=0.0, started=now - 7.0)
    lo = _active_node(nid=1, x=10.0, started=now - 7.0)
    from_lo = ProbeReply(sender_id=1, sender_position=(10.0, 0.0), activity_age=7.0)
    from_hi = ProbeReply(sender_id=5, sender_position=(0.0, 0.0), activity_age=7.0)
    assert on_withdrawal_check(hi, from_lo, PARAMS, now, r=0.5) is True
    assert on_withdrawal_check(lo, from_hi, PARAMS, now, r=0.5) is False


def test_exactly_one_side_of_a_conflict_withdraws():
    import random

    rng = random.Random(31)
    now = 500.0
    for _ in range(200):
        age_a = rng.uniform(0.0, 400.0)
        age_b = rng.choice([age_a, rng.uniform(0.0, 400.0)])
        a = _active_node(nid=1, x=0.0, started=now - age_a)
        b = _active_node(nid=2, x=5.0, started=now - age_b)
        from_b = ProbeReply(2, (5.0, 0.0), activity_age=age_b)
        from_a = ProbeReply(1, (0.0, 0.0), activity_age=age_a)
        withdrew = (
            on_withdrawal_check(a, from_b, PARAMS, now, r=0.5),
            on_withdrawal_check(b, from_a, PARAMS, now, r=0.5),
        )
        assert sorted(withdrew) == [False, True]


def test_withdrawal_resets_age_and_updates_rate():
    now = 200.0
    node = _active_node(nid=2, x=0.0, started=now - 5.0)
    reply = ProbeReply(sender_id=1, sender_position=(3.0, 0.0), activity_age=50.0)
    on_withdrawal_check(node, reply, PARAMS, now, r=0.5)
    assert node.activity_start is None
    assert node.probe_rate == pytest.approx(0.04, rel=1e-12)  # h(200) at scale 100


# -- sleep draw ----------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_bad_shape_fails_with_the_weibull_message(beta):
    with pytest.raises(ValueError) as fresh:
        WeibullParams(alpha=1.0, beta=beta)
    with pytest.raises(ValueError) as sleep:
        _adapt_and_sleep(_probing_node(), replace(PARAMS, beta=beta), 100.0, 0.5)
    assert str(sleep.value) == str(fresh.value)


# -- message validation -------------------------------------------------------------


def test_message_invariants():
    with pytest.raises(ValueError):
        ProbeReply(1, (0.0, 0.0), activity_age=-1.0)
