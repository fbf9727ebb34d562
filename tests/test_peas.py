"""Baseline policy: exponential wake timers, permanent activation, no adaptation."""

import math

import pytest

import sentinelsim.peas as peas_mod
from sentinelsim.engine import SimConfig, deploy, run, simulate
from sentinelsim.peas import matched_rate, on_withdrawal_check, peas_sample_sleep
from sentinelsim.protocol import NodeState, ProbeReply, SensorNode, change_state


def test_sample_sleep_examples():
    assert peas_sample_sleep(0.01, math.exp(-1.0)) == pytest.approx(100.0, rel=1e-12)
    assert peas_sample_sleep(0.02, 0.5) == pytest.approx(34.657359027997266, rel=1e-12)
    assert peas_sample_sleep(0.01, 1.0 - 1e-12) < 1e-6


@pytest.mark.parametrize("r", [0.0, 1.0, -1.0])
def test_sample_sleep_rejects_bad_r(r):
    with pytest.raises(ValueError):
        peas_sample_sleep(0.01, r)


@pytest.mark.parametrize("rate", [0.0, -0.01])
def test_sample_sleep_rejects_a_non_positive_rate(rate):
    with pytest.raises(ValueError, match="^lambda_peas must be positive"):
        peas_sample_sleep(rate, 0.5)


def test_matched_rate_equates_mean_initial_sleeps():
    # exponential mean 1/rate must equal the Weibull mean Gamma(1+1/beta)/lambda
    lam = matched_rate(0.01, 2.0)
    assert lam == pytest.approx(0.011283791670955126, rel=1e-12)
    assert 1.0 / lam == pytest.approx(math.gamma(1.5) * 100.0, rel=1e-12)


def test_active_baseline_node_never_stands_down():
    node = SensorNode(id=1, x=0.0, y=0.0, state=NodeState.PROBING)
    change_state(node, NodeState.ACTIVE)
    node.activity_start = 0.0
    reply = ProbeReply(sender_id=2, sender_position=(1.0, 0.0), activity_age=500.0)
    cfg = SimConfig(protocol="peas")
    assert on_withdrawal_check(node, reply, cfg, now=10.0, r=0.5) is False
    assert node.state is NodeState.ACTIVE


def test_reply_within_probing_range_resets_exponential_sleep(force_state):
    cfg = SimConfig(
        n_nodes=2, duration=10.0, seed=1, protocol="peas", loss_probability=0.0
    )
    world = deploy(cfg, positions=[(0.0, 0.0), (10.0, 0.0)], initial_sleeps=[1e9, 2.0])
    guard, prober = world.nodes
    force_state(world, guard, NodeState.ACTIVE)
    guard.activity_start = 0.0
    rate_before = prober.probe_rate
    run(world)
    assert prober.state is NodeState.SLEEPING
    assert prober.probe_rate == rate_before  # no adaptation, ever
    assert world.withdrawals == 0


def test_reply_handler_is_looked_up_when_the_reply_arrives(monkeypatch, force_state):
    # replacing the policy's handler after deploy reroutes the run's replies
    cfg = SimConfig(
        n_nodes=2, duration=10.0, seed=1, protocol="peas", loss_probability=0.0
    )
    world = deploy(cfg, positions=[(0.0, 0.0), (10.0, 0.0)], initial_sleeps=[1e9, 2.0])
    guard, prober = world.nodes
    force_state(world, guard, NodeState.ACTIVE)
    guard.activity_start = 0.0
    calls = []
    real = peas_mod.on_probe_reply

    def spy(node, msg, config, now, r):
        calls.append((node.id, msg.sender_id, config is cfg))
        return real(node, msg, config, now, r)

    monkeypatch.setattr(peas_mod, "on_probe_reply", spy)
    run(world)
    assert calls == [(prober.id, guard.id, True)]
    assert prober.state is NodeState.SLEEPING


def test_reply_from_beyond_probing_range_is_ignored(force_state):
    cfg = SimConfig(
        n_nodes=2,
        duration=10.0,
        seed=1,
        protocol="peas",
        loss_probability=0.0,
        peas_probing_range=5.0,
    )
    world = deploy(cfg, positions=[(0.0, 0.0), (10.0, 0.0)], initial_sleeps=[1e9, 2.0])
    guard, prober = world.nodes
    force_state(world, guard, NodeState.ACTIVE)
    guard.activity_start = 0.0
    run(world)
    # the guard answered but sits outside the acceptance range: the prober
    # exhausts its budget and goes on duty permanently
    assert prober.state is NodeState.ACTIVE


def test_active_set_is_monotone_nondecreasing():
    result = simulate(SimConfig(n_nodes=120, duration=2000.0, seed=8, protocol="peas"))
    counts = [row.active_count for row in result.rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert result.rows[-1].dead_count == 0
    assert result.rows[-1].withdrawals == 0


def test_baseline_probe_rate_is_time_invariant():
    cfg = SimConfig(n_nodes=80, duration=1500.0, seed=5, protocol="peas")
    world = deploy(cfg)
    expected = peas_mod.wake_rate(cfg)
    assert expected == matched_rate(cfg.lambda_init, cfg.beta)
    run(world)
    assert all(node.probe_rate == expected for node in world.nodes)


def test_first_guard_selection_matches_sentinel_scheme():
    # collision-free, loss-free: the earliest waking uncovered node stands
    # guard first under either policy
    first = {}
    for protocol in ("sentinel", "peas"):
        cfg = SimConfig(
            n_nodes=150,
            duration=60.0,
            seed=23,
            protocol=protocol,
            loss_probability=0.0,
            collisions=False,
        )
        result = simulate(cfg)
        first[protocol] = result.activations[0]
    assert first["sentinel"] == first["peas"]


def test_collision_loss_makes_redundant_guards_permanent():
    # a dense baseline run accretes extra guards it can never shed
    cfg = SimConfig(n_nodes=200, duration=4000.0, seed=11, protocol="peas")
    result = simulate(cfg)
    counts = [row.active_count for row in result.rows]
    early = counts[len(counts) // 8]
    assert counts[-1] > early  # redundancy only accumulates
