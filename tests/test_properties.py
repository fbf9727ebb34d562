"""Post-run engine invariants over small random configs, both policies."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from sentinelsim.analysis import metrics_to_csv, overhead_report
from sentinelsim.engine import PROTOCOLS, EnergyModel, SimConfig, deploy, run, simulate
from sentinelsim.protocol import NodeState

LEDGER_TOLERANCE = 1e-9

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
    energy=st.one_of(
        st.just(EnergyModel()),
        st.builds(EnergyModel, initial_energy=st.floats(0.5, 3.0)),
    ),
)


@st.composite
def configs(draw):
    """A plain config plus up to three failure injections inside the run."""
    cfg = draw(plain_configs)
    if cfg.n_nodes:
        injection = st.tuples(st.integers(0, cfg.n_nodes - 1), st.floats(0.0, cfg.duration))
        cfg.failure_injections = draw(st.lists(injection, max_size=3))
    return cfg


@settings(max_examples=200, deadline=None)
@given(configs())
def test_finished_run_keeps_the_engine_invariants(cfg):
    world = deploy(cfg)
    result = run(world)
    assert result is world.result

    def ids(*states):
        return {node.id for node in world.nodes if node.state in states}

    assert world._radio_on == ids(NodeState.PROBING, NodeState.ACTIVE)
    assert world.clock == cfg.duration
    for node in world.nodes:
        parts = node.spent_state + node.spent_tx + node.spent_rx
        assert abs(parts - node.spent_total) <= LEDGER_TOLERANCE * max(1.0, node.spent_total)
        assert node.spent_total <= node.initial_energy

    rows = result.rows
    for row in rows:
        states = row.active_count + row.sleeping_count + row.probing_count + row.dead_count
        assert states == cfg.n_nodes
    times = [row.time for row in rows]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == cfg.duration
    assert overhead_report(result).replies_conserved

    # the sampler adds the spends left to right from the int 0, inside its
    # charge loop: sum()'s float arithmetic up to 3.11 (later sum() compensates)
    total = 0
    for node in world.nodes:
        total += node.spent_total
    assert rows[-1].total_energy_consumed == total
    if sys.version_info < (3, 12):
        assert total == sum(node.spent_total for node in world.nodes)

    injections = set(cfg.failure_injections)
    assert all(world.nodes[nid].state is NodeState.DEAD for nid, _ in injections)
    assert len(result.recoveries) <= len(cfg.failure_injections)
    for hole in result.recoveries:
        assert (hole.node_id, hole.time) in injections
        assert hole.recovered_at is None or hole.time <= hole.recovered_at <= cfg.duration

    replay = simulate(cfg)
    assert metrics_to_csv(replay.rows) == metrics_to_csv(rows)
    assert replay.recoveries == result.recoveries
