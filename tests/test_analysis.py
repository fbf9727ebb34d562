"""Coverage grid, recovery latency, overhead accounting, run comparison, CSV."""

import json
import math
import random

import pytest

from sentinelsim.analysis import (
    CoverageGrid,
    MetricsRecord,
    RecoveryEvent,
    RunResult,
    UNRECOVERED,
    compare_runs,
    coverage_fraction,
    metrics_to_csv,
    overhead_report,
    recovery_latency,
    summarize,
    summary_to_json,
)
from sentinelsim.engine import SimConfig, deploy, run, simulate


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


def make_row(time=0.0, **kw):
    base = dict(
        time=time,
        active_count=0,
        sleeping_count=0,
        probing_count=0,
        dead_count=0,
        total_energy_consumed=0.0,
        coverage_fraction=0.0,
        probes_sent=0,
        probes_received=0,
        replies_sent=0,
        replies_received=0,
        collisions=0,
        withdrawals=0,
    )
    base.update(kw)
    return MetricsRecord(**base)


def make_result(config, rows, **kw):
    return RunResult(config=config, rows=rows, **kw)


# -- coverage -------------------------------------------------------------------


def test_no_guards_no_coverage():
    grid = CoverageGrid(50.0, 50.0)
    assert coverage_fraction([], 10.0, grid) == 0.0


def test_dense_lattice_covers_everything():
    lattice = [(x, y) for x in (5, 15, 25, 35, 45) for y in (5, 15, 25, 35, 45)]
    grid = CoverageGrid(50.0, 50.0)
    assert coverage_fraction(lattice, 10.0, grid) == 1.0


def test_single_central_guard_covers_a_disk():
    # frozen from the brute-force cell count: 316 of 2500 one-metre cells
    grid = CoverageGrid(50.0, 50.0)
    frac = coverage_fraction([(25.0, 25.0)], 10.0, grid)
    assert frac == 316 / 2500
    assert frac == brute_force_fraction([(25.0, 25.0)], 10.0, 50.0, 50.0, 1.0)


def test_matches_brute_force_scan_on_randomized_layouts():
    rng = random.Random(77)
    for _ in range(10):
        k = rng.randint(0, 15)
        pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(k)]
        r = rng.uniform(5.0, 15.0)
        grid = CoverageGrid(50.0, 50.0)
        assert coverage_fraction(pts, r, grid) == brute_force_fraction(
            pts, r, 50.0, 50.0, 1.0
        )


def test_grid_validation():
    with pytest.raises(ValueError):
        CoverageGrid(50.0, 50.0, resolution=0.0)
    with pytest.raises(ValueError):
        CoverageGrid(-1.0, 50.0)


# -- recovery latency -------------------------------------------------------------


def test_recovery_latency_reads_the_recorded_event():
    cfg = SimConfig(n_nodes=3)
    res = make_result(
        cfg,
        [make_row()],
        recoveries=[
            RecoveryEvent(0, 1000.0, (25.0, 25.0), recovered_at=1040.0),
            RecoveryEvent(1, 2000.0, (10.0, 10.0), recovered_at=None),
            RecoveryEvent(2, 3000.0, (40.0, 40.0), recovered_at=3000.0),
        ],
    )
    assert recovery_latency(res, 1000.0) == pytest.approx(40.0)
    assert recovery_latency(res, 2000.0) == UNRECOVERED
    assert recovery_latency(res, 3000.0) == 0.0
    with pytest.raises(ValueError):
        recovery_latency(res, 555.0)


def test_sparse_deployment_leaves_hole_unrecovered():
    # no reserve anywhere near the victim: the hole survives to the end
    cfg = SimConfig(
        n_nodes=2,
        duration=200.0,
        seed=1,
        loss_probability=0.0,
        failure_injections=[(0, 100.0)],
    )
    world = deploy(cfg, positions=[(5.0, 5.0), (45.0, 45.0)], initial_sleeps=[0.5, 1.0])
    result = run(world)
    assert math.isinf(recovery_latency(result, 100.0))
    assert summarize(result).recovery_latencies == [UNRECOVERED]


# -- overhead -------------------------------------------------------------------


def test_lossless_cluster_accounting(force_state):
    # one prober, three guards in its range (none in each other's), perfect
    # channel: every request lands on every guard, every guard answers once
    cfg = SimConfig(
        n_nodes=4, duration=10.0, seed=2, loss_probability=0.0, collisions=False
    )
    world = deploy(
        cfg,
        positions=[(25.0, 25.0), (40.0, 25.0), (10.0, 25.0), (25.0, 40.0)],
        initial_sleeps=[2.0, 1e9, 1e9, 1e9],
    )
    from sentinelsim.protocol import NodeState

    for guard in world.nodes[1:]:
        force_state(world, guard, NodeState.ACTIVE)
        guard.activity_start = 0.0
    result = run(world)
    assert world.probes_sent == 1
    assert world.probes_received == 3  # receivers in range x sent requests
    assert world.replies_sent == 3
    assert world.replies_received == 1  # first answer wins, radio off after
    report = overhead_report(result)
    assert report.replies_conserved
    assert report.sent_vs_received_requests[-1] == (1, 3)


def test_serialized_reply_conservation(force_state):
    # single guard, single prober, perfect channel: every reply sent is received
    cfg = SimConfig(n_nodes=2, duration=10.0, seed=2, loss_probability=0.0)
    world = deploy(cfg, positions=[(25.0, 25.0), (30.0, 25.0)], initial_sleeps=[2.0, 1e9])
    from sentinelsim.protocol import NodeState

    guard = world.nodes[1]
    force_state(world, guard, NodeState.ACTIVE)
    guard.activity_start = 0.0
    run(world)
    assert world.replies_sent == world.replies_received == 1


def test_near_total_loss_blanks_the_receive_counters():
    cfg = SimConfig(n_nodes=30, duration=400.0, seed=6, loss_probability=0.9999999)
    result = simulate(cfg)
    assert result.rows[-1].probes_received == 0
    assert result.rows[-1].replies_received == 0
    report = overhead_report(result)
    assert report.received_requests_vs_replies[-1] == (0, 0)


def test_dense_run_counter_relationships():
    result = simulate(SimConfig(n_nodes=200, duration=2000.0, seed=4, k_probes=1))
    row = result.rows[-1]
    assert row.probes_sent > 0
    # every request landing on a guard draws exactly one reply
    assert row.replies_sent == row.probes_received
    # an imperfect channel plus sleep races lose some replies on the way back
    assert row.replies_received < row.replies_sent
    assert row.collisions > 0
    assert overhead_report(result).replies_conserved


# -- comparison -----------------------------------------------------------------


def test_identical_runs_compare_to_zero():
    cfg = SimConfig(n_nodes=40, duration=300.0, seed=3)
    a = simulate(cfg)
    b = simulate(SimConfig(n_nodes=40, duration=300.0, seed=3))
    assert compare_runs(a, b) == 0.0


def test_reference_ratio_example():
    cfg_s = SimConfig(n_nodes=200, protocol="sentinel")
    cfg_p = SimConfig(n_nodes=200, protocol="peas")
    sent = make_result(cfg_s, [make_row(time=6000.0, total_energy_consumed=1.28 * 200)])
    peas = make_result(cfg_p, [make_row(time=6000.0, total_energy_consumed=2.0 * 200)])
    assert compare_runs(sent, peas) == pytest.approx(0.36, rel=1e-12)


def test_worse_scheme_reports_negative_ratio_unclamped():
    cfg_s = SimConfig(n_nodes=10)
    cfg_p = SimConfig(n_nodes=10)
    sent = make_result(cfg_s, [make_row(total_energy_consumed=30.0)])
    peas = make_result(cfg_p, [make_row(total_energy_consumed=20.0)])
    assert compare_runs(sent, peas) == pytest.approx(-0.5, rel=1e-12)


def test_mismatched_configs_rejected():
    a = make_result(SimConfig(n_nodes=10, seed=1), [make_row(total_energy_consumed=1.0)])
    b = make_result(SimConfig(n_nodes=10, seed=2), [make_row(total_energy_consumed=1.0)])
    with pytest.raises(ValueError):
        compare_runs(a, b)
    c = make_result(SimConfig(n_nodes=20, seed=1), [make_row(total_energy_consumed=1.0)])
    with pytest.raises(ValueError):
        compare_runs(a, c)


@pytest.mark.parametrize(
    "name", ["p_sleep", "p_probe_listen", "p_active", "e_tx", "e_rx", "initial_energy"]
)
def test_runs_with_different_energy_models_rejected(name):
    a = make_result(SimConfig(n_nodes=10), [make_row(total_energy_consumed=1.0)])
    other = SimConfig(n_nodes=10, **{name: getattr(a.config, name) * 0.5})
    b = make_result(other, [make_row(total_energy_consumed=1.0)])
    with pytest.raises(ValueError, match=f"{name} differs"):
        compare_runs(a, b)
    with pytest.raises(ValueError, match=f"{name} differs"):
        compare_runs(b, a)


def test_idle_baseline_has_no_ratio():
    sent = make_result(SimConfig(n_nodes=10), [make_row(total_energy_consumed=1.0)])
    peas = make_result(SimConfig(n_nodes=10), [make_row(total_energy_consumed=0.0)])
    assert compare_runs(sent, peas) is None


def test_runs_without_nodes_have_no_ratio():
    # the saving is per node: with none it is undefined, not a division by zero
    sent = simulate(SimConfig(n_nodes=0, duration=100.0, protocol="sentinel"))
    peas = simulate(SimConfig(n_nodes=0, duration=100.0, protocol="peas"))
    with pytest.raises(ValueError, match="no nodes"):
        compare_runs(sent, peas)


# -- serialization ----------------------------------------------------------------


def test_csv_fixed_point_format():
    rows = [
        make_row(time=0.0),
        make_row(
            time=10.0,
            active_count=3,
            sleeping_count=7,
            total_energy_consumed=1.23456789,
            coverage_fraction=0.5,
            probes_sent=42,
        ),
    ]
    text = metrics_to_csv(rows)
    lines = text.split("\n")
    assert lines[0].startswith("time,active_count,")
    assert lines[1] == "0.000000,0,0,0,0,0.000000,0.000000,0,0,0,0,0,0"
    assert lines[2] == "10.000000,3,7,0,0,1.234568,0.500000,42,0,0,0,0,0"
    assert text.endswith("\n") and "\r" not in text


def test_summary_json_marks_unrecovered_as_null():
    cfg = SimConfig(n_nodes=4)
    res = make_result(
        cfg,
        [make_row(coverage_fraction=0.5, total_energy_consumed=8.0)],
        recoveries=[RecoveryEvent(1, 50.0, (0.0, 0.0), recovered_at=None)],
        false_activation_ids={1, 2},
    )
    payload = json.loads(summary_to_json(summarize(res), cfg))
    assert payload["avg_energy_per_node"] == 2.0
    assert payload["false_activation_fraction"] == 0.5
    assert payload["recovery_latencies"] == [None]
    assert payload["config"]["n_nodes"] == 4
