"""Coverage grid, recovery latency, overhead accounting, run comparison, CSV.
The traffic counters of each row a run samples are re-derived before every
event by `oracles.checked` in `test_properties.py`."""

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

from oracles import brute_force_fraction


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
    # square and non-square fields at several resolutions, a 5 x 7 m field
    # at 2.5 m among them; guards inside the field, up to 10 m outside it,
    # wholly above or below it, on cell centres with radii of 1, 2, 5, 10 or
    # 13 cells, which put whole-cell offsets such as (3, 4) or (0, 5) cells
    # exactly on the circle, and on cell corners; radii of 0 and under half
    # a cell; and cell centres on the rim
    rng = random.Random(77)
    for width, height, resolution in (
        (50.0, 50.0, 1.0), (50.0, 50.0, 0.5), (37.3, 61.9, 0.7), (80.0, 30.0, 1.0),
        (5.0, 7.0, 2.5),
    ):
        nx = max(1, int(round(width / resolution)))
        ny = max(1, int(round(height / resolution)))
        for case in range(18):
            k = rng.randint(0, 15)
            if case % 6 == 0:
                pts = [(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(k)]
                r = rng.uniform(5.0, 15.0)
            elif case % 6 == 1:
                pts = [
                    (rng.uniform(-10, width + 10), rng.uniform(-10, height + 10))
                    for _ in range(k)
                ]
                r = rng.uniform(5.0, 15.0)
            elif case % 6 == 2:
                pts = [
                    ((rng.randint(-3, nx + 2) + 0.5) * resolution,
                     (rng.randint(-3, ny + 2) + 0.5) * resolution)
                    for _ in range(k)
                ]
                r = rng.choice([1, 2, 5, 10, 13]) * resolution
            elif case % 6 == 3:
                pts = [
                    (rng.randint(-3, nx + 3) * resolution, rng.randint(-3, ny + 3) * resolution)
                    for _ in range(k)
                ]
                r = rng.choice([0.5, 1, 1.5, 2, 5, 10]) * resolution
            elif case % 6 == 4:
                r = rng.uniform(0.0, 15.0)
                pts = [
                    (rng.uniform(-10, width + 10),
                     rng.choice([-r - rng.uniform(0, 5), height + r + rng.uniform(0, 5)]))
                    for _ in range(k)
                ]
            else:
                pts = [(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(k)]
                r = rng.choice([0.0, rng.uniform(0.0, 0.5 * resolution)])
            grid = CoverageGrid(width, height, resolution)
            assert coverage_fraction(pts, r, grid) == brute_force_fraction(
                pts, r, width, height, resolution
            ), (width, height, resolution, r, pts)
        # a disk with a cell centre exactly on its rim, in its own column,
        # where y - r or y + r rounds past that centre
        rims = 0
        while rims < 4:
            cx = (rng.randrange(nx) + 0.5) * resolution
            cy = (rng.randrange(ny) + 0.5) * resolution
            y = rng.uniform(-10, height + 10)
            r = abs(cy - y)
            if y - r <= cy <= y + r:
                continue
            rims += 1
            assert coverage_fraction([(cx, y)], r, grid) == brute_force_fraction(
                [(cx, y)], r, width, height, resolution
            ), (width, height, resolution, r, cx, y)


def test_masks_cached_by_one_grid_match_a_fresh_grid():
    # one grid answers a run of overlapping guard sets, each with a guard
    # added, dropped or moved and the radius sometimes changed; no answer may
    # depend on what the grid computed before
    rng = random.Random(78)
    pool = [(rng.uniform(-5, 55), rng.uniform(-5, 55)) for _ in range(12)]
    grid = CoverageGrid(50.0, 50.0, 0.5)
    guards = pool[:4]
    for step in range(40):
        guards = [p for p in guards if rng.random() < 0.8] + rng.sample(pool, 2)
        r = rng.choice([7.5, 10.0])
        expected = coverage_fraction(guards, r, CoverageGrid(50.0, 50.0, 0.5))
        assert coverage_fraction(guards, r, grid) == expected, step


def test_grid_validation():
    for width, height, resolution, refused in (
        (50.0, 50.0, 0.0, "resolution"),
        (50.0, 50.0, math.inf, "resolution"),
        (50.0, 50.0, math.nan, "resolution"),
        (-1.0, 50.0, 1.0, "field dimensions"),
        (math.nan, 50.0, 1.0, "field dimensions"),
        (50.0, math.inf, 1.0, "field dimensions"),
    ):
        with pytest.raises(ValueError, match=f"^{refused} must be positive and finite, got "):
            CoverageGrid(width, height, resolution)


@pytest.mark.parametrize("x, y, r, message", [
    (math.nan, 25.0, 10.0, "disk x must be finite, got nan"),
    (-math.inf, 25.0, 10.0, "disk x must be finite, got -inf"),
    (25.0, math.inf, 10.0, "disk y must be finite, got inf"),
    (25.0, 25.0, math.nan, "disk r must be finite, got nan"),
    (25.0, 25.0, math.inf, "disk r must be finite, got inf"),
    (25.0, 25.0, -5.0, "disk r must be >= 0, got -5.0"),
], ids=["x-nan", "x-minus-inf", "y-inf", "r-nan", "r-inf", "r-negative"])
def test_disk_mask_refuses_a_disk_it_cannot_bound(x, y, r, message):
    # the refusal comes before the build, so no mask is cached for the disk
    # and asking again is refused again
    grid = CoverageGrid(50.0, 50.0)
    for _ in range(2):
        with pytest.raises(ValueError) as refusal:
            coverage_fraction([(x, y)], r, grid)
        assert str(refusal.value) == message
    assert coverage_fraction([(25.0, 25.0)], 10.0, grid) == 316 / 2500


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


def test_recovery_latency_needs_the_node_when_failures_share_a_time():
    res = make_result(
        SimConfig(n_nodes=3),
        [make_row()],
        recoveries=[
            RecoveryEvent(2, 1000.0, (25.0, 25.0), recovered_at=1040.0),
            RecoveryEvent(0, 1000.0, (10.0, 10.0), recovered_at=None),
            RecoveryEvent(1, 2000.0, (40.0, 40.0), recovered_at=2005.0),
        ],
    )
    with pytest.raises(ValueError, match=r"at t=1000.0, got nodes \[2, 0\]$"):
        recovery_latency(res, 1000.0)
    assert recovery_latency(res, 1000.0, node_id=2) == pytest.approx(40.0)
    assert recovery_latency(res, 1000.0, node_id=0) == UNRECOVERED
    assert recovery_latency(res, 2000.0) == pytest.approx(5.0)
    with pytest.raises(ValueError, match=r"at t=1000.0, got nodes \[\]$"):
        recovery_latency(res, 1000.0, node_id=1)


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


def test_mean_coverage_adds_the_samples_left_to_right():
    # a compensated sum, as sum() is from CPython 3.12 on, would give exactly 0.1
    rows = [make_row(float(k), coverage_fraction=0.1) for k in range(10)]
    assert summarize(make_result(SimConfig(n_nodes=1), rows)).mean_coverage == 0.9999999999999999 / 10


# -- overhead -------------------------------------------------------------------


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
