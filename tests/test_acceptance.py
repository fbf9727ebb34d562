"""Acceptance gate: every headline claim about the scheduler, checked at its
stated tolerance. Each criterion prints one PASS/FAIL line (run with -s).

The behavioral criteria run pinned seeds; the engine is deterministic, so the
numbers printed here reproduce bit for bit. The slowest criteria carry the
`slow` marker, so `pytest -m "not slow"` gives a quick check while iterating."""

import math
import random
import statistics
import time
from dataclasses import replace

import pytest

from sentinelsim.analysis import CoverageGrid, coverage_fraction, metrics_to_csv
from sentinelsim.engine import SimConfig, deploy, inject_failure, run, simulate
from sentinelsim.scheduling import (
    WeibullParams,
    sample_sleep_time,
    update_probe_rate,
    weibull_cdf,
)

from oracles import brute_force_fraction, ks_statistic


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_sampler_fidelity():
    t0 = time.monotonic()
    rng = random.Random(101)
    worst = {}
    for beta in (1.5, 2.0, 3.0):
        params = WeibullParams(alpha=10.0, beta=beta)
        draws = [
            sample_sleep_time(params, rng.random() or 0.5, t_min=0.0, t_max=math.inf)
            for _ in range(100_000)
        ]
        worst[beta] = ks_statistic(draws, lambda t: weibull_cdf(t, params))
    # shape 1 collapses to the exponential in closed form, bit for bit
    exp_params = WeibullParams(alpha=10.0, beta=1.0)
    exact = all(
        sample_sleep_time(exp_params, r, t_min=0.0, t_max=math.inf)
        == 10.0 * math.log(1.0 / r)
        for r in (rng.random() or 0.5 for _ in range(10_000))
    )
    elapsed = time.monotonic() - t0
    ok = max(worst.values()) < 0.02 and exact and elapsed < 5.0
    report(
        "1 sampler fidelity",
        ok,
        f"KS={ {b: round(k, 5) for b, k in worst.items()} } (<0.02), "
        f"beta=1 exact={exact}, {elapsed:.1f}s (<5s)",
    )
    assert max(worst.values()) < 0.02
    assert exact
    assert elapsed < 5.0


def test_criterion_2_energy_advantage_over_baseline():
    base = SimConfig(n_nodes=200, duration=6000.0, seed=11)
    t0 = time.monotonic()
    sent = simulate(replace(base, protocol="sentinel"))
    peas = simulate(replace(base, protocol="peas"))
    elapsed = time.monotonic() - t0
    saving = (peas.total_energy - sent.total_energy) / peas.total_energy
    ok = saving >= 0.20 and elapsed < 60.0
    report(
        "2 energy advantage",
        ok,
        f"saving={saving:.1%} (>=20%), sentinel={sent.total_energy:.0f} J, "
        f"baseline={peas.total_energy:.0f} J, pair ran in {elapsed:.1f}s (<60s)",
    )
    assert saving >= 0.20
    assert elapsed < 60.0


@pytest.mark.slow
def test_criterion_3_shape_parameter_insensitivity():
    means = {}
    for beta in (1.5, 2.0, 3.0):
        runs = [
            simulate(SimConfig(n_nodes=200, duration=3000.0, seed=300 + rep, beta=beta))
            for rep in range(5)
        ]
        means[beta] = statistics.mean(r.total_energy / 200 for r in runs)
    spread = (max(means.values()) - min(means.values())) / min(means.values())
    ok = spread < 0.10
    report(
        "3 shape insensitivity",
        ok,
        f"avg J/node by shape={ {b: round(m, 3) for b, m in means.items()} }, "
        f"spread={spread:.1%} (<10%)",
    )
    assert spread < 0.10


def test_criterion_4_rate_and_sleep_evolution():
    rng = random.Random(404)
    lam = 0.01
    rates = []
    mean_sleeps = []
    for t_net in (100.0, 200.0, 300.0, 400.0, 500.0):
        lam = update_probe_rate(lam, t_net, 2.0)
        rates.append(lam)
        params = WeibullParams(alpha=1.0 / lam, beta=2.0)
        draws = [sample_sleep_time(params, rng.random() or 0.5) for _ in range(4000)]
        mean_sleeps.append(sum(draws) / len(draws))
    # strictly increasing until the rate cap engages
    capped_at = next((i for i, v in enumerate(rates) if v == 10.0), len(rates))
    rising = all(a < b for a, b in zip(rates[: capped_at + 1], rates[1 : capped_at + 1]))
    flat_after = all(v == 10.0 for v in rates[capped_at:])
    # mean sampled sleeps strictly decreasing until the floor engages
    floored_at = next((i for i, v in enumerate(mean_sleeps) if v == 1.0), len(mean_sleeps))
    falling = all(
        a > b for a, b in zip(mean_sleeps[: floored_at + 1], mean_sleeps[1 : floored_at + 1])
    )
    ok = rising and flat_after and falling and capped_at < len(rates)
    report(
        "4 rate/sleep evolution",
        ok,
        f"rates={[round(v, 3) for v in rates]} rising until cap; "
        f"mean sleeps={[round(v, 2) for v in mean_sleeps]} falling until floor",
    )
    assert rising and flat_after and falling
    assert capped_at < len(rates)


@pytest.mark.slow
def test_criterion_5_collision_driven_false_activation_and_conflict_clearing():
    # harsh channel so the single-probe fragility the withdrawal procedure
    # exists to repair actually manifests
    lhs_cfg = SimConfig(
        n_nodes=300, duration=9000.0, seed=5, k_probes=1, loss_probability=0.15
    )
    lhs = simulate(lhs_cfg)
    frac = len(lhs.false_activation_ids) / lhs_cfg.n_nodes
    # same channel, full probe budget, steady probing traffic (no rate dip) so
    # conflict persistence is measurable at every snapshot
    rhs_cfg = SimConfig(
        n_nodes=300,
        duration=9000.0,
        seed=5,
        k_probes=3,
        loss_probability=0.15,
        lambda_min=0.01,
    )
    rhs = simulate(rhs_cfg)
    bound = 2 * rhs_cfg.t_w + rhs_cfg.airtime
    violations = [
        (t, age) for t, age in rhs.conflict_ages if t > 500.0 and age > bound
    ]
    ok = frac >= 0.5 and not violations
    report(
        "5 false activation / conflict clearing",
        ok,
        f"k=1 false-activation fraction={frac:.1%} (>=50%); k=3 snapshots after "
        f"500s with a conflict older than {bound:.4f}s: {len(violations)} (=0)",
    )
    assert frac >= 0.5
    assert violations == []


def _central_victim(world) -> int:
    actives = [world.nodes[i] for i in world.active_ids]
    victim = min(actives, key=lambda n: (math.hypot(n.x - 25.0, n.y - 25.0), n.id))
    return victim.id


@pytest.mark.slow
def test_criterion_6_hole_recovery():
    lat_early, lat_late = [], []
    recovered = 0
    for rep in range(20):
        seed = 600 + rep
        # one run, paused at each failure time to kill the guard nearest the
        # field centre then, before any event at that time
        world = deploy(SimConfig(n_nodes=300, duration=4500.0, seed=seed))
        for t in (1000.0, 4000.0):
            run(world, t)
            inject_failure(world, _central_victim(world))
        final = run(world)
        for ev in final.recoveries:
            if not math.isinf(ev.latency):
                recovered += 1
            (lat_early if ev.time == 1000.0 else lat_late).append(ev.latency)
    med_early = statistics.median(lat_early)
    med_late = statistics.median(lat_late)
    rate = recovered / 40
    ok = rate >= 0.95 and med_late <= med_early
    report(
        "6 hole recovery",
        ok,
        f"recovered {recovered}/40 ({rate:.0%}, >=95%); median latency "
        f"{med_late:.1f}s at t=4000 <= {med_early:.1f}s at t=1000",
    )
    assert rate >= 0.95
    assert med_late <= med_early


def test_criterion_7_density_scaling():
    per_node = {}
    for n in (100, 400):
        runs = [
            simulate(SimConfig(n_nodes=n, duration=3000.0, seed=700 + rep))
            for rep in range(3)
        ]
        per_node[n] = statistics.mean(r.total_energy / n for r in runs)
    growth = (per_node[400] - per_node[100]) / per_node[100]
    ok = growth <= 0.15
    report(
        "7 density scaling",
        ok,
        f"avg J/node: 100 nodes={per_node[100]:.3f}, 400 nodes={per_node[400]:.3f}, "
        f"growth={growth:+.1%} (<=15%)",
    )
    assert growth <= 0.15


def test_criterion_8_determinism_and_energy_conservation():
    cfg = SimConfig(n_nodes=150, duration=1500.0, seed=88)
    world_a = deploy(cfg)
    rows_a = run(world_a).rows
    rows_b = simulate(SimConfig(n_nodes=150, duration=1500.0, seed=88)).rows
    identical = metrics_to_csv(rows_a) == metrics_to_csv(rows_b)
    worst_rel = 0.0
    for node in world_a.nodes:
        consumed = node.spent_total
        parts = node.spent_state + node.spent_tx + node.spent_rx
        if consumed > 0:
            worst_rel = max(worst_rel, abs(consumed - parts) / consumed)
    ok = identical and worst_rel <= 1e-9
    report(
        "8 determinism / conservation",
        ok,
        f"CSV byte-identical={identical}; worst ledger error={worst_rel:.2e} (<=1e-9)",
    )
    assert identical
    assert worst_rel <= 1e-9


def test_criterion_9_coverage_oracle_equivalence():
    rng = random.Random(909)
    mismatches = 0
    for case in range(50):
        width = rng.choice([30.0, 50.0, 80.0])
        height = rng.choice([30.0, 50.0])
        resolution = rng.choice([1.0, 1.0, 0.5])
        r_sense = rng.uniform(4.0, 15.0)
        k = rng.randint(0, 40)
        pts = [(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(k)]
        grid = CoverageGrid(width, height, resolution)
        fast = coverage_fraction(pts, r_sense, grid)
        slow = brute_force_fraction(pts, r_sense, width, height, resolution)
        if fast != slow:
            mismatches += 1
    ok = mismatches == 0
    report("9 coverage oracle equivalence", ok, f"{50 - mismatches}/50 exact matches")
    assert mismatches == 0
