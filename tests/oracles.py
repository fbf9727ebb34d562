"""The brute-force oracles that several test files check against, one record
of a run's outputs, one way to spy on calls, one way to place a test world
and one check of a finished run. Pytest collects nothing here; tests import
it as `oracles`."""

import sys
from contextlib import contextmanager
from dataclasses import fields, replace

import pytest

from sentinelsim.analysis import (
    CSV_COLUMNS,
    MetricsRecord,
    format_csv_value,
    metrics_to_csv,
    overhead_report,
)
from sentinelsim.engine import deploy
from sentinelsim.protocol import NodeState


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


def ks_statistic(samples, cdf) -> float:
    """The Kolmogorov-Smirnov distance of the samples from the distribution `cdf`."""
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        worst = max(worst, abs((i + 1) / n - f), abs(i / n - f))
    return worst


def brute_force_neighbors(world) -> list[int]:
    """The oracle: every pair of nodes, with deploy's float distance test, as
    masks with bit j set for each neighbour j."""
    nodes = world.nodes
    r2 = world.config.r_comm * world.config.r_comm
    adjacency = [0] * len(nodes)
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            dx = a.x - nodes[j].x
            dy = a.y - nodes[j].y
            if dx * dx + dy * dy <= r2:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


def cell_by_cell_csv(rows) -> str:
    """The reference metrics CSV: each cell in its own call, format_csv_value
    for a float-annotated column and str for the rest."""
    formats = [format_csv_value if f.type == "float" else str for f in fields(MetricsRecord)]
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, col)) for fmt, col in zip(formats, CSV_COLUMNS)))
    return "\n".join(lines) + "\n"


def run_texts(world) -> dict[str, str]:
    """A finished run's outputs as exact text: the metrics CSV, each node's
    energy ledger, whose split into state, transmit and receive costs the CSV
    does not show, and the run logs (activations, conflict ages, false
    activations and hole recoveries), which no output file shows in full."""
    result = world.result
    ledger = "".join(
        f"{n.spent_state!r},{n.spent_tx!r},{n.spent_rx!r},{n.spent_total!r}\n" for n in world.nodes
    )
    logs = (result.activations, result.conflict_ages, sorted(result.false_activation_ids),
            result.recoveries)
    return {"metrics_csv": metrics_to_csv(result.rows), "ledger": ledger, "logs": repr(logs)}


@contextmanager
def spying(owner, names, before):
    """Call before(name, *args) ahead of each call to the named attributes of
    `owner`, a class or a module, for the length of the block. Hypothesis
    tests cannot take the `monkeypatch` fixture, so this opens its own."""
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            def spy(*args, name=name, original=getattr(owner, name)):
                before(name, *args)
                return original(*args)
            patch.setattr(owner, name, spy)
        yield


def place(world, node, state):
    """Place a node into a lifecycle state through World.set_state at the
    world's clock, via PROBING when the target is ACTIVE."""
    if state is NodeState.ACTIVE and node.state is not NodeState.PROBING:
        world.set_state(node, NodeState.PROBING, world.clock)
    world.set_state(node, state, world.clock)


def placed(config, positions, *, sleeps=None, guards=(), probers=()):
    """Deploy `config` with one node at each position, every node asleep past
    the run (1e9 s) unless `sleeps` is given, then place the guards (ids) on
    duty in the order given, and then the probers. No other config value is
    set."""
    n = len(positions)
    world = deploy(
        replace(config, n_nodes=n),
        positions=positions,
        initial_sleeps=[1e9] * n if sleeps is None else sleeps,
    )
    for nid in guards:
        place(world, world.nodes[nid], NodeState.ACTIVE)
    for nid in probers:
        place(world, world.nodes[nid], NodeState.PROBING)
    return world


def check_finished(world):
    """Assert what every finished run keeps: the engine's state copies match
    its nodes, each energy ledger adds up within its budget, every sample
    counts every node on a strictly rising clock that ends at the duration,
    replies are conserved, and the last energy total is the exact sum."""
    cfg, nodes, result = world.config, world.nodes, world.result

    def mask(*states):
        return sum(1 << node.id for node in nodes if node.state in states)

    assert world._radio_mask == mask(NodeState.PROBING, NodeState.ACTIVE)
    assert world._guard_mask == mask(NodeState.ACTIVE)
    assert world._dead == sum(node.state is NodeState.DEAD for node in nodes)
    assert world.clock == cfg.duration
    for node in nodes:
        parts = node.spent_state + node.spent_tx + node.spent_rx
        assert abs(parts - node.spent_total) <= max(1e-9 * node.spent_total, 1e-12), node.id
        assert node.spent_total <= cfg.initial_energy, node.id

    rows = result.rows
    for row in rows:
        states = row.active_count + row.sleeping_count + row.probing_count + row.dead_count
        assert states == cfg.n_nodes, row.time
    times = [row.time for row in rows]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == cfg.duration
    assert overhead_report(result).replies_conserved

    # the sampler adds the spends left to right from the int 0, inside its
    # charge loop: sum()'s float arithmetic up to 3.11 (later sum() compensates)
    total = 0
    for node in nodes:
        total += node.spent_total
    assert rows[-1].total_energy_consumed == total
    if sys.version_info < (3, 12):
        assert total == sum(node.spent_total for node in nodes)
