"""The brute-force oracles that several test files check against, one record
of a run's outputs, and one way to spy on calls. Pytest collects nothing here;
tests import it as `oracles`."""

from contextlib import contextmanager
from dataclasses import fields

import pytest

from sentinelsim.analysis import CSV_COLUMNS, MetricsRecord, format_csv_value, metrics_to_csv


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
