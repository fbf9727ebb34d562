"""Post-processing over simulation metric logs: coverage, hole recovery,
message overhead, and energy comparisons between paired runs.

Everything here is pure computation over immutable run output; nothing
touches the event engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

#: Marker for a coverage hole never refilled within the run.
UNRECOVERED = math.inf


@dataclass(frozen=True)
class MetricsRecord:
    """One sampled row of the run time series.

    Counters are cumulative. Received counters are scoped to the message's
    destination role: probes_received counts requests landing at guards,
    replies_received counts replies landing at probing nodes.
    """

    time: float
    active_count: int
    sleeping_count: int
    probing_count: int
    dead_count: int
    total_energy_consumed: float  # J, summed over all nodes
    coverage_fraction: float
    probes_sent: int
    probes_received: int
    replies_sent: int
    replies_received: int
    collisions: int
    withdrawals: int


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


@dataclass(frozen=True)
class RecoveryEvent:
    """A killed guard and the eventual re-occupation of its disk."""

    node_id: int
    time: float                       # s, injection time
    position: tuple[float, float]
    recovered_at: float | None = None # s, first activation back inside the disk

    @property
    def latency(self) -> float:
        if self.recovered_at is None:
            return UNRECOVERED
        return self.recovered_at - self.time


@dataclass
class RunResult:
    """Everything a finished simulation hands to the analysis layer."""

    config: object                    # the SimConfig the run used
    rows: list[MetricsRecord]
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    false_activation_ids: set[int] = field(default_factory=set)
    # (sample_time, age in seconds of the oldest live conflicting pair)
    conflict_ages: list[tuple[float, float]] = field(default_factory=list)
    # (time, node_id) for every entry into the Active state
    activations: list[tuple[float, int]] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def total_energy(self) -> float:
        return self.rows[-1].total_energy_consumed if self.rows else 0.0


@dataclass
class SummaryReport:
    """Headline numbers for one run."""

    avg_energy_per_node: float        # J
    energy_ratio_vs_baseline: float | None
    mean_coverage: float
    false_activation_fraction: float
    recovery_latencies: list[float]


class CoverageGrid:
    """Regular grid of cell centers spanning the field, used to approximate
    the area covered by the active set's sensing disks."""

    def __init__(self, width: float, height: float, resolution: float = 1.0):
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if width <= 0 or height <= 0:
            raise ValueError(f"field dimensions must be positive, got {width}x{height}")
        nx = max(1, int(round(width / resolution)))
        ny = max(1, int(round(height / resolution)))
        xs = (np.arange(nx) + 0.5) * resolution
        ys = (np.arange(ny) + 0.5) * resolution
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self.centers_x = gx.ravel()
        self.centers_y = gy.ravel()


def coverage_fraction(
    active_positions: Sequence[tuple[float, float]],
    r_sense: float,
    grid: CoverageGrid,
) -> float:
    """Fraction of grid cell centers within r_sense of at least one active node."""
    if not len(active_positions):
        return 0.0
    ax = np.array([p[0] for p in active_positions])
    ay = np.array([p[1] for p in active_positions])
    d2 = (grid.centers_x[:, None] - ax[None, :]) ** 2 + (
        grid.centers_y[:, None] - ay[None, :]
    ) ** 2
    covered = (d2 <= r_sense * r_sense).any(axis=1)
    return int(np.count_nonzero(covered)) / covered.size


def recovery_latency(
    result: RunResult, failure_time: float, node_id: int | None = None
) -> float:
    """Seconds from a failure injection until the dead guard's disk regained an
    active node, UNRECOVERED if it never did within the run."""
    for ev in result.recoveries:
        if ev.time == failure_time and (node_id is None or ev.node_id == node_id):
            return ev.latency
    raise ValueError(f"no failure injection recorded at t={failure_time}")


@dataclass(frozen=True)
class OverheadReport:
    """Cumulative control-traffic counter pairs over time."""

    times: list[float]
    sent_vs_received_requests: list[tuple[int, int]]
    received_requests_vs_replies: list[tuple[int, int]]
    replies_conserved: bool  # no reply counted as received without being sent


def overhead_report(result: RunResult) -> OverheadReport:
    """Tabulate the probe-traffic gap a dense deployment produces.

    The conservation flag checks that receive counters never move without the
    matching send counter having moved: counters are cumulative, so every
    counted reception must trace back to a transmission.
    """
    rows = result.rows
    times = [row.time for row in rows]
    pairs_a = [(row.probes_sent, row.probes_received) for row in rows]
    pairs_b = [(row.probes_received, row.replies_received) for row in rows]
    conserved = all(
        (row.replies_received == 0 or row.replies_sent > 0)
        and (row.probes_received == 0 or row.probes_sent > 0)
        for row in rows
    ) and all(
        a.replies_received <= b.replies_received and a.probes_received <= b.probes_received
        for a, b in zip(rows, rows[1:])
    )
    return OverheadReport(times, pairs_a, pairs_b, conserved)


def summarize(result: RunResult) -> SummaryReport:
    n = result.n_nodes
    rows = result.rows
    return SummaryReport(
        avg_energy_per_node=result.total_energy / n if n else 0.0,
        energy_ratio_vs_baseline=None,
        mean_coverage=(
            sum(r.coverage_fraction for r in rows) / len(rows) if rows else 0.0
        ),
        false_activation_fraction=len(result.false_activation_ids) / n if n else 0.0,
        recovery_latencies=[ev.latency for ev in result.recoveries],
    )


def compare_runs(sentinel: RunResult, baseline: RunResult) -> float | None:
    """Relative energy saving of the sentinel run over the baseline run:
    (baseline_avg - sentinel_avg) / baseline_avg. Negative means worse; None
    when the baseline consumed no energy, so there is no saving to speak of."""
    a, b = sentinel.config, baseline.config
    compared = (
        "seed", "n_nodes", "field_width", "field_height", "duration",
        "p_sleep", "p_probe_listen", "p_active", "e_tx", "e_rx", "initial_energy",
    )
    for name in compared:
        if getattr(a, name) != getattr(b, name):
            raise ValueError(
                f"runs are not comparable: {name} differs "
                f"({getattr(a, name)} vs {getattr(b, name)})"
            )
    if baseline.n_nodes == 0:
        raise ValueError("runs have no nodes; ratio undefined")
    base = baseline.total_energy / baseline.n_nodes
    sent = sentinel.total_energy / sentinel.n_nodes
    if base == 0.0:
        return None
    return (base - sent) / base


def format_csv_value(value: float | int) -> str:
    """Fixed 6-decimal notation for floats, bare digits for ints."""
    if isinstance(value, int):
        return str(value)
    return f"{value:.6f}"


def metrics_to_csv(rows: Sequence[MetricsRecord]) -> str:
    """Render the metric log as CSV text with a header row and \\n newlines."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(format_csv_value(getattr(row, col)) for col in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(rows: Sequence[MetricsRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(metrics_to_csv(rows))


def summary_to_json(report: SummaryReport, config) -> str:
    """Serialize a summary with the run's key config fields; unrecovered holes
    become null latencies."""
    payload = asdict(report)
    payload["recovery_latencies"] = [
        None if math.isinf(lat) else lat for lat in report.recovery_latencies
    ]
    payload["config"] = {
        "protocol": config.protocol,
        "seed": config.seed,
        "n_nodes": config.n_nodes,
        "duration": config.duration,
        "beta": config.beta,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
