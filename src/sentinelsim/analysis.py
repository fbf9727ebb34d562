"""A run's records and their post-processing: coverage, hole recovery,
message overhead, and energy comparisons between paired runs.

During a run the engine's sampler measures coverage on a `CoverageGrid`,
appends a `MetricsRecord` per sample, and fills the world's `RunResult` in
place. The functions that read a finished run only compute; none changes it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Sequence

#: Marker for a coverage hole never refilled within the run.
UNRECOVERED = math.inf


@dataclass(frozen=True, slots=True)
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


class _AxisCentres(tuple):
    """Cell centres along one axis of a `CoverageGrid`.

    `size` is the cell count of the whole grid, the length the raveled
    per-cell centre arrays had: `benchmark/tracer.py` counts cell tests as
    `grid.centers_x.size` per guard.
    """

    size: int


class CoverageGrid:
    """Regular grid of cell centers spanning the field, used to approximate
    the area covered by the active set's sensing disks.

    Each sensing disk becomes a Python-int mask over the cells, built the
    first time its (x, y, r) is seen and cached on the grid: bit i * ny + j
    stands for the cell centred at (centers_x[i], centers_y[j]).
    """

    def __init__(self, width: float, height: float, resolution: float = 1.0):
        if not 0 < resolution < math.inf:
            raise ValueError(f"resolution must be positive and finite, got {resolution}")
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise ValueError(
                f"field dimensions must be positive and finite, got {width}x{height}"
            )
        self.nx = nx = max(1, int(round(width / resolution)))
        self.ny = ny = max(1, int(round(height / resolution)))
        self.centers_x = _AxisCentres((i + 0.5) * resolution for i in range(nx))
        self.centers_y = _AxisCentres((j + 0.5) * resolution for j in range(ny))
        self.centers_x.size = self.centers_y.size = nx * ny
        self._masks: dict[tuple[float, float, float], int] = {}

    def disk_mask(self, x: float, y: float, r: float) -> int:
        """Cells whose centre lies within r of (x, y), as a bitmask."""
        key = (x, y, r)
        mask = self._masks.get(key)
        if mask is None:
            for name, value in (("x", x), ("y", y), ("r", r)):
                if not math.isfinite(value):
                    raise ValueError(f"disk {name} must be finite, got {value}")
            if r < 0:
                raise ValueError(f"disk r must be >= 0, got {r}")
            mask = self._masks[key] = self._build_mask(x, y, r)
        return mask

    def _build_mask(self, x: float, y: float, r: float) -> int:
        # A cell is covered when (cx - x)**2 + (cy - y)**2 <= r * r in float64.
        # Within a column, the centres at or below y get no farther from (x, y)
        # as j grows, and those above get no nearer, also after rounding; so
        # the covered cells form one run. Its rows lie between y - r and y + r
        # up to their rounding, which one spare row on each side absorbs; in
        # each column, exact cell tests move the run's ends in from there.
        ys, r2 = self.centers_y, r * r
        first = max(bisect_left(ys, y - r) - 1, 0)
        stop = bisect_right(ys, y + r) + 1
        dy2 = [(cy - y) * (cy - y) for cy in ys[first:stop]]  # one per row of the window
        mask = 0
        for i, cx in enumerate(self.centers_x):
            dx = cx - x
            dx2 = dx * dx
            if not dx2 <= r2:
                continue
            lo, hi = 0, len(dy2) - 1
            while lo <= hi and not dx2 + dy2[lo] <= r2:
                lo += 1
            while hi > lo and not dx2 + dy2[hi] <= r2:
                hi -= 1
            if lo <= hi:
                mask |= ((1 << (hi - lo + 1)) - 1) << (i * self.ny + first + lo)
        return mask


def coverage_fraction(
    active_positions: Sequence[tuple[float, float]],
    r_sense: float,
    grid: CoverageGrid,
) -> float:
    """Fraction of grid cell centers within r_sense of at least one active node."""
    covered = 0
    for x, y in active_positions:
        covered |= grid.disk_mask(x, y, r_sense)
    return covered.bit_count() / (grid.nx * grid.ny)


def recovery_latency(
    result: RunResult, failure_time: float, node_id: int | None = None
) -> float:
    """Seconds from a failure injection until the dead guard's disk regained an
    active node, UNRECOVERED if it never did within the run."""
    found = [ev for ev in result.recoveries
             if ev.time == failure_time and node_id in (None, ev.node_id)]
    if len(found) != 1:  # none, or several that share the time: pass node_id
        ids = [ev.node_id for ev in found]
        raise ValueError(f"expected one failure injection at t={failure_time}, got nodes {ids}")
    return found[0].latency


@dataclass(frozen=True)
class OverheadReport:
    """Whether a run's cumulative control-traffic counters add up."""

    replies_conserved: bool  # no reply counted as received without being sent


def overhead_report(result: RunResult) -> OverheadReport:
    """Check the probe traffic a run counted.

    The conservation flag checks that receive counters never move without the
    matching send counter having moved: counters are cumulative, so every
    counted reception must trace back to a transmission.
    """
    rows = result.rows
    conserved = all(
        (row.replies_received == 0 or row.replies_sent > 0)
        and (row.probes_received == 0 or row.probes_sent > 0)
        for row in rows
    ) and all(
        a.replies_received <= b.replies_received and a.probes_received <= b.probes_received
        for a, b in zip(rows, rows[1:])
    )
    return OverheadReport(conserved)


def summarize(result: RunResult) -> SummaryReport:
    n = result.n_nodes
    rows = result.rows
    # added left to right from the int 0, as the sampler adds; sum() compensates since 3.12
    coverage = 0
    for row in rows:
        coverage += row.coverage_fraction
    return SummaryReport(
        avg_energy_per_node=result.total_energy / n if n else 0.0,
        energy_ratio_vs_baseline=None,
        mean_coverage=coverage / len(rows) if rows else 0.0,
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


def format_csv_value(value: float) -> str:
    """A float cell's CSV text: fixed 6-decimal notation, for an int value too."""
    return f"{value:.6f}"


# Each column's format is its MetricsRecord annotation's, not its value's type:
# a library caller may pass an int time, and a run without nodes sums to the int 0.
# "%.6f" renders a value as format_csv_value does.
_CSV_ROW = ",".join("%.6f" if f.type == "float" else "%s" for f in fields(MetricsRecord))
_csv_cells = attrgetter(*CSV_COLUMNS)


def metrics_to_csv(rows: Sequence[MetricsRecord]) -> str:
    """Render the metric log as CSV text with a header row and \\n newlines."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [_CSV_ROW % _csv_cells(row) for row in rows]
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
