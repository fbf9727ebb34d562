"""Discrete-event simulator for sentinel duty-cycle scheduling in dense
wireless sensor networks, with a PEAS baseline for energy comparisons."""

from .analysis import (
    CoverageGrid,
    MetricsRecord,
    OverheadReport,
    RecoveryEvent,
    RunResult,
    SummaryReport,
    UNRECOVERED,
    compare_runs,
    coverage_fraction,
    overhead_report,
    recovery_latency,
    summarize,
    write_metrics_csv,
)
from .engine import (
    EventKind,
    SimConfig,
    SimError,
    World,
    deploy,
    inject_failure,
    run,
    simulate,
)
from .peas import matched_rate, peas_sample_sleep
from .protocol import (
    NodeState,
    ProbeReply,
    ProbeRequest,
    ProtocolError,
    SensorNode,
    scan_check,
)
from .scheduling import (
    WeibullParams,
    hazard_rate,
    sample_sleep_time,
    update_probe_rate,
    weibull_cdf,
    weibull_survival,
)

__version__ = "0.1.0"
