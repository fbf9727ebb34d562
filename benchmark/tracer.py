"""Traced runs: wrappers around sentinelsim's public entry points.

Each wrapper records a span: its calls and self time (its duration minus the
part its wrapped callees cover) are summed per span name, and the coarse
spans (deploy, run, writers, CLI) are also kept whole with their parent.
Everything stays in memory until the runner writes its result file.

Only public calls are wrapped; wrapping the private helpers as well doubles
the run time. Three bindings need care, which is why `install` must run
before `deploy`:

- `World` copies the policy reply handlers when it is built;
- `engine` binds `coverage_fraction` at import;
- `protocol` binds the `scheduling` functions at import.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from sentinelsim import analysis, cli, engine, peas, protocol

EVENT_KINDS = ("WAKE", "REPLY_TIMEOUT", "MESSAGE_DELIVERY", "METRICS_SAMPLE",
               "FAILURE_INJECTION", "END_OF_RUN")

PROTOCOL_HANDLERS = ("on_wake", "on_probe_request", "on_probe_reply",
                     "on_reply_timeout", "on_withdrawal_check")

# Spans kept whole, not only summed: few per run.
COARSE = {"bench.execution", "engine.deploy", "engine.run", "analysis.write",
          "cli.main", "cli.parse", "cli.run_experiment"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # span name -> [calls, self ns]
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.results: list = []  # RunResults seen leaving engine.run
        self._stack: list[int] = []  # child ns of each open span
        self._open: list[int] = []  # indices of open coarse spans

    # -- observers: counts taken from a wrapped call's arguments or result --

    def _on_push(self, args, kwargs, result):
        kind = args[2] if len(args) > 2 else kwargs["kind"]
        self.counts[f"engine.events.{kind.name}"] += 1

    def _on_coverage(self, args, kwargs, result):
        positions, grid = args[0], args[2] if len(args) > 2 else kwargs["grid"]
        self.counts["analysis.coverage.cell_tests"] += len(positions) * grid.centers_x.size

    def _on_text(self, args, kwargs, result):
        self.counts["analysis.write.bytes"] += len(result.encode())

    def _on_run(self, args, kwargs, result):
        self.results.append(result)

    def _targets(self):
        world = engine.World
        targets = [
            (world, "push", "engine.push", self._on_push),
            (world, "charge", "engine.charge", None),
            (world, "broadcast", "engine.broadcast", None),
            (engine, "deploy", "engine.deploy", None),
            (engine, "run", "engine.run", self._on_run),
            (engine, "coverage_fraction", "analysis.coverage", self._on_coverage),
            (analysis, "coverage_fraction", "analysis.coverage", self._on_coverage),
            (analysis, "metrics_to_csv", "analysis.write", self._on_text),
            (analysis, "summary_to_json", "analysis.write", self._on_text),
            (analysis, "write_metrics_csv", "analysis.write", None),
            (cli, "summary_to_json", "analysis.write", self._on_text),
            (cli, "write_metrics_csv", "analysis.write", None),
            (protocol, "sample_sleep_time", "scheduling.sample_sleep_time", None),
            (protocol, "update_probe_rate", "scheduling.update_probe_rate", None),
            (peas, "on_probe_reply", "peas.on_probe_reply", None),
            (peas, "on_withdrawal_check", "peas.on_withdrawal_check", None),
            (cli, "load_config", "cli.parse", None),
            (cli, "parse_config", "cli.parse", None),
            (cli, "run_experiment", "cli.run_experiment", None),
            (cli, "main", "cli.main", None),
        ]
        targets += [(protocol, h, f"protocol.{h}", None) for h in PROTOCOL_HANDLERS]
        return targets

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> int | None:
        self._stack.append(0)
        if name not in COARSE:
            return None
        index = len(self.spans)
        self.spans.append({"name": name, "parent": self._open[-1] if self._open else None,
                           "start_ns": time.perf_counter_ns(), "end_ns": None})
        self._open.append(index)
        return index

    def _exit(self, stat: list[int], elapsed: int, index: int | None) -> None:
        child = self._stack.pop()
        stat[0] += 1
        stat[1] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed
        if index is not None:
            self.spans[index]["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, name: str, observe=None):
        stat = self.stats.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stat, clock() - start, index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        stat = self.stats.setdefault(name, [0, 0])
        index = self._enter(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(stat, time.perf_counter_ns() - start, index)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, observe in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- per-layer metrics ------------------------------------------------------

    def _sum(self, prefix: str) -> tuple[int, float]:
        calls = self_ns = 0
        for name, (c, s) in self.stats.items():
            if name == prefix or name.startswith(prefix + "."):
                calls += c
                self_ns += s
        return calls, self_ns / 1e9

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, plus radio totals over every run."""
        m: dict[str, float] = {}
        for kind in EVENT_KINDS:
            m[f"engine.events.{kind}"] = self.counts[f"engine.events.{kind}"]
        for layer in ("engine.push", "engine.broadcast", "engine.charge",
                      "analysis.coverage", "analysis.write", "scheduling", "peas"):
            m[f"{layer}.calls"], m[f"{layer}.self_s"] = self._sum(layer)
        for layer in ("engine.run", "engine.deploy", "cli.parse", "cli.run_experiment"):
            m[f"{layer}.self_s"] = self._sum(layer)[1]
        for handler in PROTOCOL_HANDLERS:
            m[f"protocol.{handler}.calls"] = self._sum(f"protocol.{handler}")[0]
        m["protocol.self_s"] = self._sum("protocol")[1]
        timeouts = m["engine.events.REPLY_TIMEOUT"]
        m["engine.timeouts_stale_ratio"] = (
            1.0 - m["protocol.on_reply_timeout.calls"] / timeouts if timeouts else 0.0
        )
        m["analysis.coverage.cell_tests"] = self.counts["analysis.coverage.cell_tests"]
        m["analysis.write.bytes"] = self.counts["analysis.write.bytes"]
        finals = [r.rows[-1] for r in self.results if r.rows]
        replies_sent = sum(row.replies_sent for row in finals)
        m["engine.radio.frames_sent"] = sum(row.probes_sent for row in finals) + replies_sent
        m["engine.radio.collisions"] = sum(row.collisions for row in finals)
        m["engine.radio.reply_yield"] = (
            sum(row.replies_received for row in finals) / replies_sent if replies_sent else 0.0
        )
        return m
