#!/usr/bin/env python3
"""sentinelsim benchmark: host time of named workloads, with a traced split.

    python3 benchmark/run.py --workload paired_default --seed 11 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the workload runs once untimed (warm-up, and the count of
`World.push` calls), then as many timed executions as fit in `--seconds`, and
the end-to-end metrics are medians over those, timed against the machine-speed
calibration of `calibrate.py`. Set-up time is the median over fresh processes.
With `--trace 1` the workload runs once plain and once with
the wrappers of `tracer.py` installed, and the per-layer metrics come from
the traced execution.

Every execution's outputs are checked (see `workloads.py`). Human-readable
lines come first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A result file stamped with
the commit, versions, `nproc` and seed goes to `benchmark/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Before numpy loads: its BLAS pool would otherwise start threads in this
# process, and the benchmark runs everything on one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "wall_cal_s": "s",
    "events_per_cal_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and kept in the result file, but not end-to-end metrics: on a
# shared box they spread too far between runs to bound a regression.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "events_per_s": "1/s", "setup_s": "s"}


def load_program():
    """Import sentinelsim from this checkout's `src/`, never from elsewhere."""
    package = SRC / "sentinelsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sentinelsim sources in {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sentinelsim

    if Path(sentinelsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: sentinelsim was imported from {sentinelsim.__file__}")
    return sentinelsim


load_program()
import calibrate  # noqa: E402
import tracer  # noqa: E402 - these import sentinelsim, so they follow load_program
import workloads  # noqa: E402


def git_commit() -> str | None:
    """The checked-out commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def stamp(seed: int) -> dict:
    import numpy
    import sentinelsim

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sentinelsim": sentinelsim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def probe_setup(name: str, seed: int, short: bool) -> dict:
    """Set-up time of one fresh process: import, config, deploy."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(int(short))],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class Checker:
    """Counts operations and failures over every execution of one workload."""

    def __init__(self, workload, golden: dict | None):
        self.workload = workload
        self.reference = golden  # op key -> {file name: sha256}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def error(self, exc: BaseException) -> None:
        self.attempted += self.workload.n_ops
        self.failed += self.workload.n_ops
        self.problems.append(f"execution raised {type(exc).__name__}: {exc}")

    def check(self, inputs, outcome, pairs) -> None:
        w = self.workload
        self.attempted += w.n_ops
        digests = w.digests(inputs, outcome)
        if self.reference is None:
            self.reference = digests  # later executions of this seed must agree
        bad: set[str] = set()
        for key in sorted(self.reference.keys() | digests.keys()):
            if digests.get(key) != self.reference.get(key):
                bad.add(key)
                self.problems.append(f"{key}: digests {digests.get(key)} "
                                     f"!= {self.reference.get(key)}")
        if len(pairs) != w.n_runs:
            bad.update(self.reference)
            self.problems.append(f"observed {len(pairs)} runs, expected {w.n_runs}")
        for world, result in pairs:
            for problem in workloads.run_problems(world, result):
                bad.add(w.op_key(inputs, world.config))
                self.problems.append(f"{w.op_key(inputs, world.config)}: {problem}")
        self.failed += min(len(bad), w.n_ops)


def execute_checked(workload, inputs, checker, around=None):
    """One execution inside the context `around`, then checked outside it;
    returns (wall s, cpu s), or None if the execution raised."""
    with workloads.capture_runs() as pairs:
        try:
            with around or contextlib.nullcontext():
                wall0, cpu0 = time.perf_counter(), time.process_time()
                outcome = workload.execute(inputs)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        except Exception as exc:  # the program failed: a failed operation
            checker.error(exc)
            return None
    checker.check(inputs, outcome, pairs)
    return wall, cpu


@contextlib.contextmanager
def counting_pushes(count: list[int]):
    """Count `World.push` calls into count[0] with a bare wrapper."""
    World = workloads.engine.World
    original = World.push

    def push(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    World.push = push
    try:
        yield
    finally:
        World.push = original


@contextlib.contextmanager
def traced(t: tracer.Tracer):
    with t.installed(), t.span("bench.execution"):
        yield


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            short: bool = False, golden: dict | None = None,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return its result record; `metrics` is None when
    no execution finished."""
    workload = workloads.WORKLOADS[name]
    if golden is None and not short:  # digests are recorded at full size only
        golden = load_golden().get(name, {}).get(str(seed))
    checker = Checker(workload, golden)
    record = {"workload": name, "trace": trace, "seconds": seconds, "short": short,
              **stamp(seed), "golden": golden is not None}
    RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=RESULTS_DIR) as workdir:
        inputs = workload.prepare(seed, short, Path(workdir))
        if trace:
            metrics = _measure_traced(workload, inputs, checker, record)
        else:
            setup = [probe_setup(name, seed, short) for _ in range(setup_samples)]
            record["setup_samples"] = setup
            metrics = _measure_timed(workload, inputs, checker, seconds, record)
            if metrics is not None:
                record["raw"]["setup_s"] = statistics.median(p["setup_s"] for p in setup)
                metrics["setup_s"] = statistics.median(p["setup_cal_s"] for p in setup)
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
    record.update(attempted=checker.attempted, failed=checker.failed,
                  ops_failed_ratio=checker.failed / max(1, checker.attempted),
                  correct=checker.failed == 0, problems=checker.problems,
                  metrics=metrics)
    return record


def _measure_timed(workload, inputs, checker, seconds, record):
    count = [0]
    if execute_checked(workload, inputs, checker, counting_pushes(count)) is None:
        return None
    events = count[0]
    walls, cpus, cals = [], [], []
    start = time.perf_counter()
    while True:
        probe = calibrate.SpeedProbe()
        sample = execute_checked(workload, inputs, checker, probe)
        if sample is None:
            break
        walls.append(probe.wall_s)
        cpus.append(sample[1] - probe.probe_s)
        cals.append(probe.calibrated_s)
        # Start another execution only if it should end inside the window.
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    record.update(events=events, wall_samples=walls, cpu_samples=cpus,
                  wall_cal_samples=cals)
    if not walls:
        return None
    record["raw"] = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "events_per_s": statistics.median(events / w for w in walls),
    }
    return {
        "wall_cal_s": statistics.median(cals),
        "events_per_cal_s": statistics.median(events / c for c in cals),
    }


def _measure_traced(workload, inputs, checker, record):
    plain = execute_checked(workload, inputs, checker)
    if plain is None:
        return None
    t = tracer.Tracer()
    traced_run = execute_checked(workload, inputs, checker, traced(t))
    if traced_run is None:
        return None
    metrics = t.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_run[0] / plain[0]
    record.update(
        plain_wall_s=plain[0],
        traced_wall_s=traced_run[0],
        span_stats={k: {"calls": c, "self_s": ns / 1e9} for k, (c, ns) in t.stats.items()},
        spans=t.spans,
    )
    return metrics


def unit(name: str, trace: bool) -> str:
    return tracer.unit(name) if trace else END_TO_END_UNITS[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    record = measure(args.workload, seed, args.seconds, bool(args.trace))
    path = RESULTS_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {seed}: {record['failed']} of {record['attempted']} "
          f"operations failed, ops_failed_ratio = {record['ops_failed_ratio']:g}")
    metrics = record["metrics"]
    if metrics is None:
        print("error: no execution finished", file=sys.stderr)
        return 1
    trace = bool(args.trace)
    for key, value in record.get("raw", {}).items():
        print(f"{args.workload}: {key} = {value:.6g} {RAW_UNITS[key]} (uncalibrated)")
    for key, value in metrics.items():
        print(f"{args.workload}: {key} = {value:.6g} {unit(key, trace)}")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit(k, trace)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
