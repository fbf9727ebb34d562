"""Smoke tests of the benchmark on shortened workloads.

    python3 -m pytest benchmark/test_smoke.py -q
"""

import concurrent.futures
import json
import multiprocessing.pool
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def short(name, trace, **kwargs):
    return run.measure(name, SEED, 0, trace, short=True, setup_samples=1, **kwargs)


def os_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    raise AssertionError("no thread count in /proc/self/status")


def test_spec_names_the_runner_workloads():
    assert WORKLOADS == list(run.workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = short(name, trace)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert run.unit(m["name"], trace) == m["unit"], m["name"]
        if not trace:
            assert record["metrics"][m["name"]] > 0, m["name"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, second = short(name, True), short(name, True)
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["engine.push.calls"] > 0


def test_tampered_digest_is_a_failed_operation(tmp_path):
    name = "paired_default"
    workload = run.workloads.WORKLOADS[name]
    checker = run.Checker(workload, None)
    inputs = workload.prepare(SEED, True, tmp_path)
    assert run.execute_checked(workload, inputs, checker) is not None
    tampered = json.loads(json.dumps(checker.reference))
    tampered["peas"]["metrics.csv"] = "0" * 64
    record = short(name, False, golden=tampered)
    assert not record["correct"]
    assert 1 <= record["failed"] < record["attempted"]
    assert any(p.startswith("peas:") for p in record["problems"])


def test_runner_starts_no_threads_or_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the benchmark must not start threads or pools")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", refuse)
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", refuse)
    before = os_threads()
    for trace in (False, True):
        assert short("sampled_sweep", trace)["correct"]
    assert os_threads() == before
    assert threading.active_count() == 1


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
