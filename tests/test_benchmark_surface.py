"""The names benchmark/ binds to in the package stay in place.

The benchmark wraps these functions by name to time each layer, and its run
capture calls `engine.run` with a positional duration and checks each
captured world and result. Removing or renaming one of them fails every
benchmark operation, so it is checked here.
"""

from pathlib import Path

import pytest

from sentinelsim import engine
from sentinelsim.analysis import RunResult
from sentinelsim.engine import SimConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    return tracer


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    return workloads


def test_every_traced_name_resolves_to_a_callable(tracer):
    targets = tracer.Tracer()._targets()
    assert targets
    for owner, attr, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_run_reaches_the_wrapped_handlers(tracer):
    t = tracer.Tracer()
    with t.installed():
        engine.simulate(SimConfig(n_nodes=10, duration=30.0, seed=2))
    assert t.stats["engine.push"][0] > 0
    assert t.stats["protocol.on_wake"][0] > 0
    assert t.stats["analysis.coverage"][0] > 0


def test_run_accepts_a_positional_none_duration():
    result = engine.run(engine.deploy(SimConfig(n_nodes=3, duration=5.0)), None)
    assert isinstance(result, RunResult)
    assert result.rows[-1].time == 5.0


def test_captured_run_passes_the_benchmark_checks(workloads):
    with workloads.capture_runs() as pairs:
        engine.simulate(SimConfig(n_nodes=10, duration=30.0, seed=2))
    assert len(pairs) == 1
    world, result = pairs[0]
    assert workloads.run_problems(world, result) == []
