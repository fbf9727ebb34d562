"""The names benchmark/ binds to in the package stay in place.

The benchmark wraps these functions by name to time each layer, and its run
capture calls `engine.run` with a positional duration and checks each
captured world and result. Removing or renaming one of them fails every
benchmark operation, so it is checked here.
"""

from pathlib import Path

import pytest

from sentinelsim import analysis, engine
from sentinelsim.analysis import CoverageGrid, RunResult
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


@pytest.mark.parametrize(
    "width,height,resolution,cells",
    [(50.0, 50.0, 1.0, 2500), (50.0, 50.0, 0.5, 10000), (37.3, 61.9, 0.7, 53 * 88),
     (80.0, 30.0, 1.0, 2400)],
)
def test_cell_tests_count_every_cell_per_guard(tracer, width, height, resolution, cells):
    # the tracer reads `grid.centers_x.size` as the grid's cell count
    grid = CoverageGrid(width, height, resolution)
    assert grid.centers_x.size == grid.centers_y.size == cells
    t = tracer.Tracer()
    with t.installed():
        analysis.coverage_fraction([(1.0, 2.0), (30.0, 20.0), (1.0, 2.0)], 8.0, grid)
    assert t.layer_metrics()["analysis.coverage.cell_tests"] == 3 * cells
