"""The benchmark's workloads: inputs made from a seed, one timed execution,
and the checks on what the program produced.

Each workload is a set of simulated runs. A run is one operation: it fails if
the execution raised, if one of its output digests differs from the recorded
golden digest (or, for a seed with no golden digest, from the first execution
of the same seed in this process), if its reply counters are not conserved,
or if a node's energy ledger does not reconcile.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import shutil
from contextlib import contextmanager
from pathlib import Path

from sentinelsim import analysis, cli, engine

# The headline scenario of the roadmap, with its seed.
DEFAULT_SEED = 11

# A ledger reconciles when its categories sum to its total within this share:
# the categories and the total accumulate the same amounts in different orders.
LEDGER_TOLERANCE = 1e-9


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@contextmanager
def capture_runs():
    """Record every (world, result) pair that passes through `engine.run`.

    `simulate` and the CLI both reach `run` through the engine's namespace,
    so this wrapper sees each simulated run once and costs one call per run.
    """
    pairs: list = []
    original = engine.run

    def run(world, duration=None):
        result = original(world, duration)
        pairs.append((world, result))
        return result

    engine.run = run
    try:
        yield pairs
    finally:
        engine.run = original


def run_problems(world, result) -> list[str]:
    """Seed-independent checks on one finished run."""
    problems = []
    if not analysis.overhead_report(result).replies_conserved:
        problems.append("reply counters not conserved")
    for node in world.nodes:
        parts = node.spent_state + node.spent_tx + node.spent_rx
        if abs(parts - node.spent_total) > LEDGER_TOLERANCE * max(1.0, node.spent_total):
            problems.append(
                f"node {node.id} ledger: {parts!r} spent in parts, "
                f"{node.spent_total!r} in total"
            )
            break
    return problems


def _summary_digests(result, saving=None) -> dict[str, str]:
    report = analysis.summarize(result)
    if saving is not None:
        report.energy_ratio_vs_baseline = saving
    return {
        "metrics.csv": sha256(analysis.metrics_to_csv(result.rows)),
        "summary.json": sha256(analysis.summary_to_json(report, result.config)),
    }


class PairedDefault:
    """200 nodes, 6000 s: sentinel then PEAS through `simulate`, then
    `compare_runs`. Event-loop bound; the only workload where PEAS runs."""

    name = "paired_default"
    n_runs = n_ops = 2

    def configs(self, seed: int, short: bool) -> list:
        duration = 300.0 if short else 6000.0
        return [
            engine.SimConfig(n_nodes=200, duration=duration, seed=seed, protocol=proto)
            for proto in ("sentinel", "peas")
        ]

    def prepare(self, seed: int, short: bool, workdir: Path):
        return self.configs(seed, short)

    def execute(self, configs):
        sentinel = engine.simulate(configs[0])
        peas = engine.simulate(configs[1])
        return sentinel, peas, analysis.compare_runs(sentinel, peas)

    def op_key(self, inputs, config) -> str:
        return config.protocol

    def digests(self, configs, outcome) -> dict[str, dict[str, str]]:
        sentinel, peas, saving = outcome
        return {
            "sentinel": _summary_digests(sentinel, saving),
            "peas": _summary_digests(peas),
        }


class Dense400:
    """400 nodes, 6000 s, sentinel only, 20 seeded nodes killed at 1/6 and
    4/6 of the run. Radio, delivery and ledger bound; PEAS is idle."""

    name = "dense_400"
    n_runs = n_ops = 1
    n_failures = 20

    def configs(self, seed: int, short: bool) -> list:
        duration = 300.0 if short else 6000.0
        n = 400
        victims = random.Random(seed).sample(range(n), self.n_failures)
        half = self.n_failures // 2
        injections = [(nid, duration / 6.0) for nid in victims[:half]] + [
            (nid, duration * 4.0 / 6.0) for nid in victims[half:]
        ]
        return [
            engine.SimConfig(
                n_nodes=n, duration=duration, seed=seed, failure_injections=injections
            )
        ]

    def prepare(self, seed: int, short: bool, workdir: Path):
        return self.configs(seed, short)

    def execute(self, configs):
        return engine.simulate(configs[0])

    def op_key(self, inputs, config) -> str:
        return config.protocol

    def digests(self, configs, outcome) -> dict[str, dict[str, str]]:
        return {"sentinel": _summary_digests(outcome)}


class SampledSweep:
    """`cli.main` on a paired sweep over 100 and 200 nodes, 4 replications,
    sampled every simulated second on a 0.5 m coverage grid: 16 runs whose
    time goes to the sampler, the coverage grid and the writers.

    The sampler's cost follows the number of active nodes, which depends on
    the deployment; four replications of 250 s, rather than fewer longer
    ones, keep that cost from swinging with the seed."""

    name = "sampled_sweep"
    n_runs = 16
    n_ops = 17  # the runs plus the sweep summary table

    def config_text(self, seed: int, short: bool, output_dir: Path | None = None) -> str:
        lines = [
            f"seed = {seed}",
            f"duration = {50 if short else 250}",
            "protocol = both",
            "replications = 4",
            "metrics_interval = 1",
            "coverage_resolution = 0.5",
        ]
        if output_dir is not None:
            lines.append(f"output_dir = {output_dir}")
        lines += ["[sweep]", "n_nodes = 100, 200"]
        return "\n".join(lines) + "\n"

    def configs(self, seed: int, short: bool) -> list:
        spec = cli.parse_config(self.config_text(seed, short))
        (name, values), = spec.sweep
        return [
            dataclasses.replace(spec.base, protocol=proto, **{name: value})
            for value in values
            for proto in ("sentinel", "peas")
        ]

    def prepare(self, seed: int, short: bool, workdir: Path):
        out = workdir / "out"
        path = workdir / "sweep.cfg"
        path.write_text(self.config_text(seed, short, out))
        return seed, path, out

    def execute(self, inputs):
        seed, path, out = inputs
        code = cli.main(["--config", str(path)])
        if code != 0:
            raise RuntimeError(f"sentinelsim exited with code {code}")
        return out

    def op_key(self, inputs, config) -> str:
        # The CLI's layout: <point>/<protocol>_rep<k>, run with seed base + k.
        rep = config.seed - inputs[0]
        return f"n_nodes_{config.n_nodes}/{config.protocol}_rep{rep}"

    def digests(self, inputs, out) -> dict[str, dict[str, str]]:
        ops: dict[str, dict[str, str]] = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                rel = path.relative_to(out)
                key = str(rel.parent) if rel.parent != Path(".") else rel.name
                ops.setdefault(key, {})[rel.name] = sha256(path.read_bytes())
        shutil.rmtree(out)  # the next execution starts from an empty directory
        return ops


WORKLOADS = {w.name: w for w in (PairedDefault(), Dense400(), SampledSweep())}
