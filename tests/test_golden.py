"""Golden outputs: sha256 digests of the metrics CSV and the summary JSON of a
few fixed runs, so a change meant to keep behaviour proves it kept every byte
(and, through the outputs, every RNG draw). A third digest covers each node's
energy ledger, whose split into state, transmit and receive costs the CSV does
not show; a fourth covers the run logs (activations, conflict ages, false
activations and hole recoveries), which no output file shows in full. A fifth
covers how often the run called `World.push` (by event kind), `World.charge`
and `World.broadcast`, the hooks the benchmark counts; the push count is the
numerator of its events per second.

The digests live in tests/golden/digests.json. When a change alters the
outputs on purpose, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why they moved.
"""

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from sentinelsim import SimConfig, World, deploy, run, summarize
from sentinelsim.analysis import metrics_to_csv, summary_to_json

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

SCENARIOS = {
    "sentinel": dict(n_nodes=200, duration=3000.0, seed=5),
    "peas": dict(n_nodes=200, duration=3000.0, seed=5, protocol="peas"),
    "no_collisions": dict(n_nodes=120, duration=1000.0, seed=6, collisions=False),
    "single_probe_lossy": dict(
        n_nodes=100, duration=1000.0, seed=7, k_probes=1, loss_probability=0.15
    ),
    "failures": dict(
        n_nodes=150,
        duration=2000.0,
        seed=8,
        failure_injections=[(i, 300.0 + 9 * i) for i in range(0, 150, 5)],
    ),
    # one sample a second on a fine grid while guards fail: the sampler sees
    # the active set both hold still and change between samples
    "dense_sampling": dict(
        n_nodes=100,
        duration=200.0,
        seed=9,
        metrics_interval=1.0,
        coverage_resolution=0.5,
        failure_injections=[(i, 40.0 + i) for i in range(0, 100, 7)],
    ),
    # every node runs its budget down: the only gate on the depletion branch
    # of the energy ledger. Most die of state power; one node of the sentinel
    # run dies of a reception, one of the PEAS run of a transmission.
    "depletion": dict(n_nodes=60, duration=3000.0, seed=10, initial_energy=2.0),
    "depletion_peas": dict(
        n_nodes=60,
        duration=3000.0,
        seed=38,
        protocol="peas",
        initial_energy=2.0,
    ),
}


@contextmanager
def counting_hooks(counts):
    """Count calls to World.push (by event kind), World.charge and
    World.broadcast for the length of the block, then restore the class."""
    originals = {name: getattr(World, name) for name in ("push", "charge", "broadcast")}

    def push(self, time, kind, payload=None):
        counts[f"push.{kind.name}"] += 1
        originals["push"](self, time, kind, payload)

    def charge(self, node, now):
        counts["charge"] += 1
        originals["charge"](self, node, now)

    def broadcast(self, sender, msg, start):
        counts["broadcast"] += 1
        return originals["broadcast"](self, sender, msg, start)

    wrappers = {"push": push, "charge": charge, "broadcast": broadcast}
    try:
        for name, wrapper in wrappers.items():
            setattr(World, name, wrapper)
        yield counts
    finally:
        for name, original in originals.items():
            setattr(World, name, original)


def run_scenario(name):
    cfg = SimConfig(**SCENARIOS[name])
    with counting_hooks(Counter()) as counts:
        world = deploy(cfg)
        result = run(world)
    texts = {
        "metrics_csv": metrics_to_csv(result.rows),
        "summary_json": summary_to_json(summarize(result), cfg),
        "ledger": "".join(
            f"{n.spent_state!r},{n.spent_tx!r},{n.spent_rx!r},{n.spent_total!r}\n"
            for n in world.nodes
        ),
        "logs": repr(
            (
                result.activations,
                result.conflict_ages,
                sorted(result.false_activation_ids),
                result.recoveries,
            )
        ),
        "calls": json.dumps(counts, sort_keys=True),
    }
    return result, {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_digests(name):
    recorded = json.loads(DIGESTS.read_text())
    result, digests = run_scenario(name)
    assert digests == recorded[name]
    if name.startswith("depletion"):
        assert result.rows[-1].dead_count == SCENARIOS[name]["n_nodes"]
    if name == "dense_sampling":
        coverage = [row.coverage_fraction for row in result.rows]
        assert len(set(coverage)) > 2


def test_every_scenario_has_a_recorded_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(SCENARIOS)


if __name__ == "__main__":
    table = {name: run_scenario(name)[1] for name in sorted(SCENARIOS)}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
