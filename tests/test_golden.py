"""Golden outputs: sha256 digests of the metrics CSV and the summary JSON of a
few fixed runs, so a change meant to keep behaviour proves it kept every byte
(and, through the outputs, every RNG draw). Each run must also pass
`oracles.check_finished`. A third and a fourth digest cover
the energy ledger and the run logs that `oracles.run_texts` records. A fifth
covers how often the run called `World.push` (by event kind), `World.charge`
and `World.broadcast`, the hooks the benchmark counts; the push count is the
numerator of its events per second.

The digests live in tests/golden/digests.json. When a change alters the
outputs on purpose, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why they moved: it prints each scenario.key whose
digest changed, or that none did.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from sentinelsim import SimConfig, World, deploy, run, summarize
from sentinelsim.analysis import summary_to_json

from oracles import check_finished, run_texts, spying

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


def run_scenario(name):
    cfg = SimConfig(**SCENARIOS[name])
    counts = Counter()

    def count(hook, world, *args):  # push's args are (time, kind[, payload])
        counts[f"push.{args[1].name}" if hook == "push" else hook] += 1

    with spying(World, ("push", "charge", "broadcast"), count):
        world = deploy(cfg)
        result = run(world)
    check_finished(world)
    texts = {
        **run_texts(world),
        "summary_json": summary_to_json(summarize(result), cfg),
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
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table = {name: run_scenario(name)[1] for name in sorted(SCENARIOS)}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    keys = {(name, key) for digests in (old, table) for name in digests for key in digests[name]}
    moved = sorted(f"{n}.{k}" for n, k in keys if old.get(n, {}).get(k) != table.get(n, {}).get(k))
    print("changed: " + ", ".join(moved) if moved else "no digest changed")
