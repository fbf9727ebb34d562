"""The golden scenarios, and the digests of the metrics CSV and the summary
JSON that each writes, computed with the standard library alone, so that any
installed CPython can check them against tests/golden/digests.json:

    python tests/golden_outputs.py no_collisions dense_sampling

prints {scenario: {"metrics_csv": digest, "summary_json": digest}} as JSON,
built from the `src/` tree next to this file. Pytest collects nothing here;
test_golden.py imports its scenarios.
"""

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sentinelsim import SimConfig, simulate, summarize  # noqa: E402
from sentinelsim.analysis import metrics_to_csv, summary_to_json  # noqa: E402

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


def output_digests(name: str) -> dict[str, str]:
    cfg = SimConfig(**SCENARIOS[name])
    result = simulate(cfg)
    texts = {
        "metrics_csv": metrics_to_csv(result.rows),
        "summary_json": summary_to_json(summarize(result), cfg),
    }
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}


if __name__ == "__main__":
    print(json.dumps({name: output_digests(name) for name in sys.argv[1:]}, sort_keys=True))
