"""Golden outputs: sha256 digests of the metrics CSV and the summary JSON of a
few fixed runs, so a change meant to keep behaviour proves it kept every byte
(and, through the outputs, every RNG draw). Each run must also pass
`oracles.check_finished`. A third and a fourth digest cover
the energy ledger and the run logs that `oracles.run_texts` records. A fifth
covers how often the run called `World.push` (by event kind), `World.charge`
and `World.broadcast`, the hooks the benchmark counts; the push count is the
numerator of its events per second. The scenarios live in golden_outputs.py,
which also writes the first two digests with the standard library alone, so
every other installed CPython from 3.10 to 3.13 is held to the same bytes.

The digests live in tests/golden/digests.json. When a change alters the
outputs on purpose, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why they moved: it prints each scenario.key whose
digest changed, or that none did.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sentinelsim import SimConfig, World, deploy, run, summarize
from sentinelsim.analysis import summary_to_json

from golden_outputs import SCENARIOS
from oracles import check_finished, run_texts, spying

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
OUTPUTS_SCRIPT = Path(__file__).parent / "golden_outputs.py"


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


def _runs_as(exe: str, minor: int) -> bool:
    """Whether `exe` starts and reports CPython 3.<minor>: a pyenv shim of a
    version that is not installed exits non-zero."""
    try:
        probe = subprocess.run([exe, "-I", "-c", "import sys; print(sys.version_info[:2])"],
                               capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})"


@pytest.mark.parametrize("minor", range(10, 14), ids=lambda minor: f"3.{minor}")
def test_other_pythons_write_the_golden_output_bytes(minor):
    # About 0.2 s for each interpreter found: two short scenarios, one of them
    # sampled every second, so the summary's mean coverage adds 201 samples.
    if (3, minor) == sys.version_info[:2]:
        pytest.skip("the running interpreter; test_outputs_match_golden_digests covers it")
    exe = shutil.which(f"python3.{minor}")
    if exe is None or not _runs_as(exe, minor):
        pytest.skip(f"no python3.{minor} on PATH runs")
    names = ["dense_sampling", "no_collisions"]
    out = subprocess.run([exe, "-I", "-B", str(OUTPUTS_SCRIPT), *names],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    recorded = json.loads(DIGESTS.read_text())
    assert json.loads(out) == {
        name: {key: recorded[name][key] for key in ("metrics_csv", "summary_json")}
        for name in names
    }


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
