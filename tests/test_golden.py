"""Golden outputs: sha256 digests of the metrics CSV and the summary JSON of a
few fixed runs, so a change meant to keep behaviour proves it kept every byte
(and, through the outputs, every RNG draw). Each run must also pass
`oracles.check_finished`, five of them under `oracles.checked` as well. A
third and a fourth digest cover the energy ledger and the run logs that
`oracles.run_texts` records. A fifth
covers how often the run called `World.push` (by event kind), `World.charge`
and `World.broadcast`, the hooks the benchmark counts; the push count is the
numerator of its events per second. The scenarios live in golden_outputs.py,
which also writes the first two digests with the standard library alone, so
every other installed CPython from 3.10 to 3.13 is held to the same bytes.
One more scenario, `cli_sweep`, is a small paired sweep through the CLI's
`run_experiment`: it digests every file the sweep writes, keyed by its path
under the output directory, so each per-run file, the paired saving in the
sentinel runs' summary.json and sweep_summary.csv are held too.

The digests live in tests/golden/digests.json. When a change alters the
outputs on purpose, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why they moved: it prints each scenario.key whose
digest changed, or that none did.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest

from sentinelsim import SimConfig, World, deploy, run, summarize
from sentinelsim.analysis import summary_to_json
from sentinelsim.cli import parse_config, run_experiment

from golden_outputs import SCENARIOS
from oracles import check_finished, checked, run_texts, spying

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
OUTPUTS_SCRIPT = Path(__file__).parent / "golden_outputs.py"

# Two points, two seeds, both protocols: 16 per-run files and the sweep summary.
CLI_SWEEP = """\
seed = 9
duration = 200
protocol = both
replications = 2
failure_injections = 3@50

[sweep]
n_nodes = 20, 40
"""


# The per-event check costs about 1.1 s over these five scenarios; sentinel (13.9 s checked),
# peas (6.6 s) and failures (3.0 s) run unchecked (2-core x86-64 VM, CPython 3.11.7).
CHECKED = ("no_collisions", "single_probe_lossy", "dense_sampling", "depletion", "depletion_peas")


def run_scenario(name):
    cfg = SimConfig(**SCENARIOS[name])
    counts = Counter()

    def count(hook, world, *args):  # push's args are (time, kind[, payload])
        counts[f"push.{args[1].name}" if hook == "push" else hook] += 1

    with spying(World, ("push", "charge", "broadcast"), count):
        world = deploy(cfg)
        with checked(world) if name in CHECKED else nullcontext():
            result = run(world)
    check_finished(world)
    texts = {
        **run_texts(world),
        "summary_json": summary_to_json(summarize(result), cfg),
        "calls": json.dumps(counts, sort_keys=True),
    }
    return result, {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}


def run_cli_sweep(out: Path) -> dict[str, str]:
    assert run_experiment(parse_config(CLI_SWEEP, {"--output": str(out)})) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


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


def _runs_as(exe: str, minor: int, env: dict | None) -> bool:
    """Whether `exe` starts and reports CPython 3.<minor> in `env`: a pyenv shim
    of a version that pyenv does not select exits non-zero."""
    try:
        probe = subprocess.run([exe, "-I", "-c", "import sys; print(sys.version_info[:2])"],
                               capture_output=True, text=True, timeout=60, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})"


def _python(minor: int) -> tuple[str, dict | None] | None:
    """python3.<minor> on PATH and the environment it runs CPython 3.<minor> in:
    the inherited one, or else, when it is a pyenv shim, the inherited one with
    PYENV_VERSION set to an installed 3.<minor>.x. None when neither runs."""
    exe = shutil.which(f"python3.{minor}")
    if exe is None:
        return None
    if _runs_as(exe, minor, None):
        return exe, None
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    try:
        listed = subprocess.run([pyenv, "versions", "--bare"],
                                capture_output=True, text=True, timeout=60).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return None
    for version in listed:
        env = {**os.environ, "PYENV_VERSION": version}
        if re.fullmatch(rf"3\.{minor}\.\d+", version) and _runs_as(exe, minor, env):
            return exe, env
    return None


@pytest.mark.parametrize("minor", range(10, 14), ids=lambda minor: f"3.{minor}")
def test_other_pythons_write_the_golden_output_bytes(minor):
    # About 0.2 s for each interpreter found: two short scenarios, one of them
    # sampled every second, so the summary's mean coverage adds 201 samples.
    if (3, minor) == sys.version_info[:2]:
        pytest.skip("the running interpreter; test_outputs_match_golden_digests covers it")
    found = _python(minor)
    if found is None:
        pytest.skip(f"no python3.{minor} on PATH runs, with or without PYENV_VERSION")
    exe, env = found
    names = ["dense_sampling", "no_collisions"]
    out = subprocess.run([exe, "-I", "-B", str(OUTPUTS_SCRIPT), *names], env=env,
                         capture_output=True, text=True, timeout=300, check=True).stdout
    recorded = json.loads(DIGESTS.read_text())
    assert json.loads(out) == {
        name: {key: recorded[name][key] for key in ("metrics_csv", "summary_json")}
        for name in names
    }


def test_cli_sweep_writes_the_golden_files(tmp_path):
    # About 0.03 s: eight 200 s runs of 20 or 40 nodes.
    digests = run_cli_sweep(tmp_path)
    assert len(digests) == 17
    assert digests == json.loads(DIGESTS.read_text())["cli_sweep"]


def test_every_scenario_has_a_recorded_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted([*SCENARIOS, "cli_sweep"])


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table = {name: run_scenario(name)[1] for name in sorted(SCENARIOS)}
    with tempfile.TemporaryDirectory() as out:
        table["cli_sweep"] = run_cli_sweep(Path(out))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    keys = {(name, key) for digests in (old, table) for name in digests for key in digests[name]}
    moved = sorted(f"{n}.{k}" for n, k in keys if old.get(n, {}).get(k) != table.get(n, {}).get(k))
    print("changed: " + ", ".join(moved) if moved else "no digest changed")
