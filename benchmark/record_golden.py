"""Record the golden output digests of every workload.

    python3 benchmark/record_golden.py [--workload NAME] [seed ...]

Without seeds it records the default seed; without --workload, every workload.

Runs each workload once per seed at full size, applies the seed-independent
checks, and merges the digests into benchmark/golden.json. Record again only
for a change that is meant to alter simulated results, and say so.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=list(run.workloads.WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="*")
    args = parser.parse_args(argv)
    seeds = args.seeds or [run.workloads.DEFAULT_SEED]
    names = [args.workload] if args.workload else list(run.workloads.WORKLOADS)
    golden = run.load_golden()
    run.RESULTS_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = run.workloads.WORKLOADS[name]
        for seed in seeds:
            checker = run.Checker(workload, None)
            with tempfile.TemporaryDirectory(prefix="work-", dir=run.RESULTS_DIR) as workdir:
                inputs = workload.prepare(seed, False, Path(workdir))
                run.execute_checked(workload, inputs, checker)
            if checker.failed:
                print(f"{name} seed {seed}: {checker.problems}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = checker.reference
            print(f"{name} seed {seed}: recorded {len(checker.reference)} operations")
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
