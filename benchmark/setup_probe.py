"""Set-up time of sentinelsim in a fresh process.

    python3 benchmark/setup_probe.py <workload> <seed> <short 0|1>

Times importing sentinelsim, building (or, for the CLI workload, parsing) the
workload's configs and deploying each of them, which builds the O(n^2)
neighbour sets. The calibration task runs just before and after, and the
set-up time is also given rescaled by it (see calibrate.py). Prints one JSON
object. run.py calls this several times per run and reports the median
calibrated time as `setup_s`.
"""

# Modules the benchmark itself needs load before the clock starts, so the
# set-up time holds only the program's own set-up.
import hashlib, json, pathlib, shutil, sys, time  # noqa: E401,F401

import calibrate

BEFORE = [calibrate.time_task() for _ in range(25)][5:]  # the first calls warm up
BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

START = time.perf_counter()

import sentinelsim  # noqa: E402,F401

IMPORTED = time.perf_counter()

from sentinelsim import engine  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, short = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    configs = workloads.WORKLOADS[name].configs(seed, short)
    built = time.perf_counter()
    for config in configs:
        engine.deploy(config)
    done = time.perf_counter()
    after = [calibrate.time_task() for _ in range(20)]
    print(json.dumps({
        "setup_cal_s": calibrate.calibrated(done - START, BEFORE + after),
        "setup_s": done - START,
        "import_s": IMPORTED - START,
        "config_s": built - IMPORTED,
        "deploy_s": done - built,
    }))


if __name__ == "__main__":
    main()
