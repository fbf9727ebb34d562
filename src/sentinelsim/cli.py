"""Experiment runner: parses line-oriented config files, executes single runs
and parameter sweeps (optionally paired sentinel/PEAS), and writes metric CSVs
plus JSON summaries under an output directory.

Config format (all keys optional; defaults are the standard 50 m x 50 m,
200-node, 6000 s scenario):

    # top level: SimConfig fields, each key on one line only
    n_nodes = 300
    beta = 1.5
    protocol = both            # sentinel | peas | both (paired, same seed)
    replications = 5
    output_dir = results
    failure_injections = 12@1000, 40@4000

    [energy]                   # a heading for the SimConfig energy fields
    p_active = 0.015
    initial_energy = 500

    [sweep]                    # one key: list of values, one run set per value
    n_nodes = 100, 200, 300, 400

Every sweep point is validated before the first run. Any scalar SimConfig
field can be swept, the energy fields included; seed and protocol cannot:
use replications and protocol = both, which sets ExperimentSpec.paired;
protocol = sentinel | peas sets base.protocol. Each command-line flag in
FLAGS is parsed like its top-level line and overrides the file's value, but
may not set a field the [sweep] varies.

Exit codes: 0 success, 1 config or flag value error, 2 runtime/IO or usage error.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analysis import (
    compare_runs,
    format_csv_value,
    summarize,
    summary_to_json,
    write_metrics_csv,
)
from .engine import FIELD_TYPES, PROTOCOLS, SimConfig, _fits, simulate

PROTOCOL_CHOICES = (*PROTOCOLS, "both")

FLAGS = {  # each command-line flag: (the top-level config key it sets, its help)
    "--protocol": ("protocol", f"override protocol: {' | '.join(PROTOCOL_CHOICES)}"),
    "--seed": ("seed", "override base RNG seed"),
    "--duration": ("duration", "override simulated seconds"),
    "--nodes": ("n_nodes", "override node count"),
    "--output": ("output_dir", "override output directory"),
}

# SimConfig fields a [sweep] cannot vary, with a hint where one helps.
_UNSWEEPABLE = {
    "failure_injections": "",
    "seed": "; use replications = N for seeds seed .. seed + N - 1",
    "protocol": "; use protocol = both for paired sentinel/PEAS runs",
}


class ConfigError(ValueError):
    """Config problem, annotated with the offending line number or flag."""


class SweepError(ValueError):
    """A sweep that cannot run, with the key at fault so a parser can cite its
    lines; key None when a point's overrides make an invalid SimConfig."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _sweep_key_problem(name: str) -> str | None:
    if name not in FIELD_TYPES or name in _UNSWEEPABLE:
        return f"cannot sweep over {name!r}{_UNSWEEPABLE.get(name, '')}"
    return None


@dataclass
class ExperimentSpec:
    """A base configuration plus the sweep/replication matrix around it."""

    base: SimConfig = field(default_factory=SimConfig)
    sweep: list[tuple[str, list]] = field(default_factory=list)
    paired: bool = False  # run every protocol on each seed, in place of base.protocol
    replications: int = 1
    output_dir: Path = Path("results")

    def validate(self) -> None:
        # the rule SimConfig.validate applies to its fields: a bool is no int
        for name, kind in (("paired", bool), ("replications", int)):
            value = getattr(self, name)
            if not _fits(value, kind):
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        names = [name for name, _ in self.sweep]
        for name, values in self.sweep:
            problem = _sweep_key_problem(name)
            if problem:
                raise ValueError(problem)
            if not values:
                raise SweepError(f"sweep parameter {name!r} has no values", name)
            if names.count(name) > 1:  # its points would all run the last values
                raise SweepError(f"sweep key {name!r} is repeated", name)
        seen = set()
        for point, config in _sweep_points(self):
            try:
                if point in seen:  # its runs would overwrite the other point's
                    raise ValueError("another point has the same name")
                seen.add(point)
                config.validate()
                if self.paired and config.n_nodes == 0:
                    raise ValueError(
                        "protocol = both needs n_nodes >= 1, or the energy saving is undefined"
                    )
            except ValueError as exc:
                if not self.sweep:
                    raise
                raise SweepError(f"sweep point {point!r}: {exc}") from exc


def _parse_scalar(key: str, raw: str, where: str):
    raw = raw.strip()
    kind = FIELD_TYPES[key]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind is int:
            return int(raw)
        if kind == float | None:
            return None if raw.lower() == "none" else float(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def _parse_failures(raw: str, where: str) -> list[tuple[int, float]]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "@" not in part:
            raise ConfigError(f"{where}: failure injections use node_id@time, got {part!r}")
        nid, when = part.split("@", 1)
        try:
            out.append((int(nid), float(when)))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad failure injection {part!r}") from exc
    return out


def parse_config(text: str, flags: dict[str, str] | None = None) -> ExperimentSpec:
    """Build a fully validated ExperimentSpec from `key = value` text.

    Empty text yields the all-defaults spec. `flags` ({"--nodes": "20"}) override
    the text's top-level values. Unknown keys, type mismatches, repeated keys
    and invariant violations raise ConfigError naming the line or flag.
    """
    spec = ExperimentSpec()
    top: dict[str, tuple[str, str]] = {}  # top-level key -> (raw value, its line or flag)
    sweep_lines: list[tuple[str, int]] = []  # (sweep key, its line)
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in ("", "simulation", "energy", "sweep"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        where = f"line {lineno}"
        if section == "sweep":
            problem = _sweep_key_problem(key)
            if problem:
                raise ConfigError(f"{where}: {problem}")
            values = [_parse_scalar(key, v, where) for v in raw.split(",") if v.strip()]
            spec.sweep.append((key, values))
            sweep_lines.append((key, lineno))
        else:  # top level / [simulation] / [energy]
            if key in top:  # the later line would silently win
                raise ConfigError(f"{where}: key {key!r} is repeated from {top[key][1]}")
            top[key] = (raw, where)
    top.update({FLAGS[flag][0]: (raw, flag) for flag, raw in (flags or {}).items()})
    sim_kwargs: dict = {}
    for key, (raw, where) in top.items():
        if where in FLAGS and key in dict(spec.sweep):  # the sweep would replace it
            raise ConfigError(f"{where}: cannot override {key!r}: the [sweep] varies it")
        if key == "replications":
            try:
                spec.replications = int(raw)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad replications {raw!r}") from exc
        elif key == "output_dir":
            spec.output_dir = Path(raw)
        elif key == "protocol":
            if raw not in PROTOCOL_CHOICES:
                raise ConfigError(
                    f"{where}: protocol must be one of {PROTOCOL_CHOICES}, got {raw!r}"
                )
            spec.paired = raw == "both"
            if not spec.paired:
                sim_kwargs["protocol"] = raw
        elif key == "failure_injections":
            sim_kwargs["failure_injections"] = _parse_failures(raw, where)
        elif key in FIELD_TYPES:
            sim_kwargs[key] = _parse_scalar(key, raw, where)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    spec.base = SimConfig(**sim_kwargs)
    try:
        spec.validate()
    except SweepError as exc:
        lines = [str(n) for key, n in sweep_lines if exc.key in (None, key)]
        where = "line" if len(lines) == 1 else "lines"
        raise ConfigError(f"{where} {', '.join(lines)}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def load_config(path: Path, flags: dict[str, str] | None = None) -> ExperimentSpec:
    return parse_config(path.read_text(), flags)


def _sweep_points(spec: ExperimentSpec) -> list[tuple[str, SimConfig]]:
    """Expand the sweep into (point name, config) pairs: each config is the base
    config with the point's sweep values applied."""
    if not spec.sweep:
        return [("base", spec.base)]
    points = [("", {})]
    for name, values in spec.sweep:
        points = [
            (f"{prefix}_{name}_{'none' if value is None else f'{value:g}'}".lstrip("_"),
             {**overrides, name: value})
            for prefix, overrides in points
            for value in values
        ]
    return [(point, replace(spec.base, **overrides)) for point, overrides in points]


_SUMMARY_COLUMNS = (
    "point", "protocol", "replication", "seed", "avg_energy_per_node", "total_energy",
    "mean_coverage", "false_activation_fraction", "energy_saving_vs_peas",
)
# "%.6f" renders a number as format_csv_value does; the saving cell comes rendered.
_SUMMARY_ROW = "%s,%s,%d,%d,%.6f,%.6f,%.6f,%.6f,%s"


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute every sweep point x replication, writing per-run metrics.csv and
    summary.json plus a top-level sweep_summary.csv. Returns the exit code;
    partial outputs of a failed point are removed."""
    spec.validate()
    out_root = spec.output_dir
    out_root.mkdir(parents=True, exist_ok=True)
    lines = [",".join(_SUMMARY_COLUMNS)]
    protocols = PROTOCOLS if spec.paired else (spec.base.protocol,)
    for point_name, config in _sweep_points(spec):
        point_dir = out_root / point_name
        try:
            for rep in range(spec.replications):
                seed = config.seed + rep
                results = {}
                for proto in protocols:
                    cfg = replace(config, protocol=proto, seed=seed,
                                  failure_injections=list(config.failure_injections))
                    results[proto] = simulate(cfg)
                saving = None
                if spec.paired:
                    saving = compare_runs(results["sentinel"], results["peas"])
                for proto, result in results.items():
                    report = summarize(result)
                    if proto == "sentinel":
                        report.energy_ratio_vs_baseline = saving
                    run_dir = point_dir / f"{proto}_rep{rep}"
                    run_dir.mkdir(parents=True, exist_ok=True)
                    write_metrics_csv(result.rows, run_dir / "metrics.csv")
                    (run_dir / "summary.json").write_text(summary_to_json(report, result.config))
                    ratio = report.energy_ratio_vs_baseline
                    lines.append(_SUMMARY_ROW % (
                        point_name, proto, rep, seed, report.avg_energy_per_node,
                        result.total_energy, report.mean_coverage, report.false_activation_fraction,
                        "" if ratio is None else format_csv_value(ratio),
                    ))
        except Exception as exc:
            if point_dir.exists():
                shutil.rmtree(point_dir)
            print(f"error: sweep point {point_name!r} failed: {exc}", file=sys.stderr)
            return 2
    (out_root / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sentinelsim",
        description="Run duty-cycle scheduling experiments and write metric CSVs.",
    )
    parser.add_argument("--config", type=Path, help="experiment config file")
    for flag, (_, help_text) in FLAGS.items():  # raw strings: parse_config checks them
        parser.add_argument(flag, help=help_text)
    args = parser.parse_args(argv)
    flags = {f"--{k}": v for k, v in vars(args).items() if k != "config" and v is not None}
    try:
        spec = load_config(args.config, flags) if args.config else parse_config("", flags)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_experiment(spec)
    except Exception as exc:  # outside a point: an output path that names a file
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
