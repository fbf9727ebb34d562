"""Config parsing, experiment execution, output layout, reproducibility."""

import csv
import json
import typing

import pytest

from sentinelsim.cli import (
    ConfigError,
    ExperimentSpec,
    load_config,
    main,
    parse_config,
    run_experiment,
)
from sentinelsim.engine import SimConfig

FAST = """
n_nodes = 40
duration = 200
seed = 9
"""

ENERGY_FIELDS = ("p_sleep", "p_probe_listen", "p_active", "e_tx", "e_rx", "initial_energy")


def run_main(tmp_path, capsys, text, *flags):
    """Write `text` to tmp_path/exp.cfg, unless it is None, run `main` on that
    file with the flags and an output directory, and return the exit code,
    what `main` wrote to stderr and the output directory."""
    args = []
    if text is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        args = ["--config", str(cfg)]
    out = tmp_path / "out"
    rc = main([*args, *flags, "--output", str(out)])
    return rc, capsys.readouterr().err, out


def test_empty_text_yields_all_defaults():
    spec = parse_config("")
    assert spec.base.n_nodes == 200
    assert spec.base.field_width == 50.0
    assert spec.base.r_sense == 10.0
    assert spec.base.delta == 20.0
    assert spec.base.duration == 6000.0
    assert spec.base.k_probes == 3
    assert spec.base.t_w == 1.0
    assert spec.base.beta == 2.0
    assert spec.base.msg_size == 25
    assert spec.base.protocol == "sentinel"
    assert spec.paired is False
    assert spec.replications == 1


def test_simple_overrides():
    spec = parse_config("beta = 1.5\nn_nodes = 300\nprotocol = both\nreplications = 5")
    assert spec.base.beta == 1.5
    assert spec.base.n_nodes == 300
    assert spec.paired is True
    assert spec.base.protocol == "sentinel"  # a paired spec does not read it
    assert spec.replications == 5
    spec = parse_config("protocol = peas")
    assert spec.base.protocol == "peas"
    assert spec.paired is False


def test_energy_section():
    spec = parse_config("[energy]\np_active = 0.02\ninitial_energy = 500")
    assert spec.base.p_active == 0.02
    assert spec.base.initial_energy == 500.0
    with pytest.raises(ConfigError):
        parse_config("[energy]\nvoltage = 3")


def test_sweep_section():
    spec = parse_config("[sweep]\nn_nodes = 100, 200, 300, 400")
    assert spec.sweep == [("n_nodes", [100, 200, 300, 400])]
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nenergy = 1, 2")


def test_failure_injection_parsing():
    spec = parse_config("n_nodes = 50\nfailure_injections = 12@1000, 40@4000")
    assert spec.base.failure_injections == [(12, 1000.0), (40, 4000.0)]
    # an empty entry, as after a trailing comma, is skipped
    spec = parse_config("n_nodes = 50\nfailure_injections = 12@1000,")
    assert spec.base.failure_injections == [(12, 1000.0)]
    with pytest.raises(ConfigError):
        parse_config("failure_injections = 12:1000")
    # unknown node id and out-of-duration times die at validation
    with pytest.raises(ConfigError):
        parse_config("n_nodes = 10\nfailure_injections = 99@100")
    with pytest.raises(ConfigError):
        parse_config("n_nodes = 10\nfailure_injections = 3@7000")


def test_comments_and_blank_lines_ignored():
    spec = parse_config("# header\n\nn_nodes = 25  # inline\n")
    assert spec.base.n_nodes == 25


def test_single_run_layout(tmp_path):
    spec = parse_config(FAST)
    spec.output_dir = tmp_path / "out"
    assert run_experiment(spec) == 0
    run_dir = spec.output_dir / "base" / "sentinel_rep0"
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "summary.json").exists()
    assert (spec.output_dir / "sweep_summary.csv").exists()
    payload = json.loads((run_dir / "summary.json").read_text())
    assert payload["config"]["protocol"] == "sentinel"
    header = (run_dir / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("time,active_count,sleeping_count")


def test_replications_get_distinct_seeds(tmp_path):
    spec = parse_config(FAST + "replications = 3")
    spec.output_dir = tmp_path / "out"
    assert run_experiment(spec) == 0
    summary = (spec.output_dir / "sweep_summary.csv").read_text().splitlines()
    seeds = [line.split(",")[3] for line in summary[1:]]
    assert seeds == ["9", "10", "11"]
    metrics = [
        (spec.output_dir / "base" / f"sentinel_rep{i}" / "metrics.csv").read_text()
        for i in range(3)
    ]
    assert len(set(metrics)) == 3


def test_paired_protocols_share_seed_and_report_ratio(tmp_path):
    spec = parse_config(FAST + "protocol = both")
    spec.output_dir = tmp_path / "out"
    assert run_experiment(spec) == 0
    point = spec.output_dir / "base"
    assert (point / "sentinel_rep0" / "metrics.csv").exists()
    assert (point / "peas_rep0" / "metrics.csv").exists()
    sent = json.loads((point / "sentinel_rep0" / "summary.json").read_text())
    assert sent["energy_ratio_vs_baseline"] is not None
    lines = (spec.output_dir / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == (
        "point,protocol,replication,seed,avg_energy_per_node,total_energy,"
        "mean_coverage,false_activation_fraction,energy_saving_vs_peas"
    )
    sent_row = next(line for line in lines[1:] if ",sentinel," in line)
    assert sent_row.split(",")[-1] != ""
    peas_row = next(line for line in lines[1:] if ",peas," in line)
    assert peas_row.split(",")[-1] == ""


@pytest.mark.parametrize(
    "text",
    [
        # every node sleeps through the run at zero draw
        "protocol = both\nn_nodes = 3\nduration = 0.001\n[energy]\np_sleep = 0\n",
        # one t=0 row per run
        "protocol = both\nduration = 0\nn_nodes = 10\n",
    ],
    ids=["idle_baseline", "zero_duration"],
)
def test_paired_run_whose_baseline_spends_nothing_leaves_the_saving_empty(
    tmp_path, capsys, text
):
    # the baseline uses no energy, so the saving is undefined: an empty
    # cell, not a failure
    rc, _, out = run_main(tmp_path, capsys, text)
    assert rc == 0
    sent = json.loads((out / "base" / "sentinel_rep0" / "summary.json").read_text())
    assert sent["energy_ratio_vs_baseline"] is None
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    sent_row = next(line for line in lines[1:] if ",sentinel," in line)
    assert sent_row.split(",")[-1] == ""


def test_sweep_creates_one_directory_per_point(tmp_path):
    spec = parse_config(FAST + "[sweep]\nn_nodes = 10, 20")
    spec.output_dir = tmp_path / "out"
    assert run_experiment(spec) == 0
    assert (spec.output_dir / "n_nodes_10").is_dir()
    assert (spec.output_dir / "n_nodes_20").is_dir()
    lines = (spec.output_dir / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per point


def test_rerun_is_byte_identical(tmp_path):
    for name in ("a", "b"):
        spec = parse_config(FAST)
        spec.output_dir = tmp_path / name
        assert run_experiment(spec) == 0
    read = lambda p: (tmp_path / p).read_bytes()
    assert read("a/base/sentinel_rep0/metrics.csv") == read("b/base/sentinel_rep0/metrics.csv")
    assert read("a/sweep_summary.csv") == read("b/sweep_summary.csv")


def test_main_overrides_and_exit_codes(tmp_path, capsys):
    flags = ["--protocol", "peas", "--nodes", "20", "--duration", "100", "--seed", "4"]
    rc, _, out = run_main(tmp_path, capsys, FAST, *flags)
    assert rc == 0
    assert (out / "base" / "peas_rep0" / "metrics.csv").exists()
    # the config file leaves protocol at its default: the run itself is PEAS
    summary = json.loads((out / "base" / "peas_rep0" / "summary.json").read_text())
    assert summary["config"]["protocol"] == "peas"


@pytest.mark.parametrize("flag,name", [("--nodes", "n_nodes"), ("--duration", "duration")])
def test_main_rejects_an_override_of_a_swept_field(tmp_path, capsys, flag, name):
    # the sweep sets the field of every run, so the override would be lost
    text = f"duration = 20\n[sweep]\n{name} = 10, 20\n"
    rc, err, out = run_main(tmp_path, capsys, text, flag, "5")
    assert rc == 1
    assert "config error" in err
    assert f"{flag}: cannot override {name!r}" in err
    assert not out.exists()


def test_code_built_spec_runs_its_base_protocol(tmp_path):
    spec = ExperimentSpec(
        base=SimConfig(protocol="peas", n_nodes=10, duration=20.0), output_dir=tmp_path / "out"
    )
    assert run_experiment(spec) == 0
    assert sorted(p.name for p in (spec.output_dir / "base").iterdir()) == ["peas_rep0"]
    summary = json.loads((spec.output_dir / "base" / "peas_rep0" / "summary.json").read_text())
    assert summary["config"]["protocol"] == "peas"


def test_protocol_both_from_file_or_flag_gives_equal_specs(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST)
    from_flag = load_config(cfg, {"--protocol": "both"})
    assert from_flag == parse_config(FAST + "protocol = both")
    assert from_flag.paired is True
    base = SimConfig(n_nodes=40, duration=200, seed=9)
    assert from_flag == ExperimentSpec(base=base, paired=True)


@pytest.mark.parametrize(
    "in_file,flag,paired,base_protocol",
    [("both", "peas", False, "peas"), ("peas", "both", True, "sentinel")],
)
def test_protocol_flag_overrides_the_file(tmp_path, capsys, in_file, flag, paired, base_protocol):
    rc, _, out = run_main(tmp_path, capsys, FAST + f"protocol = {in_file}\n", "--protocol", flag)
    assert rc == 0
    spec = load_config(tmp_path / "exp.cfg", {"--protocol": flag})
    assert (spec.paired, spec.base.protocol) == (paired, base_protocol)
    assert spec == parse_config(FAST + f"protocol = {flag}")
    expected = ["peas_rep0", "sentinel_rep0"] if paired else [f"{flag}_rep0"]
    assert sorted(p.name for p in (out / "base").iterdir()) == expected


@pytest.mark.parametrize(
    "flag,value,expected",
    [
        ("--nodes", "abc", ["--nodes: bad value for 'n_nodes'"]),
        ("--seed", "1.5", ["--seed: bad value for 'seed'"]),
        ("--duration", "soon", ["--duration: bad value for 'duration'"]),
        ("--protocol", "flood", ["--protocol: protocol must be one of", "'flood'"]),
        ("--nodes", "-5", ["n_nodes"]),
        pytest.param("--seed", "9" * 401, ["seed must be finite"], id="--seed-401_digits"),
    ],
)
def test_main_rejects_a_bad_flag_value(tmp_path, capsys, flag, value, expected):
    rc, err, out = run_main(tmp_path, capsys, None, flag, value)
    assert rc == 1
    assert "config error" in err
    for fragment in expected:
        assert fragment in err
    assert not out.exists()


def test_main_keeps_argparse_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "1", "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_main_reports_an_output_path_that_names_a_file(tmp_path, capsys):
    # run_experiment makes the output directory before any sweep point runs
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["--nodes", "5", "--duration", "10", "--output", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "File exists" in err
    assert taken.read_text() == "kept"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("seed = 3\nseed = 4", "line 2: key 'seed'"),
        ("protocol = peas\nn_nodes = 10\nprotocol = both", "line 3: key 'protocol'"),
        ("p_active = 0.01\n[energy]\np_active = 0.02", "line 3: key 'p_active'"),
        ("replications = 2\nreplications = 3", "line 2: key 'replications'"),
    ],
)
def test_repeated_top_level_key_names_both_lines(tmp_path, capsys, text, expected):
    # the later line would win silently
    expected += " is repeated from line 1"
    with pytest.raises(ConfigError, match=expected):
        parse_config(text)
    rc, err, out = run_main(tmp_path, capsys, text)
    assert rc == 1
    assert expected in err
    assert not out.exists()


def test_flags_override_file_keys_without_a_repeat_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST + "output_dir = from_file\n")
    spec = load_config(
        cfg, {"--seed": "4", "--nodes": "20", "--duration": "100", "--output": str(tmp_path / "o")}
    )
    assert (spec.base.seed, spec.base.n_nodes, spec.base.duration) == (4, 20, 100.0)
    assert spec.output_dir == tmp_path / "o"
    text = f"seed = 4\nn_nodes = 20\nduration = 100\noutput_dir = {tmp_path / 'o'}"
    assert spec == parse_config(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("delta = 99", ["delta"]),
        ("n_nodes = 20\n[sweep]\ndelta = 10, 25", ["line 3", "delta_25"]),
        ("[sweep]\nseed = 1, 2", ["line 2", "replications"]),
        ("[sweep]\nprotocol = sentinel, peas", ["line 2", "protocol = both"]),
        ("duration = nan", ["duration", "finite"]),
        ("[sweep]\nt_w = 1, inf", ["line 2", "t_w"]),
        ("[sweep]\ndelta = 10.0000001, 10.0000002", ["line 2", "delta_10"]),
        ("protocol = both\nn_nodes = 0\nduration = 100", ["protocol = both", "n_nodes"]),
        ("[sweep]\nn_nodes = 10, 20\nn_nodes = 30", ["lines 2, 3", "'n_nodes'", "repeated"]),
        ("n_nodes = 10\n[bogus]\nbeta = 2", ["line 2", "unknown section [bogus]"]),
        ("n_nodes = 10\nbeta 2", ["line 2", "expected key = value"]),
        ("[sweep]\nn_nodes = ,", ["line 2", "sweep parameter 'n_nodes' has no values"]),
        ("replications = many", ["line 1", "bad replications 'many'"]),
        ("n_nodes = 10\nprotocol = flood", ["line 2", "protocol must be one of"]),
        ("n_nodes = 10\nfailure_injections = 1@soon", ["line 2", "bad failure injection"]),
        ("collisions = maybe", ["line 1", "'collisions'", "expected a boolean"]),
        ("n_nodes = 10\n\nbogus_key = 5", ["line 3", "unknown key 'bogus_key'"]),
        ("n_nodes = plenty", ["line 1", "bad value for 'n_nodes'"]),
        ("n_nodes = " + "9" * 401, ["n_nodes must be finite"]),
    ],
    ids=[
        "invalid_base",
        "bad_sweep_value",
        "sweep_seed",
        "sweep_protocol",
        "nan_duration",
        "infinite_sweep_value",
        "colliding_point_names",
        "paired_no_nodes",
        "repeated_sweep_key",
        "unknown_section",
        "line_without_equals",
        "empty_sweep_line",
        "bad_replications",
        "bad_protocol",
        "bad_failure_injection",
        "bad_boolean",
        "unknown_key",
        "type_mismatch",
        "int_past_the_float_range",
    ],
)
def test_main_reports_config_errors(tmp_path, capsys, text, expected):
    rc, err, out = run_main(tmp_path, capsys, text)
    assert rc == 1
    assert "config error" in err
    for fragment in expected:
        assert fragment in err
    assert not out.exists()  # nothing ran, nothing was written


@pytest.mark.parametrize(
    "word,value",
    [("true", True), ("1", True), ("Yes", True), ("on", True)]
    + [("false", False), ("0", False), ("no", False), ("OFF", False)],
)
def test_boolean_words(word, value):
    assert parse_config(f"collisions = {word}").base.collisions is value


def test_sweep_over_an_optional_value_names_the_none_point(tmp_path):
    spec = parse_config(FAST + "protocol = peas\n[sweep]\nlambda_peas = none, 0.02")
    spec.output_dir = tmp_path / "out"
    assert run_experiment(spec) == 0
    assert (spec.output_dir / "lambda_peas_none" / "peas_rep0" / "metrics.csv").exists()
    assert (spec.output_dir / "lambda_peas_0.02" / "peas_rep0" / "metrics.csv").exists()


def test_every_scalar_field_parses_to_its_declared_type():
    # each scalar field of SimConfig, written out as text (the energy fields
    # under their [energy] heading), comes back from the parser with the type
    # the dataclass declares
    scalars = (bool, int, float, str, float | None)
    sim = {k: t for k, t in typing.get_type_hints(SimConfig).items() if t in scalars}
    defaults = SimConfig()
    sample = lambda key: "0.5" if getattr(defaults, key) is None else str(getattr(defaults, key))
    text = "\n".join(f"{k} = {sample(k)}" for k in sim if k not in ENERGY_FIELDS)
    text += "\n[energy]\n" + "\n".join(f"{k} = {sample(k)}" for k in ENERGY_FIELDS)
    spec = parse_config(text)
    assert "lambda_peas" in sim and "collisions" in sim and "n_nodes" in sim
    assert set(ENERGY_FIELDS) <= set(sim)
    for key, declared in sim.items():
        value = getattr(spec.base, key)
        allowed = typing.get_args(declared) or (declared,)
        assert type(value) in allowed, (key, value, declared)
    assert spec.base.lambda_peas == 0.5
    assert [getattr(spec.base, k) for k in ENERGY_FIELDS] == [
        getattr(defaults, k) for k in ENERGY_FIELDS
    ]


def test_energy_fields_sweep_like_any_other(tmp_path, capsys):
    # a 1 J budget runs out within 300 s, the default 18,720 J does not
    text = "protocol = both\nn_nodes = 40\nduration = 300\nseed = 9\n"
    text += "[sweep]\ninitial_energy = 1, 1000\n"
    rc, _, out = run_main(tmp_path, capsys, text)
    assert rc == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
        "initial_energy_1",
        "initial_energy_1000",
    ]

    def final_dead(point, proto):
        with open(out / point / f"{proto}_rep0" / "metrics.csv", newline="") as fh:
            return int(list(csv.DictReader(fh))[-1]["dead_count"])

    for proto in ("sentinel", "peas"):
        assert final_dead("initial_energy_1", proto) > 0, proto
        assert final_dead("initial_energy_1000", proto) == 0, proto


@pytest.mark.parametrize(
    "kw,match",
    [
        (dict(base=SimConfig(protocol="flood")), "^protocol must be one of"),
        (dict(sweep=[("beta", [])]), "^sweep parameter 'beta' has no values"),
        (dict(base=SimConfig(k_probes=2.5)), "^k_probes must be int"),
        (dict(sweep=[("n_nodes", [10.5])]), "n_nodes must be int, got 10.5"),
        # any truthy value would pair the run, True would run it once, and
        # 1.5 would fail in the run loop
        (dict(paired="no"), "^paired must be bool, got 'no'"),
        (dict(replications=True), "^replications must be int, got True"),
        (dict(replications=1.5), "^replications must be int, got 1.5"),
        (dict(replications=0), "^replications must be >= 1, got 0"),
        (dict(sweep=[("not_a_field", [1])]), "^cannot sweep over 'not_a_field'"),
        # a spec built in code, not parsed, is held to the same one-line-per-key rule
        (dict(sweep=[("n_nodes", [10, 20]), ("n_nodes", [30])]), "'n_nodes' is repeated"),
    ],
)
def test_code_built_spec_rejected(kw, match):
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(**kw).validate()


def test_failed_sweep_point_outputs_are_removed(tmp_path, monkeypatch):
    import sentinelsim.cli as cli_mod

    real = cli_mod.simulate
    out = tmp_path / "out"
    written = []

    def exploding(cfg):
        if cfg.n_nodes == 20 and cfg.seed == 10:  # the point's second replication
            written.extend(sorted(p.name for p in (out / "n_nodes_20").iterdir()))
            raise RuntimeError("disk full")
        return real(cfg)

    monkeypatch.setattr(cli_mod, "simulate", exploding)
    spec = parse_config(FAST + "replications = 2\n[sweep]\nn_nodes = 10, 20")
    spec.output_dir = out
    assert run_experiment(spec) == 2
    assert written == ["sentinel_rep0"]  # the failed point had outputs to remove
    assert not (out / "n_nodes_20").exists()
    for rep in ("sentinel_rep0", "sentinel_rep1"):
        assert sorted(p.name for p in (out / "n_nodes_10" / rep).iterdir()) == [
            "metrics.csv", "summary.json"
        ]
