import json

import pytest

from rsmt.cli import (
    EXIT_CONFIG,
    EXIT_FLAG,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    check_tag_budget,
    main,
    profile_from_json,
    protocol_from_json,
)
from rsmt.game.nash import CSV_COLUMNS
from rsmt.protocols import CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol


P1_CONFIG = {
    "protocol": {"variant": "P1", "n": 5,
                 "field": {"kind": "binary", "m": 8}, "d": 1, "ell": 8},
    "profile": {"assignments": {"1": [1, 2]}},
    "trials": 200,
    "master_seed": 11,
}


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- config parsing ----------------------------------------------------------


def test_protocol_from_json_all_variants():
    assert isinstance(protocol_from_json(P1_CONFIG["protocol"]), CissProtocol)
    assert isinstance(
        protocol_from_json({"variant": "SJST", "n": 3, "ell": 4, "k": 8}),
        SjstProtocol,
    )
    assert isinstance(
        protocol_from_json({"variant": "RSS", "n": 3, "t": 1, "d": 1,
                            "field": {"kind": "prime", "p": 7}}),
        RssProtocol,
    )
    assert isinstance(
        protocol_from_json({"variant": "STRAWMAN", "n": 4,
                            "field": {"kind": "binary", "m": 4}}),
        StrawmanProtocol,
    )


@pytest.mark.parametrize("obj", [
    {},
    {"variant": "NOPE"},
    {"variant": "P1", "n": 5},                       # missing fields
    {"variant": "P1", "n": 5, "field": {"kind": "binary", "m": 8},
     "d": 1, "ell": 99},                             # ell too wide
    {"variant": "SJST", "n": 3, "ell": 9, "k": 8},   # ell > k
])
def test_protocol_from_json_rejects(obj):
    with pytest.raises(ConfigError):
        protocol_from_json(obj)


def test_profile_from_json_roundtrip():
    prof = profile_from_json({"assignments": {"2": [3], "1": [1, 2]},
                              "malicious_id": 2})
    assert prof.adversary_ids == (1, 2)
    assert prof.malicious_id == 2
    with pytest.raises(ConfigError):
        profile_from_json({})


def test_experiment_config_defaults_witness_table():
    cfg = ExperimentConfig(P1_CONFIG)
    assert cfg.table.message_space_size == 256
    assert cfg.trials == 200 and cfg.master_seed == 11
    # the resolved config is JSON-serializable and self-contained
    blob = json.dumps(cfg.resolved_json())
    assert "assignments" in blob


def test_check_tag_budget_flags_short_tags():
    cfg = ExperimentConfig(P1_CONFIG)
    assert check_tag_budget(cfg) == []  # ell=8 >= required 5
    short = dict(P1_CONFIG, protocol=dict(P1_CONFIG["protocol"], ell=3))
    assert check_tag_budget(ExperimentConfig(short))


# --- subcommands end to end --------------------------------------------------


def test_bounds_reports_frozen_values(tmp_path, capsys):
    path = write_config(tmp_path, P1_CONFIG)
    assert main(["bounds", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "# master_seed 11"
    assert lines[2] == "bound,inputs,value"
    values = {ln.split(",")[0]: ln.rsplit(",", 1)[1] for ln in lines[3:]}
    assert values["pd-tag-bits"] == "2"
    assert values["rss-delta"] == "0.5"
    assert values["rss-field-bits"] == "2"
    assert values["minority-tag-bits"] == "5"
    assert values["unanimous-tag-bits"] == "1"
    assert values["robust-tag-bits"] == "5"


def test_simulate_passive_equilibrium_exit_zero(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[2] == ",".join(CSV_COLUMNS)
    body = [ln.split(",") for ln in lines[3:]]
    assert all(len(fields) == len(CSV_COLUMNS) for fields in body)
    assert {fields[2] for fields in body} >= {"passive", "share-substitution"}
    assert all(fields[-1] == "0" for fields in body)  # no flag raised


def test_simulate_identical_output_for_same_seed(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", path, "--out", str(a)])
    main(["simulate", "--config", path, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["simulate", "--config", path, "--out", str(c), "--seed", "999"])
    assert a.read_bytes() != c.read_bytes()


def test_simulate_underspec_needs_flag(tmp_path):
    short = dict(P1_CONFIG, protocol=dict(P1_CONFIG["protocol"], ell=3))
    path = write_config(tmp_path, short)
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    out = tmp_path / "probe.csv"
    code = main(["simulate", "--config", path, "--allow-underspec",
                 "--out", str(out)])
    assert code in (EXIT_OK, EXIT_FLAG)
    assert out.exists()


def test_simulate_flags_exploitable_strawman(tmp_path):
    base = {}
    for g in (0, 1):
        base[(g, 0, 0)] = 10.0
        base[(g, 1, 0)] = 0.4
        base[(g, 0, 1)] = 1.0
        base[(g, 1, 1)] = 0.0
    cfg = {
        "protocol": {"variant": "STRAWMAN", "n": 4,
                     "field": {"kind": "binary", "m": 4}},
        "profile": {"assignments": {"1": [1, 2]}},
        "utility": {
            "base": {f"{g}{s}{d}": base[(g, s, d)]
                     for (g, s, d) in base},
            "message_space_size": 16,
        },
        "trials": 400,
        "master_seed": 5,
    }
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out",
                 str(tmp_path / "x.csv")]) == EXIT_FLAG


def test_simulate_dump_transcript(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    dump = tmp_path / "transcript.json"
    main(["simulate", "--config", path, "--out", str(tmp_path / "r.csv"),
          "--dump-transcript", str(dump)])
    blob = json.loads(dump.read_text())
    assert "rounds" in blob and "message" in blob


def test_sweep_requires_axis(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    assert main(["sweep", "--config", path]) == EXIT_CONFIG


def test_sweep_over_ell_shows_detection_improving(tmp_path):
    cfg = dict(P1_CONFIG, sweep={"axis": "ell", "values": [1, 8]}, trials=300)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[3:]]
    assert [r[1] for r in rows] == ["1", "8"]
    # undetected-wrong rate shrinks as tags lengthen
    assert float(rows[1][6]) <= float(rows[0][6])


def test_missing_or_malformed_config_exits_3(tmp_path):
    assert main(["bounds", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bounds", "--config", str(bad)]) == EXIT_CONFIG
    wrong = write_config(tmp_path, {"protocol": {"variant": "P9"}}, "wrong.json")
    assert main(["simulate", "--config", wrong]) == EXIT_CONFIG


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "all checks passed" in text
    assert "[FAIL]" not in text


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "1"],
    ["verify", "--trials", "10"],
    ["verify", "--allow-underspec"],
    ["bounds", "--config", "x.json", "--dump-transcript", "t.json"],
    ["sweep", "--config", "x.json", "--allow-underspec"],
])
def test_flags_without_effect_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
