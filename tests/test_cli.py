import contextlib
import io
import json
import platform

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rsmt
import rsmt.cli
import rsmt.game.play
from rsmt.cli import (
    EXIT_CONFIG,
    EXIT_FLAG,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    ExperimentConfig,
    check_tag_budget,
    main,
    profile_from_json,
    protocol_from_json,
)
from rsmt.field import DEFAULT_BINARY_POLYS, FieldSpec
from rsmt.game.attacks import PassiveGuess
from rsmt.game.nash import CSV_COLUMNS, passive_seed
from rsmt.game.play import plays
from rsmt.game.utility import witness_table
from rsmt.privacy import Check
from rsmt.protocols import CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol
from rsmt.transport import CorruptionProfile

from in_time import in_time


P1_CONFIG = {
    "protocol": {"variant": "P1", "n": 5,
                 "field": {"kind": "binary", "m": 8}, "d": 1, "ell": 8},
    "profile": {"assignments": {"1": [1, 2]}},
    "trials": 200,
    "master_seed": 11,
}

WITNESS_BASE = witness_table().to_json()["base"]

# The third header line of every bounds/simulate/sweep report.
PROVENANCE = (f"# provenance rsmt={rsmt.__version__} python={platform.python_version()} "
              f"rng_stream=v3")


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


FIELDS = [FieldSpec.prime(7), FieldSpec.prime(251), FieldSpec.binary(4),
          FieldSpec.binary(8), FieldSpec.binary(8, 0x11D)]


@st.composite
def protocols(draw):
    """Every variant over ranges of its parameters."""
    variant = draw(st.sampled_from(["SJST", "RSS", "P1", "P2", "P3", "STRAWMAN"]))
    if variant == "SJST":
        k = draw(st.integers(1, 16))
        return SjstProtocol(draw(st.integers(1, 20)), draw(st.integers(1, k)), k)
    field = draw(st.sampled_from(FIELDS))
    top = min(field.q - 1, 12)
    if variant == "STRAWMAN":
        return StrawmanProtocol(draw(st.integers(3, top)), field)
    if variant == "RSS":
        n = draw(st.integers(2, top))
        d = draw(st.integers(1, 3).filter(lambda d: (d + 2) % field.p))
        return RssProtocol(n, draw(st.integers(1, n - 1)), d, field)
    n = draw(st.integers({"P1": 3, "P2": 2, "P3": 4}[variant], top))
    d = draw(st.integers(1, 2))
    return CissProtocol(variant, n, field, d, draw(st.integers(1, d * field.elem_bits)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(protocols())
def test_protocol_json_roundtrip(p):
    assert protocol_from_json(p.to_json()).to_json() == p.to_json()


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


@pytest.mark.parametrize("trials", [0, -5])
def test_experiment_config_rejects_no_trials(tmp_path, trials):
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        ExperimentConfig(dict(P1_CONFIG, trials=trials))
    path = write_config(tmp_path, dict(P1_CONFIG, trials=trials))
    assert main(["simulate", "--config", path]) == EXIT_CONFIG


def test_check_tag_budget_flags_short_tags():
    cfg = ExperimentConfig(P1_CONFIG)
    assert check_tag_budget(cfg) is None  # ell=8 >= required 5
    short = dict(P1_CONFIG, protocol=dict(P1_CONFIG["protocol"], ell=3))
    assert check_tag_budget(ExperimentConfig(short)) == "configured ell=3 below required 5"


# --- subcommands end to end --------------------------------------------------


@pytest.mark.parametrize("protocol", [
    {"variant": "SJST", "n": 3, "ell": 2, "k": 8},
    {"variant": "RSS", "n": 3, "t": 1, "d": 1, "field": {"kind": "prime", "p": 251}},
    {"variant": "P2", "n": 4, "field": {"kind": "binary", "m": 8}, "d": 1, "ell": 1},
    {"variant": "P3", "n": 7, "field": {"kind": "binary", "m": 8}, "d": 1, "ell": 6},
    {"variant": "STRAWMAN", "n": 4, "field": {"kind": "binary", "m": 4}},
])
def test_check_tag_budget_reads_each_protocols_row(protocol):
    cfg = {"protocol": protocol, "profile": {"assignments": {"1": [1]}}}
    assert check_tag_budget(ExperimentConfig(cfg)) is None


def test_check_tag_budget_flags_weak_robust_sharing():
    cfg = {"protocol": {"variant": "RSS", "n": 3, "t": 1, "d": 2,
                        "field": {"kind": "prime", "p": 5}},
           "profile": {"assignments": {"1": [1]}}}
    assert check_tag_budget(ExperimentConfig(cfg)) == \
        "sharing failure rate 0.6000 above bound 0.5000"


def test_bounds_reports_frozen_values(tmp_path, capsys):
    path = write_config(tmp_path, P1_CONFIG)
    assert main(["bounds", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "# master_seed 11"
    assert lines[2] == PROVENANCE
    assert lines[3] == "bound,inputs,value"
    values = {ln.split(",")[0]: ln.rsplit(",", 1)[1] for ln in lines[4:]}
    assert values["pd-tag-bits"] == "2"
    assert values["rss-delta"] == "0.5"
    assert values["rss-field-bits"] == "2"
    assert values["minority-tag-bits"] == "5"
    assert values["unanimous-tag-bits"] == "1"
    assert values["robust-tag-bits"] == "5"


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep"])
def test_report_header_carries_provenance(tmp_path, command):
    cfg = dict(P1_CONFIG, trials=5, sweep={"axis": "ell", "values": [8]})
    out = tmp_path / "report.csv"
    main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert out.read_text().splitlines()[1:3] == ["# master_seed 11", PROVENANCE]
    assert rsmt.RNG_STREAM == "v3"


def test_bounds_and_simulate_agree_for_several_adversaries(tmp_path, capsys):
    # Budgets t = 1 and t = 2: the public-discussion bound is not monotone in
    # t, so the requirement is the maximum over both adversaries, not the
    # value at the larger budget.
    cfg = {
        "protocol": {"variant": "SJST", "n": 3, "ell": 6, "k": 16},
        "profile": {"assignments": {"1": [1], "2": [2, 3]}},
        "utility": {"base": {"000": 3, "100": 3, "010": 2, "110": 2,
                             "001": 1, "101": 1, "011": 0, "111": 0},
                    "others_detected_bonus": 0.5},
        "alpha": 0.01,
        "trials": 20,
    }
    path = write_config(tmp_path, cfg)
    assert main(["bounds", "--config", path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    required = int(next(ln for ln in lines if ln.startswith("pd-tag-bits,")).rsplit(",", 1)[1])
    assert required == 9
    assert check_tag_budget(ExperimentConfig(cfg)) == f"configured ell=6 below required {required}"
    enough = dict(cfg, protocol=dict(cfg["protocol"], ell=required))
    assert check_tag_budget(ExperimentConfig(enough)) is None


def test_simulate_passive_equilibrium_exit_zero(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[3] == ",".join(CSV_COLUMNS)
    body = [ln.split(",") for ln in lines[4:]]
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


def _first_passive_play(cfg):
    """The JSON transcript of the first play of the run behind the report's `passive` rows."""
    p = cfg.protocol
    run = plays(p, cfg.profile, {j: PassiveGuess(p) for j in cfg.profile.adversary_ids},
                passive_seed(cfg.master_seed, cfg.profile))
    return next(run)[1].to_json_str()


def test_simulate_dump_transcript(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    dump = tmp_path / "transcript.json"
    main(["simulate", "--config", path, "--trials", "20", "--out", str(tmp_path / "r.csv"),
          "--dump-transcript", str(dump)])
    blob = json.loads(dump.read_text())
    assert "rounds" in blob and "message" in blob
    # the dumped trial is one the report scored: the `passive` row's first
    first = _first_passive_play(ExperimentConfig(P1_CONFIG))
    assert dump.read_text() == first + "\n"


def test_sweep_requires_axis(tmp_path):
    path = write_config(tmp_path, P1_CONFIG)
    assert main(["sweep", "--config", path]) == EXIT_CONFIG


def test_sweep_over_ell_shows_detection_improving(tmp_path):
    cfg = dict(P1_CONFIG, sweep={"axis": "ell", "values": [1, 8]}, trials=300)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[4:]]
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


VERIFY_REPORT = """\
hash-pair-counts(m=3,l=1): observed=uniform bound=16 per pair [pass]
hash-offset-collision(m=3,l=1): observed=0.5 bound=1.0 [pass]
hash-pair-counts(m=3,l=2): observed=uniform bound=4 per pair [pass]
hash-offset-collision(m=3,l=2): observed=0.25 bound=0.5 [pass]
hash-pair-counts(m=3,l=3): observed=uniform bound=1 per pair [pass]
hash-offset-collision(m=3,l=3): observed=0.125 bound=0.25 [pass]
amd-failure(q=5,d=1): observed=2/5 bound=2/5 [pass]
amd-failure(q=7,d=1): observed=2/7 bound=2/7 [pass]
shamir-privacy(GF5,t=2,n=4): observed=0 bound=0 [pass]
rss-view(n=3,GF4,t=2): observed=0 bound=0 [pass]
minority-view(n=3,GF5,l=2): observed=0 bound=0 [pass]
all checks passed
"""


def test_verify_report_is_golden(capsys):
    # the real `CHECKS` table, every line as printed
    assert main(["verify"]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_REPORT


def test_verify_exit_paths(tmp_path, monkeypatch):
    # The real table's rows are asserted by acceptance tests 01/02/03/09.
    passing = Check("cheap-pass", 1, lambda: (0, True))
    failing = Check("cheap-fail", 0, lambda: (1, False))
    out = tmp_path / "verify.txt"
    monkeypatch.setattr(rsmt.cli, "CHECKS", (passing,))
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "cheap-pass: observed=0 bound=1 [pass]\nall checks passed\n"
    monkeypatch.setattr(rsmt.cli, "CHECKS", (passing, failing))
    assert main(["verify", "--out", str(out)]) == EXIT_VERIFY
    assert out.read_text().splitlines()[1:] == [
        "cheap-fail: observed=1 bound=0 [FAIL]", "FAILURES: 1"
    ]


def _refuse_work(monkeypatch):
    """Make any trial or verify check fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_work)
    monkeypatch.setattr(rsmt.cli, "nash_catalog_check", no_work)
    monkeypatch.setattr(rsmt.cli, "CHECKS", (Check("no-work", 0, no_work),))


@pytest.mark.parametrize("command, flag", [
    ("bounds", "--out"), ("simulate", "--out"), ("simulate", "--dump-transcript"),
    ("sweep", "--out"), ("verify", "--out"),
])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_path_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                     command, flag, where):
    _refuse_work(monkeypatch)
    bad = tmp_path / "absent" / "r.csv" if where == "missing-directory" else tmp_path
    argv = [command, flag, str(bad)]
    if command != "verify":
        cfg = dict(P1_CONFIG, sweep={"axis": "ell", "values": [8]})
        argv += ["--config", write_config(tmp_path, cfg)]
    if flag == "--dump-transcript":
        argv += ["--out", str(tmp_path / "report.csv")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("report", ["new", "existing", "dangling-link"])
def test_refused_simulate_leaves_no_file_behind(tmp_path, capsys, monkeypatch, report):
    # the report path opens, the dump path does not: the refusal removes the
    # report file it created (through a dangling link, the link's target) and
    # leaves one that was there as it was
    _refuse_work(monkeypatch)
    out = tmp_path / "r.csv"
    if report == "existing":
        out.write_text("an earlier report\n")
    if report == "dangling-link":
        out = tmp_path / "link.csv"
        out.symlink_to(tmp_path / "target.csv")
    argv = ["simulate", "--config", write_config(tmp_path, P1_CONFIG), "--out", str(out),
            "--dump-transcript", str(tmp_path / "absent" / "t.json")]
    assert main(argv) == EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err
    if report == "existing":
        assert out.read_text() == "an earlier report\n"
    else:
        assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["cfg.json"] + {"new": [], "existing": ["r.csv"], "dangling-link": ["link.csv"]}[report])
    assert out.is_symlink() == (report == "dangling-link")


@pytest.mark.parametrize("case", ["same-path-new", "same-path-existing", "symlink"])
def test_report_and_dump_on_one_file_are_refused(tmp_path, capsys, monkeypatch, case):
    # each open would truncate the other's output: the refusal comes before
    # any work, keeps a file that was there and removes one it made
    _refuse_work(monkeypatch)
    out = tmp_path / "r.csv"
    if case != "same-path-new":
        out.write_text("an earlier report\n")
    dump = out
    if case == "symlink":
        dump = tmp_path / "link.csv"
        dump.symlink_to(out)
    argv = ["simulate", "--config", write_config(tmp_path, P1_CONFIG), "--out", str(out),
            "--dump-transcript", str(dump)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {out} and {dump} are the same file\n"
    if case == "same-path-new":
        assert not out.exists()
    else:
        assert out.read_text() == "an earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["cfg.json"] + {"same-path-new": [], "same-path-existing": ["r.csv"],
                        "symlink": ["r.csv", "link.csv"]}[case])


def test_simulate_dump_transcript_to_stdout(tmp_path, capsys, monkeypatch):
    # "-" is stdout for the dump as for the report: the transcript follows
    # the report there, and no file named "-" appears
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, P1_CONFIG)
    assert main(["simulate", "--config", path, "--trials", "5", "--out", "-",
                 "--dump-transcript", "-"]) == EXIT_OK
    report = capsys.readouterr().out
    assert main(["simulate", "--config", path, "--trials", "5"]) == EXIT_OK
    alone = capsys.readouterr().out
    first = _first_passive_play(ExperimentConfig(P1_CONFIG))
    assert report == alone + first + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


RSS_CONFIG = {"protocol": {"variant": "RSS", "n": 3, "t": 1, "d": 1,
                           "field": {"kind": "prime", "p": 251}},
              "profile": {"assignments": {"1": [1]}}}
# Timid but not strictly timid: u = (3, 1, 1, 0), so u2 = u3.
U2_IS_U3 = {"base": {"000": 3.0, "100": 3.0, "010": 1.0, "110": 1.0,
                     "001": 1.0, "101": 1.0, "011": 0.0, "111": 0.0}}


def test_table_that_is_timid_but_not_strictly_timid(tmp_path, capsys):
    path = write_config(tmp_path, dict(RSS_CONFIG, utility=U2_IS_U3))
    assert main(["bounds", "--config", path]) == EXIT_OK
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[4:])
    inapplicable = "-,N/A (inapplicable: requires u2 > u3 (strictly timid))"
    assert rows["rss-delta"] == rows["rss-field-bits"] == inapplicable
    assert rows["pd-tag-bits"] == "u=(3;1;1;0) t=1 alpha=None,3"  # it needs no u2 > u3
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: bound calculator inapplicable: inapplicable: requires u2 > u3 "
        "(strictly timid) (use --allow-underspec to probe anyway)\n")


# The guess-indifferent base (3.7, 3.1, 2.9, 2.1) over GF(3): the P2 ratio
# (u1-u3)/(u2-u3) of its exact values lies just below 4, and mixing them at
# 1/|M| = 1/3 in floats lands a few ulps off, past 4, one bit too many.
P2_GF3_CONFIG = {
    "protocol": {"variant": "P2", "n": 2, "d": 1, "ell": 2, "field": {"kind": "prime", "p": 3}},
    "profile": {"assignments": {"1": [1]}},
    "utility": {"base": {"000": 3.7, "100": 3.7, "010": 3.1, "110": 3.1,
                         "001": 2.9, "101": 2.9, "011": 2.1, "111": 2.1}},
}


def test_bounds_are_decided_on_the_exact_u_values(tmp_path, capsys):
    assert main(["bounds", "--config", write_config(tmp_path, P2_GF3_CONFIG)]) == EXIT_OK
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[4:])
    assert rows["unanimous-tag-bits"] == "single,2"
    assert rows["rss-field-bits"] == "d=1,3"
    assert check_tag_budget(ExperimentConfig(P2_GF3_CONFIG)) is None


def test_p2_row_is_the_least_ell_at_which_substitution_does_not_pay(tmp_path, capsys):
    # base (5, 2, 1, 0): a substituted share passes the honest tag check with
    # probability 2^-l, so at l = 1 substitution pays while (5-1)/(2-1) = 4 >
    # 2^1; the row asks for 2 bits, and one bit is refused
    cfg = dict(P2_GF3_CONFIG, utility={"base": dict(WITNESS_BASE, **{"000": 5, "100": 5})},
               attacks=["passive", "share-substitution"], trials=600, master_seed=3)
    cfg["protocol"] = dict(cfg["protocol"], ell=1)
    path = write_config(tmp_path, cfg)
    assert main(["bounds", "--config", path]) == EXIT_OK
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[4:])
    assert rows["unanimous-tag-bits"] == "single,2"
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: configured ell=1 below required 2 "
                                       "(use --allow-underspec to probe anyway)\n")
    # the analytic mean at l = 1 is 8/3 against the passive 2
    assert main(["simulate", "--config", path, "--allow-underspec"]) == EXIT_FLAG


# SJST n=3 with one adversary on two channels and u = (40, 2, 1, 0): a
# substitution on one channel goes unseen with probability 2^-l and pays u1
# = 40, so the pd row must hold against k = 1 as well as k = t = 2.
SJST_U1_40 = {"protocol": {"variant": "SJST", "n": 3, "ell": 4, "k": 8},
              "profile": {"assignments": {"1": [1, 2]}},
              "utility": {"base": dict(WITNESS_BASE, **{"000": 40, "100": 40})},
              "master_seed": 1}


def test_pd_row_holds_against_a_substitution_on_fewer_channels_than_owned(tmp_path, capsys):
    path = write_config(tmp_path, SJST_U1_40)
    assert main(["bounds", "--config", path]) == EXIT_OK
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[4:])
    assert rows["pd-tag-bits"] == "u=(40;2;1;0) t=2 alpha=None,7"
    assert main(["simulate", "--config", path, "--trials", "200"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: configured ell=4 below required 7 "
                                       "(use --allow-underspec to probe anyway)\n")
    # required_ell_pd at t = 2 alone asks for 4 bits: there a one-channel
    # substitution beats passive
    assert main(["simulate", "--config", path, "--trials", "5000",
                 "--allow-underspec"]) == EXIT_FLAG
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[4:]]
    assert [r[2] for r in rows if r[-1] == "1"] == ["share-substitution-1"]
    at_row = dict(SJST_U1_40, protocol=dict(SJST_U1_40["protocol"], ell=7))
    assert main(["simulate", "--config", write_config(tmp_path, at_row, "row.json"),
                 "--trials", "2000"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[4:]]
    assert [r[2] for r in rows if r[-1] == "1"] == []


# Two adversaries on P2 n=4 with the witness base and bonus 5: framing the
# other adversary pays, u3'' = 6 > u1' = 3.
P2_BONUS_5 = {"protocol": {"variant": "P2", "n": 4, "d": 1, "ell": 8,
                           "field": {"kind": "binary", "m": 8}},
              "profile": {"assignments": {"1": [1, 2], "2": [3, 4]}},
              "utility": {"base": WITNESS_BASE, "others_detected_bonus": 5},
              "sweep": {"axis": "ell", "values": [8]}}


@pytest.mark.parametrize("command, change, message", [
    *((command, P2_BONUS_5, "utility table not admissible: derived u1' <= max(u2', u3'')")
      for command in ("bounds", "simulate", "sweep")),
    ("bounds", {"utility": {"base": dict(WITNESS_BASE, **{"100": 2.5})}},
     "utility table not admissible: base(1,0,0) < base(0,0,0): payoff must not decrease "
     "in guess"),
    ("bounds", {"utility": {"base": WITNESS_BASE, "others_detected_bonus": -1}},
     "bad utility table: others-detected bonus must be >= 0"),
    ("sweep", {"sweep": {"axis": "k", "values": [8]}}, "unknown sweep axis 'k'"),
    ("bounds", {"protocol": dict(P1_CONFIG["protocol"],
                                 field={"kind": "binary", "m": 4, "poly": 0x11B})},
     "bad protocol config: poly 0x11b is not irreducible of degree 4"),
    ("simulate", {"protocol": dict(P1_CONFIG["protocol"], d=0)},
     "bad protocol config: message length d must be >= 1"),
    ("simulate", {"protocol": {"variant": "STRAWMAN", "n": 2,
                               "field": {"kind": "prime", "p": 7}}},
     "bad protocol config: n=2 leaves no sharing threshold"),
    ("simulate", {"protocol": dict(P1_CONFIG["protocol"], field={"kind": "binary", "m": 16},
                                   d=3)},
     "bad protocol config: d=3 elements of 16 bits make a 48-bit hash domain, over the "
     "32-bit limit"),
    ("simulate", {"protocol": {"variant": "STRAWMAN", "n": 13,
                               "field": {"kind": "binary", "m": 8}}},
     "bad protocol config: n=13 makes a decode interpolate 1716 subsets, over the 1024 "
     "point sets the Lagrange cache holds"),
    ("simulate", {"protocol": {"variant": "SJST", "n": 3, "ell": 8, "k": 40}},
     "bad protocol config: k=40 makes a 40-bit hash domain, over the 32-bit limit"),
], ids=["two-adversaries-bonus-5-bounds", "two-adversaries-bonus-5-simulate",
        "two-adversaries-bonus-5-sweep", "guess-lowers-payoff", "negative-bonus", "sweep-axis",
        "poly-degree", "d-zero", "strawman-n2", "hash-domain-48-bits", "strawman-n13",
        "sjst-k-40"])
def test_reachable_config_errors_exit_3(tmp_path, capsys, monkeypatch, command, change,
                                        message):
    _refuse_work(monkeypatch)
    assert main([command, "--config", write_config(tmp_path, dict(P1_CONFIG, **change))]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


# base(1, s, d) = base(0, s, d) + 1: a right guess pays one more
GUESS_BASE = {key: value + int(key[0]) for key, value in WITNESS_BASE.items()}
STRAWMAN_N4 = {"variant": "STRAWMAN", "n": 4, "field": {"kind": "binary", "m": 4}}


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep"])
@pytest.mark.parametrize("change, message", [
    ({"attacks": ["passive", "passive", "block-channel"]}, "attack 'passive' listed twice"),
    ({"profile": {"assignments": {"1": []}}},
     "bad corruption profile: adversary 1 owns no channel"),
    ({"profile": {"assignments": {"1": [1], "2": []}}},
     "bad corruption profile: adversary 2 owns no channel"),
    ({"protocol": STRAWMAN_N4, "utility": {"base": GUESS_BASE}},
     "utility table pays for the guess, which is scored at 1/|M|, but adversary 1 holds 2 "
     "channels, over STRAWMAN's privacy threshold 1"),
    ({"profile": {"assignments": {"1": [1, 2, 3]}}, "utility": {"base": GUESS_BASE}},
     "utility table pays for the guess, which is scored at 1/|M|, but adversary 1 holds 3 "
     "channels, over P1's privacy threshold 2"),
], ids=["attack-twice", "no-channel", "second-owns-no-channel", "strawman-guess-over-t",
        "p1-guess-over-t"])
def test_configs_the_game_cannot_score_exit_3(tmp_path, capsys, monkeypatch, command, change,
                                              message):
    _refuse_work(monkeypatch)
    cfg = dict(P1_CONFIG, sweep={"axis": "trials", "values": [20]}, **change)
    assert main([command, "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_the_privacy_guard_passes_coalitions_it_keeps_private_and_indifferent_tables():
    # at most t channels, or a table that ignores the guess (STRAWMAN_CONFIG,
    # whose golden report below is unchanged), are scored exactly
    for protocol, channels in [(STRAWMAN_N4, [1]), (P1_CONFIG["protocol"], [1, 2]),
                               ({"variant": "SJST", "n": 3, "ell": 8, "k": 8}, [1, 2])]:
        ExperimentConfig({"protocol": protocol, "profile": {"assignments": {"1": channels}},
                          "utility": {"base": GUESS_BASE}})
    ExperimentConfig(STRAWMAN_CONFIG)
    with pytest.raises(ConfigError, match="over SJST's privacy threshold 2$"):
        ExperimentConfig({"protocol": {"variant": "SJST", "n": 3, "ell": 8, "k": 8},
                          "profile": {"assignments": {"1": [1, 2, 3]}},
                          "utility": {"base": GUESS_BASE}})


def test_only_the_config_reader_refuses_an_adversary_without_channels():
    with pytest.raises(ConfigError, match=r"^bad corruption profile: adversary 2 owns no "
                                          r"channel$"):
        profile_from_json({"assignments": {"1": [1], "2": []}})
    assert CorruptionProfile({1: frozenset({1}), 2: frozenset()}).adversary_ids == (1, 2)


@pytest.mark.parametrize("command, change, message", [
    ("bounds", {"trails": 7}, "config does not read 'trails'"),
    ("simulate", {"profile": {"assignments": {"1": [1, 2]}, "malicous_id": 1}},
     "bad corruption profile: profile does not read 'malicous_id'"),
    ("bounds", {"utility": {"base": WITNESS_BASE, "others_detectd_bonus": 5}},
     "bad utility table: utility does not read 'others_detectd_bonus'"),
    ("sweep", {"sweep": {"axis": "ell", "values": [8], "step": 1}},
     "sweep does not read 'step'"),
], ids=["config", "profile", "utility", "sweep"])
def test_a_key_no_reader_reads_exits_3_and_is_named(tmp_path, capsys, monkeypatch, command,
                                                    change, message):
    # each would otherwise run on a default: 1,000 trials, bonus 0, no malicious id
    _refuse_work(monkeypatch)
    assert main([command, "--config", write_config(tmp_path, dict(P1_CONFIG, **change))]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("second", ["0x1", " 1"])
def test_two_assignment_keys_of_one_adversary_id_are_refused(tmp_path, capsys, second):
    with pytest.raises(ConfigError, match=r"^bad corruption profile: adversary id 1 has two "
                                          r"assignments$"):
        profile_from_json({"assignments": {"1": [1, 2], second: [3]}})
    path = write_config(tmp_path, dict(P1_CONFIG, profile={"assignments": {"1": [1, 2],
                                                                           second: [3]}}))
    assert main(["bounds", "--config", path]) == EXIT_CONFIG
    assert "adversary id 1 has two assignments" in capsys.readouterr().err


@pytest.mark.parametrize("channels", [[1, "0x1"], [1, 1], [2, 1, 1.0]])
def test_a_channel_listed_twice_is_refused(tmp_path, capsys, channels):
    # before, the duplicate merged silently into the set {1}
    with pytest.raises(ConfigError, match=r"^bad corruption profile: adversary 1 lists channel 1 "
                                          r"twice$"):
        profile_from_json({"assignments": {"1": channels}})
    path = write_config(tmp_path, dict(P1_CONFIG, profile={"assignments": {"1": channels}}))
    assert main(["bounds", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: bad corruption profile: adversary 1 lists "
                                       "channel 1 twice\n")


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep"])
@pytest.mark.parametrize("sweep, message", [
    (5, "sweep requires {'axis': ..., 'values': [...]} in config"),
    (["ell"], "sweep requires {'axis': ..., 'values': [...]} in config"),
    ({"axis": "ell", "values": []}, "sweep requires {'axis': ..., 'values': [...]} in config"),
    ({"axis": "ell", "values": 16}, "sweep values must be a list, got 16"),
    ({"axis": "k", "values": [8]}, "unknown sweep axis 'k'"),
], ids=["int", "list", "no-values", "values-int", "axis-k"])
def test_a_malformed_sweep_is_refused_by_every_command(tmp_path, capsys, monkeypatch, command,
                                                       sweep, message):
    # before, only `rsmt sweep` read the sweep, and the others exited 0
    _refuse_work(monkeypatch)
    path = write_config(tmp_path, dict(P1_CONFIG, sweep=sweep))
    assert main([command, "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


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


# --- config errors -----------------------------------------------------------


@pytest.mark.parametrize("command, change, message", [
    ("bounds", {"protocol": dict(P1_CONFIG["protocol"], n="five")},
     "n must be an integer, got 'five'"),
    ("simulate", {"trials": "x"}, "trials must be an integer, got 'x'"),
    ("simulate", {"master_seed": "x"}, "master_seed must be an integer, got 'x'"),
    ("bounds", {"alpha": "x"}, "alpha must be a number, got 'x'"),
    ("simulate", {"protocol": dict(P1_CONFIG["protocol"], n=5.9)},
     "n must be an integer, got 5.9"),
    ("simulate", {"trials": 2.5}, "trials must be an integer, got 2.5"),
    ("simulate", {"protocol": dict(P1_CONFIG["protocol"], ell=True)},
     "ell must be an integer, got True"),
    ("bounds", {"protocol": dict(P1_CONFIG["protocol"], field={"kind": "binary", "m": "x"})},
     "m must be an integer, got 'x'"),
    ("bounds", {"profile": {"assignments": {"1": [1, 2.5]}}},
     "channel must be an integer, got 2.5"),
    ("bounds", {"alpha": True}, "alpha must be a number, got True"),
    ("bounds", {"utility": {"base": dict(WITNESS_BASE, **{"000": "3"})}},
     "base 000 must be a number, got '3'"),
    ("bounds", {"utility": {"base": dict(WITNESS_BASE, **{"100": True})}},
     "base 100 must be a number, got True"),
    ("bounds", {"utility": {"base": dict(WITNESS_BASE, **{"000": 10 ** 400})}},
     "base 000 must be a number, got 1000"),
    ("bounds", {"utility": {"base": WITNESS_BASE, "others_detected_bonus": False}},
     "others_detected_bonus must be a number, got False"),
    ("bounds", {"utility": {"base": WITNESS_BASE, "message_space_size": 256.7}},
     "message_space_size must be an integer, got 256.7"),
    ("bounds", {"utility": {"base": WITNESS_BASE, "message_space_size": 16}},
     "message_space_size 16 differs from the protocol's 256"),
], ids=["n", "trials", "master_seed", "alpha", "n-fractional",
        "trials-fractional", "ell-bool", "field-m", "channel-fractional", "alpha-bool",
        "base-string", "base-bool", "base-overflow", "bonus-bool", "size-fractional",
        "size-mismatch"])
def test_non_numeric_config_value_names_the_field(tmp_path, capsys, command, change, message):
    path = write_config(tmp_path, dict(P1_CONFIG, **change))
    assert main([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_integral_values_are_read_as_ints():
    cfg = ExperimentConfig(dict(P1_CONFIG, trials=20.0,
                                protocol=dict(P1_CONFIG["protocol"], n=5.0, ell="8")))
    assert cfg.trials == 20 and cfg.protocol.n == 5 and cfg.protocol.ell == 8


# --- every config builds or is a named error, in time ------------------------

# Counts and primes: valid small values often enough that many configs
# build, around them negative, huge and composite ones.
_COUNT = st.one_of(st.integers(1, 12), st.integers(-2, 40), st.integers(41, 10**7))
_PRIME_P = st.one_of(st.sampled_from([2, 3, 5, 7, 11, 251, 65537, 2**61 - 1]),
                     st.integers(-10**6, 10**6), st.integers(2**80, 2**90))
# A config of each variant that builds; a drawn config replaces some of its values.
_BUILDS = {
    "SJST": {"n": 3, "ell": 4, "k": 8},
    "RSS": {"n": 3, "t": 1, "d": 1, "field": {"kind": "prime", "p": 251}},
    "STRAWMAN": {"n": 4, "field": {"kind": "binary", "m": 4}},
    **{variant: {"n": n, "d": 1, "ell": 4, "field": {"kind": "binary", "m": 8}}
       for variant, n in (("P1", 5), ("P2", 4), ("P3", 7))},
}


@st.composite
def _fields(draw):
    if draw(st.booleans()):
        return {"kind": "prime", "p": draw(_PRIME_P)}
    m = draw(st.one_of(st.integers(1, 16), st.integers(-2, 40)))
    poly = draw(st.one_of(st.none(), st.integers(-2**41, 2**41), st.sampled_from(
        [DEFAULT_BINARY_POLYS.get(m, 0x3), -DEFAULT_BINARY_POLYS.get(m, 0x3)])))
    if poly is None:
        return {"kind": "binary", "m": m}
    return {"kind": "binary", "m": m, "poly": draw(st.sampled_from([poly, hex(poly)]))}


@st.composite
def _protocol_configs(draw):
    variant = draw(st.sampled_from(sorted(_BUILDS)))
    return {"variant": variant, **{
        key: value if draw(st.booleans()) else draw(_fields() if key == "field" else _COUNT)
        for key, value in _BUILDS[variant].items()}}


def _build(obj):
    """What `ExperimentConfig` makes of `obj`: ("refused", message, whether
    the error is the package's own), or ("built", whether the protocol's field
    multiplies and inverts its largest element inside the field).  A built
    config's resolved JSON, which every report header writes, must serialize."""
    try:
        cfg = ExperimentConfig(obj)
    except ConfigError as exc:
        cause = exc.__cause__
        return "refused", str(exc), cause is None or type(cause).__module__.startswith("rsmt.")
    json.dumps(cfg.resolved_json())
    f = getattr(cfg.protocol, "field", None)
    if f is None:
        return "built", True
    top = f.q - 1
    return "built", f.mul_int(top, top) in range(f.q) and f.mul_int(top, f.inv_int(top)) == 1


def _one_on_1(protocol: dict) -> dict:
    """A config of `protocol` with one adversary, on channel 1."""
    return {"protocol": protocol, "profile": {"assignments": {"1": [1]}}}


@st.composite
def _experiment_configs(draw):
    """A drawn protocol config with one adversary on channel 1, and sometimes
    a drawn trial count."""
    obj = _one_on_1(draw(_protocol_configs()))
    if draw(st.booleans()):
        obj["trials"] = draw(_COUNT)
    return obj


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_experiment_configs())
@example(_one_on_1({"variant": "P1", "n": 5, "d": 1, "ell": 2,
                    "field": {"kind": "binary", "m": 2, "poly": -4}}))
@example(_one_on_1({"variant": "STRAWMAN", "n": 4,
                    "field": {"kind": "binary", "m": 8, "poly": "-0x11b"}}))
@example(_one_on_1({"variant": "STRAWMAN", "n": 3,
                    "field": {"kind": "binary", "m": 2, "poly": -7}}))
@example(_one_on_1({"variant": "STRAWMAN", "n": 10**5, "field": {"kind": "binary", "m": 4}}))
@example(_one_on_1({"variant": "STRAWMAN", "n": 10**7, "field": {"kind": "binary", "m": 4}}))
@example(_one_on_1({"variant": "RSS", **_BUILDS["RSS"], "d": 10**5}))
@example(_one_on_1({"variant": "RSS", **_BUILDS["RSS"], "d": 10**7}))
@example(_one_on_1({"variant": "RSS", **_BUILDS["RSS"], "d": 229,
                    "field": {"kind": "prime", "p": 2**61 - 1}}))
def test_every_protocol_config_builds_or_is_a_named_config_error(obj):
    # A hang, a bare Python error and a field whose products leave it all fail.
    # Pinned: negative polys once looped (-4, -0x11b) or built a broken GF(4)
    # (-7); STRAWMAN once counted C(n, t+1) first, 10^5 failing to print it
    # and 10^7 running for minutes; RSS once computed q^d first, d = 10^5
    # failing to print it and d = 10^7 running for minutes.  The largest d
    # at a 61-bit q, 229 elements (13,969 bits), builds.
    result = in_time(lambda: _build(obj), limit=5)
    if result[0] == "refused":
        assert result[2], f"{obj} is refused with an unnamed error: {result[1]}"
    else:
        assert result[1], f"{obj} builds a field whose arithmetic leaves it"


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("protocol, message", [
    ({"variant": "STRAWMAN", "n": 4, "field": {"kind": "binary", "m": 8, "poly": "-0x11b"}},
     "poly -0x11b is not irreducible of degree 8"),
    ({"variant": "STRAWMAN", "n": 10**7, "field": {"kind": "binary", "m": 4}},
     "n=10000000 makes a decode interpolate C(10000000, 5000000) subsets, over the 1024 "
     "point sets the Lagrange cache holds"),
    ({"variant": "RSS", **_BUILDS["RSS"], "d": 10**5},
     "d=100000 elements of GF(251) make a 800000-bit message, over the 14000-bit limit"),
    ({"variant": "RSS", **_BUILDS["RSS"], "d": 10**7},
     "d=10000000 elements of GF(251) make a 80000000-bit message, over the 14000-bit limit"),
], ids=["negative-poly", "strawman-n-1e7", "rss-d-1e5", "rss-d-1e7"])
@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_configs_that_once_hung_exit_3_in_time(tmp_path, command, protocol, message):
    path = write_config(tmp_path, dict(P1_CONFIG, protocol=protocol))
    code, err = in_time(lambda: _exit_and_stderr([command, "--config", path]), limit=5)
    assert (code, err) == (EXIT_CONFIG, f"config error: bad protocol config: {message}\n")


@pytest.mark.parametrize("content, message", [
    (b'{"trials": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    (b'{"trials": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["5000-digit-literal", "not-utf-8", "nested-100000-deep"])
def test_config_json_cannot_read_is_a_config_error_naming_the_file(tmp_path, capsys, content,
                                                                    message):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {path} cannot be read: ") and message in err


RSS_PROTOCOL = {"variant": "RSS", "n": 3, "t": 1, "d": 1, "field": {"kind": "prime", "p": 251}}


@pytest.mark.parametrize("command, change, message", [
    ("sweep", {"sweep": {"axis": "t", "values": [1, 2, 3]}}, "P1 does not read 't'"),
    ("sweep", {"protocol": RSS_PROTOCOL, "profile": {"assignments": {"1": [1]}},
               "sweep": {"axis": "ell", "values": [1, 2, 3]}}, "RSS does not read 'ell'"),
    ("simulate", {"protocol": {"variant": "SJST", "n": 3, "ell": 8, "k": 8, "nn": 9}},
     "SJST does not read 'nn'"),
    ("simulate", {"protocol": dict(P1_CONFIG["protocol"],
                                   field={"kind": "prime", "p": 251, "m": 8})},
     "prime field does not read 'm'"),
], ids=["sweep-t-on-p1", "sweep-ell-on-rss", "sjst-nn", "prime-field-m"])
def test_keys_the_protocol_does_not_read_fail_before_any_trial(
        tmp_path, capsys, monkeypatch, command, change, message):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    monkeypatch.setattr(rsmt.cli, "nash_catalog_check", no_trials)
    path = write_config(tmp_path, dict(P1_CONFIG, **change))
    assert main([command, "--config", path]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("bounds", [1], "config must be a JSON object, got [1]"),
    ("bounds", dict(P1_CONFIG, profile={"assignments": [1]}),
     "assignments must be a JSON object, got [1]"),
    ("sweep", dict(P1_CONFIG, sweep=["ell"]), "sweep requires {'axis'"),
    ("sweep", dict(P1_CONFIG, sweep={"axis": "ell", "values": 16}),
     "sweep values must be a list, got 16"),
    ("bounds", dict(P1_CONFIG, utility={"base": [1, 2]}),
     "base must be a JSON object, got [1, 2]"),
    ("simulate", dict(P1_CONFIG, profile={"assignments": {"1": "12"}}),
     "bad corruption profile: adversary 1 channels must be a JSON list, got '12'"),
    ("bounds", dict(P1_CONFIG, profile={"assignments": {"1": {"3": True}}}),
     "bad corruption profile: adversary 1 channels must be a JSON list, got {'3': True}"),
], ids=["top-level-list", "assignments-list", "sweep-list", "sweep-values-int",
        "utility-base-list", "channels-string", "channels-object"])
def test_config_of_the_wrong_shape_names_the_field(tmp_path, capsys, monkeypatch,
                                                  command, config, message):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    assert main([command, "--config", write_config(tmp_path, config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("attacks, message", [
    (["nope"], "unknown attack 'nope'"),
    ("passive", "attacks must be a non-empty list of attack names, got 'passive'"),
    ([], "attacks must be a non-empty list of attack names, got []"),
    (["passive", "length-tamper"], "attack 'length-tamper' does not apply to P1"),
    ([["passive"]], "unknown attack ['passive']"),
], ids=["unknown", "bare-string", "empty", "inapplicable", "not-a-name"])
def test_attacks_are_read_strictly(tmp_path, capsys, monkeypatch, command, attacks, message):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    monkeypatch.setattr(rsmt.cli, "nash_catalog_check", no_trials)
    cfg = dict(P1_CONFIG, attacks=attacks, sweep={"axis": "ell", "values": [8]})
    assert main([command, "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_sweep_without_adversaries_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("plays called")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    cfg = dict(P1_CONFIG, profile={"assignments": {}},
               sweep={"axis": "ell", "values": [8]})
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "at least one adversary" in capsys.readouterr().err


def test_simulate_without_adversaries_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    monkeypatch.setattr(rsmt.cli, "nash_catalog_check", no_trials)
    out = tmp_path / "report.csv"
    cfg = dict(P1_CONFIG, profile={"assignments": {}})
    argv = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: simulate needs at least one adversary in the profile\n")
    assert not out.exists()


SJST_N8 = {"variant": "SJST", "n": 8, "ell": 8, "k": 8}


@pytest.mark.parametrize("change, message", [
    ({"sweep": {"axis": "ell", "values": [8, "x"]}},
     "config error at ell=x: bad protocol config: ell must be an integer, got 'x'"),
    ({"sweep": {"axis": "trials", "values": [20, 0]}},
     "config error at trials=0: trials must be >= 1, got 0"),
    ({"sweep": {"axis": "trials", "values": [2.5]}},
     "config error at trials=2.5: trials must be an integer, got 2.5"),
    ({"protocol": SJST_N8, "profile": {"assignments": {"1": [5]}},
      "sweep": {"axis": "n", "values": [8, 3]}},
     "config error at n=3: bad corruption profile: adversary 1 corrupts nonexistent "
     "channels [5]"),
], ids=["ell-not-an-int", "trials-zero", "trials-fractional", "channel-beyond-n"])
def test_every_sweep_point_is_checked_as_a_full_config_before_any_trial(
        tmp_path, capsys, monkeypatch, change, message):
    # the first value of each sweep is a valid point, and still no trial runs
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    path = write_config(tmp_path, dict(P1_CONFIG, **change))
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep"])
def test_channel_outside_one_to_n_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(rsmt.game.play, "plays", no_trials)
    cfg = dict(P1_CONFIG, profile={"assignments": {"1": [9]}},
               sweep={"axis": "ell", "values": [8]})
    assert main([command, "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: bad corruption profile: adversary 1 corrupts nonexistent channels [9]\n")


# --- golden reports ----------------------------------------------------------

# Rows after the `# config` line, fixed for each (config, seed): any change to
# them changes a published report.
STRAWMAN_CONFIG = {
    "protocol": {"variant": "STRAWMAN", "n": 4, "field": {"kind": "binary", "m": 4}},
    "profile": {"assignments": {"1": [1, 2]}},
    "utility": {"base": {"000": 10.0, "100": 10.0, "010": 0.4, "110": 0.4,
                         "001": 1.0, "101": 1.0, "011": 0.0, "111": 0.0},
                "message_space_size": 16},
}
STRAWMAN_ROWS = f"""\
# master_seed 2
{PROVENANCE}
protocol,adversary,attack,trials,mean,ci95,threshold,flag
STRAWMAN,1,passive,50,0.400000,0.000000,0.400000,0
STRAWMAN,1,block-channel,50,8.080000,1.064394,1.464394,1
STRAWMAN,1,share-substitution,50,8.848000,0.864718,1.264718,1
STRAWMAN,1,share-substitution-1,50,0.400000,0.000000,0.400000,0
STRAWMAN,1,swap-half,50,7.888000,1.102303,1.502303,1
"""
P1_ROWS = f"""\
# master_seed 3
{PROVENANCE}
protocol,adversary,attack,trials,mean,ci95,threshold,flag
P1,1,passive,60,2.000000,0.000000,2.000000,0
P1,1,block-channel,60,0.000000,0.000000,2.000000,0
P1,1,share-substitution,60,0.050000,0.097180,2.097180,0
P1,1,share-substitution-1,60,0.033333,0.064787,2.064787,0
P1,1,tag-framing,60,2.000000,0.000000,2.000000,0
P1,1,mask-framing,60,0.100000,0.136263,2.136263,0
P1,1,swap-half,60,0.050000,0.097180,2.097180,0
"""
SJST_SWEEP_CONFIG = {
    "protocol": {"variant": "SJST", "n": 3, "ell": 2, "k": 8},
    "profile": {"assignments": {"1": [1], "2": [2]}},
    "utility": {"base": {"000": 3, "100": 3, "010": 2, "110": 2,
                         "001": 1, "101": 1, "011": 0, "111": 0},
                "others_detected_bonus": 0.1},
    "attacks": ["passive", "share-substitution", "length-tamper"],
    "trials": 200,
    "sweep": {"axis": "ell", "values": [2, 4]},
}
SJST_SWEEP_ROWS = f"""\
# master_seed 1
{PROVENANCE}
axis,value,attack,trials,suc_rate,detect_rate,undetected_wrong_rate,utility_mean
ell,2,passive,200,1.000000,0.000000,0.000000,2.000000
ell,2,share-substitution,200,0.750000,0.750000,0.250000,0.750000
ell,2,length-tamper,200,1.000000,1.000000,0.000000,0.000000
ell,4,passive,200,1.000000,0.000000,0.000000,2.000000
ell,4,share-substitution,200,0.945000,0.945000,0.055000,0.165000
ell,4,length-tamper,200,1.000000,1.000000,0.000000,0.000000
"""
# Captured before sweep points became full configs: one sweep per axis kind
# (a protocol size, the trial count, a threshold on another protocol).
SJST_N_SWEEP_CONFIG = {
    "protocol": {"variant": "SJST", "n": 3, "ell": 4, "k": 8},
    "profile": {"assignments": {"1": [1, 2]}},
    "attacks": ["passive", "share-substitution"],
    "trials": 120,
    "sweep": {"axis": "n", "values": [3, 5]},
}
SJST_N_SWEEP_ROWS = f"""\
# master_seed 4
{PROVENANCE}
axis,value,attack,trials,suc_rate,detect_rate,undetected_wrong_rate,utility_mean
n,3,passive,120,1.000000,0.000000,0.000000,2.000000
n,3,share-substitution,120,0.858333,1.000000,0.000000,0.141667
n,5,passive,120,1.000000,0.000000,0.000000,2.000000
n,5,share-substitution,120,0.891667,1.000000,0.000000,0.108333
"""
P1_TRIALS_SWEEP_ROWS = f"""\
# master_seed 5
{PROVENANCE}
axis,value,attack,trials,suc_rate,detect_rate,undetected_wrong_rate,utility_mean
trials,30,share-substitution,30,0.966667,0.966667,0.033333,0.100000
trials,80,share-substitution,80,0.987500,0.987500,0.012500,0.037500
"""
RSS_T_SWEEP_CONFIG = {
    "protocol": {"variant": "RSS", "n": 5, "t": 1, "d": 1, "field": {"kind": "prime", "p": 11}},
    "profile": {"assignments": {"1": [1]}},
    "attacks": ["passive", "block-channel", "share-substitution"],
    "trials": 100,
    "sweep": {"axis": "t", "values": [1, 2]},
}
RSS_T_SWEEP_ROWS = f"""\
# master_seed 6
{PROVENANCE}
axis,value,attack,trials,suc_rate,detect_rate,undetected_wrong_rate,utility_mean
t,1,passive,100,1.000000,0.000000,0.000000,2.000000
t,1,block-channel,100,0.000000,1.000000,0.000000,1.000000
t,1,share-substitution,100,0.010000,0.860000,0.130000,1.270000
t,2,passive,100,1.000000,0.000000,0.000000,2.000000
t,2,block-channel,100,0.000000,1.000000,0.000000,1.000000
t,2,share-substitution,100,0.010000,0.910000,0.080000,1.170000
"""


GOLDEN_REPORTS = {
    "simulate-strawman": (["simulate", "--seed", "2", "--trials", "50"], STRAWMAN_CONFIG,
                          EXIT_FLAG, STRAWMAN_ROWS),
    "simulate-p1": (["simulate", "--seed", "3", "--trials", "60"], P1_CONFIG, EXIT_OK, P1_ROWS),
    "sweep-sjst": (["sweep", "--seed", "1"], SJST_SWEEP_CONFIG, EXIT_OK, SJST_SWEEP_ROWS),
    "sweep-sjst-n": (["sweep", "--seed", "4"], SJST_N_SWEEP_CONFIG, EXIT_OK, SJST_N_SWEEP_ROWS),
    "sweep-p1-trials": (["sweep", "--seed", "5"],
                        dict(P1_CONFIG, sweep={"axis": "trials", "values": [30, 80]}),
                        EXIT_OK, P1_TRIALS_SWEEP_ROWS),
    "sweep-rss-t": (["sweep", "--seed", "6"], RSS_T_SWEEP_CONFIG, EXIT_OK, RSS_T_SWEEP_ROWS),
}


@pytest.mark.parametrize("argv, config, code, rows", GOLDEN_REPORTS.values(),
                         ids=GOLDEN_REPORTS.keys())
def test_fixed_seed_report_is_golden(tmp_path, argv, config, code, rows):
    out = tmp_path / "report.csv"
    path = write_config(tmp_path, config)
    assert main(argv + ["--config", path, "--out", str(out)]) == code
    header, body = out.read_text().split("\n", 1)
    assert header.startswith("# config ")
    assert body == rows


# Base payoffs 10^17 + 3, + 2, + 1 and + 0, which no float tells apart.
BIG_INT_BASE = {f"{g}{s}{d}": 10**17 + 3 - s - 2 * d for g in (0, 1) for s in (0, 1) for d in (0, 1)}


@pytest.mark.parametrize("argv, config", [
    *((argv, config) for argv, config, _, _ in GOLDEN_REPORTS.values()),
    (["bounds"], dict(P1_CONFIG, utility={"base": BIG_INT_BASE})),
], ids=[*GOLDEN_REPORTS, "bounds-big-int-payoffs"])
def test_a_reports_config_line_given_back_reproduces_the_report(tmp_path, argv, config):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    code = main(argv + ["--config", write_config(tmp_path, config), "--out", str(first)])
    header = first.read_text().split("\n", 1)[0]
    path = write_config(tmp_path, json.loads(header.removeprefix("# config ")), "again.json")
    assert main(argv + ["--config", path, "--out", str(again)]) == code
    assert again.read_text() == first.read_text()
