import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_pairs.py"
_SPEC = importlib.util.spec_from_file_location("report_pairs", _PATH)
report_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_pairs)

# A stand-in `rsmt.cli`: prints its arguments, the dump path left out, and
# writes `DUMP` to the dump file.
FAKE_CLI = """import sys
args = sys.argv[1:]
if "--dump-transcript" in args:
    at = args.index("--dump-transcript")
    with open(args[at + 1], "w") as fh:
        fh.write(DUMP)
    del args[at:at + 2]
print(" ".join(args))
sys.exit(0)
"""


def _checkout(root: Path, dump: str = "'{}\\n'") -> Path:
    (root / "perfbench" / "configs").mkdir(parents=True)
    for name in ("catalog_a.json", "sjst_sweep.json"):
        (root / "perfbench" / "configs" / name).write_text("{}\n")
    (root / "src" / "rsmt").mkdir(parents=True)
    (root / "src" / "rsmt" / "__init__.py").write_text("")
    (root / "src" / "rsmt" / "cli.py").write_text(FAKE_CLI.replace("DUMP", dump, 1))
    return root


def test_commands_cover_every_config_seed_and_verify(tmp_path):
    cmds = report_pairs.commands(_checkout(tmp_path))
    assert cmds == (
        [["bounds", "--config", f"perfbench/configs/{c}"]
         for c in ("catalog_a.json", "sjst_sweep.json")]
        + [["simulate", "--config", "perfbench/configs/catalog_a.json", "--seed", s]
           for s in "123"]
        + [["sweep", "--config", "perfbench/configs/sjst_sweep.json", "--seed", s]
           for s in "123"]
        + [["verify"]])


def test_equal_outputs_pass_and_a_one_byte_difference_is_reported(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent")
    same = _checkout(tmp_path / "same")
    assert report_pairs.main([str(parent), str(same)]) == 0
    assert capsys.readouterr().out == "all 9 commands byte-identical\n"
    # one byte of one dump: seed 2's transcript
    planted = _checkout(tmp_path / "planted", dump="'{]\\n' if '2' in args else '{}\\n'")
    assert report_pairs.main([str(parent), str(planted)]) == 1
    assert capsys.readouterr().out == (
        "differs (dump): rsmt simulate --config perfbench/configs/catalog_a.json --seed 2\n"
        "1 of 9 commands differ\n")
