import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summarize_counts_wins_and_ties_by_direction():
    parent, change = [4.0, 2.0, 3.0, 5.0], [3.0, 2.0, 4.0, 1.0]
    lower = bench_pairs.summarize(parent, change, "lower")
    assert (lower["change_wins"], lower["ties"]) == (2, 1)
    assert lower["parent"]["runs"] == parent and lower["change"]["runs"] == change
    assert lower["parent"]["median"] == 3.5 and lower["change"]["median"] == 2.5
    assert lower["change_over_parent"] == 2.5 / 3.5
    assert lower["parent"]["q1"] <= 3.5 <= lower["parent"]["q3"]
    higher = bench_pairs.summarize(parent, change, "higher")
    assert (higher["change_wins"], higher["ties"]) == (1, 1)


def test_single_run_has_degenerate_quartiles():
    assert bench_pairs.quartiles([0.5]) == {"q1": 0.5, "median": 0.5, "q3": 0.5}


def _checkout(root: Path, bench_code: str, rsmt_code: str = "a = 1\nb = 2\n") -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(bench_code)
    (root / "perfbench" / "__pycache__").mkdir()
    (root / "perfbench" / "__pycache__" / "run.pyc").write_bytes(bytes(root.name, "ascii"))
    (root / "src" / "rsmt").mkdir(parents=True)
    (root / "src" / "rsmt" / "__init__.py").write_text(rsmt_code)
    return root


def test_refuses_when_the_benchmark_trees_differ(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "print('a')\n")
    change = _checkout(tmp_path / "change", "print('b')\n")
    out = tmp_path / "out.json"
    code = bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1",
                             "--seconds", "1", "--out", str(out)])
    assert code == 2
    assert "perfbench/ trees differ" in capsys.readouterr().err
    assert not out.exists()


def test_bytecode_caches_do_not_count_as_a_difference(tmp_path):
    parent = _checkout(tmp_path / "parent", "print('a')\n")
    change = _checkout(tmp_path / "change", "print('a')\n")
    assert (bench_pairs.tree_digest(parent / "perfbench")
            == bench_pairs.tree_digest(change / "perfbench"))
    assert bench_pairs.src_lines(parent) == 2


def _fake_run(parent: Path, calls: list):
    """A stand-in for `run_bench`: the parent takes 2 s, the change 1 s, and
    both report stream `v0` in their provenance."""
    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == parent else "change"
        calls.append((side, seed))
        value = 2.0 if side == "parent" else 1.0
        return {"metrics": {"run_s": {"value": value, "unit": "s"}}, "failed": 0,
                "attempted": 10, "digest": "d" * 64, "unit_wall_s": value,
                "provenance": {"git_commit": side, "cpu": "c", "nproc": 2, "platform": "p",
                               "rng_stream": "v0"}}

    return fake_run


def _bench_spec(change: Path) -> None:
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower"}]}))


def test_pairs_alternate_and_merge_into_an_existing_file(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", "")
    change = _checkout(tmp_path / "change", "")
    _bench_spec(change)
    calls = []
    monkeypatch.setattr(bench_pairs, "run_bench", _fake_run(parent, calls))
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"workloads": {"other": {"pairs": 5}}}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3",
                             "--seconds", "1", "--out", str(out)]) == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    got = json.loads(out.read_text())
    assert got["workloads"]["other"] == {"pairs": 5}
    entry = got["workloads"]["w"]
    assert entry["pair_order"] == ["parent first", "change first", "parent first"]
    assert entry["metrics"]["run_s"]["change_wins"] == 3
    assert entry["metrics"]["run_s"]["change_over_parent"] == pytest.approx(0.5)
    assert got["src_lines"] == {"parent": 2, "change": 2}
    assert got["commits"] == {"parent": "parent", "change": "change"}


def test_rng_stream_is_read_from_each_checkouts_own_source(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", "", "VERSION = 1\n")
    change = _checkout(tmp_path / "change", "", "RNG_STREAM = 'v1'\n")
    _bench_spec(change)
    monkeypatch.setattr(bench_pairs, "run_bench", _fake_run(parent, []))
    out = tmp_path / "out.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1",
                             "--seconds", "1", "--out", str(out)]) == 0
    # not the "v0" both sides' provenance reports
    assert json.loads(out.read_text())["rng_stream"] == {"parent": "v0", "change": "v1"}
