"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sjst_sweep \
        --pairs 10 --seconds 20 --out BENCH_10.json [--trace 1]

Pair p runs each checkout's own `perfbench/run.py --seed p`; odd pairs run
the parent first, even pairs the change first.  Both checkouts must hold the
same `perfbench/` tree, so the two sides differ only in the code measured.
Per end-to-end metric of the change's `BENCHMARK.json` the result holds the
median, quartiles and runs of each side, the change/parent ratio of the
medians, and the pairs the change won (ties count for neither).  With
`--trace 1` it adds one `--trace 1` run per side: the per-layer metrics and
the names the tracer did not find.

`--out` is a JSON file in the layout of `BENCH_9.json`.  An existing file is
updated: the workload's entry is replaced and the others are kept, so one
file collects every workload of a comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGEST = re.compile(r"^reference digest .*?: ([0-9a-f]{64}) ")
WALL = re.compile(r"^wall time of a unit: median ([0-9.]+) s")
NOT_FOUND = "trace: not found, reported as 0: "


def tree_digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root`, bytecode caches left out."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


def rng_stream(checkout: Path) -> str:
    """`rsmt.RNG_STREAM` as the checkout's own `src/` defines it, or `v0`,
    the stream layout from before the constant, where it is absent."""
    code = "import rsmt; print(getattr(rsmt, 'RNG_STREAM', 'v0'))"
    # -S keeps an installed rsmt off the path; -B writes no bytecode
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", code], cwd=checkout / "src",
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One `perfbench/run.py` run: its final JSON object plus the digest,
    wall-time, provenance and not-found lines it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    out["not_found"] = []
    for line in lines:
        if line.startswith("# provenance "):
            out["provenance"] = json.loads(line[len("# provenance "):])
        elif (m := DIGEST.match(line)) is not None:
            out["digest"] = m.group(1)
        elif (m := WALL.match(line)) is not None:
            out["unit_wall_s"] = float(m.group(1))
        elif line.startswith(NOT_FOUND):
            out["not_found"] = line[len(NOT_FOUND):].split(", ")
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and runs per side; the change/parent ratio of the
    medians; the pairs the change won and the ties."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    sides = {"parent": {**quartiles(parent), "runs": parent},
             "change": {**quartiles(change), "runs": change}}
    ratio = sides["change"]["median"] / sides["parent"]["median"]
    return {**sides, "change_over_parent": ratio, "change_wins": wins, "ties": ties}


def compare(dirs: dict[str, Path], workload: str, pairs: int, seconds: int) -> dict:
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    runs = {side: [] for side in SIDES}
    order = []
    for p in range(1, pairs + 1):
        first = SIDES if p % 2 else SIDES[::-1]
        order.append(f"{first[0]} first")
        for side in first:
            runs[side].append(run_bench(dirs[side], workload, p, seconds, 0))
            print(f"{workload} pair {p} {side}: run_s "
                  f"{runs[side][-1]['metrics']['run_s']['value']:.6f}", file=sys.stderr)
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        metrics[name] = {"unit": m["unit"], "better": m["better"],
                         **summarize(values["parent"], values["change"], m["better"])}
    return {
        "pairs": pairs,
        "seeds": list(range(1, pairs + 1)),
        "pair_order": order,
        "reference_digest": {side: sorted({r.get("digest") for r in runs[side]})
                             for side in SIDES},
        "metrics": metrics,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "unit_wall_s_median_per_run": {side: [r.get("unit_wall_s") for r in runs[side]]
                                       for side in SIDES},
        "provenance": {side: runs[side][0]["provenance"] for side in SIDES},
    }


def traced(dirs: dict[str, Path], workload: str, seconds: int) -> dict:
    runs = {side: run_bench(dirs[side], workload, 1, seconds, 1) for side in SIDES}
    return {
        "note": "one --trace 1 run per side at --seed 1; self_s is per unit (median "
                "over units), calls are exact counts over the first traced unit",
        "not_found": {side: runs[side]["not_found"] for side in SIDES},
        "all": {side: {k: v["value"] for k, v in runs[side]["metrics"].items()}
                for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if tree_digest(dirs["parent"] / "perfbench") != tree_digest(dirs["change"] / "perfbench"):
        print("error: the two perfbench/ trees differ; both sides must run the same "
              "benchmark code", file=sys.stderr)
        return 2

    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    entry = compare(dirs, args.workload, args.pairs, args.seconds)
    provenance = entry.pop("provenance")
    result.update({
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds} --trace 0",
        "method": "Alternating same-host pairs; parent and change each run from its own "
                  "checkout with identical perfbench/ code. Pair p runs --seed p on both "
                  "sides; odd pairs run the parent first, even pairs the change first. Per "
                  "metric: median and quartiles of the per-run values, the change/parent "
                  "ratio of the medians, and the number of pairs the change won (ties "
                  "count for neither).",
        "commits": {side: provenance[side]["git_commit"] for side in SIDES},
        "python": platform.python_version(),
        "machine": {"cpu": provenance["change"]["cpu"], "nproc": provenance["change"]["nproc"],
                    "platform": provenance["change"]["platform"]},
        "rng_stream": {side: rng_stream(dirs[side]) for side in SIDES},
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
    })
    result.setdefault("workloads", {})[args.workload] = entry
    if args.trace:
        result["trace_command"] = ("python3 perfbench/run.py --workload W --seed 1 "
                                   f"--seconds {args.seconds} --trace 1")
        result[f"per_layer_{args.workload}"] = traced(dirs, args.workload, args.seconds)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
