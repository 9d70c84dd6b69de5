"""rsmt benchmark: end-to-end time to a result per workload, and per-layer
spans in a separate traced run.

    python3 perfbench/run.py --workload sjst_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give provenance, the sample count behind every median and percentile, the
correctness gates and the report digests.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
DEADLINE_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of a git checkout at the root, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child(args, deadline: float, *extra: str) -> dict:
    """Run workloads.py in a fresh process and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"  # one string-hash layout for every process
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports cached bytecode
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rsmt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rsmt" / "__init__.py").is_file():
        print(f"error: no rsmt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            # The first process also writes the bytecode caches; not counted.
            child(args, deadline, "--setup-only")
            setups = [child(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
        res = child(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ref = res["reference"]
    provenance = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "rsmt": res["rsmt_version"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 process, 1 thread",
        "rng_stream": ref["rng_stream"],
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    attempted, failed = res["attempted"], res["failed"]
    units = res["units"]
    w_q1, w_median, w_q3 = quartiles(res["unit_wall_s"])
    print(f"wall time of a unit: median {w_median:.6f} s of {units} units "
          f"(q1 {w_q1:.6f}, q3 {w_q3:.6f}, fastest {min(res['unit_wall_s']):.6f})")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6f}")
    print(f"reference digest (master_seed {ref['master_seed']}, rng stream "
          f"{ref['rng_stream']}): {ref['digest']} "
          f"{'match' if ref['match'] else 'MISMATCH, stored ' + str(ref['stored'])}")
    correct = not res["problems"]
    for problem in res["problems"][:20]:
        print(f"gate failed: {problem}")
    if len(res["problems"]) > 20:
        print(f"gate failed: ... {len(res['problems']) - 20} more")

    if args.trace:
        tr = res["trace"]
        correct = correct and tr["digests_equal"] and tr["restored"]
        print(f"trace: {tr['traced_units']} traced units; digests equal to untraced: "
              f"{tr['digests_equal']}; every wrapped name restored: {tr['restored']}")
        if tr["missing"]:
            print("trace: not found, reported as 0: " + ", ".join(tr["missing"]))
        units_of = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units_of[name]}
                   for name, value in tr["metrics"].items()}
        for name, m in metrics.items():
            print(f"{name}: {m['value']} {m['unit']}")
    else:
        # Times at the reference speed of speed.py, medians over units and
        # over set-up processes.
        q1, run_s, q3 = quartiles(res["unit_s"])
        print(f"run_s: median {run_s:.6f} s of {units} units (q1 {q1:.6f}, q3 {q3:.6f})")
        ops_q1, ops_per_s, ops_q3 = quartiles(res["ops_per_s"])
        print(f"ops_per_s: median {ops_per_s:.3f} of {units} units (q1 {ops_q1:.3f}, "
              f"q3 {ops_q3:.3f})")
        s_q1, setup_s, s_q3 = quartiles([s["setup_s"] for s in setups])
        wall = statistics.median(s["setup_wall_s"] for s in setups)
        print(f"setup_s: median {setup_s:.6f} s over {len(setups)} fresh processes "
              f"(q1 {s_q1:.6f}, q3 {s_q3:.6f}; wall time median {wall:.6f} s)")
        print(f"max_rss_mb: {res['max_rss_mb']:.3f} MB")
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "max_rss_mb": {"value": res["max_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(f"correct: {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
