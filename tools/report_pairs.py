"""Check that two checkouts print byte-identical reports.

    python3 tools/report_pairs.py PARENT_DIR CHANGE_DIR

In each checkout, with `python3 -B` on that checkout's own `src/`, it runs
`rsmt bounds` on every `perfbench/configs/*.json`, `rsmt simulate --seed S
--dump-transcript FILE` on each `catalog_*.json` and `rsmt sweep --seed S` on
`sjst_sweep.json` for the seeds 1 to 3, and `rsmt verify`.  It compares each
command's stdout, dump file and exit code byte for byte, prints every command
whose results differ, and exits 1 on any difference, 0 when there is none.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
PARTS = ("exit code", "stdout", "dump")


def commands(checkout: Path) -> list[list[str]]:
    """The `rsmt` argument lists to run, config paths relative to the checkout."""
    configs = [f"perfbench/configs/{p.name}"
               for p in sorted((checkout / "perfbench" / "configs").glob("*.json"))]
    out = [["bounds", "--config", c] for c in configs]
    out += [["simulate", "--config", c, "--seed", str(s)]
            for c in configs if Path(c).name.startswith("catalog_") for s in SEEDS]
    out += [["sweep", "--config", "perfbench/configs/sjst_sweep.json", "--seed", str(s)]
            for s in SEEDS]
    return out + [["verify"]]


def run(checkout: Path, args: list[str], dump: Path) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, dump file) of `rsmt ARGS` in `checkout`; simulate
    also dumps its transcript to `dump`, which is removed afterwards."""
    argv = args + ["--dump-transcript", str(dump)] if args[0] == "simulate" else args
    proc = subprocess.run([sys.executable, "-B", "-m", "rsmt.cli", *argv], cwd=checkout,
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                          capture_output=True)
    dumped = dump.read_bytes() if dump.exists() else b""
    dump.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, dumped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.jsonl"
        todo = commands(change)
        for cmd in todo:
            results = zip(run(parent, cmd, dump), run(change, cmd, dump))
            parts = [part for part, (a, b) in zip(PARTS, results) if a != b]
            if parts:
                differing += 1
                print(f"differs ({', '.join(parts)}): rsmt {' '.join(cmd)}")
    print(f"{differing} of {len(todo)} commands differ" if differing
          else f"all {len(todo)} commands byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
