"""List the lines of `src/rsmt` that no test reaches.

    python3 tools/line_trace.py [PYTEST_ARGS...]

Runs pytest in this process under a `sys.settrace` line tracer that records
only frames whose code lives under `src/rsmt`, then prints every executable
line (a line some compiled code object of the file maps an instruction to,
read from `co_lines`) that no frame reached.  Exit status 1 when an
unreached line is not in `ALLOWED`, an `ALLOWED` entry matches no unreached
line (it is stale: delete it), or pytest failed, else 0.

Without arguments it runs `tests/` except `tests/test_acceptance.py`, whose
Monte-Carlo runs take most of the suite's time, which tracing multiplies;
pass pytest arguments (for example `tests`) to run something else.  The tracer sees this process only: code run in a subprocess
counts as unreached.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "rsmt"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider",
                f"--ignore={REPO / 'tests' / 'test_acceptance.py'}", str(REPO / "tests")]

# (file under src/rsmt, stripped source line) -> why no test needs to reach it
ALLOWED = {
    ("protocols/base.py", "raise NotImplementedError"):
        "interface stubs of `Protocol`: every protocol overrides them",
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m rsmt.cli`; the tests call `main` in-process",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that some instruction of its code objects maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(root: Path, run):
    """`run()` under a line tracer of the frames whose file is under `root`;
    returns (its result, {file name: reached lines}).  The tracer that was
    installed before is restored afterwards."""
    prefix = str(root.resolve()) + os.sep
    reached: dict[str, set[int]] = {}
    traced: dict[str, bool] = {}

    def on_line(frame, event, _arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = name.startswith(prefix)
            if traced[name]:
                reached[name] = set()
        return on_line if traced[name] else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, reached


def unreached(root: Path, reached: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(path relative to `root`, line, stripped source) of every executable
    line of the .py files under `root` that `reached` does not hold."""
    out = []
    for path in sorted(root.resolve().rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = executable_lines(path) - reached.get(str(path), set())
        rel = path.relative_to(root.resolve()).as_posix()
        out += [(rel, line, source[line - 1].strip()) for line in sorted(missed)]
    return out


def report(missed: list[tuple[str, int, str]], allowed=ALLOWED) -> tuple[list[str], int]:
    """The report lines and the number of faults: unreached lines `allowed`
    lacks, and entries of `allowed` that match no unreached line."""
    lines, bad = [], 0
    for rel, line, text in missed:
        reason = allowed.get((rel, text))
        bad += reason is None
        lines.append(f"{rel}:{line}: {text}" + ("" if reason is None else f"  [allowed: {reason}]"))
    stale = sorted(set(allowed) - {(rel, text) for rel, _, text in missed})
    lines += [f"{rel}: stale allowlist entry, no unreached line reads: {text}"
              for rel, text in stale]
    lines.append(f"{len(missed)} unreached lines, {bad} outside the allowlist, "
                 f"{len(stale)} stale allowlist entries")
    return lines, bad + len(stale)


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    code, reached = trace(SRC, lambda: pytest.main(args or DEFAULT_ARGS))
    lines, bad = report(unreached(SRC, reached))
    print("\n".join(lines))
    if code != 0:
        print(f"pytest exited with {int(code)}")
    return 1 if bad or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
