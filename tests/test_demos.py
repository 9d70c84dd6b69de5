"""Smoke test: every narrated demo runs to completion (they assert their
own claims, e.g. that a corrupted share is corrected).  Guards: every
definition under src/rsmt is named by the package, a demo or the benchmark,
and the benchmark's trace targets and strategy methods that name no code are
pinned sets."""

import ast
import importlib.util
import re
import runpy
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _without_reexports(path: Path) -> str:
    """The text of `path`; of an `__init__.py`, less its imports."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_every_definition_in_src_is_named_by_a_caller():
    # Tests do not count: what only a test reads belongs in the tests.  Dunder
    # methods are named by the language.
    text = "\n".join(_without_reexports(path) for folder in ("src", "demos", "perfbench")
                     for path in sorted((ROOT / folder).rglob("*.py")))
    defined = {node.name for path in (ROOT / "src" / "rsmt").rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not re.fullmatch(r"__\w+__", node.name)}
    words = Counter(re.findall(r"\w+", text))
    definitions = Counter(re.findall(r"\b(?:def|class) (\w+)", text))
    assert {name for name in defined if words[name] == definitions[name]} == set()


def _tracing():
    """perfbench/tracing.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


# Trace targets of perfbench/tracing.py that name no code: each reads 0 in
# the per-layer metrics until the benchmark drops or renames it.
STALE_TRACE_TARGETS = {
    "rsmt.game.play.trial_seed",
    "rsmt.game.play.utilities_of",
    "rsmt.hashing.HashFunction.evaluate",
    "rsmt.hashing.offset_collision_prob_exhaustive",
    "rsmt.sharing.rs_reconstruct_bruteforce",
}


def test_trace_targets_go_stale_only_on_the_pinned_list():
    # a newly stale target fails, and so does a pinned one that names code again
    tracing = _tracing()
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS + tracing.BUILD_TARGETS
    stale = {f"{module}.{name}" for module, name, _key in targets
             if tracing._resolve(module, name) is None}
    assert stale == STALE_TRACE_TARGETS


# Strategy methods of perfbench/tracing.py that no strategy class defines.
STALE_STRATEGY_METHODS = {"final_guess"}


def test_strategy_methods_go_stale_only_on_the_pinned_list():
    # the benchmark wraps each method on every strategy class of its modules
    # that defines it: one that none defines reads 0
    tracing = _tracing()
    base = importlib.import_module("rsmt.transport").AdversaryStrategy
    classes = [cls for name in tracing.STRATEGY_MODULES
               for cls in vars(importlib.import_module(name)).values()
               if isinstance(cls, type) and issubclass(cls, base) and cls.__module__ == name]
    stale = {method for method in tracing.STRATEGY_METHODS
             if not any(callable(cls.__dict__.get(method)) for cls in classes)}
    assert stale == STALE_STRATEGY_METHODS
