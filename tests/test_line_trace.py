import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"
_SPEC = importlib.util.spec_from_file_location("line_trace", _PATH)
line_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_trace)

TOY = """\
def sign(x):
    if x < 0:
        return -1
    return 1


def stub():
    raise NotImplementedError
"""


def test_lists_the_lines_no_frame_reached(tmp_path):
    root = (tmp_path / "toy").resolve()
    root.mkdir()
    (root / "mod.py").write_text(TOY)

    def run():
        spec = importlib.util.spec_from_file_location("toy_mod", root / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(5)

    result, reached = line_trace.trace(root, run)
    assert result == 1
    missed = line_trace.unreached(root, reached)
    assert missed == [("mod.py", 3, "return -1"), ("mod.py", 8, "raise NotImplementedError")]
    allowed = {("mod.py", "raise NotImplementedError"): "a stub",
               ("mod.py", "return 1"): "reached, so the entry is stale"}
    lines, bad = line_trace.report(missed, allowed)
    assert bad == 2
    assert lines == ["mod.py:3: return -1",
                     "mod.py:8: raise NotImplementedError  [allowed: a stub]",
                     "mod.py: stale allowlist entry, no unreached line reads: return 1",
                     "2 unreached lines, 1 outside the allowlist, 1 stale allowlist entries"]
    assert line_trace.report(missed[1:], allowed)[1] == 1  # the stale entry alone fails
