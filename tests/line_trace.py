"""Which statements of src/ttt_lab does no test execute?

Runs pytest over tests/ in this process under sys.settrace, records the
lines executed in frames whose code is a module of src/ttt_lab, and
prints every statement that no test reached, as path:line and its text,
then a count.  Docstrings and the def and class lines are not counted,
and neither is code run only in a subprocess, such as the CLI's
`sys.exit(main())`.  Arguments, if any, replace tests/ as pytest's;
its exit code is returned.

    python tests/line_trace.py [pytest arguments]

The script has no test_ name, so the suite does not collect it.  Only
frames of ttt_lab are traced line by line, so the suite runs about as
fast as untraced; a test that fails still records the lines it ran.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ttt_lab"


def statements(source: str) -> set:
    """The line of each statement of a module, docstrings and definitions aside."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and not isinstance(node, skip)
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))}


def main(args) -> int:
    sources = {str(path): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: bytearray(text.count("\n") + 2) for name, text in sources.items()}

    def local_tracer(seen):
        def trace(frame, event, arg):
            if event == "line":
                seen[frame.f_lineno] = 1
            return trace
        return trace

    # One tracer per module, made up front: a traced call allocates nothing,
    # so the suite's tracemalloc bounds see no more than they would untraced.
    tracers = {name: local_tracer(seen) for name, seen in hits.items()}

    def on_call(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(PACKAGE.parent))    # before the tests import ttt_lab
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, text in sources.items():
        lines, linenos = text.splitlines(), statements(text)
        total += len(linenos)
        for lineno in sorted(linenos):
            if not hits[name][lineno]:
                missed += 1
                print(f"{Path(name).relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"not executed by the tests: {missed} of the {total} statements of src/ttt_lab")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
