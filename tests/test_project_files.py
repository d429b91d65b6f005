"""Files outside the package that lean on its public API.

The README's python quick start is run as written, and every traced
layer target of the benchmark harness (bench/traced.py) must name a
function that exists, so a renamed or removed function fails here
rather than only as a FLAG line in a benchmark run.
"""

import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    worst_sq_error = float(out.getvalue())
    assert 0.0 <= worst_sq_error < 1e-20


def test_traced_layer_targets_resolve_in_the_package():
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        layers = importlib.import_module("traced").LAYERS
    finally:
        sys.path.remove(bench)
    missing = []
    for targets in layers.values():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            for attr in qualname.split("."):
                # looked up through vars(), as the tracer does
                owner = vars(owner).get(attr) if owner is not None else None
            if owner is None:
                missing.append(target)
    assert missing == []
