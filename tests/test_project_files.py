"""Files that lean on the package's public API.

The README's python quick start is run as written, every traced layer
target of the benchmark harness (bench/traced.py) must name a function
that exists, and every module's __all__ must name what the module
defines, so a renamed or removed function fails here rather than only
as a FLAG line in a benchmark run or an ImportError at
`from ttt_lab.x import *`.  The package root binds no public name but
its submodules, so each name has one import path.
"""

import contextlib
import importlib
import io
import pkgutil
import re
import sys
from pathlib import Path

import ttt_lab

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


def test_every_exported_name_exists():
    submodules = set()
    for info in pkgutil.iter_modules(ttt_lab.__path__):
        module = importlib.import_module(f"ttt_lab.{info.name}")
        submodules.add(info.name)
        names = set(getattr(module, "__all__", ()))
        missing = sorted(name for name in names if not hasattr(module, name))
        assert missing == [], f"ttt_lab.{info.name}.__all__ names what it lacks"
    bound = {name for name in vars(ttt_lab) if not name.startswith("_")}
    assert bound <= submodules and ttt_lab.__version__
