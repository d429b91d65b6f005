"""Files that lean on the package's public API.

The README's python quick start is run as written, every traced layer
target of the benchmark harness (bench/traced.py) must name a function
that exists, and every module's __all__ must name what the module
defines, so a renamed or removed function fails here rather than only
as a FLAG line in a benchmark run or an ImportError at
`from ttt_lab.x import *`.  The rule-spec grammar of the recall error
messages, which the README copies, must name every rule and gate of
the rule table, and the README's recall section must name every field
of RecallTask and StreamConfig, and every function its evaluation
section calls must exist.  The package root binds no public name but
its submodules, so each name has one import path.
"""

import contextlib
import dataclasses
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


def test_the_rule_spec_grammar_names_every_rule_and_gate():
    from ttt_lab import recall_bench
    from ttt_lab.state_rules import GATES

    readme = (ROOT / "README.md").read_text()
    grammar = {}
    for item in recall_bench._VALID_RULES.split(", "):
        name, gates = re.fullmatch(r"(\w+)(?:\[(.*)\])?", item).groups()
        grammar[name] = set(gates.replace(":", "").split("|")) if gates else set()
        assert f"`{item}`" in readme
    table = {}
    for name, entry in recall_bench._RULES.items():
        table[name] = {"<beta>" if gate == "constant" else gate for gate in entry.gates}
    assert grammar == table
    assert set(GATES) <= set().union(*grammar.values())


def test_the_recall_section_names_every_task_and_config_field():
    from ttt_lab.recall_bench import RecallTask, StreamConfig

    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Associative-recall benchmark"):]
    section = section[:section.index("\n## ", 1)]
    missing = [f"{cls.__name__}.{field.name}" for cls in (RecallTask, StreamConfig)
               for field in dataclasses.fields(cls) if f"`{field.name}`" not in section]
    assert missing == []


def test_the_evaluation_section_calls_only_functions_that_exist():
    # A call is a backticked `name(` or `Class.name(`; a stale mention of
    # a deleted function fails here.
    from ttt_lab import geometry_metrics, io_formats, stitcher

    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Evaluation stack"):]
    section = section[:section.index("\n## ", 1)]
    calls = set(re.findall(r"`(\w+(?:\.\w+)?)\(", section))

    def resolves(call):
        for owner in (geometry_metrics, io_formats, stitcher):
            for attr in call.split("."):
                owner = getattr(owner, attr, None)
            if owner is not None:
                return True
        return False

    assert {"quat_mul", "rpe", "split_trajectory"} <= calls
    assert sorted(call for call in calls if not resolves(call)) == []
