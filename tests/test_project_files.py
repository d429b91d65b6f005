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
its submodules, so each name has one import path.  The argument
contract lives in one module, ttt_lab/_args.py, the CLI's parser is its
one flag check (no command function of cli.py checks a flag's value),
and the installed numpy meets the floor that pyproject.toml declares.
"""

import ast
import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np

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


def test_the_installed_numpy_meets_the_declared_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=([\d.]+)"', pyproject).group(1)
    installed = tuple(int(part) for part in re.findall(r"\d+", np.__version__)[:2])
    assert installed >= tuple(int(part) for part in floor.split(".")), (np.__version__, floor)


def _argument_contract_breaches(package: Path) -> list:
    """What puts argument checks outside _args.py: a numbers import, a read
    of sys.float_info, a _check* function, or a module importing a private
    check of a sibling module."""
    breaches = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_args.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            imported = ([alias.name for alias in node.names]
                        if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            if "numbers" in imported or getattr(node, "module", None) == "numbers":
                breaches.append(f"{path.name} imports numbers")
            if (isinstance(node, ast.Attribute) and node.attr == "float_info"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                breaches.append(f"{path.name} reads sys.float_info")
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check"):
                breaches.append(f"{path.name} defines {node.name}")
            private = {"_check_reduce", "_check_unit_rows", "_depth_maps",
                       "_resolve_scale"} & set(imported)
            if private:
                breaches.append(f"{path.name} imports {sorted(private)}")
    return breaches


def test_the_argument_contract_lives_in_one_module():
    assert _argument_contract_breaches(Path(ttt_lab.__file__).parent) == []


def _flag_checks(cli: Path) -> list:
    """Range checks of a flag in the _run_* command functions of cli.py: a
    comparison of an args attribute with a number (1, 2**63, math.inf), or
    an args attribute given to _require."""
    def is_flag(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args")

    def is_number(node):
        parts = list(ast.walk(node))
        return (all(part.id == "math" for part in parts if isinstance(part, ast.Name))
                and all(type(part.value) in (int, float)
                        for part in parts if isinstance(part, ast.Constant)))

    checks = []
    for func in ast.parse(cli.read_text()).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_run_")):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(is_flag, operands)) and any(map(is_number, operands)):
                    checks.append(f"{func.name} line {node.lineno} compares a flag")
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require"
                    and any(is_flag(part) for arg in node.args for part in ast.walk(arg))):
                checks.append(f"{func.name} line {node.lineno} gives a flag to _require")
    return checks


def test_no_command_function_checks_a_flag():
    # Each flag's argparse type checks its value, for the command line and rerun alike.
    assert _flag_checks(Path(ttt_lab.__file__).parent / "cli.py") == []
