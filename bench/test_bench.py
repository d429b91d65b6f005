"""Tests of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

TINY = {
    "recall-long": {"count": 64, "dims": "4,16,16,16", "reset_period": 16},
    "recall-wide": {"count": 32, "dims": "4,32,32,32"},
    "recon-eval": {"poses": 301, "points": 400, "depth_maps": 3, "depth_hw": [24, 32],
                   "stitch_period": 100},
}
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _run(capsys, workload: str, trace: int, seed: int = 1):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _expected_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_prints_every_metric_with_its_unit(tiny, capsys, workload):
    lines, result = _run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in [*got.items(), ("fail_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name
    assert "median of" in text and "provenance" in text


@pytest.mark.parametrize("workload", ["recall-long", "recon-eval"])
def test_traced_run_covers_every_layer(tiny, capsys, workload):
    lines, result = _run(capsys, workload, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _expected_units("per_layer")
    assert not [line for line in lines if line.startswith("FLAG")]
    for layer in traced.expected_layers(workload):
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    # Self times partition the traced in-process wall time.
    assert 0.99 < metrics["trace.self_share"]["value"] <= 1.0 + 1e-9


def _corrupting(monkeypatch, corrupt):
    """Make Bench.run_cli call corrupt(argv) after every command."""
    original = run.Bench.run_cli

    def run_cli(self, argv, log):
        outcome = original(self, argv, log)
        corrupt(argv)
        return outcome
    monkeypatch.setattr(run.Bench, "run_cli", run_cli)


def _out(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


def test_truncated_curves_fail_the_check(tiny, capsys, monkeypatch):
    def truncate(argv):
        if argv[0] == "recall":
            path = _out(argv) / "curves.csv"
            path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    _corrupting(monkeypatch, truncate)
    lines, result = _run(capsys, "recall-long", trace=0)
    assert not result["correct"] and result["failed"] >= 1
    assert any("curves.csv" in line for line in lines if line.startswith("PROBLEM"))


def test_changed_rerun_byte_fails_the_run(tiny, capsys, monkeypatch):
    def flip(argv):
        if argv[0] == "rerun":
            path = _out(argv) / "summary.csv"
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))
    _corrupting(monkeypatch, flip)
    lines, result = _run(capsys, "recall-wide", trace=0)
    assert result["failed"] == 1 and not result["correct"]
    assert any("fail_frac" in line and "1 failed of" in line for line in lines)


def test_recon_inputs_are_deterministic(tmp_path):
    import recon_inputs
    for name in ("a", "b"):
        recon_inputs.generate(str(tmp_path / name), 7, TINY["recon-eval"])
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert len(files) == 4 + 2 * TINY["recon-eval"]["depth_maps"]
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_reference_comparison_is_relative():
    ref = {"x": 2.0, "tiny": 1e-28}
    assert checks.compare_reference({"x": 2.0 * (1 + 1e-12), "tiny": 3e-28}, ref) == []
    assert checks.compare_reference({"x": 2.0 * (1 + 1e-8), "tiny": 1e-28}, ref)
    assert checks.compare_reference({"tiny": 1e-28}, ref)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *CONTRACT["command"][1:], "--workload",
                           "recall-long", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
