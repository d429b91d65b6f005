"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv) so exit codes and output
files can be asserted directly.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ttt_lab import io_formats
from ttt_lab.cli import _atomic_write, _build_parser, main
from ttt_lab.geometry_metrics import PointCloud, Trajectory, chamfer, depth_metrics, \
    sequence_depth_scale
from ttt_lab.io_formats import parse_pfm, parse_ply_ascii, parse_tum, write_pfm, \
    write_ply_ascii, write_tum

from conftest import assert_same_text


def _rand_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def _write_traj(path, n=30, seed=0, jitter=0.0):
    rng = np.random.default_rng(seed)
    quats, translations = [], []
    for _ in range(n):
        translations.append(rng.standard_normal(3) + jitter * rng.standard_normal(3))
        quats.append(_rand_quat(rng))
    path.write_text("".join(write_tum(Trajectory(0.1 * np.arange(n), quats, translations))))


def _write_cloud(path, n=20, seed=0):
    rng = np.random.default_rng(seed)
    path.write_text("".join(write_ply_ascii(PointCloud(rng.standard_normal((n, 3))))))


def _write_depth_dir(directory, frames=2, factor=1.0, seed=0):
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(frames):
        vals = factor * rng.uniform(1.0, 5.0, (4, 5))
        (directory / f"{i:03d}.pfm").write_bytes(write_pfm(vals))


def _dests(command):
    """The config keys a manifest of `command` must carry: its flags' dests minus out."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help", "out"}


# ---------------------------------------------------------------------------
# recall


def test_recall_writes_pinned_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["recall", "--out", str(out), "--rules", "vanilla,delta:0.5",
                 "--count", "8", "--dims", "4,8,8,8", "--seed", "1"])
    assert code == 0
    for name in ("curves.csv", "gates.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists()
    assert "mean_sq_error" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "recall"
    assert sorted(manifest["outputs"]) == manifest["outputs"]


def test_recall_gates_file_is_header_only_without_gated_rules(tmp_path):
    out = tmp_path / "run"
    code = main(["recall", "--out", str(out), "--rules", "vanilla,hebbian",
                 "--count", "4", "--dims", "2,8,8,8"])
    assert code == 0
    assert (out / "gates.csv").read_text() == "frame,token,beta\n"


def test_recall_extra_gated_rules_get_their_own_files(tmp_path):
    out = tmp_path / "run"
    code = main(["recall", "--out", str(out), "--rules", "delta:0.5,ttt3r:confidence",
                 "--count", "4", "--dims", "2,8,8,8"])
    assert code == 0
    gates = (out / "gates.csv").read_text()
    assert len(gates.strip().split("\n")) == 1 + 4          # first gated rule
    assert (out / "gates_ttt3r_confidence.csv").exists()


def test_recall_labels_every_spelling_of_a_rule_canonically(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["recall", "--out", str(out), "--count", "4", "--dims", "2,8,8,8",
                 "--rules", "delta,delta:0.50,ttt3r,ttt3r:1.0,ttt3r:confidence,hebbian"])
    assert code == 0
    labels = ["delta:1", "delta:0.5", "ttt3r:confidence", "ttt3r:1", "ttt3r:confidence#2",
              "hebbian"]
    curves = (out / "curves.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in curves] == [label for label in labels
                                                    for _ in range(4)]
    summary = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in summary] == labels
    assert sorted(p.name for p in out.glob("gates*.csv")) == [
        "gates.csv", "gates_delta_0.5.csv", "gates_ttt3r_1.csv", "gates_ttt3r_confidence.csv",
        "gates_ttt3r_confidence_2.csv"]
    stdout = capsys.readouterr().out.strip().split("\n")
    assert [line.split(": ")[0] for line in stdout] == labels


def test_recall_unknown_rule_lists_valid_rules(tmp_path, capsys):
    code = main(["recall", "--out", str(tmp_path / "x"), "--rules", "gru"])
    assert code == 2
    err = capsys.readouterr().err
    assert "valid rules" in err
    for name in ("full", "vanilla", "hebbian", "delta", "ttt3r"):
        assert name in err


def test_recall_flag_validation(tmp_path):
    out = str(tmp_path / "x")
    assert main(["recall", "--out", out, "--dims", "4,8,8"]) == 2
    assert main(["recall", "--out", out, "--dims", "a,b,c,d"]) == 2
    assert main(["recall", "--out", out, "--scale", "-1"]) == 2
    assert main(["recall", "--out", out, "--reset-period", "-1"]) == 2
    assert main(["recall", "--out", out, "--rules", " , "]) == 2
    assert main(["recall", "--out", out, "--rules", "delta:high"]) == 2
    assert main(["recall", "--out", out, "--rules", "vanilla:0.5"]) == 2


@pytest.mark.parametrize("period", [4, 5, 2**63 - 1, 2**63, 2**64, 10**30])
def test_recall_reset_period_past_the_stream_resets_nothing(tmp_path, capsys, period):
    # A period past int64 once ended in a TypeError traceback, exit 1.
    argv = ["recall", "--rules", "vanilla,hebbian,delta,ttt3r", "--count", "4",
            "--dims", "2,8,8,8"]
    assert main(argv + ["--out", str(tmp_path / "never")]) == 0
    assert main(argv + ["--out", str(tmp_path / "p"), "--reset-period", str(period)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    for name in ("curves.csv", "summary.csv", "gates.csv"):
        assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "never" / name).read_bytes()
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["config"]["reset_period"] == period
    assert main(["rerun", "--manifest", str(tmp_path / "p" / "manifest.json"),
                 "--out", str(tmp_path / "again")]) == 0
    for name in ("curves.csv", "summary.csv", "gates.csv", "manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


def test_recall_unsupported_combination_is_a_usage_error(tmp_path):
    # token rules need the state width to match the key width
    code = main(["recall", "--out", str(tmp_path / "x"), "--rules", "vanilla",
                 "--count", "4", "--dims", "2,4,8,8"])
    assert code == 2


def test_recall_default_flags():
    args = _build_parser().parse_args(["recall", "--out", "x"])
    assert args.count is None          # resolved per task, see below
    assert args.dims == "4,64,64,64"
    assert args.gate_reduce == "sum"
    assert args.reset_period == 0
    assert args.key_mode == "orthonormal"


def test_every_subcommand_runs_with_only_its_required_flags(tmp_path):
    _write_traj(tmp_path / "t.tum")
    _write_cloud(tmp_path / "c.ply")
    _write_depth_dir(tmp_path / "depth")
    runs = [
        ["recall", "--out", str(tmp_path / "recall")],
        ["recall", "--out", str(tmp_path / "adversarial"), "--task", "adversarial"],
        ["gradcheck", "--out", str(tmp_path / "gradcheck")],
        ["traj-eval", "--est", str(tmp_path / "t.tum"), "--gt", str(tmp_path / "t.tum"),
         "--out", str(tmp_path / "traj")],
        ["depth-eval", "--pred", str(tmp_path / "depth"), "--gt", str(tmp_path / "depth"),
         "--out", str(tmp_path / "depth-eval")],
        ["chamfer", "--a", str(tmp_path / "c.ply"), "--b", str(tmp_path / "c.ply"),
         "--out", str(tmp_path / "chamfer")],
        ["stitch", "--traj", str(tmp_path / "t.tum"), "--out", str(tmp_path / "stitch")],
        ["rerun", "--manifest", str(tmp_path / "adversarial" / "manifest.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    for name, count in (("recall", 64), ("adversarial", 32)):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["count"] == count
    # rerun replays the config as flags, so its keys must be the flags' dests.
    for argv in runs[:-1]:
        manifest = json.loads((Path(argv[argv.index("--out") + 1]) / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert set(manifest["config"]) == _dests(argv[0]), argv


@pytest.mark.parametrize("flags, edit", [
    pytest.param(["--count", "0"], {"count": 0}, id="count-0"),
    pytest.param(["--rho", "1.5"], {"rho": 1.5}, id="rho-1.5"),
    pytest.param(["--count", "65"], {"count": 65}, id="orthonormal-count-above-c_k"),
    pytest.param(["--task", "adversarial", "--count", "64"],     # 64 pairs + 8 frames > 64
                 {"task": "adversarial", "count": 64}, id="adversarial-does-not-fit"),
])
@pytest.mark.parametrize("path", ["flags", "manifest"])
def test_task_argument_errors_are_usage_errors(tmp_path, capsys, flags, edit, path):
    argv = ["recall", "--out", str(tmp_path / "run"), "--rules", "hebbian", "--count", "4"]
    if path == "flags":
        assert main(argv + flags) == 2
    else:
        assert main(argv) == 0
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(edit)
        manifest_path.write_text(json.dumps(manifest))
        assert main(["rerun", "--manifest", str(manifest_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# flags and rerun agree

_BASE_ARGV = {      # small runs on the inputs test_flags_and_rerun_agree writes
    "recall": ["recall", "--rules", "hebbian", "--count", "4", "--dims", "2,8,8,8"],
    "gradcheck": ["gradcheck", "--trials", "2", "--max-dim", "2"],
    "traj-eval": ["traj-eval", "--est", "t.tum", "--gt", "t.tum"],
    "depth-eval": ["depth-eval", "--pred", "depth", "--gt", "depth"],
    "chamfer": ["chamfer", "--a", "c.ply", "--b", "c.ply"],
    "stitch": ["stitch", "--traj", "t.tum", "--reset-period", "10"],
}
_DROP = object()


@pytest.mark.parametrize("command, flags, edit, code", [
    # textual numbers read as their flag text would
    pytest.param("recall", ["--count", "8"], {"count": "8"}, 0, id="recall-count-text"),
    pytest.param("recall", ["--dims", "2,8,8,8"], {"dims": "2,8,8,8"}, 0, id="recall-dims-text"),
    pytest.param("gradcheck", ["--trials", "2"], {"trials": "2"}, 0, id="gradcheck-trials-text"),
    pytest.param("stitch", ["--reset-period", "5"], {"reset_period": "5"}, 0,
                 id="stitch-reset-period-text"),
    # out of range or wrong type
    pytest.param("recall", ["--dims", "2,8"], {"dims": [2, 8]}, 2, id="recall-dims-short"),
    pytest.param("recall", ["--task", "bogus"], {"task": "bogus"}, 2, id="recall-task-bogus"),
    pytest.param("recall", ["--gate-reduce", "max"], {"gate_reduce": "max"}, 2,
                 id="recall-gate-reduce-max"),
    pytest.param("recall", ["--rules", ""], {"rules": []}, 2, id="recall-rules-empty"),
    pytest.param("recall", ["--seed", "True"], {"seed": True}, 2, id="recall-seed-bool"),
    pytest.param("recall", ["--count", "8.0"], {"count": 8.0}, 2, id="recall-count-float"),
    pytest.param("recall", ["--scale", "nan"], {"scale": math.nan}, 2, id="recall-scale-nan"),
    pytest.param("recall", ["--extra", "1"], {"extra": 1}, 2, id="recall-extra-key"),
    pytest.param("gradcheck", ["--step", "0"], {"step": 0}, 2, id="gradcheck-step-0"),
    pytest.param("gradcheck", ["--step", "inf"], {"step": math.inf}, 2, id="gradcheck-step-inf"),
    pytest.param("gradcheck", ["--tol", "nan"], {"tol": math.nan}, 2, id="gradcheck-tol-nan"),
    pytest.param("gradcheck", ["--tol", "inf"], {"tol": math.inf}, 2, id="gradcheck-tol-inf"),
    pytest.param("gradcheck", ["--trials", "0"], {"trials": 0}, 2, id="gradcheck-trials-0"),
    pytest.param("gradcheck", ["--max-dim", "{'a': 2}"], {"max_dim": {"a": 2}}, 2,
                 id="gradcheck-max-dim-object"),
    pytest.param("traj-eval", ["--est", "5"], {"est": 5}, 2, id="traj-eval-est-5"),
    pytest.param("traj-eval", ["--max-dt", "inf"], {"max_dt": math.inf}, 2,
                 id="traj-eval-max-dt-inf"),
    pytest.param("traj-eval", ["--max-dt", "nan"], {"max_dt": math.nan}, 2,
                 id="traj-eval-max-dt-nan"),
    pytest.param("traj-eval", ["--rpe-delta", "0"], {"rpe_delta": 0}, 2,
                 id="traj-eval-rpe-delta-0"),
    pytest.param("depth-eval", ["--mode", "per-frame"], {"mode": "per-frame"}, 2,
                 id="depth-eval-mode-bogus"),
    pytest.param("chamfer", ["--a", "none.ply"], {"a": "none.ply"}, 2,
                 id="chamfer-a-missing-file"),
    pytest.param("stitch", ["--reset-period", "0"], {"reset_period": 0}, 2,
                 id="stitch-reset-period-0"),
    pytest.param("recall", ["--reset-period", str(2**63)], {"reset_period": 2**63}, 0,
                 id="recall-reset-period-2**63"),
    # manifest-only edits: no flag spells them
    pytest.param("chamfer", None, {"a": None}, 2, id="chamfer-required-null"),
    pytest.param("recall", None, {"seed": _DROP}, 2, id="recall-missing-key"),
    pytest.param("stitch", None, {"cloud": _DROP}, 2, id="stitch-missing-key"),
    pytest.param("recall", None, {"command": ["recall"]}, 2, id="command-unhashable"),
    pytest.param("gradcheck", None, {"command": "rerun"}, 2, id="command-rerun"),
])
def test_flags_and_rerun_agree(tmp_path, monkeypatch, capsys, command, flags, edit, code):
    monkeypatch.chdir(tmp_path)
    _write_traj(tmp_path / "t.tum")
    _write_cloud(tmp_path / "c.ply")
    _write_depth_dir(tmp_path / "depth")
    argv = _BASE_ARGV[command]
    if flags is not None:
        assert main(argv + ["--out", "flags"] + flags) == code
    assert main(argv + ["--out", "run"]) == 0
    manifest = json.loads(Path("run/manifest.json").read_text())
    target = manifest if "command" in edit else manifest["config"]
    target.update(edit)
    for key in [k for k, v in target.items() if v is _DROP]:
        del target[key]
    Path("run/manifest.json").write_text(json.dumps(manifest))
    assert main(["rerun", "--manifest", "run/manifest.json", "--out", "rerun"]) == code
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        names = sorted(os.listdir("flags"))
        assert names == sorted(os.listdir("rerun"))
        for name in names:
            assert Path("flags", name).read_bytes() == Path("rerun", name).read_bytes(), name


# ---------------------------------------------------------------------------
# rerun


def test_rerun_reproduces_bytes(tmp_path):
    first = tmp_path / "a"
    assert main(["recall", "--out", str(first), "--rules", "delta:0.5,ttt3r",
                 "--count", "8", "--dims", "4,8,8,8", "--seed", "9"]) == 0
    second = tmp_path / "b"
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_outputs_take_the_mode_the_umask_gives(tmp_path):
    cloud = tmp_path / "a.ply"
    _write_cloud(cloud)
    previous = os.umask(0o022)
    try:
        assert main(["chamfer", "--a", str(cloud), "--b", str(cloud),
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["rerun", "--manifest", str(tmp_path / "run" / "manifest.json"),
                     "--out", str(tmp_path / "again")]) == 0
    finally:
        os.umask(previous)
    for run in ("run", "again"):
        modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / run).iterdir()}
        assert modes == {"chamfer.csv": 0o644, "manifest.json": 0o644}, run


def test_a_block_iterator_that_raises_midway_leaves_no_file(tmp_path):
    def blocks():
        yield "ply\n"
        raise ValueError("no more rows")

    with pytest.raises(ValueError, match="no more rows"):
        _atomic_write(str(tmp_path / "stitched.ply"), blocks())
    assert list(tmp_path.iterdir()) == []


def test_stitched_ply_is_written_one_block_at_a_time(tmp_path):
    # Joining write_table's blocks first held the text twice (2.0x the
    # file's size).  Written one block at a time, the peak is one block's
    # floats, its text and its encoded bytes: 3.3 blocks of text.
    rng = np.random.default_rng(1)
    n = 50_000
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 1)),
                       normals)
    path = tmp_path / "stitched.ply"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _atomic_write(str(path), write_ply_ascii(cloud))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = -(-n // io_formats._ROW_BLOCK)
    assert peak - before < 4 * path.stat().st_size / blocks
    assert_same_text(path.read_text(), "".join(write_ply_ascii(cloud)))


def test_rerun_defaults_to_the_manifest_directory(tmp_path):
    out = tmp_path / "a"
    assert main(["recall", "--out", str(out), "--rules", "vanilla",
                 "--count", "4", "--dims", "2,8,8,8"]) == 0
    before = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert main(["rerun", "--manifest", str(out / "manifest.json")]) == 0
    after = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert before == after


def test_rerun_rejects_bad_manifests(tmp_path, capsys):
    assert main(["rerun", "--manifest", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rerun", "--manifest", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"command": "fly", "config": {}}))
    assert main(["rerun", "--manifest", str(wrong)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"command": "recall", "config": {"seed": 1}}))
    assert main(["rerun", "--manifest", str(incomplete)]) == 2
    # a value the flag parser rejects is traced back to the manifest it came from
    assert main(["recall", "--out", str(tmp_path / "run"), "--rules", "vanilla",
                 "--count", "4", "--dims", "2,8,8,8"]) == 0
    edited = tmp_path / "run" / "manifest.json"
    manifest = json.loads(edited.read_text())
    manifest["config"]["seed"] = True
    edited.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(edited)]) == 2
    err = capsys.readouterr().err
    assert "--seed: invalid int value: 'True'" in err
    assert f"config of the manifest {edited}" in err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_at_default_tolerance(tmp_path, capsys):
    out = tmp_path / "g"
    code = main(["gradcheck", "--out", str(out), "--trials", "5", "--max-dim", "4"])
    assert code == 0
    assert (out / "gradcheck.csv").exists()
    assert not (out / "gradcheck_failure.csv").exists()


def test_gradcheck_zero_tolerance_fails_with_dump(tmp_path, capsys):
    out = tmp_path / "g"
    code = main(["gradcheck", "--out", str(out), "--trials", "3", "--max-dim", "3",
                 "--tol", "0"])
    assert code == 1
    assert (out / "gradcheck_failure.csv").exists()
    # One error line, as every exit 1 gives (the fuzzed manifests once
    # found a bare "gradient check FAILED" line here).
    assert capsys.readouterr().err == ("error: gradient check FAILED; worst instance dumped "
                                       "to gradcheck_failure.csv\n")


@pytest.mark.filterwarnings("error")
def test_gradcheck_nan_error_fails_with_dump(tmp_path, capsys):
    # A step of 1e300 overflows the loss, so every trial's error is nan,
    # reported without a numpy warning.
    out = tmp_path / "g"
    code = main(["gradcheck", "--out", str(out), "--trials", "2", "--max-dim", "2",
                 "--step", "1e300"])
    assert code == 1
    rows = (out / "gradcheck.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[1] for row in rows] == ["nan", "nan"]
    assert (out / "gradcheck_failure.csv").exists()
    assert "max relative error nan" in capsys.readouterr().out


def test_gradcheck_flag_validation(tmp_path, capsys):
    out = str(tmp_path / "g")
    assert main(["gradcheck", "--out", out, "--trials", "0"]) == 2
    assert main(["gradcheck", "--out", out, "--step", "0"]) == 2
    assert main(["gradcheck", "--out", out, "--max-dim", "0"]) == 2
    # Past int64 numpy cannot draw the sizes: a usage error, not exit 1.
    capsys.readouterr()
    assert main(["gradcheck", "--out", out, "--max-dim", str(2**63)]) == 2
    assert capsys.readouterr().err == f"error: --max-dim must be from 1 to {2**63 - 1}\n"


# ---------------------------------------------------------------------------
# traj-eval


def test_traj_eval_happy_path(tmp_path, capsys):
    est, gt = tmp_path / "est.tum", tmp_path / "gt.tum"
    _write_traj(gt, seed=0)
    _write_traj(est, seed=0)
    out = tmp_path / "t"
    assert main(["traj-eval", "--est", str(est), "--gt", str(gt),
                 "--out", str(out)]) == 0
    text = (out / "traj_eval.csv").read_text()
    assert text.startswith("ate,rpe_trans,rpe_rot\n")
    ate_val = float(text.strip().split("\n")[1].split(",")[0])
    assert ate_val <= 1e-9


def test_traj_eval_missing_file_is_a_usage_error(tmp_path):
    gt = tmp_path / "gt.tum"
    _write_traj(gt)
    assert main(["traj-eval", "--est", str(tmp_path / "none.tum"),
                 "--gt", str(gt), "--out", str(tmp_path / "t")]) == 2


def test_a_directory_given_as_an_input_file_is_a_usage_error(tmp_path, capsys):
    gt = tmp_path / "gt.tum"
    _write_traj(gt)
    out = str(tmp_path / "t")
    assert main(["traj-eval", "--est", str(tmp_path), "--gt", str(gt), "--out", out]) == 2
    assert main(["rerun", "--manifest", str(tmp_path)]) == 2
    # a path that runs through a regular file
    assert main(["traj-eval", "--est", str(gt / "est.tum"), "--gt", str(gt), "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _run_cli(*argv):
    import ttt_lab
    src = os.path.dirname(os.path.dirname(ttt_lab.__file__))
    return subprocess.run([sys.executable, "-m", "ttt_lab.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


@pytest.mark.parametrize("rules", ["full,vanilla,hebbian,delta,ttt3r", "vanilla", "ttt3r",
                                   "ttt3r:0.5", "ttt3r:per_token", "ttt3r:input"])
def test_overflowing_scale_is_one_error_line_without_numpy_warnings(tmp_path, rules):
    # Every token update and read scales its logits in one place, which
    # reports the overflow; the first rule to run is the one that fails.
    result = _run_cli("recall", "--scale", "1e308", "--dims", "2,4,4,4", "--key-mode",
                      "random_unit", "--rules", rules, "--out", str(tmp_path / "r"))
    assert result.returncode == 1
    assert result.stderr.splitlines() == ["error: scale 1e+308 overflows the scaled logits"]


def test_an_overflowing_confidence_reduce_runs_without_numpy_warnings(tmp_path):
    # The adversarial stream's logits stay finite at scale 1e308, but
    # their sum overflows: the gate takes its sigmoid limit silently.
    result = _run_cli("recall", "--task", "adversarial", "--rules", "ttt3r", "--scale", "1e308",
                      "--out", str(tmp_path / "r"))
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    ["recall", "--dims", "4,64,64,10000000000000", "--count", "4", "--rules", "hebbian"],
    ["gradcheck", "--max-dim", "10000000", "--trials", "1"],
], ids=["recall", "gradcheck"])
def test_an_array_too_large_to_allocate_is_one_error_line(tmp_path, capsys, argv):
    # Each run asks numpy for more than 2^47 bytes, beyond a 47-bit user
    # address space, so the allocation fails under any overcommit setting
    # and no memory is touched.
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate ")


def _scipy_modules_after(code):
    """The scipy modules loaded after running code in a fresh interpreter."""
    import ttt_lab
    src = os.path.dirname(os.path.dirname(ttt_lab.__file__))
    probe = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip().splitlines()[-1]


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import ttt_lab.cli") == "[]"


def test_chamfer_loads_no_scipy(tmp_path):
    # The nearest-neighbour search is numpy's grid, not scipy's KD-tree.
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    _write_cloud(a, seed=0)
    _write_cloud(b, seed=1)
    argv = ["chamfer", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "c")]
    code = f"import ttt_lab.cli\nassert ttt_lab.cli.main({argv!r}) == 0"
    assert _scipy_modules_after(code) == "[]"


def test_fast_weight_recall_loads_no_scipy(tmp_path):
    # The batched delta kernel solves with numpy alone.
    argv = ["recall", "--out", str(tmp_path / "r"), "--rules", "hebbian,delta,delta:input",
            "--count", "70", "--dims", "2,8,8,8", "--key-mode", "random_unit"]
    code = f"import ttt_lab.cli\nassert ttt_lab.cli.main({argv!r}) == 0"
    assert _scipy_modules_after(code) == "[]"


def test_traj_eval_without_overlap_is_a_runtime_failure(tmp_path):
    est, gt = tmp_path / "est.tum", tmp_path / "gt.tum"
    _write_traj(gt, seed=0)
    rng = np.random.default_rng(1)
    draws = [(_rand_quat(rng), rng.standard_normal(3)) for _ in range(10)]
    est.write_text("".join(write_tum(Trajectory(100.0 + 0.1 * np.arange(10),
                                                [q for q, _ in draws], [t for _, t in draws]))))
    assert main(["traj-eval", "--est", str(est), "--gt", str(gt),
                 "--out", str(tmp_path / "t")]) == 1


def _traj_eval_row(tmp_path, est, gt, name, *flags):
    (tmp_path / "est.tum").write_text("".join(write_tum(est)))
    (tmp_path / "gt.tum").write_text("".join(write_tum(gt)))
    assert main(["traj-eval", "--est", str(tmp_path / "est.tum"), "--gt",
                 str(tmp_path / "gt.tum"), "--out", str(tmp_path / name), *flags]) == 0
    row = (tmp_path / name / "traj_eval.csv").read_text().split()[1]
    return [float(v) for v in row.split(",")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("align", ["sim3", "se3", "none"])
def test_traj_eval_of_translations_near_1e200(tmp_path, capsys, align):
    # The squares of these translations overflow; the metrics are measured
    # scaled, so they scale by 2**664 with the input and stay finite.
    rng = np.random.default_rng(41)
    quats = [_rand_quat(rng) for _ in range(50)]
    t = rng.standard_normal((50, 3))
    gt = Trajectory(0.1 * np.arange(50), quats, t)
    est = Trajectory(0.1 * np.arange(50), quats, t + 0.01 * rng.standard_normal((50, 3)))

    def big(traj):
        return Trajectory(traj.timestamps, traj.quats, np.ldexp(traj.translations, 664))

    small = _traj_eval_row(tmp_path, est, gt, "small", "--align", align)
    large = _traj_eval_row(tmp_path, big(est), big(gt), "large", "--align", align)
    assert capsys.readouterr().err == ""
    for got, want in zip(large[:2], small[:2]):
        assert abs(got - math.ldexp(want, 664)) <= 1e-12 * math.ldexp(want, 664)
    assert large[2] == small[2]


@pytest.mark.filterwarnings("error")
def test_traj_eval_of_an_estimate_2_to_the_minus_565_times_the_reference(tmp_path, capsys):
    # Aligned jointly with the reference, the estimate's variance used to
    # underflow to 0 and the Sim(3) scale divided by it.  Each side is now
    # aligned scaled by its own power of two, so the estimate fits exactly.
    rng = np.random.default_rng(43)
    gt = Trajectory(0.1 * np.arange(30), [_rand_quat(rng) for _ in range(30)],
                    rng.standard_normal((30, 3)))
    est = Trajectory(gt.timestamps, gt.quats, np.ldexp(gt.translations, -565))
    row = _traj_eval_row(tmp_path, est, gt, "t")
    assert capsys.readouterr().err == ""
    assert row[0] <= 1e-12 * math.sqrt(np.mean(np.sum(gt.translations ** 2, axis=1)))


@pytest.mark.filterwarnings("error")
def test_traj_eval_window_past_the_largest_float(tmp_path, capsys):
    rng = np.random.default_rng(42)
    traj = Trajectory(1.7e308 - 1e293 * np.arange(50)[::-1],
                      [_rand_quat(rng) for _ in range(50)], rng.standard_normal((50, 3)))
    row = _traj_eval_row(tmp_path, traj, traj, "t", "--max-dt", "1e308")
    assert capsys.readouterr().err == ""
    assert row[0] <= 1e-12 and row[1:] == [0.0, 0.0]


def test_traj_eval_malformed_input_is_a_usage_error(tmp_path):
    est, gt = tmp_path / "est.tum", tmp_path / "gt.tum"
    _write_traj(gt)
    est.write_text("0.0 1 2 3\n")
    assert main(["traj-eval", "--est", str(est), "--gt", str(gt),
                 "--out", str(tmp_path / "t")]) == 2


# ---------------------------------------------------------------------------
# depth-eval


def test_depth_eval_both_modes(tmp_path):
    _write_depth_dir(tmp_path / "gt", factor=1.0, seed=5)
    _write_depth_dir(tmp_path / "pred", factor=2.0, seed=5)
    out = tmp_path / "d"
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--out", str(out),
                 "--mode", "seq-scale"]) == 0
    rows = (out / "depth_eval.csv").read_text().strip().split("\n")
    assert rows[0] == "frame,abs_rel,delta_125"
    mean = rows[-1].split(",")
    assert mean[0] == "mean"
    assert float(mean[1]) <= 1e-12
    assert float(mean[2]) == 1.0
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--out", str(out),
                 "--mode", "metric"]) == 0
    mean = (out / "depth_eval.csv").read_text().strip().split("\n")[-1].split(",")
    assert float(mean[1]) == 1.0
    assert float(mean[2]) == 0.0


def test_depth_eval_frame_count_mismatch_fails(tmp_path):
    _write_depth_dir(tmp_path / "gt", frames=3)
    _write_depth_dir(tmp_path / "pred", frames=2)
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "d")]) == 1


def test_depth_eval_with_other_file_names_fails(tmp_path, capsys):
    _write_depth_dir(tmp_path / "gt", frames=2)
    _write_depth_dir(tmp_path / "pred", frames=2)
    (tmp_path / "pred" / "001.pfm").rename(tmp_path / "pred" / "002.pfm")
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: prediction and reference file names do not match"]


def test_depth_eval_missing_directory_is_a_usage_error(tmp_path):
    _write_depth_dir(tmp_path / "gt")
    assert main(["depth-eval", "--pred", str(tmp_path / "nope"),
                 "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "d")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["depth-eval", "--pred", str(empty),
                 "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "d")]) == 2


def _write_special_depth_dirs(root, frames, shape=(6, 7), invalid=0.2, seed=0):
    """pred/ and gt/ maps whose pixels are zero, negative, NaN or infinite
    with probability `invalid` each."""
    rng = np.random.default_rng(seed)
    specials = [0.0, -2.5, np.nan, np.inf, -np.inf]
    for sub in ("pred", "gt"):
        (root / sub).mkdir()
    for i in range(frames):
        for sub in ("pred", "gt"):
            vals = rng.lognormal(0.0, 1.0, shape)
            hit = rng.random(shape) < invalid
            vals[hit] = rng.choice(specials, size=int(hit.sum()))
            (root / sub / f"{i:03d}.pfm").write_bytes(write_pfm(vals))


def _depth_eval_oracle(pred_dir, gt_dir, mode):
    """depth_eval.csv and stdout from every map parsed up front, as one batch."""
    names = sorted(os.listdir(pred_dir))
    preds = [parse_pfm((pred_dir / n).read_bytes()) for n in names]
    gts = [parse_pfm((gt_dir / n).read_bytes()) for n in names]
    scale = sequence_depth_scale(preds, gts) if mode == "seq-scale" else 1.0
    per_frame = [depth_metrics(p, g, scale) for p, g in zip(preds, gts)]
    mean_abs = float(np.mean([m[0] for m in per_frame]))
    mean_d = float(np.mean([m[1] for m in per_frame]))
    lines = ["frame,abs_rel,delta_125"]
    lines += [f"{n},{a!r},{d!r}" for n, (a, d) in zip(names, per_frame)]
    lines.append(f"mean,{mean_abs!r},{mean_d!r}")
    stdout = f"sequence scale {scale:.6e}\n" if mode == "seq-scale" else ""
    stdout += f"frames={len(per_frame)} abs_rel={mean_abs:.6e} delta_125={mean_d:.6f}\n"
    return "\n".join(lines) + "\n", stdout


@pytest.mark.parametrize("mode", ["seq-scale", "metric"])
def test_streamed_depth_eval_matches_the_in_memory_oracle(tmp_path, capsys, mode):
    _write_special_depth_dirs(tmp_path, frames=7)
    csv, stdout = _depth_eval_oracle(tmp_path / "pred", tmp_path / "gt", mode)
    capsys.readouterr()
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                 "--out", str(tmp_path / "d"), "--mode", mode]) == 0
    assert (tmp_path / "d" / "depth_eval.csv").read_text() == csv
    assert capsys.readouterr() == (stdout, "")
    # A frame with no valid pixel fails the run as it always did: exit 1, no output.
    (tmp_path / "gt" / "003.pfm").write_bytes(write_pfm(np.full((6, 7), -1.0)))
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                 "--out", str(tmp_path / "e"), "--mode", mode]) == 1
    assert capsys.readouterr() == (
        "", "error: no valid pixels shared by prediction and reference\n")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("mode, bound", [("seq-scale", 1.0), ("metric", 0.5)])
def test_depth_eval_holds_one_map_pair_at_a_time(tmp_path, mode, bound):
    frames, height, width = 30, 64, 80
    _write_special_depth_dirs(tmp_path, frames, shape=(height, width), invalid=0.01)
    sequence_bytes = 2 * frames * height * width * 8
    argv = ["depth-eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
            "--out", str(tmp_path / "d"), "--mode", mode]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < bound * sequence_bytes


@pytest.mark.parametrize("mode", ["seq-scale", "metric"])
def test_depth_eval_malformed_last_reference_is_a_usage_error(tmp_path, capsys, mode):
    _write_depth_dir(tmp_path / "gt", frames=3)
    _write_depth_dir(tmp_path / "pred", frames=3)
    # Every file is parsed before any metric: the first frame, which no metric
    # could score, does not hide the malformed file after it.
    (tmp_path / "gt" / "000.pfm").write_bytes(write_pfm(np.full((4, 5), -1.0)))
    last = tmp_path / "gt" / "002.pfm"
    last.write_bytes(last.read_bytes()[:-4])
    capsys.readouterr()
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                 "--out", str(tmp_path / "d"), "--mode", mode]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: PFM payload holds 76 bytes, header implies 80\n"
    assert not (tmp_path / "d").exists()


def test_depth_eval_non_finite_pfm_scale_is_a_usage_error(tmp_path, capsys):
    _write_depth_dir(tmp_path / "gt")
    _write_depth_dir(tmp_path / "pred")
    frame = tmp_path / "pred" / "001.pfm"
    frame.write_bytes(frame.read_bytes().replace(b"\n-1.0\n", b"\n-nan\n", 1))
    capsys.readouterr()
    assert main(["depth-eval", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "d")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: PFM scale must be finite and non-zero, got b'-nan'\n"
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------------------
# chamfer


def test_chamfer_happy_path(tmp_path, capsys):
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    _write_cloud(a, seed=0)
    _write_cloud(b, seed=0)
    out = tmp_path / "c"
    assert main(["chamfer", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    text = (out / "chamfer.csv").read_text()
    assert "chamfer,0.0" in text


@pytest.mark.parametrize("normals", [(True, True), (True, False)], ids=["both", "one"])
def test_chamfer_reports_normal_consistency_when_both_clouds_carry_normals(tmp_path, normals):
    rng = np.random.default_rng(3)
    clouds = []
    for name, has_normals in zip(("a.ply", "b.ply"), normals):
        unit = rng.standard_normal((30, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        cloud = PointCloud(rng.standard_normal((30, 3)), unit if has_normals else None)
        (tmp_path / name).write_text("".join(write_ply_ascii(cloud)))
        clouds.append(parse_ply_ascii((tmp_path / name).read_text()))
    out = tmp_path / "c"
    assert main(["chamfer", "--a", str(tmp_path / "a.ply"), "--b", str(tmp_path / "b.ply"),
                 "--out", str(out)]) == 0
    rows = (out / "chamfer.csv").read_text().splitlines()[1:]
    result = chamfer(*clouds)
    if all(normals):
        assert len(rows) == 4
        assert rows[-1] == f"normal_consistency,{result.normal_consistency!r}"
    else:
        assert [row.split(",")[0] for row in rows] == ["accuracy", "completeness", "chamfer"]


def test_a_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.ply"
    _write_cloud(a)
    out = tmp_path / "c"

    def failing_replace(src, dst):
        raise OSError(f"cannot rename onto {dst}")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["chamfer", "--a", str(a), "--b", str(a), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot rename onto ")
    assert os.listdir(out) == []


def test_chamfer_empty_cloud_is_a_usage_error(tmp_path):
    a = tmp_path / "a.ply"
    a.write_text("ply\nformat ascii 1.0\nelement vertex 0\n"
                 "property float x\nproperty float y\nproperty float z\nend_header\n")
    b = tmp_path / "b.ply"
    _write_cloud(b)
    assert main(["chamfer", "--a", str(a), "--b", str(b),
                 "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_chamfer_rejects_a_non_finite_normal(tmp_path, capsys, bad):
    a = tmp_path / "a.ply"
    a.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
                 f"0 0 0 {bad} 0 1\n")
    b = tmp_path / "b.ply"
    _write_cloud(b)
    assert main(["chamfer", "--a", str(a), "--b", str(b),
                 "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "c" / "chamfer.csv").exists()


@pytest.mark.parametrize("row, message", [
    ("nan 1 1 0 0 1", "non-finite point"),
    ("0 0 0 0 0 0", "zero-length normal"),
    ("0 0 0 1e200 1e200 0", "normal too large or too small to normalize"),
])
def test_bad_vertex_data_is_one_error_line_naming_its_line(tmp_path, row, message):
    # Run as a subprocess so that a numpy warning printed to stderr shows.
    a = tmp_path / "a.ply"
    a.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
                 f"0 0 0 0 0 1\n{row}\n")
    b = tmp_path / "b.ply"
    _write_cloud(b)
    result = _run_cli("chamfer", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "c"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: line 12: {message} in vertex data"]


@pytest.mark.parametrize("command", ["chamfer", "stitch"])
def test_a_vertex_count_beyond_the_file_is_a_usage_error(tmp_path, capsys, command):
    # Ten trillion declared rows of three doubles would need more than 2^47
    # bytes: the parser must size its buffer by the rows the file holds.
    cloud = tmp_path / "a.ply"
    cloud.write_text("ply\nformat ascii 1.0\nelement vertex 10000000000000\n"
                     "property float x\nproperty float y\nproperty float z\nend_header\n"
                     "0 0 0\n")
    if command == "chamfer":
        argv = ["chamfer", "--a", str(cloud), "--b", str(cloud)]
    else:
        _write_traj(tmp_path / "t.tum", n=20, seed=3)
        argv = ["stitch", "--traj", str(tmp_path / "t.tum"), "--cloud", str(cloud)]
    assert main([*argv, "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 8: file ends after 1 of 10000000000000 vertex rows"]


@pytest.mark.parametrize("command", ["chamfer", "stitch", "traj-eval"])
def test_binary_or_non_utf8_input_is_the_parsers_usage_error(tmp_path, capsys, command):
    # Bytes that are not UTF-8 reach the parser, which rejects them as
    # malformed input (exit 2), not as a codec error (exit 1).
    body = np.array([1.5, 2.3, -0.7, 8.83, 1.0, 2.0], dtype="<f4").tobytes()
    with pytest.raises(UnicodeDecodeError):
        body.decode("utf-8")
    cloud = tmp_path / "bin.ply"
    cloud.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                      b"property float x\nproperty float y\nproperty float z\nend_header\n"
                      + body)
    traj = tmp_path / "t.tum"
    _write_traj(traj, n=20, seed=3)
    bad_traj = tmp_path / "bad.tum"
    bad_traj.write_bytes(b"0.0 1 2 3 0 0 0 1\xff\n")
    argv, want = {
        "chamfer": (["--a", str(cloud), "--b", str(cloud)],
                    "error: line 2: binary PLY is not supported; convert to ascii"),
        "stitch": (["--traj", str(traj), "--cloud", str(cloud)],
                   "error: line 2: binary PLY is not supported; convert to ascii"),
        "traj-eval": (["--est", str(bad_traj), "--gt", str(traj)], "error: line 1: "),
    }[command]
    assert main([command, *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(want)


@pytest.mark.parametrize("normals", [False, True], ids=["points", "normals"])
def test_chamfer_of_clouds_too_large_to_square(tmp_path, normals):
    # |1e200 - (-1e200)|^2 overflows; the distance 2e200 does not.
    properties = "property double x\nproperty double y\nproperty double z\n"
    if normals:
        properties += "property double nx\nproperty double ny\nproperty double nz\n"
    for name, x in (("a.ply", "1e200"), ("b.ply", "-1e200")):
        row = f"{x} 0 0" + (" 0 0 1" if normals else "")
        (tmp_path / name).write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                                     f"{properties}end_header\n{row}\n")
    import ttt_lab
    src = os.path.dirname(os.path.dirname(ttt_lab.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "ttt_lab.cli", "chamfer", "--a", str(tmp_path / "a.ply"),
         "--b", str(tmp_path / "b.ply"), "--out", str(tmp_path / "c")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    expected = ["accuracy=2.000000e+200", "completeness=2.000000e+200",
                "chamfer=2.000000e+200"]
    if normals:
        expected.append("normal_consistency=1.000000e+00")
    assert result.stdout.splitlines() == expected
    assert "RuntimeWarning" not in result.stderr


# ---------------------------------------------------------------------------
# stitch


def test_stitch_round_trip_via_cli(tmp_path, capsys):
    traj = tmp_path / "t.tum"
    _write_traj(traj, n=50, seed=2)
    out = tmp_path / "s"
    assert main(["stitch", "--traj", str(traj), "--out", str(out),
                 "--reset-period", "10"]) == 0
    assert (out / "stitched.tum").exists()
    text = (out / "stitch.csv").read_text()
    ate_row = [r for r in text.strip().split("\n") if r.startswith("ate_vs_input")][0]
    assert float(ate_row.split(",")[1]) <= 1e-9


def test_stitch_with_cloud(tmp_path):
    traj = tmp_path / "t.tum"
    _write_traj(traj, n=20, seed=3)
    cloud = tmp_path / "c.ply"
    _write_cloud(cloud, n=30, seed=3)
    out = tmp_path / "s"
    assert main(["stitch", "--traj", str(traj), "--out", str(out),
                 "--reset-period", "5", "--cloud", str(cloud)]) == 0
    assert (out / "stitched.ply").exists()


def test_stitch_with_fewer_points_than_chunks_fails(tmp_path, capsys):
    traj = tmp_path / "t.tum"
    _write_traj(traj, n=20, seed=3)
    cloud = tmp_path / "c.ply"
    _write_cloud(cloud, n=3, seed=3)
    assert main(["stitch", "--traj", str(traj), "--out", str(tmp_path / "s"),
                 "--reset-period", "5", "--cloud", str(cloud)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: cloud has 3 points but 4 chunks need one each"]


def test_stitch_reads_the_cloud_before_it_splits(tmp_path, capsys):
    # A one-pose trajectory cannot be split (exit 1), but a malformed cloud
    # is reported first, as the usage error it is (exit 2).
    _write_traj(tmp_path / "t.tum", n=1)
    (tmp_path / "bad.ply").write_text("ply\nformat ascii 1.0\n")
    _write_cloud(tmp_path / "c.ply")
    argv = ["stitch", "--traj", str(tmp_path / "t.tum"), "--out", str(tmp_path / "s")]
    assert main([*argv, "--cloud", str(tmp_path / "bad.ply")]) == 2
    assert capsys.readouterr().err == "error: unterminated PLY header: no end_header line\n"
    assert main([*argv, "--cloud", str(tmp_path / "c.ply")]) == 1
    assert capsys.readouterr().err == "error: need at least 2 poses to split\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("magnitude", [1e9, 1e12])
def test_stitch_round_trips_translations_far_from_the_origin(tmp_path, capsys, magnitude):
    # The overlap check is relative to the translations' size.
    rng = np.random.default_rng(40)
    traj = Trajectory(0.1 * np.arange(300), [_rand_quat(rng) for _ in range(300)],
                      magnitude * rng.standard_normal((300, 3)))
    (tmp_path / "t.tum").write_text("".join(write_tum(traj)))
    out = tmp_path / "s"
    assert main(["stitch", "--traj", str(tmp_path / "t.tum"), "--out", str(out),
                 "--reset-period", "10"]) == 0
    assert capsys.readouterr().err == ""
    stitched = parse_tum((out / "stitched.tum").read_text())
    np.testing.assert_array_equal(stitched.timestamps, traj.timestamps)
    err = np.max(np.abs(stitched.translations - traj.translations))
    assert err <= 1e-14 * np.max(np.abs(traj.translations))


def test_stitch_flag_validation(tmp_path):
    traj = tmp_path / "t.tum"
    _write_traj(traj, n=10)
    assert main(["stitch", "--traj", str(traj), "--out", str(tmp_path / "s"),
                 "--reset-period", "0"]) == 2
    assert _build_parser().parse_args(["stitch", "--traj", "x", "--out", "y"]
                                      ).reset_period == 100


# ---------------------------------------------------------------------------
# top-level parser behavior


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_depth_mode_choices_are_enforced(capsys):
    assert main(["depth-eval", "--pred", "p", "--gt", "g", "--out", "o",
                 "--mode", "per-frame"]) == 2


def _readme_synopses():
    """{command: {flag: required}} from the README's CLI synopsis block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    text = {}
    for line in block.strip().splitlines():
        if line.startswith("ttt-lab "):
            command = line.split()[1]
            text[command] = ""
        text[command] += line.replace(f"ttt-lab {command}", "", 1) + " "
    flag = re.compile(r"--[a-z][a-z-]*")
    return {
        command: {f: f in flag.findall(re.sub(r"\[[^\]]*\]", "", synopsis))
                  for f in flag.findall(synopsis)}
        for command, synopsis in text.items()
    }


def test_readme_synopsis_matches_the_parser():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        command: {opt: action.required for action in p._actions
                  for opt in action.option_strings if opt != "--help" and opt.startswith("--")}
        for command, p in sub.choices.items()
    }
    assert _readme_synopses() == flags
