"""Output checks for the benchmark's workloads.

Every check reads the CLI's output files with the standard library only,
so it does not depend on the code it checks.  A check returns a list of
problems; an empty list means the operation's outputs are correct.

The checks hold for every seed.  At the default seed and sizes the
summaries must also match `reference.json` within a relative 1e-9, so a
change that moves output bits by rounding passes, and one that changes
results does not.  `reference.json` holds, per workload, the stock sizes
and the `summary` block that run.py writes to results.json at seed 0.
"""

from __future__ import annotations

import csv
import json
import math
import os

import recon_inputs

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
RECALL_LABELS = ["full", "vanilla", "hebbian", "delta:1", "ttt3r:confidence"]
RECALL_FILES = ["curves.csv", "summary.csv", "gates.csv", "gates_ttt3r_confidence.csv",
                "manifest.json"]
CAPACITY_TOL = 1e-10   # hebbian and delta recall at capacity on orthonormal keys
STITCH_TOL = 1e-9      # stitch round trip against its input
REL_TOL = 1e-9         # agreement with the stored reference
# Values at or below rounding noise (for example the 1e-28 errors of
# exact recall) carry no relative information; compare them absolutely.
ABS_TOL = 1e-15


class CheckFailed(Exception):
    pass


def _rows(path: str, header: list) -> list:
    if not os.path.isfile(path):
        raise CheckFailed(f"missing output {path}")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path}: header {rows[:1]} is not {header}")
    return rows[1:]


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: {value!r} is not finite")
    return value


def _metrics(path: str) -> dict:
    return {name: _number(value, f"{path}:{name}")
            for name, value in _rows(path, ["metric", "value"])}


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_gates(path: str, frames: int, tokens: int, constant=None) -> None:
    rows = _rows(path, ["frame", "token", "beta"])
    _expect(len(rows) == frames * tokens,
            f"{path}: {len(rows)} rows, expected {frames * tokens}")
    for frame, token, beta in rows:
        value = _number(beta, f"{path}:{frame}:{token}")
        if constant is None:
            _expect(0.0 < value < 1.0, f"{path}: gate {value!r} outside (0, 1)")
        else:
            _expect(value == constant, f"{path}: gate {value!r} is not {constant!r}")


def _recall(out_dir: str, sizes: dict, wide: bool) -> dict:
    d = os.path.join(out_dir, "recall")
    for name in RECALL_FILES:
        _expect(os.path.isfile(os.path.join(d, name)), f"missing output {d}/{name}")
    count = sizes["count"]
    n = int(sizes["dims"].split(",")[0])
    curves = _rows(os.path.join(d, "curves.csv"), ["rule", "position", "sq_error"])
    _expect(len(curves) == count * len(RECALL_LABELS),
            f"curves.csv: {len(curves)} rows, expected {count * len(RECALL_LABELS)}")
    for rule, _, err in curves:
        _expect(rule in RECALL_LABELS, f"curves.csv: unknown rule {rule!r}")
        _expect(_number(err, "curves.csv") >= 0.0, "curves.csv: negative error")
    rows = _rows(os.path.join(d, "summary.csv"), ["rule", "mean_sq_error", "worst_sq_error"])
    _expect([r[0] for r in rows] == RECALL_LABELS,
            f"summary.csv rules {[r[0] for r in rows]} are not {RECALL_LABELS}")
    summary = {}
    for rule, mean, worst in rows:
        summary[f"{rule}.mean_sq_error"] = _number(mean, f"summary.csv:{rule}")
        summary[f"{rule}.worst_sq_error"] = _number(worst, f"summary.csv:{rule}")
    # One pair per frame: the delta rule's constant gate logs one beta
    # per frame, the confidence gate one per state token.
    _check_gates(os.path.join(d, "gates.csv"), count, 1, constant=1.0)
    _check_gates(os.path.join(d, "gates_ttt3r_confidence.csv"), count, n)
    if wide:
        for rule in ("hebbian", "delta:1"):
            worst = summary[f"{rule}.worst_sq_error"]
            _expect(worst <= CAPACITY_TOL,
                    f"{rule} worst_sq_error {worst!r} > {CAPACITY_TOL} at capacity")
    return summary


def _count_lines(path: str, skip_prefix: str) -> int:
    with open(path) as handle:
        return sum(1 for line in handle if line.strip() and not line.startswith(skip_prefix))


def _recon(out_dir: str, sizes: dict) -> dict:
    summary = {}
    rows = _rows(os.path.join(out_dir, "traj-eval", "traj_eval.csv"),
                 ["ate", "rpe_trans", "rpe_rot"])
    _expect(len(rows) == 1, f"traj_eval.csv: {len(rows)} rows, expected 1")
    for name, value in zip(("ate", "rpe_trans", "rpe_rot"), rows[0]):
        summary[f"traj_eval.{name}"] = _number(value, f"traj_eval.csv:{name}")
        _expect(summary[f"traj_eval.{name}"] > 0, f"traj_eval.csv: {name} is not positive")
    # After sim3 alignment the residual is the injected isotropic noise.
    expected_ate = recon_inputs.POSE_NOISE * math.sqrt(3.0)
    ate = summary["traj_eval.ate"]
    _expect(0.5 * expected_ate < ate < 2.0 * expected_ate,
            f"ate {ate!r} far from the injected noise level {expected_ate!r}")

    d = os.path.join(out_dir, "stitch")
    stitch = _metrics(os.path.join(d, "stitch.csv"))
    poses = sizes["poses"]
    chunks = -(-(poses - 1) // sizes["stitch_period"])
    _expect(stitch.get("chunks") == chunks, f"stitch chunks {stitch.get('chunks')} != {chunks}")
    _expect(stitch.get("poses") == poses, f"stitch poses {stitch.get('poses')} != {poses}")
    _expect(stitch.get("ate_vs_input", math.inf) <= STITCH_TOL,
            f"stitch ate_vs_input {stitch.get('ate_vs_input')} > {STITCH_TOL}")
    summary["stitch.chunks"] = stitch["chunks"]
    summary["stitch.poses"] = stitch["poses"]
    _expect(_count_lines(os.path.join(d, "stitched.tum"), "#") == poses,
            "stitched.tum pose count differs from the input")
    with open(os.path.join(d, "stitched.ply")) as handle:
        head = handle.read(4096)
    _expect(f"element vertex {sizes['points']}\n" in head,
            "stitched.ply vertex count differs from the input cloud")

    cham = _metrics(os.path.join(out_dir, "chamfer", "chamfer.csv"))
    for name in ("accuracy", "completeness", "chamfer", "normal_consistency"):
        _expect(name in cham, f"chamfer.csv lacks {name}")
        summary[f"chamfer.{name}"] = cham[name]
    _expect(0 < cham["chamfer"] < 0.5, f"chamfer {cham['chamfer']!r} out of range")
    _expect(0.9 < cham["normal_consistency"] <= 1.0,
            f"normal_consistency {cham['normal_consistency']!r} out of range")

    rows = _rows(os.path.join(out_dir, "depth-eval", "depth_eval.csv"),
                 ["frame", "abs_rel", "delta_125"])
    maps = sizes["depth_maps"]
    _expect(len(rows) == maps + 1, f"depth_eval.csv: {len(rows)} rows, expected {maps + 1}")
    _expect(rows[-1][0] == "mean", "depth_eval.csv lacks its mean row")
    abs_rel = _number(rows[-1][1], "depth_eval.csv:mean")
    d125 = _number(rows[-1][2], "depth_eval.csv:mean")
    _expect(0 < abs_rel < 2 * recon_inputs.DEPTH_NOISE, f"mean abs_rel {abs_rel!r} out of range")
    _expect(0.99 < d125 <= 1.0, f"mean delta_125 {d125!r} out of range")
    summary["depth_eval.abs_rel"] = abs_rel
    summary["depth_eval.delta_125"] = d125
    return summary


def summarize(workload: str, out_dir: str, sizes: dict) -> dict:
    """Check one operation's outputs; return its summary values.

    Raises CheckFailed on the first problem found.
    """
    if workload == "recon-eval":
        return _recon(out_dir, sizes)
    return _recall(out_dir, sizes, wide=(workload == "recall-wide"))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def compare_reference(summary: dict, reference: dict) -> list:
    """Problems where summary and reference disagree beyond REL_TOL."""
    problems = []
    for name, ref in reference.items():
        got = summary.get(name)
        if got is None or not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{name}: {got!r} differs from reference {ref!r}")
    return problems


def check(workload: str, out_dir: str, sizes: dict, reference=None) -> list:
    """All problems with one operation's outputs (empty when correct).

    reference, when given, holds the expected summary values.
    """
    try:
        summary = summarize(workload, out_dir, sizes)
    except (CheckFailed, OSError) as exc:
        return [str(exc)]
    return compare_reference(summary, reference) if reference else []


def compare_trees(original: str, rerun: str) -> list:
    """Problems where the rerun's files differ from the original's."""
    names_a = sorted(os.listdir(original)) if os.path.isdir(original) else []
    names_b = sorted(os.listdir(rerun)) if os.path.isdir(rerun) else []
    if names_a != names_b or not names_a:
        return [f"rerun wrote {names_b}, original wrote {names_a}"]
    problems = []
    for name in names_a:
        with open(os.path.join(original, name), "rb") as a, \
                open(os.path.join(rerun, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"rerun changed bytes of {name}")
    return problems
