"""Command-line interface.

Every producing subcommand resolves its flags into a plain config
dict, runs, and writes its outputs plus a manifest.json into --out.
The manifest records the command, the fully resolved config and the
output file names, nothing else (no timestamps, no host details), so
`ttt-lab rerun --manifest <path>` reproduces every output byte for
byte as long as the referenced input files are unchanged.

Exit codes: 0 success, 1 runtime or tolerance failure (association
failure, frame-count mismatch, gradient check over tolerance), 2 usage
errors (bad flags, missing or malformed input files, unsupported rule
combinations).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .geometry_metrics import ate, associate, chamfer, depth_metrics, normal_consistency, \
    rpe, sequence_depth_scale, PointCloud
from .io_formats import ParseError, parse_pfm, parse_ply_ascii, parse_tum, \
    write_metrics_csv, write_ply_ascii, write_tum
from .recall_bench import StateDims, StreamConfig, UnsupportedRuleCombination, \
    compare_rules, curves_to_csv, gate_trace_to_csv, gen_adversarial_task, \
    gen_recall_task, parse_rule, summary_to_csv
from .seeding import derive_seed
from .state_rules import FastWeightMatrix, recon_loss, recon_loss_grad
from .stitcher import Chunk, split_trajectory, stitch

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or unusable input; maps to exit code 2."""


def _atomic_write(path: str, data) -> None:
    """Write via a temp file and rename so partial files never appear."""
    directory = os.path.dirname(path) or "."
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(out_dir: str, command: str, config: dict, files: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, data in files.items():
        _atomic_write(os.path.join(out_dir, name), data)
    manifest = {
        "command": command,
        "config": config,
        "outputs": sorted(files),
        "tool": "ttt-lab",
        "version": __version__,
    }
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def _read_text(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# --count default per task.  32 is gen_adversarial_task's own true_count:
# 64 pairs plus the default 8 distractor frames would not fit a key width of 64.
_DEFAULT_COUNT = {"recall": 64, "adversarial": 32}


def _slug(label: str) -> str:
    return label.replace(":", "_").replace("#", "_")


# ---------------------------------------------------------------------------
# Runners.  Each takes (config, out_dir), writes files, returns an exit
# code.  They are invoked both by the flag handlers and by `rerun`.

def _run_recall(config: dict, out_dir: str) -> int:
    dims = StateDims(*config["dims"])
    # Rule specs and task arguments that cannot be built are usage errors.
    try:
        rules = [parse_rule(spec, config["gate_reduce"]) for spec in config["rules"]]
        if config["task"] == "adversarial":
            task = gen_adversarial_task(
                dims, config["seed"], true_count=config["count"],
                distractor_count=config["distractors"], frame_size=config["frame_size"],
            )
        else:
            task = gen_recall_task(
                config["count"], dims, config["key_mode"], config["seed"], config["rho"]
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    period = config["reset_period"] if config["reset_period"] else None
    configs = [
        StreamConfig(rule, dims, reset_period=period, seed=config["seed"],
                     softmax_scale=config["scale"])
        for rule in rules
    ]
    comparison = compare_rules(task, configs)
    files = {
        "curves.csv": curves_to_csv(comparison.curves),
        "summary.csv": summary_to_csv(comparison),
    }
    # gates.csv carries the first gated rule's trace (its schema has no
    # rule column); further gated rules land in gates_<label>.csv and
    # the file is header-only when no gated rule ran.
    gated = [trace for trace in comparison.traces if len(trace)]
    files["gates.csv"] = gate_trace_to_csv(gated[0]) if gated else "frame,token,beta\n"
    for trace in gated[1:]:
        files[f"gates_{_slug(trace.rule_label)}.csv"] = gate_trace_to_csv(trace)
    _write_outputs(out_dir, "recall", config, files)
    for label, mean, worst in comparison.summary:
        print(f"{label}: mean_sq_error={mean:.6e} worst_sq_error={worst:.6e}")
    return 0


def _run_gradcheck(config: dict, out_dir: str) -> int:
    rng = np.random.default_rng(derive_seed(config["seed"], "gradcheck"))
    trials = config["trials"]
    step = config["step"]
    tol = config["tol"]
    max_dim = config["max_dim"]
    rows = []
    worst = (-1.0, None)
    for trial in range(trials):
        c_k, c_v, m = (int(v) for v in rng.integers(1, max_dim + 1, 3))
        s = rng.standard_normal((c_v, c_k))
        keys = rng.standard_normal((c_k, m))
        values = rng.standard_normal((c_v, m))
        state = FastWeightMatrix(s)
        grad = recon_loss_grad(state, keys, values)
        fd = np.empty_like(grad)
        for i in range(c_v):
            for j in range(c_k):
                bump = np.zeros_like(s)
                bump[i, j] = step
                hi = recon_loss(FastWeightMatrix(s + bump), keys, values)
                lo = recon_loss(FastWeightMatrix(s - bump), keys, values)
                fd[i, j] = (hi - lo) / (4.0 * step)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(fd)))))
        rows.append((trial, rel))
        if rel > worst[0]:
            worst = (rel, (s, keys, values))
    max_rel = worst[0]
    lines = ["trial,rel_error"]
    for trial, rel in rows:
        lines.append(f"{trial},{rel!r}")
    files = {"gradcheck.csv": "\n".join(lines) + "\n"}
    ok = max_rel <= tol
    if not ok:
        dump = ["name,row,col,value"]
        for name, arr in zip(("s", "keys", "values"), worst[1]):
            for (i, j), v in np.ndenumerate(arr):
                dump.append(f"{name},{i},{j},{float(v)!r}")
        files["gradcheck_failure.csv"] = "\n".join(dump) + "\n"
    _write_outputs(out_dir, "gradcheck", config, files)
    print(f"max relative error {max_rel:.3e} over {trials} trials (tolerance {tol:g})")
    if not ok:
        print("gradient check FAILED; worst instance dumped to gradcheck_failure.csv",
              file=sys.stderr)
        return 1
    return 0


def _run_traj_eval(config: dict, out_dir: str) -> int:
    est = parse_tum(_read_text(config["est"]))
    gt = parse_tum(_read_text(config["gt"]))
    pairs = associate(est, gt, config["max_dt"])
    if len(pairs) < 3:
        raise ValueError(
            f"association produced {len(pairs)} matched pairs; need at least 3"
        )
    ate_val = ate(est, gt, align=config["align"], max_dt=config["max_dt"])
    rpe_trans, rpe_rot = rpe(est, gt, delta=config["rpe_delta"], max_dt=config["max_dt"])
    csv = "ate,rpe_trans,rpe_rot\n" + f"{ate_val!r},{rpe_trans!r},{rpe_rot!r}\n"
    _write_outputs(out_dir, "traj-eval", config, {"traj_eval.csv": csv})
    print(f"matched={len(pairs)} ate={ate_val:.6e} "
          f"rpe_trans={rpe_trans:.6e} rpe_rot={rpe_rot:.6e}")
    return 0


def _list_pfms(directory: str):
    if not os.path.isdir(directory):
        raise UsageError(f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".pfm"))
    if not names:
        raise UsageError(f"no .pfm files in {directory}")
    return names


def _run_depth_eval(config: dict, out_dir: str) -> int:
    pred_names = _list_pfms(config["pred"])
    gt_names = _list_pfms(config["gt"])
    if len(pred_names) != len(gt_names):
        raise ValueError(
            f"frame count mismatch: {len(pred_names)} predictions vs {len(gt_names)} references"
        )
    if pred_names != gt_names:
        raise ValueError("prediction and reference file names do not match")
    preds = [parse_pfm(_read_bytes(os.path.join(config["pred"], n))) for n in pred_names]
    gts = [parse_pfm(_read_bytes(os.path.join(config["gt"], n))) for n in gt_names]
    mode_map = {"seq-scale": "per_sequence_scale", "metric": "metric"}
    if config["mode"] not in mode_map:
        raise UsageError(f"unknown depth mode {config['mode']!r}; valid: seq-scale, metric")
    mode = mode_map[config["mode"]]
    scale = None
    if mode == "per_sequence_scale":
        scale = sequence_depth_scale(preds, gts)
    per_frame = [depth_metrics(p, g, mode=mode, scale=scale)
                 for p, g in zip(preds, gts)]
    lines = ["frame,abs_rel,delta_125"]
    for name, (abs_rel, d125) in zip(pred_names, per_frame):
        lines.append(f"{name},{abs_rel!r},{d125!r}")
    mean_abs = float(np.mean([m[0] for m in per_frame]))
    mean_d = float(np.mean([m[1] for m in per_frame]))
    lines.append(f"mean,{mean_abs!r},{mean_d!r}")
    _write_outputs(out_dir, "depth-eval", config, {"depth_eval.csv": "\n".join(lines) + "\n"})
    if scale is not None:
        print(f"sequence scale {scale:.6e}")
    print(f"frames={len(per_frame)} abs_rel={mean_abs:.6e} delta_125={mean_d:.6f}")
    return 0


def _run_chamfer(config: dict, out_dir: str) -> int:
    cloud_a = parse_ply_ascii(_read_text(config["a"]))
    cloud_b = parse_ply_ascii(_read_text(config["b"]))
    result = chamfer(cloud_a, cloud_b)
    rows = [("accuracy", result.accuracy), ("completeness", result.completeness),
            ("chamfer", result.chamfer)]
    if cloud_a.normals is not None and cloud_b.normals is not None:
        rows.append(("normal_consistency", normal_consistency(cloud_a, cloud_b)))
    _write_outputs(out_dir, "chamfer", config, {"chamfer.csv": write_metrics_csv(rows)})
    for name, value in rows:
        print(f"{name}={value:.6e}")
    return 0


def _run_stitch(config: dict, out_dir: str) -> int:
    traj = parse_tum(_read_text(config["traj"]))
    chunks = split_trajectory(traj, config["reset_period"])
    cloud = None
    if config["cloud"] is not None:
        cloud = parse_ply_ascii(_read_text(config["cloud"]))
        if len(cloud) < len(chunks):
            raise ValueError(
                f"cloud has {len(cloud)} points but {len(chunks)} chunks need one each"
            )
        # Hand each chunk a contiguous slice of the cloud, expressed in
        # that chunk's local frame, to exercise cloud composition.
        bounds = np.linspace(0, len(cloud), len(chunks) + 1).astype(int)
        localized = []
        for chunk, lo, hi in zip(chunks, bounds[:-1], bounds[1:]):
            anchor = chunk.anchor.to_matrix()
            rot_inv = anchor[:3, :3].T
            pts = (cloud.points[lo:hi] - anchor[:3, 3]) @ rot_inv.T
            nrm = None if cloud.normals is None else cloud.normals[lo:hi] @ rot_inv.T
            localized.append(Chunk(chunk.trajectory, chunk.anchor, PointCloud(pts, nrm)))
        chunks = localized
    stitched, merged = stitch(chunks)
    roundtrip = ate(stitched, traj, align="none")
    files = {"stitched.tum": write_tum(stitched)}
    if merged is not None:
        files["stitched.ply"] = write_ply_ascii(merged)
    rows = [("chunks", float(len(chunks))), ("poses", float(len(stitched))),
            ("ate_vs_input", roundtrip)]
    files["stitch.csv"] = write_metrics_csv(rows)
    _write_outputs(out_dir, "stitch", config, files)
    print(f"chunks={len(chunks)} poses={len(stitched)} ate_vs_input={roundtrip:.3e}")
    return 0


_RUNNERS = {
    "recall": _run_recall,
    "gradcheck": _run_gradcheck,
    "traj-eval": _run_traj_eval,
    "depth-eval": _run_depth_eval,
    "chamfer": _run_chamfer,
    "stitch": _run_stitch,
}


# ---------------------------------------------------------------------------
# Flag handlers: resolve argparse namespaces into runner configs.

def _parse_dims(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--dims wants n,c,c_k,c_v, got {text!r}")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--dims wants four integers, got {text!r}") from None
    if min(dims) < 1:
        raise UsageError(f"--dims entries must be >= 1, got {text!r}")
    return dims


def _handle_recall(args) -> int:
    rules = [spec.strip() for spec in args.rules.split(",") if spec.strip()]
    if not rules:
        raise UsageError("--rules must name at least one rule")
    if args.scale is not None and not (args.scale > 0 and math.isfinite(args.scale)):
        raise UsageError(f"--scale must be positive and finite, got {args.scale}")
    if args.reset_period < 0:
        raise UsageError("--reset-period cannot be negative (0 turns resets off)")
    config = {
        "task": args.task,
        "count": _DEFAULT_COUNT[args.task] if args.count is None else args.count,
        "distractors": args.distractors,
        "frame_size": args.frame_size,
        "key_mode": args.key_mode,
        "rho": args.rho,
        "dims": _parse_dims(args.dims),
        "reset_period": args.reset_period,
        "scale": args.scale,
        "gate_reduce": args.gate_reduce,
        "rules": rules,
        "seed": args.seed,
    }
    return _run_recall(config, args.out)


def _handle_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if not (args.step > 0):
        raise UsageError("--step must be positive")
    if args.tol < 0:
        raise UsageError("--tol cannot be negative")
    if args.max_dim < 1:
        raise UsageError("--max-dim must be >= 1")
    config = {
        "seed": args.seed,
        "trials": args.trials,
        "tol": args.tol,
        "step": args.step,
        "max_dim": args.max_dim,
    }
    return _run_gradcheck(config, args.out)


def _handle_traj_eval(args) -> int:
    if not (args.max_dt > 0):
        raise UsageError("--max-dt must be positive")
    if args.rpe_delta < 1:
        raise UsageError("--rpe-delta must be >= 1")
    config = {
        "est": args.est,
        "gt": args.gt,
        "align": args.align,
        "rpe_delta": args.rpe_delta,
        "max_dt": args.max_dt,
    }
    return _run_traj_eval(config, args.out)


def _handle_depth_eval(args) -> int:
    config = {"pred": args.pred, "gt": args.gt, "mode": args.mode}
    return _run_depth_eval(config, args.out)


def _handle_chamfer(args) -> int:
    config = {"a": args.a, "b": args.b}
    return _run_chamfer(config, args.out)


def _handle_stitch(args) -> int:
    if args.reset_period < 1:
        raise UsageError("--reset-period must be >= 1")
    config = {"traj": args.traj, "reset_period": args.reset_period, "cloud": args.cloud}
    return _run_stitch(config, args.out)


def _handle_rerun(args) -> int:
    try:
        manifest = json.loads(_read_text(args.manifest))
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed manifest: {exc}") from None
    if not isinstance(manifest, dict) or "command" not in manifest or "config" not in manifest:
        raise UsageError("manifest must carry 'command' and 'config' entries")
    command = manifest["command"]
    runner = _RUNNERS.get(command)
    if runner is None:
        raise UsageError(f"manifest names unknown command {command!r}")
    config = manifest["config"]
    if not isinstance(config, dict):
        raise UsageError("manifest config must be an object")
    out_dir = args.out if args.out is not None else (os.path.dirname(args.manifest) or ".")
    try:
        return runner(config, out_dir)
    except KeyError as exc:
        raise UsageError(f"manifest config is missing key {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttt-lab",
        description="State-update rule benchmark and reconstruction metrics toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recall", help="run the associative-recall benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rules", default="full,vanilla,hebbian,delta,ttt3r",
                   help="comma-separated rule specs, e.g. delta:0.5,ttt3r:confidence")
    p.add_argument("--task", choices=["recall", "adversarial"], default="recall")
    p.add_argument("--count", type=int, default=None,
                   help="number of stored pairs (default 64; 32 with --task adversarial)")
    p.add_argument("--key-mode", choices=["orthonormal", "random_unit", "correlated"],
                   default="orthonormal")
    p.add_argument("--rho", type=float, default=0.9, help="correlated-mode key overlap")
    p.add_argument("--dims", default="4,64,64,64", help="state dims n,c,c_k,c_v")
    p.add_argument("--reset-period", type=int, default=0,
                   help="reset the state every P frames (0 = never)")
    p.add_argument("--gate-reduce", choices=["sum", "mean"], default="sum",
                   help="reduce of the ttt3r confidence gate")
    p.add_argument("--scale", type=float, default=None,
                   help="softmax temperature (default 1/sqrt(c))")
    p.add_argument("--distractors", type=int, default=128,
                   help="adversarial task: distractor token count")
    p.add_argument("--frame-size", type=int, default=16,
                   help="adversarial task: identical tokens per distractor frame")
    p.set_defaults(handler=_handle_recall)

    p = sub.add_parser("gradcheck", help="finite-difference check of the update gradient")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--max-dim", type=int, default=8)
    p.set_defaults(handler=_handle_gradcheck)

    p = sub.add_parser("traj-eval", help="ATE and RPE of an estimated trajectory")
    p.add_argument("--est", required=True, help="estimated trajectory (TUM)")
    p.add_argument("--gt", required=True, help="reference trajectory (TUM)")
    p.add_argument("--out", required=True)
    p.add_argument("--align", choices=["sim3", "se3", "none"], default="sim3")
    p.add_argument("--rpe-delta", type=int, default=1)
    p.add_argument("--max-dt", type=float, default=0.02,
                   help="association window in seconds")
    p.set_defaults(handler=_handle_traj_eval)

    p = sub.add_parser("depth-eval", help="absolute-relative depth error and inlier rate")
    p.add_argument("--pred", required=True, help="directory of predicted .pfm maps")
    p.add_argument("--gt", required=True, help="directory of reference .pfm maps")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["seq-scale", "metric"], default="seq-scale")
    p.set_defaults(handler=_handle_depth_eval)

    p = sub.add_parser("chamfer", help="point-cloud chamfer distance")
    p.add_argument("--a", required=True, help="first cloud (ASCII PLY)")
    p.add_argument("--b", required=True, help="second cloud (ASCII PLY)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_handle_chamfer)

    p = sub.add_parser("stitch", help="split a trajectory into chunks and re-stitch it")
    p.add_argument("--traj", required=True, help="trajectory to split (TUM)")
    p.add_argument("--out", required=True)
    p.add_argument("--reset-period", type=int, default=100,
                   help="chunk length in frames")
    p.add_argument("--cloud", default=None, help="optional cloud to carry along (PLY)")
    p.set_defaults(handler=_handle_stitch)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="output directory (default: the manifest's directory)")
    p.set_defaults(handler=_handle_rerun)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (UsageError, UnsupportedRuleCombination, FileNotFoundError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
