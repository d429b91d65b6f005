"""Command-line interface.

The parser checks each flag's own value, through _args for a flag with
a range, so no command function does.  Each producing subcommand is one
function that writes its outputs and a manifest.json (the command, the
resolved flags but --out, and the output names) into --out.  `ttt-lab
rerun --manifest <path>` gives that config back to the same parser as
flags and calls the same function, so it reproduces every output byte
for byte while the inputs are unchanged, and an edited manifest meets
every flag check.

Exit codes: 0 success, 1 runtime or tolerance failure (association
failure, frame-count mismatch, gradient check over tolerance), 2 usage
errors (bad flags or manifests, missing or malformed input files, a
directory given as an input file, unsupported rule combinations).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, _args
from .geometry_metrics import ate, associate, chamfer, depth_metrics, rpe, sequence_depth_scale
from .io_formats import ParseError, parse_pfm, parse_ply_ascii, parse_tum, \
    write_metrics_csv, write_ply_ascii, write_table, write_tum
from .recall_bench import StateDims, StreamConfig, compare_rules, curves_to_csv, \
    gate_trace_to_csv, gen_adversarial_task, gen_recall_task, summary_to_csv
from .seeding import derive_seed
from .state_rules import recon_loss, recon_loss_grad
from .stitcher import split_trajectory, stitch

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or unusable input; maps to exit code 2."""


def _require(ok, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _atomic_write(path: str, data) -> None:
    """Write text, or an iterable of text blocks one block at a time, via a
    temp file and rename so partial files never appear."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([data] if isinstance(data, str) else data)
        # mkstemp's file is private (0o600): give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(args, files: dict) -> None:
    os.makedirs(args.out, exist_ok=True)
    for name, data in files.items():
        _atomic_write(os.path.join(args.out, name), data)
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("command", "out", "run")},
        "outputs": sorted(files),
        "tool": "ttt-lab",
        "version": __version__,
    }
    _atomic_write(
        os.path.join(args.out, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def _parse(parse, path: str):
    """parse (parse_tum, parse_ply_ascii or json.load) of the open file, whose
    lines break at \\n, \\r and \\r\\n.  Undecodable bytes reach the parser
    as surrogates, where a TUM or PLY parser fails them as a number or a
    keyword: a usage error."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        return parse(handle)


# --count default per task.  32 is gen_adversarial_task's own true_count:
# 64 pairs plus the default 8 distractor frames would not fit a key width of 64.
_DEFAULT_COUNT = {"recall": 64, "adversarial": 32}


def _slug(label: str) -> str:
    return label.replace(":", "_").replace("#", "_")


# ---------------------------------------------------------------------------
# Commands.  Each takes the parsed flags, computes, and writes its
# outputs plus the manifest.  Flags and `rerun` both land here.

def _run_recall(args) -> int:
    if args.count is None:
        args.count = _DEFAULT_COUNT[args.task]
    # Rule specs and task arguments that cannot be built are usage errors.
    try:
        configs = [StreamConfig(spec, args.dims, reset_period=args.reset_period or None,
                                seed=args.seed, softmax_scale=args.scale,
                                gate_reduce=args.gate_reduce) for spec in args.rules]
        if args.task == "adversarial":
            task = gen_adversarial_task(args.dims, args.seed, true_count=args.count,
                                        distractor_count=args.distractors,
                                        frame_size=args.frame_size)
        else:
            task = gen_recall_task(args.count, args.dims, args.key_mode, args.seed, args.rho)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    runs = compare_rules(task, configs)
    del task   # the CSV text below can reuse the memory of its keys and values
    files = {"curves.csv": curves_to_csv(runs), "summary.csv": summary_to_csv(runs)}
    # gates.csv carries the first gated rule's gates (its schema has no
    # rule column); further gated rules land in gates_<label>.csv and
    # the file is header-only when no gated rule ran.
    gated = [run for run in runs if run.betas.size]
    files["gates.csv"] = gate_trace_to_csv(gated[0] if gated else runs[0])
    for run in gated[1:]:
        files[f"gates_{_slug(run.rule_label)}.csv"] = gate_trace_to_csv(run)
    _write_outputs(args, files)
    for run in runs:
        print(f"{run.rule_label}: mean_sq_error={run.mean_sq_error:.6e} "
              f"worst_sq_error={run.worst_sq_error:.6e}")
    return 0


def _run_gradcheck(args) -> int:
    rng = np.random.default_rng(derive_seed(args.seed, "gradcheck"))
    rels = []
    worst = (-1.0, None)
    for _ in range(args.trials):
        c_k, c_v, m = (int(v) for v in rng.integers(1, args.max_dim + 1, 3))
        s = rng.standard_normal((c_v, c_k))
        keys = rng.standard_normal((c_k, m))
        values = rng.standard_normal((c_v, m))
        # The draws are columns; the loss takes the pairs as rows.
        grad = recon_loss_grad(s, keys.T, values.T)
        fd = np.empty_like(grad)
        for i in range(c_v):
            for j in range(c_k):
                bump = np.zeros_like(s)
                bump[i, j] = args.step
                # A step too large to square gives inf losses: a nan error, not a warning.
                with np.errstate(over="ignore"):
                    hi = recon_loss(s + bump, keys.T, values.T)
                    lo = recon_loss(s - bump, keys.T, values.T)
                fd[i, j] = (hi - lo) / (4.0 * args.step)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(fd)))))
        rels.append(rel)
        # A nan error is the worst trial there is: once seen, it stays the worst.
        if not math.isnan(worst[0]) and not rel <= worst[0]:
            worst = (rel, (s, keys, values))
    max_rel = worst[0]
    files = {"gradcheck.csv": write_table("trial,rel_error\n", "%d,%r",
                                          [range(args.trials), rels])}
    ok = max_rel <= args.tol
    if not ok:
        files["gradcheck_failure.csv"] = "name,row,col,value\n" + "".join(
            block for name, arr in zip(("s", "keys", "values"), worst[1])
            for block in write_table("", "%s,%d,%d,%r", [[name] * arr.size,
                                     *np.indices(arr.shape).reshape(2, -1), arr.ravel()]))
    _write_outputs(args, files)
    print(f"max relative error {max_rel:.3e} over {args.trials} trials "
          f"(tolerance {args.tol:g})")
    if not ok:
        print("error: gradient check FAILED; worst instance dumped to gradcheck_failure.csv",
              file=sys.stderr)
        return 1
    return 0


def _run_traj_eval(args) -> int:
    est = _parse(parse_tum, args.est)
    gt = _parse(parse_tum, args.gt)
    pairs = associate(est, gt, args.max_dt)
    if len(pairs) < 3:
        raise ValueError(f"association produced {len(pairs)} matched pairs; need at least 3")
    ate_val = ate(est, gt, pairs, align=args.align)
    rpe_trans, rpe_rot = rpe(est, gt, pairs, delta=args.rpe_delta)
    csv = write_table("ate,rpe_trans,rpe_rot\n", "%r,%r,%r", [[ate_val], [rpe_trans], [rpe_rot]])
    _write_outputs(args, {"traj_eval.csv": csv})
    print(f"matched={len(pairs)} ate={ate_val:.6e} "
          f"rpe_trans={rpe_trans:.6e} rpe_rot={rpe_rot:.6e}")
    return 0


class _Maps:
    """The PFM maps of names in directory, parsed afresh on each iteration."""

    def __init__(self, directory: str, names: list):
        self.paths = [os.path.join(directory, name) for name in names]

    def __iter__(self):
        return (parse_pfm(Path(path).read_bytes()) for path in self.paths)


def _list_pfms(directory: str):
    _require(os.path.isdir(directory), f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".pfm"))
    _require(names, f"no .pfm files in {directory}")
    return names


def _run_depth_eval(args) -> int:
    """Per-frame depth metrics at scale 1.0 (metric) or the pooled median ratio (seq-scale)."""
    pred_names = _list_pfms(args.pred)
    gt_names = _list_pfms(args.gt)
    if len(pred_names) != len(gt_names):
        raise ValueError(f"frame count mismatch: {len(pred_names)} predictions "
                         f"vs {len(gt_names)} references")
    if pred_names != gt_names:
        raise ValueError("prediction and reference file names do not match")

    # Maps are parsed when read, so one pair is held at a time.  The first
    # pass parses and shape-checks every pair before any metric is computed
    # (sequence_depth_scale parses each pair once more to gather its middle
    # bins); the last parses each pair again for its metrics.
    preds, gts = _Maps(args.pred, pred_names), _Maps(args.gt, gt_names)
    scale = 1.0
    if args.mode == "seq-scale":
        scale = sequence_depth_scale(preds, gts)
    else:
        for pred, gt in zip(preds, gts):
            _args.depth_maps(pred, gt)
    per_frame = [depth_metrics(p, g, scale) for p, g in zip(preds, gts)]
    abs_rel, d125 = map(list, zip(*per_frame))
    mean_abs, mean_d = float(np.mean(abs_rel)), float(np.mean(d125))
    csv = write_table("frame,abs_rel,delta_125\n", "%s,%r,%r",
                      [pred_names + ["mean"], abs_rel + [mean_abs], d125 + [mean_d]])
    _write_outputs(args, {"depth_eval.csv": csv})
    if args.mode == "seq-scale":
        print(f"sequence scale {scale:.6e}")
    print(f"frames={len(per_frame)} abs_rel={mean_abs:.6e} delta_125={mean_d:.6f}")
    return 0


def _run_chamfer(args) -> int:
    cloud_a = _parse(parse_ply_ascii, args.a)
    cloud_b = _parse(parse_ply_ascii, args.b)
    result = chamfer(cloud_a, cloud_b)
    rows = [("accuracy", result.accuracy), ("completeness", result.completeness),
            ("chamfer", result.chamfer)]
    if result.normal_consistency is not None:
        rows.append(("normal_consistency", result.normal_consistency))
    _write_outputs(args, {"chamfer.csv": write_metrics_csv(rows)})
    for name, value in rows:
        print(f"{name}={value:.6e}")
    return 0


def _run_stitch(args) -> int:
    traj = _parse(parse_tum, args.traj)
    cloud = None if args.cloud is None else _parse(parse_ply_ascii, args.cloud)
    chunks = split_trajectory(traj, args.reset_period, cloud)
    del cloud    # the chunks hold its pieces now: the cloud is held once
    stitched, merged = stitch(chunks)
    roundtrip = ate(stitched, traj, associate(stitched, traj), align="none")
    files = {"stitched.tum": write_tum(stitched)}
    if merged is not None:
        files["stitched.ply"] = write_ply_ascii(merged)
    rows = [("chunks", float(len(chunks))), ("poses", float(len(stitched))),
            ("ate_vs_input", roundtrip)]
    files["stitch.csv"] = write_metrics_csv(rows)
    _write_outputs(args, files)
    print(f"chunks={len(chunks)} poses={len(stitched)} ate_vs_input={roundtrip:.3e}")
    return 0


def _replay(parser: argparse.ArgumentParser, args) -> list:
    """The argv that re-runs a manifest: its config given back as the command's flags.

    The parser is the only schema: every flag's type, range and choice
    applies to an edited manifest exactly as it does on the command line.
    """
    try:
        manifest = _parse(json.load, args.manifest)
    except ValueError as exc:
        raise UsageError(f"malformed manifest: {exc}") from None
    _require(isinstance(manifest, dict), "manifest must be a JSON object")
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    command, config = manifest.get("command"), manifest.get("config")
    _require(isinstance(command, str) and command in commands and command != "rerun",
             f"manifest must name a producing command, got {command!r}")
    _require(isinstance(config, dict), "manifest config must be an object")
    flags = {a.dest: a.option_strings[0] for a in commands[command]._actions
             if a.dest not in ("help", "out")}
    missing, unknown = sorted(flags.keys() - config.keys()), sorted(config.keys() - flags.keys())
    _require(not missing and not unknown, f"manifest config does not match the {command} "
             f"flags: missing keys {missing}, unknown keys {unknown}")
    out = args.out if args.out is not None else (os.path.dirname(args.manifest) or ".")
    argv = [command, f"--out={out}"]
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is not None:
            argv.append(f"{flags[key]}={value}")
    return argv


def _flag(read, check, **bounds):
    """An argparse type: read(text) checked by check, an _args checker, whose
    ValueError is the flag's error line; text read cannot take keeps argparse's."""
    def parse(text: str, name: str = "value"):
        value = read(text)
        try:
            return check(value, name, **bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = read.__name__
    return parse


def _dims(text: str) -> StateDims:
    """--dims n,c,c_k,c_v: four integers, each >= 1."""
    parts, entry = text.split(","), _flag(int, _args.integer, low=1)
    try:
        if len(parts) == 4:
            return StateDims(*map(entry, parts, StateDims._fields))
    except ValueError:    # an entry that int cannot read
        pass
    raise argparse.ArgumentTypeError(f"value must be four integers n,c,c_k,c_v, got {text!r}")


def _rules(text: str) -> list:
    """--rules: the comma-separated rule specs, at least one."""
    if not text.replace(",", "").strip():
        raise argparse.ArgumentTypeError(f"value must name at least one rule, got {text!r}")
    return [spec.strip() for spec in text.split(",") if spec.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttt-lab",
        description="State-update rule benchmark and reconstruction metrics toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(run=run)
        return p

    p = command("recall", _run_recall, "run the associative-recall benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rules", type=_rules, default="full,vanilla,hebbian,delta,ttt3r",
                   help="comma-separated rule specs, e.g. delta:0.5,ttt3r:confidence")
    p.add_argument("--task", choices=["recall", "adversarial"], default="recall")
    p.add_argument("--count", type=int, default=None,
                   help="number of stored pairs (default 64; 32 with --task adversarial)")
    p.add_argument("--key-mode", choices=["orthonormal", "random_unit", "correlated"],
                   default="orthonormal")
    p.add_argument("--rho", type=float, default=0.9, help="correlated-mode key overlap")
    p.add_argument("--dims", type=_dims, default="4,64,64,64", help="state dims n,c,c_k,c_v")
    p.add_argument("--reset-period", type=_flag(int, _args.integer, low=0), default=0,
                   help="reset the state every P frames (0 = never)")
    p.add_argument("--gate-reduce", choices=["sum", "mean"], default="sum",
                   help="reduce of the ttt3r confidence gate")
    p.add_argument("--scale", type=float, default=None,
                   help="multiplies the attention logits before the softmax, so larger "
                        "is sharper; not a temperature (default 1/sqrt(c))")
    p.add_argument("--distractors", type=int, default=128,
                   help="adversarial task: distractor token count")
    p.add_argument("--frame-size", type=int, default=16,
                   help="adversarial task: identical tokens per distractor frame")

    p = command("gradcheck", _run_gradcheck, "finite-difference check of the update gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_flag(int, _args.integer, low=1), default=100)
    p.add_argument("--tol", type=_flag(float, _args.real, closed=True), default=1e-6)
    p.add_argument("--step", type=_flag(float, _args.real), default=1e-5)
    # numpy draws the sizes as int64.
    p.add_argument("--max-dim", type=_flag(int, _args.integer, low=1, high=2**63 - 1), default=8)

    p = command("traj-eval", _run_traj_eval, "ATE and RPE of an estimated trajectory")
    p.add_argument("--est", required=True, help="estimated trajectory (TUM)")
    p.add_argument("--gt", required=True, help="reference trajectory (TUM)")
    p.add_argument("--align", choices=["sim3", "se3", "none"], default="sim3")
    p.add_argument("--rpe-delta", type=_flag(int, _args.integer, low=1), default=1)
    p.add_argument("--max-dt", type=_flag(float, _args.real), default=0.02,
                   help="association window in seconds")

    p = command("depth-eval", _run_depth_eval, "absolute-relative depth error and inlier rate")
    p.add_argument("--pred", required=True, help="directory of predicted .pfm maps")
    p.add_argument("--gt", required=True, help="directory of reference .pfm maps")
    p.add_argument("--mode", choices=["seq-scale", "metric"], default="seq-scale")

    p = command("chamfer", _run_chamfer, "point-cloud chamfer distance")
    p.add_argument("--a", required=True, help="first cloud (ASCII PLY)")
    p.add_argument("--b", required=True, help="second cloud (ASCII PLY)")

    p = command("stitch", _run_stitch, "split a trajectory into chunks and re-stitch it")
    p.add_argument("--traj", required=True, help="trajectory to split (TUM)")
    p.add_argument("--reset-period", type=_flag(int, _args.integer, low=1), default=100,
                   help="chunk length in frames")
    p.add_argument("--cloud", default=None, help="optional cloud to carry along (PLY)")

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="output directory (default: the manifest's directory)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    manifest = None    # the manifest whose config the command runs, once _replay has read it
    try:
        args = parser.parse_args(argv)
        if args.command == "rerun":
            argv, manifest = _replay(parser, args), args.manifest
            args = parser.parse_args(argv)
        return args.run(args)
    except (SystemExit, UsageError) as exc:
        if isinstance(exc, UsageError):
            print(f"error: {exc}", file=sys.stderr)
        if manifest is not None:
            print(f"error: the rejected value comes from the config of the manifest "
                  f"{manifest}", file=sys.stderr)
        return exc.code if isinstance(exc, SystemExit) and isinstance(exc.code, int) else 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
