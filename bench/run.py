"""Benchmark of the ttt-lab CLI, end to end or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload recall-long --seed 0 --seconds 20 --trace 0

Workloads (sizes in SIZES):

- recall-long: a small state (dims 4,64,64,64) over a long stream of
  one-pair frames with periodic resets.  The cost is per-call overhead
  in the rule loop and CSV output; the 32 KB state fits in L1.
- recall-wide: one pair per frame at width 768, orthonormal keys.  The
  hebbian and delta rules do c^2 work per pair on a 4.7 MB state, larger
  than a 2 MiB L2.  Same state_rules layer, used the opposite way.
- recon-eval: one reconstruction evaluated by traj-eval, stitch,
  chamfer and depth-eval on seeded inputs (recon_inputs.py).  It runs
  the evaluation stack and no state_rules code.

With --trace 0 each operation runs the workload's command(s) in fresh
interpreters (`python -m ttt_lab.cli`), one after another: a closed
loop with one client, until the next operation would pass --seconds.
It reports wall_s (median wall time of one operation), setup_s (median
time of a fresh `import ttt_lab.cli`), peak_rss_mb (median over
operations of the largest child peak RSS, from each child's own
rusage) and fail_frac.

With --trace 1 the same commands run in one process (traced.py), which
reports per-layer self time and calls, and the tracing overhead.

Every operation's outputs are checked (checks.py); at seed 0 with the
stock sizes, summaries must also match reference.json.  One untimed
`rerun` per invocation must reproduce the outputs byte for byte.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Inputs, outputs, logs and a
results.json with provenance go to .bench_work/<workload>/ under the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import recon_inputs  # noqa: E402
import traced  # noqa: E402

SIZES = {
    "recall-long": {"count": 8192, "dims": "4,64,64,64", "reset_period": 64},
    "recall-wide": {"count": 768, "dims": "4,768,768,768"},
    "recon-eval": {"poses": 10000, "points": 50000, "depth_maps": 40,
                   "depth_hw": [240, 320], "stitch_period": 100},
}
RULES = "full,vanilla,hebbian,delta,ttt3r"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60
DEFAULT_SEED = 0


def commands(workload: str, seed: int, inputs: Path, out: Path, sizes: dict) -> list:
    """The CLI argv lists that make up one operation of the workload."""
    if workload == "recall-long":
        return [["recall", "--out", str(out / "recall"), "--seed", str(seed),
                 "--rules", RULES, "--key-mode", "random_unit",
                 "--count", str(sizes["count"]), "--dims", sizes["dims"],
                 "--reset-period", str(sizes["reset_period"])]]
    if workload == "recall-wide":
        return [["recall", "--out", str(out / "recall"), "--seed", str(seed),
                 "--key-mode", "orthonormal", "--count", str(sizes["count"]),
                 "--dims", sizes["dims"]]]
    return [
        ["traj-eval", "--est", str(inputs / "est.tum"), "--gt", str(inputs / "gt.tum"),
         "--out", str(out / "traj-eval")],
        ["stitch", "--traj", str(inputs / "gt.tum"), "--cloud", str(inputs / "cloud_a.ply"),
         "--reset-period", str(sizes["stitch_period"]), "--out", str(out / "stitch")],
        ["chamfer", "--a", str(inputs / "cloud_a.ply"), "--b", str(inputs / "cloud_b.ply"),
         "--out", str(out / "chamfer")],
        ["depth-eval", "--pred", str(inputs / "depth" / "pred"),
         "--gt", str(inputs / "depth" / "gt"), "--mode", "seq-scale",
         "--out", str(out / "depth-eval")],
    ]


def tail_percentile(samples: list):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def machine(nproc: int) -> dict:
    """Commit, source digest and machine facts for the provenance record."""
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            git = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ttt_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": git, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": nproc, "cpu": cpu,
            "caches": caches}


class Bench:
    """One invocation: a workload at a seed, with its work directory."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = SIZES[workload]
        self.nproc = len(os.sched_getaffinity(0))
        self.work = WORK / workload
        self.logs = self.work / "logs"
        self.inputs = self.work / "inputs"
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=str(SRC), TMPDIR=str(self.work),
                        OPENBLAS_NUM_THREADS=str(self.nproc),  # never more than nproc
                        OMP_NUM_THREADS=str(self.nproc))
        self.env.pop("TTT_LAB_THREADS", None)   # the CLI runs with its default, 1
        self.reference = None
        if seed == DEFAULT_SEED:
            stored = checks.load_reference().get(workload)
            if stored and stored["sizes"] == self.sizes:
                self.reference = stored["summary"]
        self.commands = commands(workload, seed, self.inputs, self.work / "out", self.sizes)

    def run_child(self, argv: list, log: str, timeout: float = COMMAND_TIMEOUT_S):
        """Run argv to completion; return (wall seconds, peak RSS in MB, exit code).

        The RSS is the child's own ru_maxrss from os.wait4, not the
        cumulative figure of all children.
        """
        with open(self.logs / log, "wb") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode

    def run_cli(self, argv: list, log: str):
        return self.run_child([sys.executable, "-m", "ttt_lab.cli", *argv], log)

    def prepare(self) -> dict:
        """Fresh work directory and inputs; the numerical stack as children see it."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.logs.mkdir(parents=True)
        info = {"seed": self.seed, "sizes": self.sizes, **machine(self.nproc)}
        # Also the warm-up: it compiles the package's bytecode.
        _, _, code = self.run_child([sys.executable, str(BENCH_DIR / "blas_info.py")],
                                    "blas_info.log")
        log = (self.logs / "blas_info.log").read_text()
        if code != 0:
            raise RuntimeError(f"cannot import ttt_lab.cli:\n{log}")
        info.update(json.loads(log.splitlines()[-1]))
        if self.workload == "recon-eval":
            start = time.perf_counter()
            recon_inputs.generate(str(self.inputs), self.seed, self.sizes)
            files = [p for p in self.inputs.rglob("*") if p.is_file()]
            info["input_generation"] = {"seconds": time.perf_counter() - start,
                                        "files": len(files),
                                        "bytes": sum(p.stat().st_size for p in files)}
        return info

    def setup_times(self) -> list:
        """Wall times of fresh `import ttt_lab.cli` runs."""
        times = []
        for _ in range(SETUP_REPEATS):
            wall, _, code = self.run_child([sys.executable, "-c", "import ttt_lab.cli"],
                                           "setup.log")
            if code != 0:
                raise RuntimeError("import ttt_lab.cli failed")
            times.append(wall)
        return times

    def check(self) -> list:
        return checks.check(self.workload, str(self.work / "out"), self.sizes, self.reference)

    def end_to_end(self) -> list:
        """Operations in fresh interpreters until the next would pass --seconds."""
        ops = []
        started = time.perf_counter()
        op_s = 0.0
        while not ops or time.perf_counter() - started + op_s <= self.seconds:
            op_start = time.perf_counter()
            wall = rss = 0.0
            problems = []
            for i, argv in enumerate(self.commands):
                w, r, code = self.run_cli(argv, f"op-{i}.log")
                wall += w
                rss = max(rss, r)
                if code != 0:
                    problems.append(f"{argv[0]} exited {code}")
            ops.append({"wall_s": wall, "peak_rss_mb": rss,
                        "problems": problems + self.check()})
            op_s = time.perf_counter() - op_start
        return ops

    def traced(self) -> dict:
        spec = {"workload": self.workload, "sizes": self.sizes, "commands": self.commands,
                "reference": self.reference, "out_dir": str(self.work / "out"),
                "seconds": self.seconds}
        spec_path = self.work / "trace-spec.json"
        result_path = self.work / "trace-result.json"
        spec_path.write_text(json.dumps(spec))
        _, _, code = self.run_child(
            [sys.executable, str(BENCH_DIR / "traced.py"), str(spec_path), str(result_path)],
            "traced.log", timeout=self.seconds + 120)
        if code != 0:
            raise RuntimeError(f"traced run exited {code}; see {self.logs / 'traced.log'}")
        return json.loads(result_path.read_text())

    def rerun_problems(self) -> list:
        """Re-execute each command from its manifest and compare bytes."""
        problems = []
        for argv in self.commands:
            out = Path(argv[argv.index("--out") + 1])
            target = self.work / "rerun" / out.name
            _, _, code = self.run_cli(["rerun", "--manifest", str(out / "manifest.json"),
                                       "--out", str(target)], f"rerun-{out.name}.log")
            if code != 0:
                problems.append(f"rerun of {argv[0]} exited {code}")
            problems += checks.compare_trees(str(out), str(target))
        return problems


def layer_metrics(workload: str, trace: dict):
    """Per-layer metrics (median self time over traced operations) and flags."""
    flags = []
    metrics = {}
    calls = trace["calls"][0]
    if any(c != calls for c in trace["calls"]):
        flags.append("call counts differ between traced operations")
    for layer in traced.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(s[layer] for s in trace["self_s"]), "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for layer in traced.expected_layers(workload):
        if calls[layer] == 0:
            flags.append(f"{layer} has zero calls on {workload}")
    flags += [f"trace target not found: {t}" for t in trace["missing_targets"]]
    traced_wall = statistics.median(trace["traced_wall_s"])
    untraced_wall = statistics.median(trace["untraced_wall_s"])
    share = statistics.median(sum(s.values()) / w
                              for s, w in zip(trace["self_s"], trace["traced_wall_s"]))
    metrics["cli.bytes_out"] = (statistics.median(trace["bytes_out"]), "bytes")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.self_share"] = (share, "ratio")
    return metrics, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ttt_lab" / "cli.py").is_file():
        print(f"error: no ttt_lab package under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    info = bench.prepare()
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": info}
    lines = []
    if args.trace:
        trace = bench.traced()
        attempted, failed, problems = trace["attempted"], trace["failed"], trace["problems"]
        metrics, flags = layer_metrics(args.workload, trace)
        report.update(flags=flags, traced_ops=len(trace["traced_wall_s"]))
        lines += [f"  {name:36s} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines += [f"FLAG {flag}" for flag in flags]
    else:
        setup = bench.setup_times()
        ops = bench.end_to_end()
        attempted = len(ops)
        failed = sum(1 for op in ops if op["problems"])
        problems = [p for op in ops for p in op["problems"]]
        walls = [op["wall_s"] for op in ops]
        rss = [op["peak_rss_mb"] for op in ops]
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
        tail = tail_percentile(walls)
        report.update(samples={"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
                      wall_s_tail=tail)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                     else "no tail percentile (needs >= 11 samples)")
        lines += [
            f"  wall_s      {metrics['wall_s'][0]:10.4f} s      median of {len(walls)} "
            f"operations; {tail_text}",
            f"  setup_s     {metrics['setup_s'][0]:10.4f} s      median of {len(setup)} "
            "fresh imports",
            f"  peak_rss_mb {metrics['peak_rss_mb'][0]:10.2f} MB     median of {len(rss)} "
            "operations",
        ]

    try:
        report["summary"] = checks.summarize(args.workload, str(bench.work / "out"),
                                             bench.sizes)
    except (checks.CheckFailed, OSError):
        report["summary"] = None
    rerun = bench.rerun_problems()
    attempted += 1
    failed += 1 if rerun else 0
    problems += rerun
    lines.append(f"  fail_frac   {failed / attempted:10.4f} ratio  {failed} failed of "
                 f"{attempted} attempted operations, one of them the rerun")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report.update(result, problems=problems)
    (bench.work / "results.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sizes {json.dumps(bench.sizes)}")
    print(f"provenance {json.dumps(info)}")
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
