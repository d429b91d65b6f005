"""Traced in-process run of one workload: per-layer self time and calls.

Run by run.py as `python traced.py SPEC RESULT`.  SPEC is a JSON file
with the workload, its sizes, its operations (each a list of CLI argv
lists), the output directory, the run length and an optional reference.
The child calls `ttt_lab.cli.main(argv)` in this process, alternating
untraced and traced operations after one untraced warm-up, and writes
RESULT (JSON) and spans.csv next to it.

Tracing wraps each public function named in LAYERS in every ttt_lab
module namespace that binds it, so calls between modules (ate ->
associate) are caught.  A span is (layer, start, end, parent, op); a
layer's self time is its spans' durations minus the durations of their
direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import checks

# layer -> "module:function" or "module:Class.classmethod" targets.
LAYERS = {
    "cli.main": ["ttt_lab.cli:main"],
    "recall_bench.task_gen": ["ttt_lab.recall_bench:gen_recall_task",
                              "ttt_lab.recall_bench:gen_adversarial_task"],
    "recall_bench.stream": ["ttt_lab.recall_bench:run_stream"],
    "recall_bench.csv": ["ttt_lab.recall_bench:curves_to_csv",
                         "ttt_lab.recall_bench:gate_trace_to_csv",
                         "ttt_lab.recall_bench:summary_to_csv"],
    "state_rules.ingest.full": ["ttt_lab.state_rules:update_full_attention"],
    "state_rules.ingest.vanilla": ["ttt_lab.state_rules:update_vanilla_rnn"],
    "state_rules.ingest.hebbian": ["ttt_lab.state_rules:hebbian_update"],
    "state_rules.ingest.delta": ["ttt_lab.state_rules:delta_rule_update"],
    "state_rules.ingest.ttt3r": ["ttt_lab.state_rules:ttt3r_update"],
    "state_rules.read.full": ["ttt_lab.state_rules:read_full_attention"],
    "state_rules.read.token": ["ttt_lab.state_rules:read_token_state"],
    "state_rules.read.fast_weight": ["ttt_lab.state_rules:read_fast_weight"],
    "state_rules.projections": ["ttt_lab.state_rules:ProjectionSet.identity",
                                "ttt_lab.state_rules:ProjectionSet.seeded"],
    "io_formats.parse_tum": ["ttt_lab.io_formats:parse_tum"],
    "io_formats.write_tum": ["ttt_lab.io_formats:write_tum"],
    "io_formats.parse_ply": ["ttt_lab.io_formats:parse_ply_ascii"],
    "io_formats.write_ply": ["ttt_lab.io_formats:write_ply_ascii"],
    "io_formats.parse_pfm": ["ttt_lab.io_formats:parse_pfm"],
    "io_formats.write_metrics_csv": ["ttt_lab.io_formats:write_metrics_csv"],
    "geometry_metrics.associate": ["ttt_lab.geometry_metrics:associate"],
    "geometry_metrics.umeyama": ["ttt_lab.geometry_metrics:umeyama_sim3"],
    "geometry_metrics.ate": ["ttt_lab.geometry_metrics:ate"],
    "geometry_metrics.rpe": ["ttt_lab.geometry_metrics:rpe"],
    "geometry_metrics.depth": ["ttt_lab.geometry_metrics:depth_metrics",
                               "ttt_lab.geometry_metrics:sequence_depth_scale"],
    "geometry_metrics.chamfer": ["ttt_lab.geometry_metrics:chamfer",
                                 "ttt_lab.geometry_metrics:normal_consistency"],
    "stitcher.split": ["ttt_lab.stitcher:split_trajectory"],
    "stitcher.stitch": ["ttt_lab.stitcher:stitch"],
}

# Layers each workload must call; a zero count there is flagged.  What
# each should move: state_rules and recall_bench layers move wall_s on
# recall-wide (hebbian/delta arithmetic, task generation, projections,
# wide reads) and on recall-long (per-call overhead, stream loop, CSV),
# and nothing on recon-eval; io_formats, geometry_metrics and stitcher
# move wall_s and peak_rss_mb on recon-eval only; cli.main moves wall_s
# on recall-long and recon-eval.
EXPECTED_PREFIXES = {
    "recall-long": ("cli.", "recall_bench.", "state_rules."),
    "recall-wide": ("cli.", "recall_bench.", "state_rules."),
    "recon-eval": ("cli.", "io_formats.", "geometry_metrics.", "stitcher."),
}


def expected_layers(workload: str) -> list:
    return [name for name in LAYERS if name.startswith(EXPECTED_PREFIXES[workload])]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = []      # (layer, start, end, parent index, op id)
        self.op = 0
        self.missing = set()  # targets not found in the package
        self._stack = []
        self._undo = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ttt_lab" or name.startswith("ttt_lab."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                owner_name, _, attr = qualname.rpartition(".")
                module = sys.modules.get(module_name)
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.add(target)
                elif isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(layer, raw.__func__)), raw)
                else:
                    wrapped = self._wrap(layer, raw)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is raw:
                                self._set(m, key, wrapped, raw)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def aggregate(self, first: int):
        """(self seconds, calls) per layer of the spans from index first on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for (layer, start, end, _, _), inner in zip(spans, child):
            self_s[layer] += end - start - inner
            calls[layer] += 1
        return self_s, calls

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("layer,start,end,parent,op\n")
            for layer, start, end, parent, op in self.spans:
                handle.write(f"{layer},{start!r},{end!r},{parent},{op}\n")


def _bytes_out(dirs) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for d in dirs for root, _, names in os.walk(d) for name in names)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    from ttt_lab import cli

    def call(argv):
        try:
            return cli.main(list(argv))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            return repr(exc)

    def run_op():
        start = time.perf_counter()
        codes = [call(argv) for argv in spec["commands"]]
        wall = time.perf_counter() - start
        problems = [f"{argv[0]}: exit {c}" for argv, c in zip(spec["commands"], codes) if c != 0]
        problems += checks.check(spec["workload"], spec["out_dir"], spec["sizes"],
                                 spec["reference"])
        return wall, problems

    tracer = Tracer()
    result = {"untraced_wall_s": [], "traced_wall_s": [], "self_s": [], "calls": [],
              "bytes_out": [], "attempted": 0, "failed": 0, "problems": []}

    def record(problems):
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["problems"] += problems

    _, problems = run_op()           # warm-up: lazy imports, first-call costs
    record(problems)
    out_dirs = [argv[argv.index("--out") + 1] for argv in spec["commands"]]
    started = time.perf_counter()
    pair_s = 0.0
    # Start another untraced/traced pair only if it fits in the run.
    while not result["traced_wall_s"] or time.perf_counter() - started + pair_s <= spec["seconds"]:
        pair_start = time.perf_counter()
        # Alternate which side of the pair runs first.
        for traced_side in ((False, True) if tracer.op % 2 == 0 else (True, False)):
            if not traced_side:
                wall, problems = run_op()
                result["untraced_wall_s"].append(wall)
                record(problems)
                continue
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, problems = run_op()
            finally:
                tracer.uninstall()
            result["traced_wall_s"].append(wall)
            record(problems)
        self_s, calls = tracer.aggregate(first)
        result["self_s"].append(self_s)
        result["calls"].append(calls)
        result["bytes_out"].append(_bytes_out(out_dirs))
        tracer.op += 1
        pair_s = time.perf_counter() - pair_start
    result["missing_targets"] = sorted(tracer.missing)
    tracer.write_spans(os.path.join(os.path.dirname(result_path), "spans.csv"))
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
