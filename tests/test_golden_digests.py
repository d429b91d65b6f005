"""Golden output digests of the producing commands.

traj-eval under each --align and at --rpe-delta 7, stitch --cloud,
chamfer, and depth-eval in both modes run on small seeded inputs from
bench/recon_inputs.py;
recall runs the default rules, the benchmark's recall-long and
recall-wide flags at small sizes, the README's BLAS example,
adversarial with every gate, and correlated keys; and gradcheck runs
20 trials.  All run in one child process with one BLAS thread.  The
sha256 of every input, every output file, every manifest and every
command's stdout must equal the table in golden_digests.json.  The
inputs are given as paths relative to the child's working directory, so
the manifests hold no path of the machine.

The table names the numpy version and the OpenBLAS build it was made
on.  Another build may round differently (its kernels and SIMD paths
differ), so there the test is skipped, with a reason that names both.
A change that moves output bits rewrites the table in the same commit:

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden_digests.json")
SEED = 0
SIZES = {"poses": 400, "points": 2000, "depth_maps": 4, "depth_hw": [24, 32]}
_TRAJ = ["traj-eval", "--est", "in/est.tum", "--gt", "in/gt.tum", "--align"]
_DEPTH = ["depth-eval", "--pred", "in/depth/pred", "--gt", "in/depth/gt", "--mode"]
RUNS = {
    "traj-eval-sim3": _TRAJ + ["sim3"],
    "traj-eval-se3": _TRAJ + ["se3"],
    "traj-eval-none": _TRAJ + ["none"],
    "traj-eval-rpe-delta-7": _TRAJ + ["sim3", "--rpe-delta", "7"],
    "stitch": ["stitch", "--traj", "in/gt.tum", "--cloud", "in/cloud_a.ply"],
    "chamfer": ["chamfer", "--a", "in/cloud_a.ply", "--b", "in/cloud_b.ply"],
    "depth-eval-seq-scale": _DEPTH + ["seq-scale"],
    "depth-eval-metric": _DEPTH + ["metric"],
    "recall-default": ["recall"],
    "recall-long": ["recall", "--rules", "full,vanilla,hebbian,delta,ttt3r",
                    "--key-mode", "random_unit", "--count", "512", "--dims", "4,64,64,64",
                    "--reset-period", "64"],
    "recall-wide": ["recall", "--key-mode", "orthonormal", "--count", "96",
                    "--dims", "4,96,96,96"],
    "recall-blas": ["recall", "--rules", "delta,hebbian", "--key-mode", "random_unit",
                    "--count", "300", "--dims", "4,400,400,300"],
    "recall-adversarial": ["recall", "--task", "adversarial", "--rules",
                           "full,vanilla,hebbian,delta,delta:input,ttt3r:0.5,ttt3r:input,"
                           "ttt3r:per_token,ttt3r:confidence"],
    "recall-correlated": ["recall", "--key-mode", "correlated", "--rho", "0.9"],
    "gradcheck": ["gradcheck", "--trials", "20"],
}

# Runs each command of RUNS (argv[1], as JSON) into the directory named
# after it, and prints one JSON report: the platform, exit codes, stdout.
_CHILD = r"""
import contextlib, ctypes, io, json, sys
import numpy
from ttt_lab.cli import main

def blas_build():
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_config64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return " ".join(get().decode().split())
    return None

report = {"platform": {"numpy": numpy.__version__, "blas": blas_build()},
          "codes": {}, "stdout": {}}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report["codes"][name] = main(argv + ["--out", name])
    report["stdout"][name] = out.getvalue()
print(json.dumps(report))
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_and_digest(work: Path):
    """(platform, {relative path: sha256}) of one run of RUNS in the empty directory work."""
    spec = importlib.util.spec_from_file_location("recon_inputs", ROOT / "bench" / "recon_inputs.py")
    recon_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recon_inputs)
    recon_inputs.generate(str(work / "in"), SEED, SIZES)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(RUNS)], cwd=work, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0 and child.stderr == "", child.stderr
    report = json.loads(child.stdout)
    assert report["codes"] == {name: 0 for name in RUNS}
    digests = {path.relative_to(work).as_posix(): _sha256(path.read_bytes())
               for path in sorted(work.rglob("*")) if path.is_file()}
    for name, text in report["stdout"].items():
        digests[f"{name}/(stdout)"] = _sha256(text.encode())
    return report["platform"], dict(sorted(digests.items()))


def test_evaluation_outputs_have_the_golden_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    platform, digests = run_and_digest(tmp_path)
    if platform != table["platform"]:
        pytest.skip(f"the golden digests were made on {table['platform']}, "
                    f"this machine runs {platform}")
    moved = sorted(name for name in digests.keys() | table["digests"].keys()
                   if digests.get(name) != table["digests"].get(name))
    assert moved == []


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as work:
        platform, digests = run_and_digest(Path(work))
    TABLE.write_text(json.dumps({"platform": platform, "seed": SEED, "sizes": SIZES,
                                 "digests": digests}, indent=2) + "\n")
