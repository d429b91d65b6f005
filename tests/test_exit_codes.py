"""Fuzz test of the CLI's exit-code contract.

Every call of main, whatever its flags, manifest or input bytes, ends
in exit 0, 1 or 2 with no exception leaving main and no warning other
than the PLY parser's two documented ones.  A success writes nothing to
stderr.  An exit 1, and an exit 2 that main's handler reports, write
exactly one stderr line, starting with "error:".  An argparse rejection
ends in argparse's "<prog>: error:" line; under rerun, one more line
follows that names the manifest.  A PLY header line of the wrong form
is a usage error, exit 2, whose one line names it.  Hypothesis draws
under the suite's deterministic profile (conftest.py).
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttt_lab.cli import main
from ttt_lab.geometry_metrics import PointCloud, Trajectory
from ttt_lab.io_formats import ParseError, parse_ply_ascii, write_pfm, write_ply_ascii, write_tum

_DOCUMENTED_WARNINGS = ("skipping unknown PLY header keyword", "ignoring unknown vertex property")
_ARGPARSE_ERROR = re.compile(r"^ttt-lab( \S+)?: error: ")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of small valid inputs: t.tum, c.ply (with normals), and pred/gt maps."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    quats = rng.standard_normal((30, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    (root / "t.tum").write_text("".join(write_tum(Trajectory(0.1 * np.arange(30), quats,
                                                             rng.standard_normal((30, 3))))))
    normals = rng.standard_normal((20, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(rng.standard_normal((20, 3)), normals)
    (root / "c.ply").write_text("".join(write_ply_ascii(cloud)))
    for name in ("pred", "gt"):
        (root / name).mkdir()
        for i in range(2):
            (root / name / f"{i:03d}.pfm").write_bytes(write_pfm(rng.uniform(1.0, 5.0, (4, 5))))
    return root


def _call(argv):
    """(exit code, stderr) of main(argv), with every undocumented warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for message in _DOCUMENTED_WARNINGS:
            warnings.filterwarnings("ignore", message=message)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def _assert_contract(argv, manifest=None):
    """Run argv and check its exit code and stderr; manifest is the path a rerun reads."""
    code, err = _call(argv)
    lines = err.splitlines()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert lines == [], (argv, err)
        return
    rejected = [i for i, line in enumerate(lines) if _ARGPARSE_ERROR.match(line)]
    if code == 2 and rejected:
        tail = [f"error: the rejected value comes from the config of the manifest {manifest}"]
        assert rejected == [len(lines) - 1 - (manifest is not None)], (argv, err)
        assert lines[rejected[0] + 1:] == (tail if manifest is not None else []), (argv, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, code, err)


# ---------------------------------------------------------------------------
# reruns of edited manifests

_BASE_ARGV = {
    "recall": ["recall", "--rules", "hebbian,ttt3r", "--count", "2", "--dims", "2,4,4,4"],
    "gradcheck": ["gradcheck", "--trials", "2", "--max-dim", "2"],
    "traj-eval": ["traj-eval", "--est", "{root}/t.tum", "--gt", "{root}/t.tum"],
    "depth-eval": ["depth-eval", "--pred", "{root}/pred", "--gt", "{root}/gt"],
    "chamfer": ["chamfer", "--a", "{root}/c.ply", "--b", "{root}/c.ply"],
    "stitch": ["stitch", "--traj", "{root}/t.tum", "--cloud", "{root}/c.ply",
               "--reset-period", "10"],
}

# Small integers only: a manifest that asks for 2^63 gradcheck trials is
# a long run, not an error.  Text draws no decimal digits for the same
# reason (int() reads every Unicode digit).
_ODD_JSON = st.one_of(
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]),
    st.booleans(),
    st.none(),
    st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=6),
    st.sampled_from(["", "0", "3", "-1", "2.5", "1e999", "nan", "-inf", "2,4,4,4", "2,4",
                     "delta,ttt3r", ",", "adversarial", "mean", "random_unit", "metric", "none",
                     "-x", "-h", "--seed=1", "a=b", "é", "\x00", "line\nbreak", "{root}/t.tum",
                     "{root}/c.ply", "{root}/pred", "{root}"]),
    st.lists(st.integers(-10, 10), max_size=5),
    st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(-10, 10), max_size=2),
)
_DROP = object()  # an edit that deletes the key


@pytest.fixture(scope="module")
def manifests(inputs):
    """The manifest each producing command wrote for a small valid run."""
    written = {}
    for command, argv in _BASE_ARGV.items():
        out = inputs / "runs" / command
        code, _ = _call([a.format(root=inputs) for a in argv] + ["--out", str(out)])
        assert code == 0, command
        written[command] = json.loads((out / "manifest.json").read_text())
    return written


@pytest.mark.parametrize("command", sorted(_BASE_ARGV))
@settings(max_examples=25)
@given(data=st.data())
def test_a_rerun_of_an_edited_manifest_keeps_the_contract(inputs, manifests, command, data):
    manifest = json.loads(json.dumps(manifests[command]))
    config = manifest["config"]
    # Each edit sets a config key, or one the command does not know
    # ("extra"), to an odd value, or drops it.
    edits = data.draw(st.dictionaries(st.sampled_from(sorted(config) + ["extra"]),
                                      st.one_of(_ODD_JSON, st.just(_DROP)),
                                      min_size=1, max_size=3))
    for key, value in edits.items():
        if value is _DROP:
            config.pop(key, None)
        else:
            config[key] = value.replace("{root}", str(inputs)) if isinstance(value, str) else value
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        path = Path(work, "manifest.json")
        path.write_text(json.dumps(manifest))
        _assert_contract(["rerun", "--manifest", str(path)], manifest=path)


# ---------------------------------------------------------------------------
# byte mutations of the input formats

# Tokens that mean something to the parsers, spliced in next to random bytes.
_TOKENS = [b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"1e-320", b"0", b"-1", b"-0", b"\n",
           b" ", b"\t", b"\r\n", b"#", b"\xff\xfe", b"\x00", b"e", b".", b"+", b"Pf", b"PF",
           b"-1.0", b"end_header\n", b"format binary_little_endian 1.0\n",
           b"element vertex 99\n", b"element vertex -1\n", b"element face 1\n",
           b"property float nx\n", b"property list uchar int vertex_indices\n",
           b"property double z\n", b"obj_info x\n", b"bogus keyword\n",
           b"\r", b"\x0b", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8"]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        data[at:at + cut] = draw(st.one_of(st.binary(max_size=4), st.sampled_from(_TOKENS)))
    return bytes(data)


@pytest.mark.parametrize("source, argv", [
    ("t.tum", ["traj-eval", "--est", "{bad}", "--gt", "{root}/t.tum"]),
    ("t.tum", ["traj-eval", "--est", "{root}/t.tum", "--gt", "{bad}"]),
    ("t.tum", ["stitch", "--traj", "{bad}", "--reset-period", "10"]),
    ("t.tum", ["stitch", "--traj", "{bad}", "--cloud", "{root}/c.ply", "--reset-period", "10"]),
    ("c.ply", ["stitch", "--traj", "{root}/t.tum", "--cloud", "{bad}", "--reset-period", "10"]),
    ("c.ply", ["chamfer", "--a", "{bad}", "--b", "{root}/c.ply"]),
    ("c.ply", ["chamfer", "--a", "{root}/c.ply", "--b", "{bad}"]),
    ("pred", ["depth-eval", "--pred", "{bad}", "--gt", "{root}/gt"]),
    ("gt", ["depth-eval", "--pred", "{root}/pred", "--gt", "{bad}", "--mode", "metric"]),
], ids=["traj-eval-est", "traj-eval-gt", "stitch-traj", "stitch-traj-with-cloud",
        "stitch-cloud", "chamfer-a", "chamfer-b", "depth-eval-pred", "depth-eval-gt-metric"])
@settings(max_examples=20)
@given(data=st.data())
def test_a_mutated_input_keeps_the_contract(inputs, source, argv, data):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        bad = Path(work, source)
        if (inputs / source).is_dir():
            # One map of the directory is mutated; the other stays valid.
            bad.mkdir()
            names = sorted(p.name for p in (inputs / source).iterdir())
            which = data.draw(st.sampled_from(names))
            for name in names:
                raw = (inputs / source / name).read_bytes()
                (bad / name).write_bytes(data.draw(_mutated(raw)) if name == which else raw)
        else:
            bad.write_bytes(data.draw(_mutated((inputs / source).read_bytes())))
        argv = [a.format(root=inputs, bad=bad) for a in argv]
        _assert_contract(argv + ["--out", str(Path(work, "out"))])


# ---------------------------------------------------------------------------
# extreme values of the integer flags

_EXTREMES = [sign * 2**63 + step for sign in (1, -1) for step in (-1, 0, 1)]


@pytest.mark.parametrize("command, flag", [
    ("recall", "--seed"), ("recall", "--count"), ("recall", "--reset-period"),
    ("recall", "--distractors"), ("recall", "--frame-size"),
    ("recall --task adversarial", "--count"), ("recall --task adversarial", "--distractors"),
    ("recall --task adversarial", "--frame-size"),
    ("gradcheck", "--seed"), ("gradcheck", "--max-dim"), ("gradcheck", "--trials"),
    ("traj-eval", "--rpe-delta"), ("stitch", "--reset-period"),
])
def test_extreme_integer_flags_keep_the_contract(inputs, tmp_path, command, flag):
    name, *extra = command.split()
    for value in _EXTREMES:
        # 2^63 gradcheck trials are a long run, not an error.
        if flag == "--trials" and value > 0:
            continue
        argv = [a.format(root=inputs) for a in _BASE_ARGV[name]] + extra
        _assert_contract(argv + [flag, str(value), "--out", str(tmp_path / "out")])


# ---------------------------------------------------------------------------
# PLY header lines with a token more or one fewer

# A valid header: every line the parser checks, and the comment and
# obj_info lines it skips.  Its body is two vertices and one face.
_PLY_HEADER = ["ply", "comment made by hand", "format ascii 1.0", "obj_info scanner 2",
               "element vertex 2", "property double x", "property double y", "property double z",
               "element face 1", "property list uchar int vertex_indices", "end_header"]
_PLY_BODY = ["0 0 0", "1 1 1", "3 0 1 1"]
_CHECKED_LINES = [i for i, line in enumerate(_PLY_HEADER)
                  if line.split()[0] in ("format", "element", "property", "end_header")]
# A token: no whitespace, no line break, nothing unprintable.
_HEADER_TOKEN = st.text(st.characters(exclude_categories=("Z", "C")), min_size=1, max_size=4)


def _ply_text(lines) -> str:
    return "\n".join(lines + _PLY_BODY) + "\n"


@st.composite
def _malformed_header(draw):
    """(text, line number, line) of the header with one checked line given a
    token more, or one fewer after its keyword."""
    i = draw(st.sampled_from(_CHECKED_LINES))
    tokens = _PLY_HEADER[i].split()
    if len(tokens) > 1 and draw(st.booleans()):
        del tokens[draw(st.integers(1, len(tokens) - 1))]
    else:
        tokens.insert(draw(st.integers(1, len(tokens))), draw(_HEADER_TOKEN))
    line = " ".join(tokens)
    return _ply_text(_PLY_HEADER[:i] + [line] + _PLY_HEADER[i + 1:]), i + 1, line


def _assert_malformed(inputs, text, lineno, line):
    """text, as a str, as an open file and as the CLI's input, fails on line
    lineno as "malformed <keyword> line '<line>'": a usage error, exit 2."""
    message = f"line {lineno}: malformed {line.split()[0]} line {line!r}"
    for source in (text, io.StringIO(text)):
        with pytest.raises(ParseError) as exc:
            parse_ply_ascii(source)
        assert (str(exc.value), exc.value.line) == (message, lineno)
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        bad = Path(work, "bad.ply")
        bad.write_text(text, encoding="utf-8")
        code, err = _call(["chamfer", "--a", str(bad), "--b", str(inputs / "c.ply"),
                           "--out", str(Path(work, "out"))])
    assert (code, err) == (2, f"error: {message}\n")


def test_the_valid_header_parses():
    cloud = parse_ply_ascii(_ply_text(_PLY_HEADER))
    np.testing.assert_array_equal(cloud.points, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


@settings(max_examples=100)
@given(_malformed_header())
def test_a_header_line_with_a_token_more_or_fewer_is_malformed(inputs, case):
    _assert_malformed(inputs, *case)


# Tokens after the version of a format line and after end_header.
_TRAILING_TOKENS = ("ply\nformat ascii 7 x\nelement vertex 1\nproperty double x\n"
                    "property double y\nproperty double z\nend_header 9 9 9\n0 0 0\n")


@pytest.mark.parametrize("text, lineno, line", [
    (_TRAILING_TOKENS, 2, "format ascii 7 x"),
    (_TRAILING_TOKENS.replace(" 7 x", " 7"), 7, "end_header 9 9 9"),
    (_ply_text(_PLY_HEADER[:9] + ["property list uchar int"] + _PLY_HEADER[10:]), 10,
     "property list uchar int"),
    (_ply_text(_PLY_HEADER[:9] + ["property list uchar word vertex_indices"] + _PLY_HEADER[10:]),
     10, "property list uchar word vertex_indices"),
    (_ply_text(_PLY_HEADER[:9] + ["property list x"] + _PLY_HEADER[10:]), 10, "property list x"),
], ids=["extra-format-and-end-header-tokens", "extra-end-header-tokens", "list-without-name",
        "list-of-unknown-type", "list-without-types"])
def test_a_header_line_that_once_parsed_is_malformed(inputs, text, lineno, line):
    _assert_malformed(inputs, text, lineno, line)
