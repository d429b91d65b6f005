"""Tests for the TUM, PLY, PFM and CSV readers and writers."""

import io
import re
import struct
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttt_lab import io_formats
from ttt_lab.geometry_metrics import PointCloud, Trajectory
from ttt_lab.io_formats import (
    ParseError,
    UnsupportedFormatError,
    parse_pfm,
    parse_ply_ascii,
    parse_tum,
    write_metrics_csv,
    write_pfm,
    write_ply_ascii,
    write_table,
    write_tum,
)
from ttt_lab.recall_bench import RuleRun, curves_to_csv, gate_trace_to_csv


def _rand_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


# ---------------------------------------------------------------------------
# TUM


def test_tum_round_trip_is_bitwise_exact_for_1000_poses():
    rng = np.random.default_rng(0)
    draws = [(_rand_quat(rng), rng.standard_normal(3)) for _ in range(1000)]
    traj = Trajectory(0.05 * np.arange(1000), [q for q, _ in draws], [t for _, t in draws])
    back = parse_tum("".join(write_tum(traj)))
    assert len(back) == 1000
    np.testing.assert_array_equal(traj.timestamps, back.timestamps)
    np.testing.assert_array_equal(traj.translations, back.translations)
    np.testing.assert_allclose(traj.quats, back.quats, rtol=0, atol=1e-15)


def _assert_same_text(got: str, expected: str) -> None:
    """got == expected, or a failure that names the first differing line and
    its 0-based index: an assertion diff of two texts of thousands of lines
    would run for minutes."""
    got, expected = got.split("\n"), expected.split("\n")
    assert len(got) == len(expected), f"{len(got)} lines, expected {len(expected)}"
    i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert i is None, f"line {i} is {got[i]!r}, expected {expected[i]!r}"


def _tum_writer_oracle(traj):
    lines = ["# ttt-lab trajectory", "# timestamp tx ty tz qx qy qz qw"]
    for ts, (w, x, y, z), (tx, ty, tz) in zip(traj.timestamps, traj.quats, traj.translations):
        lines.append(f"{ts:.17g} {tx:.17g} {ty:.17g} {tz:.17g} "
                     f"{x:.17g} {y:.17g} {z:.17g} {w:.17g}")
    return "\n".join(lines) + "\n"


def _writer_traj(n, seed):
    """n poses with extreme and signed-zero fields."""
    rng = np.random.default_rng(seed)
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    quats[0] = [0.0, -0.0, 1.0, 0.0]
    translations = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    translations[-1] = [-0.0, 0.0, 1e-320]
    return Trajectory(1e9 + 0.05 * np.arange(n), quats, translations)


def test_tum_writer_matches_the_per_line_oracle():
    traj = _writer_traj(200, seed=4)
    _assert_same_text("".join(write_tum(traj)), _tum_writer_oracle(traj))


_BLOCK_EDGES = [1, io_formats._ROW_BLOCK - 1, io_formats._ROW_BLOCK,
                io_formats._ROW_BLOCK + 1, 3 * io_formats._ROW_BLOCK + 7]


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_tum_writer_matches_the_oracle_at_every_block_edge(n):
    traj = _writer_traj(n, seed=n)
    _assert_same_text("".join(write_tum(traj)), _tum_writer_oracle(traj))


def test_tum_header_names_the_artifact_and_columns():
    traj = Trajectory([0.0], [[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    lines = "".join(write_tum(traj)).splitlines()
    assert lines[0].startswith("#") and "trajectory" in lines[0]
    assert lines[1] == "# timestamp tx ty tz qx qy qz qw"
    assert len(lines) == 3


def test_tum_parser_skips_comments_and_blanks():
    text = "# a comment\n\n0.0 1 2 3 0 0 0 1\n  \n0.1 4 5 6 0 0 0 1\n"
    traj = parse_tum(text)
    assert len(traj) == 2
    np.testing.assert_array_equal(traj.translations[0], [1.0, 2.0, 3.0])


def test_tum_parser_reports_the_offending_line():
    text = "# header\n0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 1\n"
    with pytest.raises(ParseError) as exc:
        parse_tum(text)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize("text, line, message", [
    ("0.0 0 0 0 0 0 0 1\n# note\nnan 0 0 0 0 0 0 1\n", 3, "non-finite field in 'nan 0"),
    ("0.0 0 0 0 0 0 0 1\n0.1 inf 0 0 0 0 0 1\n", 2, "non-finite field in '0.1 inf"),
    ("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 nan 0 0 1\n", 2, "non-finite field"),
    ("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 -inf\n", 2, "quaternion norm inf"),
    ("-inf 0 0 0 0 0 0 1\n", 1, "non-finite field"),
])
def test_tum_parser_reports_non_finite_fields_by_line(text, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_tum(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line, message", [
    # a bad quaternion on line 2 is found before the short line 3
    ("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 2\n0.2 0 0\n", 2, "quaternion norm"),
    # a short line 2 is found before the bad quaternion on line 3
    ("0.0 0 0 0 0 0 0 1\n0.1 0 0\n0.2 0 0 0 0 0 0 2\n", 2, "expected 8 fields"),
    # a repeated timestamp on line 2 before a non-numeric line 4
    ("0.5 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n\nx 0 0 0 0 0 0 1\n", 2, "strictly increase"),
    ("0.5 0 0 0 0 0 0 1\n0.6 0 0 0 0 0 0 1\n\nx 0 0 0 0 0 0 1\n", 4, "non-numeric"),
    # a '#' after data is not a comment, and a ninth field is not ignored
    ("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 1 # note\n", 2, "expected 8 fields .*, got 10"),
    ("0.0 0 0 0 0 0 0 1#note\n", 1, "non-numeric field in '0.0 0 0 0 0 0 0 1#note'"),
    ("0.0 0 0 0 0 0 0 1 9\n0.1 0 0 0 0 0 0 1 9\n", 1, "expected 8 fields .*, got 9"),
    # a finite quaternion whose squared norm overflows
    ("0.0 0 0 0 0 0 0 1\n0.1 0 0 0 0 0 0 2.5e+300\n", 2, "quaternion norm inf deviates"),
])
def test_tum_parser_reports_the_first_offending_line(text, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_tum(text)
    assert exc.value.line == line


# Numbers float() reads, repeated so that whole rows come up often, then
# tokens that are not numbers to np.loadtxt, to float() or to either.
_TOKENS = 3 * ["0", "-0.0", "1e-320", "+1.5", ".5", "5.", "2.5e+300"] + [
    "1e400", "nan", "-inf", "1_0", "0x10", "1d5", "#1", "1#", "x"]
_SEPARATORS = st.sampled_from([" ", "\t", "  ", "\u3000", "\xa0"])


def _fast_and_scanned(parse, text):
    """parse(text) with its np.loadtxt pass, then with that pass failing, so
    that only the line scan reads the rows: each as the result's bits or as
    the error and its line."""
    def outcome():
        try:
            result = parse(text)
        except ParseError as exc:
            return str(exc), exc.line
        return [None if a is None else a.tobytes() for a in vars(result).values()]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = outcome()
        with mock.patch.object(np, "loadtxt", side_effect=ValueError):
            return fast, outcome()


_tum_rows = st.lists(st.one_of(
    st.lists(st.sampled_from(_TOKENS), min_size=3, max_size=3).map(lambda t: ("pose", t)),
    st.lists(st.sampled_from(_TOKENS), min_size=7, max_size=9).map(lambda t: ("raw", t)),
    st.sampled_from(["", "  ", "# comment", "  #x 1 2"]).map(lambda t: ("text", t)),
), min_size=1, max_size=6)


@settings(max_examples=300)
@given(_tum_rows, _SEPARATORS)
def test_tum_parser_matches_its_line_scan(rows, sep):
    """The np.loadtxt pass gives what the line-by-line scan alone gives: the
    same bits, or the same error on the same line."""
    lines = []
    for k, (kind, row) in enumerate(rows):
        if kind == "pose":   # a unit quaternion and a rising timestamp around the tokens
            row = [repr(0.25 * k)] + row + ["0", "0", "0", "1"]
        lines.append(row if kind == "text" else sep.join(row))
    fast, scanned = _fast_and_scanned(parse_tum, "\n".join(lines))
    assert fast == scanned


def test_tum_parser_rejects_non_numeric_fields():
    with pytest.raises(ParseError) as exc:
        parse_tum("0.0 0 0 zero 0 0 0 1\n")
    assert exc.value.line == 1


def test_tum_parser_normalizes_slightly_off_quaternions():
    q = np.array([0.0, 0.0, 0.0, 1.0]) * 1.0005
    text = f"0.0 0 0 0 {q[0]} {q[1]} {q[2]} {q[3]}\n"
    traj = parse_tum(text)
    assert np.linalg.norm(traj.quats[0]) == pytest.approx(1.0, abs=1e-12)


def test_tum_parser_rejects_badly_scaled_quaternions():
    with pytest.raises(ParseError):
        parse_tum("0.0 0 0 0 0 0 0 1.1\n")


def test_tum_parser_rejects_non_increasing_timestamps():
    text = "0.5 0 0 0 0 0 0 1\n0.5 1 1 1 0 0 0 1\n"
    with pytest.raises(ParseError) as exc:
        parse_tum(text)
    assert exc.value.line == 2


def test_tum_parser_rejects_files_without_poses():
    with pytest.raises(ParseError):
        parse_tum("")
    with pytest.raises(ParseError):
        parse_tum("# only comments\n")


# ---------------------------------------------------------------------------
# PLY

_XYZ_HEADER = ("ply\nformat ascii 1.0\nelement vertex {}\n"
               "property double x\nproperty double y\nproperty double z\nend_header\n")
_XYZN_HEADER = _XYZ_HEADER.replace(
    "end_header", "property double nx\nproperty double ny\nproperty double nz\nend_header")


def test_ply_round_trip_without_normals():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.standard_normal((50, 3)))
    back = parse_ply_ascii("".join(write_ply_ascii(cloud)))
    np.testing.assert_array_equal(back.points, cloud.points)
    assert back.normals is None


def test_ply_round_trip_with_normals():
    rng = np.random.default_rng(2)
    normals = rng.standard_normal((20, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(rng.standard_normal((20, 3)), normals)
    back = parse_ply_ascii("".join(write_ply_ascii(cloud)))
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_allclose(back.normals, normals, rtol=0, atol=1e-15)


def test_ply_binary_is_unsupported():
    text = "ply\nformat binary_little_endian 1.0\nelement vertex 1\n" \
           "property float x\nproperty float y\nproperty float z\nend_header\n"
    with pytest.raises(UnsupportedFormatError):
        parse_ply_ascii(text)


def test_ply_unknown_vertex_property_warns_and_is_ignored():
    text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float confidence\nend_header\n"
            "0 0 0 0.9\n1 2 3 0.8\n")
    with pytest.warns(UserWarning, match="confidence"):
        cloud = parse_ply_ascii(text)
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.points[1], [1.0, 2.0, 3.0])


def test_ply_non_vertex_elements_are_skipped():
    text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 1 1\n3 0 1 2\n3 0 2 1\n")
    cloud = parse_ply_ascii(text)
    assert len(cloud) == 2
    assert cloud.normals is None


def test_ply_zero_vertices_is_an_empty_cloud_error():
    text = ("ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")
    with pytest.raises(ParseError, match="empty cloud"):
        parse_ply_ascii(text)


def test_ply_truncated_data_reports_position():
    text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\n1 1 1\n")
    with pytest.raises(ParseError, match="2 of 3"):
        parse_ply_ascii(text)


def test_ply_wrong_column_count_reports_line():
    text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0\n")
    with pytest.raises(ParseError) as exc:
        parse_ply_ascii(text)
    assert exc.value.line == 8


def test_ply_trailing_data_is_rejected():
    text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\n9 9 9\n")
    with pytest.raises(ParseError, match="trailing"):
        parse_ply_ascii(text)


def test_ply_header_validation():
    with pytest.raises(ParseError):
        parse_ply_ascii("not ply\n")
    with pytest.raises(ParseError, match="end_header"):
        parse_ply_ascii("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n")
    no_format = ("ply\nelement vertex 1\nproperty float x\nproperty float y\n"
                 "property float z\nend_header\n0 0 0\n")
    with pytest.raises(ParseError, match="format"):
        parse_ply_ascii(no_format)
    missing_axis = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                    "property float x\nproperty float y\nend_header\n0 0\n")
    with pytest.raises(ParseError, match="'z'"):
        parse_ply_ascii(missing_axis)
    partial_normals = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "property float nx\nproperty float ny\nend_header\n0 0 0 1 0\n")
    with pytest.raises(ParseError, match="nx, ny, nz"):
        parse_ply_ascii(partial_normals)


def test_ply_normals_are_renormalized():
    text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
            "0 0 0 2 0 0\n")
    cloud = parse_ply_ascii(text)
    np.testing.assert_array_equal(cloud.normals[0], [1.0, 0.0, 0.0])


def test_ply_zero_normal_is_rejected():
    text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
            "0 0 0 0 0 0\n")
    with pytest.raises(ParseError, match="zero-length"):
        parse_ply_ascii(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_ply_non_finite_normal_is_rejected(bad):
    text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
            f"0 0 0 0 0 1\n0 0 0 {bad} 0 1\n")
    with pytest.raises(ParseError, match="line 12: non-finite normal"):
        parse_ply_ascii(text)




@pytest.mark.parametrize("body, line, message", [
    ("0 0 0\n\n1 1 1\n", 9, "expected 3 vertex values, got 0"),
    ("0 0 0\n1 # 1\n2 2 2\n", 9, "non-numeric vertex value in '1 # 1'"),
    ("0 0 0\n1 1\n2 2 2\n", 9, "expected 3 vertex values, got 2"),
    ("0 0 0\n1 1 1\n2 2 2 2\n", 10, "expected 3 vertex values, got 4"),
    ("0 0 0\n# 1 1\n2 2 2\n", 9, "non-numeric vertex value"),
])
def test_ply_bad_body_row_reports_its_line(body, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_ply_ascii(_XYZ_HEADER.format(3) + body)
    assert exc.value.line == line


_XYZ_PROPERTIES = "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize("text, line, message", [
    # blank, comment and obj_info lines are skipped but counted
    ("ply\n\ncomment by hand\nobj_info scanner 2\nformat\n", 5, "malformed format line"),
    ("ply\nformat utf8 1.0\n", 2, "unknown PLY format 'utf8'"),
    ("ply\nformat ascii 1.0\nelement vertex\n", 3, "malformed element line"),
    ("ply\nformat ascii 1.0\nelement vertex many\n", 3, "bad element count 'many'"),
    ("ply\nformat ascii 1.0\nelement vertex -2\n", 3, "negative element count -2"),
    ("ply\nformat ascii 1.0\nproperty float x\n", 3, "property before any element"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n", 4,
     "malformed property line 'property float'"),
    ("ply\nformat ascii 1.0\nelement face 0\nproperty list uchar int vertex_indices\n"
     "end_header\n", None, "PLY header declares no vertex element"),
    ("ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ_PROPERTIES
     + "property list uchar int idx\nend_header\n0 0 0 1 5\n", None,
     "list-typed vertex properties are not supported"),
    ("ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ_PROPERTIES
     + "element face 2\nproperty list uchar int vertex_indices\nend_header\n0 0 0\n3 0 0 0\n",
     11, "file ends inside element 'face': expected 2 rows"),
    ("ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ_PROPERTIES
     + "element vertex 2\nproperty float a\nend_header\n0 0 0\n5\n",
     11, "file ends inside element 'vertex': expected 2 rows"),
], ids=["blank-comment-obj_info-format", "unknown-format", "element", "element-count",
        "negative-count", "property-first", "property", "no-vertex", "list-property",
        "short-face", "short-second-vertex"])
def test_ply_bad_header_reports_its_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_ply_ascii(text)
    assert exc.value.line == line
    assert str(exc.value) == (f"line {line}: " if line else "") + message


def test_ply_unknown_header_keyword_warns_and_is_skipped():
    text = ("ply\nformat ascii 1.0\nunknown_thing 1\nelement vertex 1\n" + _XYZ_PROPERTIES
            + "end_header\n1 2 3\n")
    with pytest.warns(UserWarning, match="^skipping unknown PLY header keyword 'unknown_thing'$"):
        cloud = parse_ply_ascii(text)
    np.testing.assert_array_equal(cloud.points, [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("text, line, message", [
    (_XYZ_HEADER.format(2) + "0 0 0\n1 nan 1\n", 9, "non-finite point"),
    (_XYZN_HEADER.format(2) + "0 0 0 0 0 1\nnan 1 1 0 0 1\n", 12, "non-finite point"),
    (_XYZN_HEADER.format(2) + "0 0 0 0 0 1\n-inf 0 0 nan 0 1\n", 12, "non-finite point"),
    (_XYZN_HEADER.format(2) + "0 0 0 0 0 1\n1 1 1 0 0 0\n", 12, "zero-length normal"),
    (_XYZN_HEADER.format(2) + "0 0 0 0 0 1\n1 1 1 1e200 1e200 0\n", 12,
     "normal too large or too small to normalize"),
    (_XYZN_HEADER.format(2) + "0 0 0 0 0 1\n1 1 1 1e-160 1e-160 0\n", 12,
     "normal too large or too small to normalize"),
    # the first bad row is reported, whatever is wrong with later ones
    (_XYZN_HEADER.format(3) + "0 0 0 0 0 1\n1 1 1 0 0 0\nnan 0 0 0 0 1\n", 12,
     "zero-length normal"),
    (_XYZN_HEADER.format(4) + "0 0 0 0 0 1\n1 1 1 0 0 0\n1 1\n", 12, "zero-length normal"),
], ids=["point-without-normals", "point", "point-before-normal", "zero-normal", "huge-normal",
        "tiny-normal", "first-bad-row", "before-a-short-row"])
def test_ply_bad_vertex_data_reports_its_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_ply_ascii(text)
    assert str(exc.value) == f"line {line}: {message} in vertex data"


def test_ply_body_of_blank_lines_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="got 0") as exc:
            parse_ply_ascii(_XYZ_HEADER.format(2) + "\n  \n")
    assert exc.value.line == 8


def test_ply_reads_every_token_float_reads():
    # numpy's bulk read rejects underscores and non-ASCII digits; the row
    # scan still reads them as float() does.
    cloud = parse_ply_ascii(_XYZ_HEADER.format(2) + "1_0 2 3\n\u0661\u0662 5 0\n")
    np.testing.assert_array_equal(cloud.points, [[10.0, 2.0, 3.0], [12.0, 5.0, 0.0]])


_ply_point = st.lists(st.sampled_from(_TOKENS), min_size=3, max_size=3)
_ply_rows = st.lists(st.one_of(
    # a point and a unit normal, listed twice so that whole rows come up often
    _ply_point.map(lambda t: t + ["0", "0", "1"]),
    _ply_point.map(lambda t: t + ["0", "0", "1"]),
    st.lists(st.sampled_from(_TOKENS), min_size=6, max_size=6),
    st.lists(st.sampled_from(_TOKENS), min_size=5, max_size=7),
    st.sampled_from(["", "  ", "# 1 2 3 4 5 6"]).map(lambda t: [t]),
), min_size=1, max_size=6)


@settings(max_examples=300)
@given(_ply_rows, _SEPARATORS, st.integers(-1, 1))
def test_ply_parser_matches_its_line_scan(rows, sep, extra):
    """As for TUM, on vertex bodies of points with normals; the header
    declares one row fewer, as many, or one more than the body holds."""
    text = _XYZN_HEADER.format(max(1, len(rows) + extra)) + "\n".join(sep.join(r) for r in rows)
    fast, scanned = _fast_and_scanned(parse_ply_ascii, text)
    assert fast == scanned


def test_ply_values_are_bit_exact_against_float():
    rng = np.random.default_rng(5)
    exponents = rng.integers(-300, 301, (400, 3))
    tokens = [[f"{m:.17g}e{e}" for m, e in zip(rng.uniform(-9.99, 9.99, 3), row)]
              for row in exponents]
    tokens[0] = ["1e300", "-1e-300", "4.9e-324"]
    tokens[1] = ["-0", "2.2250738585072014e-308", "1.7976931348623157e+308"]
    cloud = parse_ply_ascii(_XYZ_HEADER.format(len(tokens))
                            + "".join(" ".join(row) + "\n" for row in tokens))
    expected = np.array([[float(tok) for tok in row] for row in tokens])
    assert cloud.points.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Text and open files: one parser, read a block of lines at a time

_B = io_formats._ROW_BLOCK
_ROW_COUNTS = [1, 5, _B - 1, _B, _B + 1]
# Line endings: \n, \r and \r\n break a line; \x0c, \x85 and \u2028,
# which str.splitlines() breaks at, are whitespace within one.
_ENDINGS = ["\n", "\r", "\r\n", "\x0c", "\x85", "\u2028"]


def _outcome(parse, source):
    """parse(source) as the result's bits, or as the ParseError's type, message and line."""
    try:
        result = parse(source)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return [None if a is None else a.tobytes() for a in vars(result).values()]


def _file_outcome(parse, text, chunk):
    """_outcome of parse on an open file holding text, read chunk bytes at a time."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogateescape",
                                newline="") as handle:
        handle.write(text)
        handle.seek(0)
        handle._CHUNK_SIZE = chunk
        return _outcome(parse, handle)


def _at(draw, n):
    """A position among n lines, often at a block edge."""
    edges = [k for k in (0, 1, _B - 1, _B, _B + 1, n - 1) if 0 <= k < n]
    return draw(st.one_of(st.sampled_from(edges), st.integers(0, n - 1)))


def _joined(draw, lines):
    """The lines with one drawn ending each, mostly one default, and maybe no final one."""
    endings = [draw(st.sampled_from(_ENDINGS))] * len(lines)
    for _ in range(draw(st.integers(0, 4))):
        endings[_at(draw, len(lines))] = draw(st.sampled_from(_ENDINGS))
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


@st.composite
def _tum_texts(draw):
    """TUM text around the block edges, with comments, blank lines and a bad line maybe."""
    lines = [f"{0.25 * k!r} {k} 0 {-k} 0 0 0 1" for k in range(draw(st.sampled_from(_ROW_COUNTS)))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(_at(draw, len(lines) + 1), draw(st.sampled_from(["", "  ", "# note"])))
    if draw(st.booleans()):
        i = _at(draw, len(lines))
        # a short line, a non-number, a non-finite field, an off-unit quaternion,
        # and a timestamp no later than the one before it
        lines[i] = draw(st.sampled_from(["0 0 0", "x 0 0 0 0 0 0 1", "1e9 nan 0 0 0 0 0 1",
                                         "1e9 0 0 0 0 0 0 2", "0.0 0 0 0 0 0 0 1"]))
    return _joined(draw, lines)


@st.composite
def _ply_texts(draw):
    """PLY text around the block edges: non-vertex elements before and after the
    vertex element, blank lines and a bad row in the body, and a body one row
    short of, at or one row past the declared count."""
    rows = draw(st.sampled_from(_ROW_COUNTS))
    body = [f"{k} {0.5 * k} {-k} 0 0 1" for k in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        body.insert(_at(draw, len(body) + 1), "")
    if draw(st.booleans()):
        body[_at(draw, len(body))] = draw(st.sampled_from(
            ["1 2", "x 0 0 0 0 1", "nan 0 0 0 0 1", "0 0 0 0 0 0", "0 0 0 0 0 1 9"]))
    before, after = draw(st.booleans()), draw(st.booleans())
    header = ["ply", "format ascii 1.0"]
    if before:
        header += ["element face 2", "property list uchar int vertex_indices"]
    header += [f"element vertex {max(1, rows + draw(st.integers(-1, 1)))}",
               "property double x", "property double y", "property double z",
               "property double nx", "property double ny", "property double nz"]
    if after:
        header += ["element edge 1", "property int vertex1"]
    header.append("end_header")
    return _joined(draw, header + (["3 0 1 2", "3 0 2 1"] if before else []) + body
                   + (["0"] if after else []))


@pytest.mark.parametrize("parse, texts", [(parse_tum, _tum_texts()),
                                          (parse_ply_ascii, _ply_texts())],
                         ids=["tum", "ply"])
@settings(max_examples=60)
@given(data=st.data())
def test_a_parser_reads_an_open_file_as_it_reads_its_text(parse, texts, data):
    """The same arrays bit for bit, or the same ParseError type, message and line,
    whatever chunk of bytes the file is read in, a \\r\\n cut between two or not."""
    text = data.draw(texts)
    chunk = data.draw(st.sampled_from([1, 2, 3, 7, 61, io.DEFAULT_BUFFER_SIZE]))
    if len(text) > 1000:     # reads of a few bytes are for short texts
        chunk = max(chunk, 7)
    assert _file_outcome(parse, text, chunk) == _outcome(parse, text)


def test_a_form_feed_is_whitespace_within_a_line_not_a_line_break():
    text = "0 0 0 0 0 0 0 1\x0c1 0 0 0 0 0 0 1\n"
    message = "line 1: expected 8 fields (timestamp tx ty tz qx qy qz qw), got 16"
    assert _outcome(parse_tum, text) == (ParseError, message, 1)
    assert _file_outcome(parse_tum, text, io.DEFAULT_BUFFER_SIZE) == (ParseError, message, 1)


def test_a_bad_ply_row_in_the_second_block_reports_its_line():
    rows = [f"{k} 0 0 0 0 1" for k in range(_B + 2)]
    rows[_B] = "1 2"
    text = _XYZN_HEADER.format(len(rows)) + "\n".join(rows) + "\n"
    for source in (text, io.StringIO(text)):
        with pytest.raises(ParseError) as exc:
            parse_ply_ascii(source)
        assert str(exc.value) == f"line {10 + _B + 1}: expected 6 vertex values, got 2"
    # A bad normal in the first block is found before the short row in the second.
    rows[_B - 1] = "0 0 0 0 0 0"
    with pytest.raises(ParseError, match=f"^line {10 + _B}: zero-length normal in vertex data$"):
        parse_ply_ascii(_XYZN_HEADER.format(len(rows)) + "\n".join(rows) + "\n")


def test_a_tum_timestamp_is_ordered_against_the_block_before():
    lines = [f"{0.25 * k!r} 0 0 0 0 0 0 1" for k in range(_B + 2)]
    lines[_B] = lines[_B - 1]
    with pytest.raises(ParseError) as exc:
        parse_tum("\n".join(lines))
    assert exc.value.line == _B + 1
    assert str(exc.value).endswith(f"timestamps must strictly increase, got {0.25 * (_B - 1)!r} "
                                   f"after {0.25 * (_B - 1)!r}")


def test_parsing_a_50k_row_ply_file_holds_its_arrays_not_its_text():
    cloud = _writer_cloud(50_000, seed=3, with_normals=True)
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as handle:
        handle.writelines(write_ply_ascii(cloud))
        size = handle.tell()
        handle.seek(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            back = parse_ply_ascii(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert back.points.tobytes() == cloud.points.tobytes()
    # Reading the text whole held 3.9x the file's size here.  Now the peak is
    # PointCloud's: the parsed arrays, its copies and its normal check's
    # temporaries, 2.4x the arrays and 0.88x the file's size.
    arrays = cloud.points.nbytes + cloud.normals.nbytes
    assert peak - before < 2.6 * arrays < size


def _ply_writer_oracle(cloud):
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
             "property double x", "property double y", "property double z"]
    if cloud.normals is not None:
        lines += ["property double nx", "property double ny", "property double nz"]
    lines.append("end_header")
    if cloud.normals is None:
        lines += [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in cloud.points]
    else:
        lines += [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {m[0]:.17g} {m[1]:.17g} {m[2]:.17g}"
                  for p, m in zip(cloud.points, cloud.normals)]
    return "\n".join(lines) + "\n"


def _writer_cloud(n, seed, with_normals):
    """n points with extreme and signed-zero coordinates, and unit normals if asked."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    points[0] = [-0.0, 0.0, 1e-320]
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points, normals if with_normals else None)


@pytest.mark.parametrize("with_normals", [False, True])
def test_ply_writer_matches_the_per_row_oracle(with_normals):
    cloud = _writer_cloud(300, seed=6, with_normals=with_normals)
    _assert_same_text("".join(write_ply_ascii(cloud)), _ply_writer_oracle(cloud))


@pytest.mark.parametrize("with_normals", [False, True])
@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_ply_writer_matches_the_oracle_at_every_block_edge(n, with_normals):
    cloud = _writer_cloud(n, seed=n, with_normals=with_normals)
    _assert_same_text("".join(write_ply_ascii(cloud)), _ply_writer_oracle(cloud))


def test_ply_writer_holds_one_block_of_floats_at_a_time():
    # Formatting every row at once held a tuple of all 300k floats and a
    # stacked copy of the columns next to the text: 3.1x its length here.
    # A block at a time holds the blocks and the joined text: 2.0x.
    cloud = _writer_cloud(50_000, seed=1, with_normals=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = "".join(write_ply_ascii(cloud))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2.5 * len(text)


# ---------------------------------------------------------------------------
# PFM


def test_pfm_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.1, 10.0, (3, 2)).astype(np.float32).astype(np.float64)
    # invalid pixels are carried, not rejected
    vals[0, 1], vals[1, 0], vals[2, 0], vals[2, 1] = 0.0, -2.5, np.nan, -np.inf
    back = parse_pfm(write_pfm(vals))
    assert back.dtype == np.float64 and back.shape == (3, 2)
    assert back.tobytes() == vals.tobytes()


def test_pfm_writer_rejects_a_finite_depth_beyond_float32():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"depth 1e\+300 at row 0, column 0 overflows float32"):
            write_pfm(np.array([[1e300, 2.0]]))
        vals = np.array([[np.nan, np.inf], [-np.inf, -1e300]])
        with pytest.raises(ValueError, match="row 1, column 1"):
            write_pfm(vals)
        vals[1, 1] = 3.0
        assert parse_pfm(write_pfm(vals)).tobytes() == vals.tobytes()


def test_pfm_writer_emits_bottom_up_little_endian_payload():
    # top row 1.0, bottom row 2.0; the file stores the bottom row first
    data = write_pfm(np.array([[1.0], [2.0]]))
    expect = b"Pf\n1 2\n-1.0\n" + struct.pack("<f", 2.0) + struct.pack("<f", 1.0)
    assert data == expect


def test_pfm_parser_flips_rows_back_to_top_down():
    data = b"Pf\n1 2\n-1.0\n" + struct.pack("<f", 5.0) + struct.pack("<f", 7.0)
    depth = parse_pfm(data)
    np.testing.assert_array_equal(depth, [[7.0], [5.0]])


def test_pfm_positive_scale_means_big_endian():
    data = b"Pf\n1 1\n1.0\n" + struct.pack(">f", 3.5)
    depth = parse_pfm(data)
    assert depth[0, 0] == 3.5


@pytest.mark.parametrize("token", [b"nan", b"-nan", b"inf", b"-inf"])
def test_pfm_rejects_a_non_finite_scale(token):
    # Without the check a NaN scale, for which scale < 0 is False, reads
    # this little-endian 2.0 as big-endian, 8.97e-44.
    data = b"Pf\n1 1\n" + token + b"\n" + struct.pack("<f", 2.0)
    with pytest.raises(ParseError, match=f"PFM scale must be finite and non-zero, got {token!r}"):
        parse_pfm(data)


def test_pfm_color_variant_is_unsupported():
    data = b"PF\n1 1\n-1.0\n" + b"\x00" * 12
    with pytest.raises(UnsupportedFormatError):
        parse_pfm(data)


def test_pfm_error_cases():
    with pytest.raises(ParseError):
        parse_pfm(b"P5\n1 1\n-1.0\n" + b"\x00" * 4)
    with pytest.raises(ParseError):
        parse_pfm(b"Pf\n1\n")
    with pytest.raises(ParseError):
        parse_pfm(b"Pf\nw h\n-1.0\n")
    with pytest.raises(ParseError):
        parse_pfm(b"Pf\n0 1\n-1.0\n")
    with pytest.raises(ParseError):
        parse_pfm(b"Pf\n1 1\n0\n" + b"\x00" * 4)
    with pytest.raises(ParseError, match="payload"):
        parse_pfm(b"Pf\n2 2\n-1.0\n" + b"\x00" * 8)


# ---------------------------------------------------------------------------
# CSV tables


def test_metrics_csv_round_trips_floats():
    text = write_metrics_csv([("ate", 0.1 + 0.2), ("count", 3.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "metric,value"
    name, value = lines[1].split(",")
    assert name == "ate"
    assert float(value) == 0.1 + 0.2


def _table_columns(n, seed):
    """A str, an int and a float column of n rows, with extreme and non-finite floats."""
    rng = np.random.default_rng(seed)
    labels = [f"rule{i % 5}:%d" for i in range(n)]   # a % in a value is text, not a field
    counts = rng.integers(-2**62, 2**62, n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:4] = [-0.0, 5e-324, np.inf, np.nan][:n]
    return labels, counts, values


# At n = 0 the table is its header alone, as an ungated gates.csv is.
@pytest.mark.parametrize("n", [0, *_BLOCK_EDGES])
def test_write_table_matches_the_f_string_oracle_at_every_block_edge(n):
    labels, counts, values = _table_columns(n, seed=n)
    for ints in (counts, range(n)):
        expected = "head\n" + "".join(f"{s},{d},{r!r}\n" for s, d, r in
                                       zip(labels, list(ints), values.tolist()))
        _assert_same_text("".join(write_table("head\n", "%s,%d,%r", [labels, ints, values])),
                          expected)


@pytest.mark.parametrize("columns, message", [
    ([[1, 2], np.float64(3.0)], "write_table column 1 must be a 1-D sequence, got a 0-D float64"),
    ([np.array(2.5), [1]], "write_table column 0 must be a 1-D sequence, got a 0-D ndarray"),
    ([[1, 2], 7], "write_table column 1 must be a 1-D sequence, got a 0-D int"),
    ([[1, 2], np.ones((2, 2))], "write_table column 1 must be a 1-D sequence, got a 2-D ndarray"),
    ([[1, 2, 3], range(2)], "write_table column 1 has 2 rows, column 0 has 3"),
    ([np.arange(4), np.arange(5)], "write_table column 1 has 5 rows, column 0 has 4"),
    ([], "write_table needs at least one column"),
])
def test_write_table_names_a_bad_column_before_it_formats_a_row(columns, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_table("head\n", "%r," * len(columns), columns)


_RECALL_EDGES = [io_formats._ROW_BLOCK - 1, io_formats._ROW_BLOCK, io_formats._ROW_BLOCK + 1]


@pytest.mark.parametrize("n", _RECALL_EDGES)
def test_curves_csv_matches_the_per_row_oracle_at_the_block_edge(n):
    errors = np.random.default_rng(n).uniform(0.0, 2.0, n)
    errors[:2] = [0.0, 5e-324]
    text = curves_to_csv([RuleRun("ttt3r:confidence", errors)])
    _assert_same_text(text, "rule,position,sq_error\n" + "".join(
        f"ttt3r:confidence,{pos},{err!r}\n" for pos, err in enumerate(errors.tolist())))


@pytest.mark.parametrize("n", _RECALL_EDGES)
def test_gate_trace_csv_matches_the_per_row_oracle_at_the_block_edge(n):
    betas = np.random.default_rng(n).uniform(0.0, 1.0, n)
    offsets = np.r_[np.arange(0, n, 3), n]   # frames of 3 tokens, the last of 1 to 3
    lines = [f"{f},{t},{float(betas[lo + t])!r}"
             for f, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])) for t in range(hi - lo)]
    assert len(lines) == n
    text = gate_trace_to_csv(RuleRun("ttt3r:confidence", [1.0], betas, offsets))
    _assert_same_text(text, "frame,token,beta\n" + "".join(line + "\n" for line in lines))
