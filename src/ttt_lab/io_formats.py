"""Readers and writers for TUM trajectories, ASCII PLY clouds and PFM depth.

The TUM and PLY parsers take an open text file, whose lines they read
a block at a time, or a str, which they read as one (lines break at
\\n, \\r and \\r\\n); parse_pfm takes bytes.  They return the
geometry containers (a depth map is a plain H x W float64 array, row
0 the top row).  write_tum and write_ply_ascii return write_table's
blocks of text for the caller to join or write one at a time;
write_metrics_csv returns text and write_pfm bytes.  Parse failures
raise ParseError carrying the 1-based line number where the problem
was found.  Formats we deliberately do not read (binary PLY, color
PFM) raise UnsupportedFormatError instead of producing garbage.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
import warnings
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ._args import depth_maps, floats
from .geometry_metrics import PointCloud, Trajectory

__all__ = [
    "ParseError",
    "UnsupportedFormatError",
    "parse_tum",
    "write_tum",
    "parse_ply_ascii",
    "write_ply_ascii",
    "parse_pfm",
    "write_pfm",
    "write_metrics_csv",
    "write_table",
]


class ParseError(ValueError):
    """Malformed input; `line` is the 1-based offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class UnsupportedFormatError(ParseError):
    """The file is recognizable but in a variant we do not read."""


def _float_rows(lines: Sequence[str], linenos: Sequence[int], width: int,
                count_error: str, value_error: str):
    """The rows of `width` numbers in lines, and the first bad line's ParseError or None.

    One np.loadtxt pass reads the lines first: it converts each token
    with the same string-to-double routine as float(), so the values are
    identical.  It skips blank lines and rejects a few tokens float()
    reads (underscores, non-ASCII digits), so when it fails or returns
    another shape the lines are scanned one at a time with float().  The
    scan stops at the first line that does not hold `width` numbers and
    returns the rows before it with that line's error: count_error
    formatted with the line's field count, or value_error with the
    stripped line.  linenos[k] is the 1-based line number of lines[k].
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        if rows.shape == (len(lines), width):
            return rows, None
    except ValueError:
        pass
    rows, error = [], None
    for raw, lineno in zip(lines, linenos):
        fields = raw.split()
        if len(fields) != width:
            error = ParseError(count_error.format(len(fields)), lineno)
            break
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            error = ParseError(value_error.format(raw.strip()), lineno)
            break
    return np.array(rows, dtype=np.float64).reshape(-1, width), error


# Rows per block: write_table formats, and the parsers read, _ROW_BLOCK
# lines at a time, so one block's Python values are held, not the file's.
# 1024 rows run as fast as 4096 on the bench files and hold a quarter.
_ROW_BLOCK = 1024


def write_table(head: str, row: str, columns: Sequence) -> Iterator[str]:
    """head, then one line per row: row %-formatted with that row's entry of each column.

    row holds one % field per column, e.g. "%s,%d,%r".  columns are 1-D
    sequences of one length: arrays, lists or ranges.  Both are checked
    here, row by formatting one row of zeros.  Arrays are converted with
    .tolist(), so a %r field shows a Python float's repr.  Returns head
    and then the rows formatted _ROW_BLOCK at a time, as an iterator of
    strings: "".join() gives the text.
    """
    if not columns:
        raise ValueError("write_table needs at least one column")
    for j, column in enumerate(columns):
        if getattr(column, "ndim", 1) != 1 or not hasattr(column, "__len__"):
            raise ValueError(f"write_table column {j} must be a 1-D sequence, "
                             f"got a {np.ndim(column)}-D {type(column).__name__}")
        if len(column) != len(columns[0]):
            raise ValueError(f"write_table column {j} has {len(column)} rows, "
                             f"column 0 has {len(columns[0])}")
    width, n = len(columns), len(columns[0])
    try:
        row % ((0,) * width)
    except TypeError:
        raise ValueError(f"write_table row {row!r} needs one % field per column, got "
                         f"{row.replace('%%', '').count('%')} for {width} columns") from None

    def block(lo: int) -> str:
        fields = [None] * (width * min(_ROW_BLOCK, n - lo))
        for j, column in enumerate(columns):
            part = column[lo:lo + _ROW_BLOCK]
            fields[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        return (row + "\n") * (len(fields) // width) % tuple(fields)

    return itertools.chain([head], map(block, range(0, n, _ROW_BLOCK)))


def _blocks(lines: Iterator[str], first: int, count: float = math.inf):
    """(number of the first line, list of lines) for each block of up to
    _ROW_BLOCK lines taken from lines, whose first is line `first`.
    Takes count lines, or all; a block shorter than asked for is the last.
    """
    while count > 0:
        size = min(_ROW_BLOCK, count)
        block = list(itertools.islice(lines, size))
        if block:
            yield first, block
        if len(block) < size:
            return
        first += size
        count -= size


# ---------------------------------------------------------------------------
# TUM trajectories: "timestamp tx ty tz qx qy qz qw" per line.

def _unit_quats(data: np.ndarray, before: float, lines: list, linenos: list) -> np.ndarray:
    """The (w, x, y, z) unit quaternions of one block of pose rows, after the
    timestamp `before` (NaN for none); the first bad row raises its ParseError.

    A row is judged on its quaternion norm, then its timestamp order, then
    finiteness; NaN passes the first two, as a comparison with NaN is false.
    """
    ts, tx, ty, tz, qx, qy, qz, qw = data.T
    with np.errstate(over="ignore"):   # a huge quaternion's norm is inf, and it fails below
        norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    previous = np.r_[before, ts[:-1]]
    off_unit = np.abs(norm - 1.0) > 1e-3
    late = ts <= previous
    bad = off_unit | late | ~np.all(np.isfinite(data), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        if off_unit[i]:
            message = f"quaternion norm {float(norm[i])!r} deviates from 1 by more than 1e-3"
        elif late[i]:
            message = (f"timestamps must strictly increase, got {float(ts[i])!r} "
                       f"after {float(previous[i])!r}")
        else:
            message = f"non-finite field in {lines[i].strip()!r}"
        raise ParseError(message, linenos[i])
    return np.stack([qw, qx, qy, qz], axis=1) / norm[:, None]


def parse_tum(source) -> Trajectory:
    """Parse a TUM trajectory, a str or an open text file; '#' lines and blank lines are skipped.

    Reports the first offending line: a malformed pose line ends the
    rows read (_float_rows), and the pose lines before it are checked
    as columns.  The lines are read and checked _ROW_BLOCK at a time.
    """
    data, quats, before = [], [], math.nan
    source = io.StringIO(source, newline=None) if isinstance(source, str) else source
    for first, block in _blocks(source, 1):
        # A line is skipped when str.split() would find no field or a first
        # field starting with '#'; lstrip() strips the same whitespace.
        linenos = [i for i, raw in enumerate(block, first) if raw.lstrip()[:1] not in ("", "#")]
        lines = [block[i - first] for i in linenos]
        rows, error = _float_rows(lines, linenos, 8,
                                  "expected 8 fields (timestamp tx ty tz qx qy qz qw), got {}",
                                  "non-numeric field in {!r}")
        if len(rows):
            quats.append(_unit_quats(rows, before, lines, linenos))
            data.append(rows)
            before = rows[-1, 0]
        if error is not None:
            raise error
    if not data:
        raise ParseError("empty trajectory: no pose lines found")
    data, quats = np.concatenate(data), np.concatenate(quats)
    return Trajectory(data[:, 0], quats, data[:, 1:4])


def write_tum(traj: Trajectory) -> Iterator[str]:
    """Render a trajectory in TUM format with 17 significant digits,
    enough for float64 values to survive a write/parse round trip.
    Returns write_table's blocks: "".join() gives the text."""
    w, x, y, z = traj.quats.T
    return write_table("# ttt-lab trajectory\n# timestamp tx ty tz qx qy qz qw\n",
                       " ".join(["%.17g"] * 8),
                       [traj.timestamps, *traj.translations.T, x, y, z, w])


# ---------------------------------------------------------------------------
# ASCII PLY point clouds.

_PLY_SCALARS = {
    "char", "uchar", "short", "ushort", "int", "uint",
    "int8", "uint8", "int16", "uint16", "int32", "uint32",
    "float", "double", "float32", "float64",
}
# The tokens of each header line, keyword included: format ascii <version>, element <name>
# <count>, property <type> <name>, property list <type> <type> <name>, and end_header.
_PLY_HEADER = {"format": 3, "element": 3, "property": 3, "property list": 5, "end_header": 1}


def _vertex_columns(rows: np.ndarray, first: int, col: dict, has_n: list,
                    points: np.ndarray, normals: Optional[np.ndarray]) -> None:
    """Writes the points and unit normals (when has_n) of one block of
    vertex rows, whose first is line `first`, into points and normals;
    the first bad row raises its ParseError.

    Each row is judged on its point, then its normal.  A NaN length or
    normal fails the unit check, as a comparison with NaN is false.
    """
    np.take(rows, [col["x"], col["y"], col["z"]], axis=1, out=points)
    failed = [(~np.isfinite(points).all(axis=1), "non-finite point")]
    if has_n:
        raw = rows[:, [col["nx"], col["ny"], col["nz"]]]
        with np.errstate(all="ignore"):   # a bad normal's length is 0 or inf; it fails below
            lengths = np.linalg.norm(raw, axis=1)
            np.divide(raw, lengths[:, None], out=normals)
        failed += [(~np.isfinite(raw).all(axis=1), "non-finite normal"),
                   (lengths == 0, "zero-length normal"),
                   (~(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-6),
                    "normal too large or too small to normalize")]
    bad = np.logical_or.reduce([mask for mask, _ in failed])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(message for mask, message in failed if mask[i])
        raise ParseError(f"{message} in vertex data", first + i)


def parse_ply_ascii(source) -> PointCloud:
    """Parse an ASCII PLY vertex cloud, a str or an open text file.

    Vertex properties x/y/z are required; nx/ny/nz are picked up when
    all three are present (normals are re-normalized to unit length).
    Other vertex properties and non-vertex elements are skipped, with a
    warning for unrecognized vertex properties.  One data line per
    element instance is assumed, which is how ASCII PLY is written in
    practice.  The body is read and checked _ROW_BLOCK lines at a time,
    each block's rows written straight into the cloud's arrays.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    if next(lines, "").strip() != "ply":
        raise ParseError("not a PLY file: first line must be 'ply'", 1)

    elements, fmt_seen = [], False   # elements: (name, count, [(kind, property name)])
    for lineno, raw in enumerate(lines, 2):
        tokens = raw.split()
        if not tokens or tokens[0] in ("comment", "obj_info"):
            continue
        keyword = tokens[0]
        if keyword not in _PLY_HEADER:
            warnings.warn(f"skipping unknown PLY header keyword {keyword!r}")
            continue
        is_list = tokens[:2] == ["property", "list"]
        types = tokens[1 + is_list:-1] if keyword == "property" else ()
        if (len(tokens) != _PLY_HEADER["property list" if is_list else keyword]
                or not _PLY_SCALARS.issuperset(types)):
            raise ParseError(f"malformed {keyword} line {raw.strip()!r}", lineno)
        if keyword == "end_header":
            break
        if keyword == "format":
            if tokens[1] in ("binary_little_endian", "binary_big_endian"):
                raise UnsupportedFormatError("binary PLY is not supported; convert to ascii",
                                             lineno)
            if tokens[1] != "ascii":
                raise ParseError(f"unknown PLY format {tokens[1]!r}", lineno)
            fmt_seen = True
        elif keyword == "element":
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad element count {tokens[2]!r}", lineno) from None
            if count < 0:
                raise ParseError(f"negative element count {count}", lineno)
            elements.append((tokens[1], count, []))
        elif not elements:
            raise ParseError("property before any element", lineno)
        else:
            elements[-1][2].append(("list" if is_list else "scalar", tokens[-1]))
    else:
        raise ParseError("unterminated PLY header: no end_header line")
    if not fmt_seen:
        raise ParseError("PLY header is missing the format line")

    vertex = next((e for e in elements if e[0] == "vertex"), None)
    if vertex is None:
        raise ParseError("PLY header declares no vertex element")
    _, v_count, v_props = vertex
    if v_count == 0:
        raise ParseError("empty cloud: vertex count is 0")
    if any(kind == "list" for kind, _ in v_props):
        raise UnsupportedFormatError("list-typed vertex properties are not supported")
    names = [name for _, name in v_props]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ParseError(f"vertex element lacks required property {axis!r}")
    has_n = [axis for axis in ("nx", "ny", "nz") if axis in names]
    if has_n and len(has_n) != 3:
        raise ParseError("vertex normals must provide all of nx, ny, nz or none")
    known = {"x", "y", "z", "nx", "ny", "nz"}
    for name in names:
        if name not in known:
            warnings.warn(f"ignoring unknown vertex property {name!r}")
    col = {nm: i for i, (_, nm) in enumerate(v_props)}   # a repeated name reads its last column

    # Data rows follow in element declaration order, one line per instance.
    # Only the first vertex element is read; the rest are skipped.  Its rows
    # go straight into the cloud's arrays, which double as rows arrive but
    # never pass the count, so a count the input cannot hold is never allocated.
    cursor = lineno    # the lines read: the header's, up to end_header
    points = np.empty((min(v_count, _ROW_BLOCK), 3))
    normals = np.empty_like(points) if has_n else None
    arrays = (points, normals) if has_n else (points,)
    for element in elements:
        name, count, props = element
        start = cursor
        if element is not vertex:
            cursor += sum(1 for _ in itertools.islice(lines, min(count, sys.maxsize)))
            if cursor - start < count:
                raise ParseError(f"file ends inside element {name!r}: expected {count} rows",
                                 cursor)
            continue
        for first, block in _blocks(lines, cursor + 1, count):
            cursor += len(block)
            rows, error = _float_rows(block, range(first, cursor + 1), len(props),
                                      f"expected {len(props)} vertex values, got {{}}",
                                      "non-numeric vertex value in {!r}")
            # The rows read are judged before a malformed or missing row after them.
            part = slice(first - start - 1, first - start - 1 + len(rows))
            if part.stop > len(points):    # resized in place: no view of them is held
                for array in arrays:
                    array.resize((min(v_count, 2 * len(array)), 3), refcheck=False)
            _vertex_columns(rows, first, col, has_n, points[part],
                            None if normals is None else normals[part])
            if error is not None:
                raise error
        if cursor - start < count:
            raise ParseError(f"file ends after {cursor - start} of {count} vertex rows", cursor)
    for extra, raw in enumerate(lines, cursor + 1):
        if raw.strip():
            raise ParseError("unexpected trailing data after all elements", extra)
    for array in arrays:
        array.setflags(write=False)    # so PointCloud keeps it without a copy
    return PointCloud(points, normals)


def write_ply_ascii(cloud: PointCloud) -> Iterator[str]:
    """Render a cloud as ASCII PLY; normals are written when present.
    Returns write_table's blocks: "".join() gives the text."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
              "property double x", "property double y", "property double z"]
    columns = [*cloud.points.T]
    if cloud.normals is not None:
        header += ["property double nx", "property double ny", "property double nz"]
        columns += [*cloud.normals.T]
    header.append("end_header\n")
    return write_table("\n".join(header), " ".join(["%.17g"] * len(columns)), columns)


# ---------------------------------------------------------------------------
# PFM depth maps: grayscale "Pf", rows stored bottom-up, float32 samples.

def _pfm_token(buf: bytes, pos: int) -> Tuple[bytes, int]:
    while pos < len(buf) and buf[pos:pos + 1].isspace():
        pos += 1
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ParseError("truncated PFM header")
    return buf[start:pos], pos


def parse_pfm(data: bytes) -> np.ndarray:
    """Parse a grayscale PFM image into an H x W float64 array, top row first.

    The scale line is finite and non-zero, and its sign encodes
    endianness (negative = little).
    Exactly one whitespace byte separates the header from the payload;
    the payload must hold exactly width*height float32 samples.
    """
    magic, pos = _pfm_token(data, 0)
    if magic == b"PF":
        raise UnsupportedFormatError("color PFM ('PF') is not supported, only grayscale 'Pf'")
    if magic != b"Pf":
        raise ParseError(f"not a PFM file: bad magic {magic!r}")
    w_tok, pos = _pfm_token(data, pos)
    h_tok, pos = _pfm_token(data, pos)
    try:
        width = int(w_tok)
        height = int(h_tok)
    except ValueError:
        raise ParseError(f"bad PFM dimensions {w_tok!r} x {h_tok!r}") from None
    if width < 1 or height < 1:
        raise ParseError(f"bad PFM dimensions {width} x {height}")
    scale_tok, pos = _pfm_token(data, pos)
    try:
        scale = float(scale_tok)
    except ValueError:
        raise ParseError(f"bad PFM scale {scale_tok!r}") from None
    if scale == 0 or not math.isfinite(scale):
        raise ParseError(f"PFM scale must be finite and non-zero, got {scale_tok!r}")
    payload = data[pos + 1:]
    expected = 4 * width * height
    if len(payload) != expected:
        raise ParseError(
            f"PFM payload holds {len(payload)} bytes, header implies {expected}"
        )
    dtype = "<f4" if scale < 0 else ">f4"
    rows = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return np.flipud(rows).astype(np.float64)


def write_pfm(depth) -> bytes:
    """Render an H x W depth map as little-endian grayscale PFM (scale -1.0).

    NaN and +-inf pixels are written as they are; a finite pixel beyond
    the float32 range raises ValueError.
    """
    (depth,) = depth_maps(depth)
    with np.errstate(over="ignore"):
        single = depth.astype("<f4")
    over = np.argwhere(np.isinf(single) & np.isfinite(depth))
    if over.size:
        r, c = over[0]
        raise ValueError(f"depth {float(depth[r, c])!r} at row {r}, column {c} overflows float32")
    header = f"Pf\n{depth.shape[1]} {depth.shape[0]}\n-1.0\n".encode("ascii")
    return header + np.flipud(single).tobytes()


# ---------------------------------------------------------------------------
# Metric reports.

def write_metrics_csv(rows: Sequence[Tuple[str, float]]) -> str:
    """Two-column report: metric,value with full float precision."""
    values = floats([value for _, value in rows], "metric values", 1, finite=False)
    return "".join(write_table("metric,value\n", "%s,%r", [[name for name, _ in rows], values]))
