"""Readers and writers for TUM trajectories, ASCII PLY clouds and PFM depth.

Parsers take text or bytes and return the geometry containers (a depth
map is a plain H x W float64 array, row 0 the top row); writers return
text or bytes for the caller to put on disk.  Parse failures
raise ParseError carrying the 1-based line number where the problem
was found.  Formats we deliberately do not read (binary PLY, color
PFM) raise UnsupportedFormatError instead of producing garbage.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry_metrics import PointCloud, Trajectory, _depth_maps

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
]


class ParseError(ValueError):
    """Malformed input; `line` is the 1-based offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class UnsupportedFormatError(ParseError):
    """The file is recognizable but in a variant we do not read."""


# ---------------------------------------------------------------------------
# TUM trajectories: "timestamp tx ty tz qx qy qz qw" per line.

def _tum_scan(lines: Sequence[str]):
    """Pose rows, their 1-based line numbers, and the first malformed line's error.

    Reads one line at a time with float() and stops at the first line
    that does not hold eight numbers.
    """
    values, linenos, error = [], [], None
    for lineno, raw in enumerate(lines, 1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 8:
            error = ParseError(
                f"expected 8 fields (timestamp tx ty tz qx qy qz qw), got {len(fields)}",
                lineno,
            )
            break
        try:
            values.append([float(f) for f in fields])
        except ValueError:
            error = ParseError(f"non-numeric field in {raw.strip()!r}", lineno)
            break
        linenos.append(lineno)
    return np.array(values, dtype=np.float64), linenos, error


def parse_tum(text: str) -> Trajectory:
    """Parse TUM trajectory text; '#' lines and blank lines are skipped.

    Reports the first offending line: malformed lines stop the scan, and
    the pose lines before them are checked as columns.  The pose lines
    are read with one np.loadtxt pass, which converts each token with
    the same routine as float(); when that pass fails or does not give
    eight columns per line, they are scanned one line at a time
    (_tum_scan), which finds the malformed line.
    """
    lines = text.splitlines()
    # A line is skipped when str.split() would find no field or a first
    # field starting with '#'; lstrip() strips the same whitespace.
    linenos = [i for i, raw in enumerate(lines, 1) if raw.lstrip()[:1] not in ("", "#")]
    data, error = None, None
    if linenos:
        try:
            data = np.loadtxt([lines[i - 1] for i in linenos], dtype=np.float64,
                              comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape != (len(linenos), 8):
        data, linenos, error = _tum_scan(lines)
    if not linenos:
        raise error or ParseError("empty trajectory: no pose lines found")
    ts, tx, ty, tz, qx, qy, qz, qw = data.T
    with np.errstate(over="ignore"):   # a huge quaternion's norm is inf, and it fails below
        norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    # A line is judged on its quaternion norm, then its timestamp order, then
    # finiteness; NaN passes the first two, as a comparison with NaN is false.
    off_unit = np.abs(norm - 1.0) > 1e-3
    late = np.r_[False, ts[1:] <= ts[:-1]]
    bad = off_unit | late | ~np.all(np.isfinite(data), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        if off_unit[i]:
            message = f"quaternion norm {float(norm[i])!r} deviates from 1 by more than 1e-3"
        elif late[i]:
            message = (f"timestamps must strictly increase, got {float(ts[i])!r} "
                       f"after {float(ts[i - 1])!r}")
        else:
            message = f"non-finite field in {lines[linenos[i] - 1].strip()!r}"
        raise ParseError(message, linenos[i])
    if error is not None:
        raise error
    return Trajectory(ts, np.stack([qw, qx, qy, qz], axis=1) / norm[:, None], data[:, 1:4])


def write_tum(traj: Trajectory) -> str:
    """Render a trajectory in TUM format with 17 significant digits,
    enough for float64 values to survive a write/parse round trip."""
    q = traj.quats
    rows = np.column_stack([traj.timestamps, traj.translations, q[:, 1:], q[:, :1]])
    header = "# ttt-lab trajectory\n# timestamp tx ty tz qx qy qz qw\n"
    return header + (" ".join(["%.17g"] * 8) + "\n") * len(rows) % tuple(rows.ravel().tolist())


# ---------------------------------------------------------------------------
# ASCII PLY point clouds.

_PLY_SCALARS = {
    "char", "uchar", "short", "ushort", "int", "uint",
    "int8", "uint8", "int16", "uint16", "int32", "uint32",
    "float", "double", "float32", "float64",
}


def _vertex_rows(lines: Sequence[str], start: int, count: int, width: int) -> np.ndarray:
    """The (count, width) vertex rows that begin at lines[start].

    One np.loadtxt pass reads them first: it converts each token with
    the same string-to-double routine as float(), so the values are
    identical.  It skips blank lines and rejects a few tokens float()
    reads (underscores, non-ASCII digits), so when it fails or returns
    another shape the rows are scanned one line at a time with float();
    that scan raises ParseError at the first bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(lines[start:start + count], dtype=np.float64,
                              comments=None, ndmin=2)
        if rows.shape == (count, width):
            return rows
    except ValueError:
        pass
    # Sized by the lines present: a header may declare more rows than the file holds.
    rows = np.empty((min(count, len(lines) - start), width))
    for r in range(count):
        lineno = start + r
        if lineno >= len(lines):
            raise ParseError(f"file ends after {r} of {count} vertex rows", len(lines))
        tokens = lines[lineno].split()
        if len(tokens) != width:
            raise ParseError(f"expected {width} vertex values, got {len(tokens)}", lineno + 1)
        try:
            rows[r] = [float(tok) for tok in tokens]
        except ValueError:
            raise ParseError(
                f"non-numeric vertex value in {lines[lineno]!r}", lineno + 1
            ) from None
    return rows


def parse_ply_ascii(text: str) -> PointCloud:
    """Parse an ASCII PLY vertex cloud.

    Vertex properties x/y/z are required; nx/ny/nz are picked up when
    all three are present (normals are re-normalized to unit length).
    Other vertex properties and non-vertex elements are skipped, with a
    warning for unrecognized vertex properties.  One data line per
    element instance is assumed, which is how ASCII PLY is written in
    practice.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file: first line must be 'ply'", 1)

    elements = []          # (name, count, [property names]) in declared order
    current = None
    fmt_seen = False
    data_start = None
    for lineno in range(1, len(lines)):
        tokens = lines[lineno].strip().split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "comment" or keyword == "obj_info":
            continue
        if keyword == "format":
            if len(tokens) < 2:
                raise ParseError("malformed format line", lineno + 1)
            if tokens[1] in ("binary_little_endian", "binary_big_endian"):
                raise UnsupportedFormatError(
                    "binary PLY is not supported; convert to ascii", lineno + 1
                )
            if tokens[1] != "ascii":
                raise ParseError(f"unknown PLY format {tokens[1]!r}", lineno + 1)
            fmt_seen = True
        elif keyword == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element line", lineno + 1)
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad element count {tokens[2]!r}", lineno + 1) from None
            if count < 0:
                raise ParseError(f"negative element count {count}", lineno + 1)
            current = (tokens[1], count, [])
            elements.append(current)
        elif keyword == "property":
            if current is None:
                raise ParseError("property before any element", lineno + 1)
            if len(tokens) >= 2 and tokens[1] == "list":
                current[2].append(("list", tokens[-1]))
            elif len(tokens) == 3 and tokens[1] in _PLY_SCALARS:
                current[2].append(("scalar", tokens[2]))
            else:
                raise ParseError(f"malformed property line {lines[lineno].strip()!r}", lineno + 1)
        elif keyword == "end_header":
            data_start = lineno + 1
            break
        else:
            warnings.warn(f"skipping unknown PLY header keyword {keyword!r}")
    if data_start is None:
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

    # Data rows follow in element declaration order, one line per instance.
    cursor = data_start
    points = None
    normals = None
    for name, count, props in elements:
        if name != "vertex":
            cursor += count
            if cursor > len(lines):
                raise ParseError(
                    f"file ends inside element {name!r}: expected {count} rows", len(lines)
                )
            continue
        rows = _vertex_rows(lines, cursor, count, len(props))
        cursor += count
        cols = {nm: rows[:, i] for i, (_, nm) in enumerate(props)}
        points = np.column_stack([cols["x"], cols["y"], cols["z"]])
        if has_n:
            normals = np.column_stack([cols["nx"], cols["ny"], cols["nz"]])
            bad = np.flatnonzero(~np.isfinite(normals).all(axis=1))
            if bad.size:
                raise ParseError("non-finite normal in vertex data", cursor - count + bad[0] + 1)
            lengths = np.linalg.norm(normals, axis=1)
            if np.any(lengths == 0):
                raise ParseError("zero-length normal in vertex data")
            normals = normals / lengths[:, None]
    for extra in range(cursor, len(lines)):
        if lines[extra].strip():
            raise ParseError("unexpected trailing data after all elements", extra + 1)
    try:
        return PointCloud(points, normals)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_ply_ascii(cloud: PointCloud) -> str:
    """Render a cloud as ASCII PLY; normals are written when present."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
              "property double x", "property double y", "property double z"]
    rows = cloud.points
    if cloud.normals is not None:
        header += ["property double nx", "property double ny", "property double nz"]
        rows = np.column_stack([rows, cloud.normals])
    header.append("end_header\n")
    row_format = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    return "\n".join(header) + row_format * len(rows) % tuple(rows.ravel().tolist())


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
    (depth,) = _depth_maps(depth)
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
    lines = ["metric,value"]
    for name, value in rows:
        lines.append(f"{name},{float(value)!r}")
    return "\n".join(lines) + "\n"
