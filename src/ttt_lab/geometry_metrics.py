"""Trajectory, depth and point-cloud evaluation metrics.

Covers the usual reconstruction-benchmark toolbox: timestamp
association between estimated and reference trajectories, closed-form
similarity alignment, absolute and relative trajectory errors, scaled
depth metrics, and nearest-neighbour point-cloud distances.

Conventions: quaternions are stored (w, x, y, z) and unit; poses map
camera/local coordinates into the world frame; depth maps are plain
H x W float64 arrays with row 0 the top image row, where non-finite and
non-positive pixels mark invalid pixels (the metrics decide validity).
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "Trajectory",
    "Sim3Transform",
    "PointCloud",
    "ChamferResult",
    "quat_to_rotmat",
    "quat_mul",
    "associate",
    "umeyama_sim3",
    "ate",
    "rpe",
    "depth_metrics",
    "sequence_depth_scale",
    "chamfer",
    "normal_consistency",
]


class DegenerateGeometryError(ValueError):
    """Point configuration does not determine the requested transform."""


def _floats(value, message: str, copy: bool = False) -> np.ndarray:
    """value as float64 (copied if copy); ValueError(message) unless all finite."""
    try:
        arr = (np.array if copy else np.asarray)(value, dtype=np.float64)
    except OverflowError:    # an int past the float range
        raise ValueError(message) from None
    if not np.isfinite(arr).all():
        raise ValueError(message)
    return arr


def _quats(q) -> np.ndarray:
    """q as a float64 array of quaternions (..., 4), checked."""
    q = _floats(q, "quaternion contains non-finite entries")
    if q.shape[-1:] != (4,):
        raise ValueError(f"quaternion must have 4 components, got shape {q.shape}")
    return q


def quat_to_rotmat(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4) in (w, x, y, z) order."""
    q = _quats(q)
    w, x, y, z = np.moveaxis(q, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow fails _floats
        rot = np.stack([
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ], axis=-1).reshape(q.shape[:-1] + (3, 3))
    return _floats(rot, "quaternion's rotation matrix overflows")


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])  # q * _CONJ: the conjugate, the inverse rotation


def quat_mul(a, b) -> np.ndarray:
    """Hamilton products a b (..., 4) of quaternions (w, x, y, z), broadcast.

    The rotation of a b is R(a) R(b).  The vector part sums
    a_w b_v + b_w a_v before it adds a_v x b_v, so conj(q) q has an
    exactly zero vector part: the first sum cancels term by term and the
    cross product of parallel vectors is exactly zero.  A product past
    the float range raises ValueError.
    """
    a, b = _quats(a), _quats(b)
    aw, av, bw, bv = a[..., :1], a[..., 1:], b[..., :1], b[..., 1:]
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow fails _floats
        w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
        product = np.concatenate([w, aw * bv + bw * av + np.cross(av, bv)], axis=-1)
    return _floats(product, "quaternion product overflows")


@dataclass(frozen=True)
class Trajectory:
    """N >= 1 timestamped rigid poses as columns: world point = R_i p + t_i.

    timestamps is (N,) and strictly increasing, quats (N, 4) unit
    (w, x, y, z) rotations, translations (N, 3); all finite.  Quaternions
    must be unit within 1e-9, and those off unit by more than 4 * 2**-52
    are normalized; one division leaves at most 1.5 * 2**-52, so a
    rebuild or a slice keeps every bit.  The arrays are read-only copies.
    """

    timestamps: np.ndarray
    quats: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        ts, q, t = (_floats(x, "trajectory contains non-finite entries", copy=True)
                    for x in (self.timestamps, self.quats, self.translations))
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError(
                f"trajectory must contain at least one pose, got timestamps shape {ts.shape}"
            )
        n = ts.shape[0]
        if q.shape != (n, 4) or t.shape != (n, 3):
            raise ValueError(
                f"{n} poses need quats ({n}, 4) and translations ({n}, 3), "
                f"got {q.shape} and {t.shape}"
            )
        norms = np.linalg.norm(q, axis=1)
        off = np.abs(norms - 1.0) > 1e-9
        if np.any(off):
            raise ValueError(
                f"quaternion must be unit within 1e-9, got norm {float(norms[np.argmax(off)])!r}"
            )
        late = ts[1:] <= ts[:-1]
        if np.any(late):
            i = int(np.argmax(late))
            raise ValueError(
                f"timestamps must strictly increase, got {float(ts[i])!r} then {float(ts[i + 1])!r}"
            )
        renorm = np.abs(norms - 1.0) > 4 * 2.0**-52
        q[renorm] /= norms[renorm, None]
        for name, arr in (("timestamps", ts), ("quats", q), ("translations", t)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def __getitem__(self, index: slice) -> "Trajectory":
        """The poses in a slice, as a trajectory."""
        return Trajectory(self.timestamps[index], self.quats[index], self.translations[index])


def _read_only(given, arr: np.ndarray) -> np.ndarray:
    """arr (given, as float64) made read-only, copied unless no one else could write it."""
    if not arr.flags.owndata or (arr is given and arr.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform p -> scale * R p + t."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r, t = (_floats(x, "rotation and translation must be finite")
                for x in (self.rotation, self.translation))
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if (isinstance(self.scale, bool) or not isinstance(self.scale, numbers.Real)
                or not 0 < self.scale < math.inf or int(self.scale) > sys.float_info.max):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9 or np.linalg.det(r) < 0:
            raise ValueError("rotation must be orthonormal with determinant +1")
        object.__setattr__(self, "rotation", _read_only(self.rotation, r))
        object.__setattr__(self, "translation", _read_only(self.translation, t))

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return self.scale * points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class PointCloud:
    """N >= 1 points, optionally with unit normals (a read-only array owning its data is kept)."""

    points: np.ndarray
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = _floats(self.points, "points contain non-finite entries")
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must be a non-empty Nx3 array, got shape {pts.shape}")
        object.__setattr__(self, "points", _read_only(self.points, pts))
        if self.normals is not None:
            nrm = _floats(self.normals, "normals contain non-finite entries")
            if nrm.shape != pts.shape:
                raise ValueError(
                    f"normals shape {nrm.shape} does not match points shape {pts.shape}"
                )
            # Row dots, then in place: one temporary of N lengths, none of N x 3 squares.
            off = np.einsum("ij,ij->i", nrm, nrm)
            np.sqrt(off, out=off)
            off -= 1.0
            if np.any(np.abs(off, out=off) > 1e-6):
                raise ValueError("normals must be unit-norm within 1e-6")
            object.__setattr__(self, "normals", _read_only(self.normals, nrm))

    def __len__(self) -> int:
        return self.points.shape[0]


class ChamferResult(NamedTuple):
    accuracy: float
    completeness: float
    chamfer: float
    normal_consistency: Optional[float] = None


def associate(est: Trajectory, gt: Trajectory, max_dt: float = 0.02):
    """Match poses by nearest timestamp within max_dt, each used once.

    max_dt is a positive float or inf, which makes every pair a candidate.
    Candidate pairs are taken in order of increasing |dt| (ties broken
    by index), and a pose already matched is skipped.  Returns index
    pairs (i_est, j_gt) sorted by estimated-pose index.  The candidates
    are built and sorted as arrays; only the greedy skip walks them in
    Python, once each.
    """
    if isinstance(max_dt, bool) or not isinstance(max_dt, numbers.Real):
        raise ValueError(f"max_dt must be a real number, got {max_dt!r}")
    if not (max_dt > 0):
        raise ValueError(f"max_dt must be positive, got {max_dt}")
    if max_dt < math.inf and int(max_dt) > sys.float_info.max:
        raise ValueError(f"max_dt must be inf or at most the largest float, got {max_dt}")
    est_ts = est.timestamps
    gt_ts = gt.timestamps
    # A window or |dt| past the largest float is inf, which is still right.
    with np.errstate(over="ignore"):
        lo = np.searchsorted(gt_ts, est_ts - max_dt, side="left")
        counts = np.searchsorted(gt_ts, est_ts + max_dt, side="right") - lo
        i = np.repeat(np.arange(len(est_ts)), counts)
        # j runs from lo to hi - 1 within each estimated pose's block.
        j = np.arange(len(i)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        dt = np.abs(est_ts[i] - gt_ts[j])
    keep = dt <= max_dt
    i, j, dt = i[keep], j[keep], dt[keep]
    order = np.lexsort((j, i, dt))
    used_i = set()
    used_j = set()
    pairs = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a in used_i or b in used_j:
            continue
        used_i.add(a)
        used_j.add(b)
        pairs.append((a, b))
    pairs.sort()
    return pairs


def umeyama_sim3(src: np.ndarray, dst: np.ndarray, with_scale: bool = True) -> Sim3Transform:
    """Least-squares similarity aligning src onto dst.

    Returns the transform minimizing sum ||s R src_i + t - dst_i||^2 in
    closed form via the SVD of the cross-covariance; the sign matrix on
    the smallest singular direction keeps the solution a proper
    rotation even for reflected inputs.  with_scale False pins s = 1.
    src and dst of any size are each aligned scaled by one power of two
    (_normalized), which is exact, and s and t are returned in input
    units.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 3 or src.shape != dst.shape:
        raise ValueError(
            f"src and dst must be matching Nx3 arrays, got {src.shape} and {dst.shape}"
        )
    n = src.shape[0]
    if n < 3:
        raise ValueError(f"alignment needs at least 3 point pairs, got {n}")
    (src,), src_unit = _normalized(src)
    (dst,), dst_unit = _normalized(dst)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    x = src - mu_s
    y = dst - mu_d
    cov = y.T @ x / n
    u, d, vt = np.linalg.svd(cov)
    if d[0] <= 0 or d[1] <= d[0] * 1e-12:
        raise DegenerateGeometryError(
            "point configuration is rank-deficient (coincident or collinear); rotation is not determined"
        )
    s_mat = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_mat[2, 2] = -1.0
    rot = u @ s_mat @ vt
    if not with_scale:
        return Sim3Transform(1.0, rot, mu_d * dst_unit - rot @ (mu_s * src_unit))
    # Positive: the trace is at least d[0] > 0.
    scale = float(np.trace(np.diag(d) @ s_mat)) / (float(np.sum(x * x)) / n)
    t = (mu_d - scale * rot @ mu_s) * dst_unit
    return Sim3Transform(scale * dst_unit / src_unit, rot, t)


def _pair_indices(pairs, est: Trajectory, gt: Trajectory):
    """The i_est and j_gt columns of pairs, checked: integers indexing est and gt."""
    idx = np.asarray(pairs)
    if idx.dtype.kind not in "iu" or idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("pairs must be (i_est, j_gt) pairs of integer indices")
    for column, traj, name in ((0, est, "est"), (1, gt, "gt")):
        bad = (idx[:, column] < 0) | (idx[:, column] >= len(traj))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"pair {k} indexes pose {int(idx[k, column])} of {name}, "
                             f"which has {len(traj)} poses")
    return idx[:, 0], idx[:, 1]


def _shift(*arrays) -> int:
    """Minus the exponent that brings the arrays' largest magnitude into [1, 2).

    Scaled by 2**shift, exactly, no sum of squared coordinate differences
    of arrays that fit in memory overflows, nor one near that size underflows,
    and a metric of inputs times 2**k is 2**k times their metric, bit for bit.
    """
    return 1 - math.frexp(max(max(-float(a.min()), float(a.max())) for a in arrays))[1]


def _normalized(*arrays):
    """The arrays scaled by 2**_shift, and the factor that undoes it."""
    shift = _shift(*arrays)
    return [np.ldexp(a, shift) for a in arrays], math.ldexp(1.0, -shift)


def ate(est: Trajectory, gt: Trajectory, pairs, align: str = "sim3") -> float:
    """Absolute trajectory error: translational RMSE after alignment.

    pairs are the matched (i_est, j_gt) indices that associate returns;
    an index that is not an integer within its trajectory raises
    ValueError.  align selects similarity ("sim3"), rigid ("se3", scale
    pinned to 1) or no alignment ("none").  Translations of any size are
    measured scaled by one power of two, exactly, as chamfer measures
    clouds, so the error scales with them bit for bit.
    """
    if align not in ("sim3", "se3", "none"):
        raise ValueError(f"align must be 'sim3', 'se3' or 'none', got {align!r}")
    if not len(pairs):
        raise ValueError("no matched pose pairs within the association window")
    i_est, j_gt = _pair_indices(pairs, est, gt)
    (p, g), unit = _normalized(est.translations[i_est], gt.translations[j_gt])
    if align != "none":
        if len(pairs) < 3:
            raise ValueError(
                f"alignment needs at least 3 matched pairs, got {len(pairs)}"
            )
        p = umeyama_sim3(p, g, with_scale=(align == "sim3")).apply(p)
    return float(np.sqrt(np.mean(np.sum((p - g) ** 2, axis=1)))) * unit


def rpe(est: Trajectory, gt: Trajectory, pairs, delta: int = 1):
    """Relative pose error over matched pairs delta steps apart, delta an integer >= 1.

    pairs are the matched (i_est, j_gt) indices that associate returns,
    checked as ate checks them.  Each trajectory moves from matched
    index i to i + delta by (conj(q_i) q_(i+delta), R_i^T (t_(i+delta) - t_i)),
    and the residual of a step is (conj(q_gt) q_est, d_est - d_gt), whose
    norm is that of the residual motion's translation.  Returns the RMSE
    of the translation norms and of the rotation angles in degrees, each
    angle 2 atan2(|v|, |w|) of a residual (w, v): accurate near zero, and
    exactly zero for identical steps.  Translations are scaled as ate
    scales them, so the translation error scales with them bit for bit
    and the angle does not change.
    """
    if isinstance(delta, bool) or not isinstance(delta, numbers.Integral):
        raise ValueError(f"delta must be an integer, got {delta!r}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if len(pairs) < delta + 1:
        raise ValueError(
            f"need at least delta+1 = {delta + 1} matched pairs, got {len(pairs)}"
        )
    i_est, j_gt = _pair_indices(pairs, est, gt)
    (t_est, t_gt), unit = _normalized(est.translations[i_est], gt.translations[j_gt])
    (q_est, d_est), (q_gt, d_gt) = [
        (quat_mul(q[:-delta] * _CONJ, q[delta:]),
         np.einsum("ni,nij->nj", t[delta:] - t[:-delta], quat_to_rotmat(q[:-delta])))
        for q, t in ((est.quats[i_est], t_est), (gt.quats[j_gt], t_gt))]
    err = quat_mul(q_gt * _CONJ, q_est)
    angle = np.degrees(2.0 * np.arctan2(np.linalg.norm(err[:, 1:], axis=1), np.abs(err[:, 0])))
    trans_sq = np.sum((d_est - d_gt) ** 2, axis=1)
    return float(np.sqrt(np.mean(trans_sq))) * unit, float(np.sqrt(np.mean(angle * angle)))


def _depth_maps(*maps) -> list:
    """Depth maps as float64 arrays, checked once: 2-D, non-empty, one shape."""
    arrays = [np.asarray(m, dtype=np.float64) for m in maps]
    for arr in arrays:
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"depth map must be a non-empty H x W array, got shape {arr.shape}")
        if arr.shape != arrays[0].shape:
            (h, w), (h2, w2) = arrays[0].shape, arr.shape
            raise ValueError(f"depth map sizes differ: {w}x{h} vs {w2}x{h2}")
    return arrays


def _masked(pred, gt):
    """A map pair, checked, as float64 arrays, and the mask of its valid pixels."""
    pred, gt = _depth_maps(pred, gt)
    return pred, gt, np.isfinite(pred) & (pred > 0) & np.isfinite(gt) & (gt > 0)


def depth_metrics(pred, gt, scale: float = 1.0):
    """Mean absolute relative error and delta < 1.25 inlier fraction of scale * pred.

    scale is positive and finite: 1.0 for metric depth, else
    sequence_depth_scale of the sequence (or of [pred], [gt] alone).
    pred and gt are H x W arrays of one shape; pixels are valid where
    both maps are finite and positive.
    """
    if (isinstance(scale, bool) or not isinstance(scale, numbers.Real)
            or not 0 < scale < math.inf or int(scale) > sys.float_info.max):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    pred, gt, mask = _masked(pred, gt)
    if not np.any(mask):
        raise ValueError("no valid pixels shared by prediction and reference")
    # In place on the masked copies, so a frame allocates no array beyond p, g and d.
    p, g = pred[mask], gt[mask]
    p *= float(scale)
    d = p - g
    np.abs(d, out=d)
    d /= g
    abs_rel = float(np.mean(d))
    np.divide(p, g, out=d)
    np.divide(g, p, out=p)
    np.maximum(d, p, out=d)
    delta_125 = float(np.mean(d < 1.25))
    return abs_rel, delta_125


def _bins(part: np.ndarray) -> np.ndarray:
    """The top 16 bits of each value rounded to float32: its sign, exponent and 7 bits."""
    with np.errstate(over="ignore"):
        return np.asarray(part, np.float32).view(np.int32) >> 16


_NBINS = 1 << 15     # the bins of the positive values, inf included
_END = object()


def sequence_depth_scale(preds: Iterable, gts: Iterable) -> float:
    """One shared scale for a sequence: median(gt) / median(pred).

    Medians are taken over the valid pixels pooled across all frames,
    so a single scale serves every map of the sequence; given one map
    pair, it is that map's own median ratio.  Each prediction has the
    shape of its reference.  preds and gts must be re-iterable, such as
    lists, or objects whose iter() starts over and gives the same maps
    again: the maps are read in two passes, one pair at a time.

    Positive floats order as their bits, and rounding float64 to float32
    keeps the order (past float32's range to inf, below it to 0).  So
    the first pass, which checks every pair in order, counts each side's
    valid pixels in a histogram of _bins, and finds the one or two bins
    that hold its middle pair.  The second pass gathers only the values
    in those bins, as float64, and partitions them; averaging the pair in
    float64 gives numpy's median of the float64 pool, bit for bit.  No
    pixel is kept across frames: the memory is one map pair's
    temporaries, the histograms and, unless the depths crowd into one
    bin, the few values gathered.  A ratio that overflows, or underflows
    to 0, raises ValueError.
    """
    for maps in (preds, gts):
        if isinstance(maps, Iterator):
            raise ValueError(f"sequence_depth_scale needs re-iterable inputs, such as lists, "
                             f"not a one-shot {type(maps).__name__}")
    counts = np.zeros((2, _NBINS), np.int64)    # pred's, then gt's
    n_pred = n_gt = 0
    for pred, gt in itertools.zip_longest(preds, gts, fillvalue=_END):
        n_pred += pred is not _END
        n_gt += gt is not _END
        if n_pred == n_gt:
            pred, gt, mask = _masked(pred, gt)
            for hist, depth in zip(counts, (pred, gt)):
                hist += np.bincount(_bins(depth)[mask], minlength=_NBINS)
    if n_pred != n_gt or not n_pred:
        raise ValueError(f"need matching non-empty map lists, got {n_pred} and {n_gt}")
    ends = np.cumsum(counts, axis=1)
    n = int(ends[0, -1])
    if not n:
        raise ValueError("no valid pixels in the whole sequence")
    ranks = ((n - 1) // 2, n // 2)
    # Any bins between a side's two are empty.
    middle = [np.searchsorted(end, ranks, side="right") for end in ends]
    pools = ([], [])
    for pred, gt in zip(preds, gts):
        pred, gt, mask = _masked(pred, gt)
        for pool, bins, depth in zip(pools, middle, (pred, gt)):
            pool.append(depth[mask & np.isin(_bins(depth), bins)])
    medians = []
    for pool, bins, end, hist in zip(pools, middle, ends, counts):
        pool = np.concatenate(pool)
        below = int(end[bins[0]] - hist[bins[0]])
        lo, hi = ranks[0] - below, ranks[1] - below
        pool.partition([lo, hi])
        medians.append(float(np.mean(pool[lo:hi + 1], dtype=np.float64)))
    # Python floats divide without numpy's overflow warning.
    p_median, g_median = medians
    scale = g_median / p_median
    if not 0.0 < scale < math.inf:
        raise ValueError(f"the depth scale median(gt) / median(pred) = {g_median!r} / "
                         f"{p_median!r} {'overflows' if scale else 'underflows'}")
    return scale


# Exact nearest neighbours on a uniform grid.  A search holds the clouds, its results,
# the query order, a cell index and the reference sorted by cell; else one chunk's arrays,
# whose scans of _GRID_PAIRS distances hold the most.
_GRID_FILL = 2.0        # aimed-at reference points per occupied cell
_GRID_CAP = 8           # at most this many cells per reference point
_GRID_COARSEN = 2.0     # cell growth for queries a grid could not settle
_GRID_PAIRS = 1 << 15   # candidate (or brute-force) distances held at once
_GRID_CHUNK = 4096      # queries (or points hashed) per chunk
_GRID_SLACK = 1e-12     # relative margin on the search bound, far above rounding
_GRID_MIN_CELL = 2.0 ** -500  # smaller cells would square into subnormals
_COLUMNS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])


def _cell_size(ref: np.ndarray, lo: np.ndarray, span: np.ndarray, shift: int = 0) -> float:
    """Grid cell edge for ref scaled by 2**shift; inf puts every point in one cell.

    It starts from the edge that gives one cell per point over the axes
    whose span exceeds it, then rescales by the share of those cells
    that are occupied, as for a sampled surface, towards _GRID_FILL
    points per occupied cell, within _GRID_CAP cells a point.
    """
    n = len(ref)
    axes = span > 0
    h = math.inf
    while axes.any():
        h = math.exp((float(np.sum(np.log(span[axes]))) - math.log(n)) / int(axes.sum()))
        if np.all(span[axes] >= h):
            break
        axes &= span >= h
    if not _GRID_MIN_CELL < h < math.inf:
        return math.inf
    dims = np.floor(span / h) + 1
    occupied = np.zeros(int(np.prod(dims)), dtype=bool)
    occupied[_cell_ids(ref, lo, h, dims, shift)] = True
    h *= math.sqrt(_GRID_FILL * np.count_nonzero(occupied) / n)
    while np.prod(np.floor(span / h) + 1) > _GRID_CAP * n:
        h *= 1.25
    return h if h > _GRID_MIN_CELL else math.inf


def _cells(points: np.ndarray, lo: np.ndarray, h: float, dims: np.ndarray):
    """Cell coordinates of points, unrounded and as clipped integers."""
    t = (points - lo) / h
    return t, np.clip(np.floor(t), 0, dims - 1).astype(np.int64)


def _cell_ids(points: np.ndarray, lo: np.ndarray, h: float, dims: np.ndarray, shift: int):
    """The cell of each point scaled by 2**shift, hashed _GRID_CHUNK points at a time."""
    ids = np.empty(len(points), dtype=np.int64)
    for c0 in range(0, len(points), _GRID_CHUNK):
        x, y, z = _cells(np.ldexp(points[c0:c0 + _GRID_CHUNK], shift), lo, h, dims)[1].T
        ids[c0:c0 + len(x)] = (x * int(dims[1]) + y) * int(dims[2]) + z
    return ids


def _brute_nearest(ref: np.ndarray, qry: np.ndarray, shift: int, rows: np.ndarray,
                   d2: np.ndarray, idx: np.ndarray):
    """Writes the nearest squared distance and index of qry[rows] into d2 and idx, in blocks."""
    q_block = max(1, min(len(rows), 256))
    r_block = max(1, _GRID_PAIRS // q_block)
    for q0 in range(0, len(rows), q_block):
        sel = rows[q0:q0 + q_block]
        q = np.ldexp(qry[sel], shift)[:, :, None]
        best, arg = np.full(len(sel), np.inf), np.zeros(len(sel), dtype=np.int64)
        for r0 in range(0, len(ref), r_block):
            r = np.ldexp(ref[r0:r0 + r_block], shift).T
            block = r[0] - q[:, 0]
            block *= block
            for axis in (1, 2):
                d = r[axis] - q[:, axis]
                d *= d
                block += d
            j = block.argmin(axis=1)
            nearest = block[np.arange(len(j)), j]
            closer = nearest < best        # strict: the lower index wins a tie
            best[closer] = nearest[closer]
            arg[closer] = j[closer] + r0
        d2[sel], idx[sel] = best, arg


def _scan_runs(ref_xyz: list, perm: np.ndarray, q: np.ndarray, first: np.ndarray,
               count: np.ndarray, per_query: np.ndarray):
    """Each query's nearest squared distance over its runs of sorted ref points.

    q holds the queries' x, y and z rows; row i of first and count gives
    the start and length of query i's runs, per_query their sum.  Returns
    the distances (inf for no candidate) and each query's lowest tied index.
    """
    runs = count.ravel()
    pos = np.repeat(first.ravel() - (np.cumsum(runs) - runs), runs)
    pos += np.arange(len(pos))
    pair_d2 = ref_xyz[0][pos]
    pair_d2 -= np.repeat(q[0], per_query)
    pair_d2 *= pair_d2
    for axis in (1, 2):
        d = ref_xyz[axis][pos]
        d -= np.repeat(q[axis], per_query)
        d *= d
        pair_d2 += d
    ends = np.cumsum(per_query)
    some = per_query > 0
    best = np.full(len(per_query), np.inf)
    best[some] = np.minimum.reduceat(pair_d2, (ends - per_query)[some])
    hits = np.flatnonzero(pair_d2 == np.repeat(best, per_query))
    arg = np.full(len(per_query), len(perm))
    np.minimum.at(arg, np.searchsorted(ends, hits, "right"), perm[pos[hits]])
    return best, arg


def _grid_pass(ref: np.ndarray, qry: np.ndarray, todo, shift: int, lo: np.ndarray,
               span: np.ndarray, h: float, d2: np.ndarray, idx: np.ndarray):
    """One search of qry[todo] on a grid of cells of edge h, clouds scaled by 2**shift.

    Writes each query's best match over the 3x3x3 cells around its own
    into d2 and idx.  Returns the queries whose match is not settled
    (strictly closer than any point outside those cells could be), and
    those whose scan would pass _GRID_PAIRS distances and was skipped.
    """
    dims = np.floor(span / h) + 1
    nx, ny, nz = (int(d) for d in dims)
    count_type = np.int32 if max(len(ref), len(qry)) < 2**31 else np.int64  # holds any index
    ref_ids = _cell_ids(ref, lo, h, dims, shift)
    perm = np.argsort(ref_ids)
    ref_xyz = [np.ldexp(ref[perm, axis], shift) for axis in range(3)]
    starts = np.zeros(nx * ny * nz + 1, dtype=count_type)
    np.add.at(starts[1:], ref_ids, count_type(1))
    np.cumsum(starts, out=starts)
    del ref_ids
    order = np.argsort(_cell_ids(qry[todo], lo, h, dims, shift)).astype(count_type)
    order = todo[order] if isinstance(todo, np.ndarray) else order
    unsettled, over = [], []
    for c0 in range(0, len(order), _GRID_CHUNK):
        sel = order[c0:c0 + _GRID_CHUNK]
        block = np.ldexp(qry[sel], shift, order="F")    # columns: fast reductions over axes
        t, cell = _cells(block, lo, h, dims)
        # The 9 runs: columns (x + i, y + j), z-cells z - 1 .. z + 1.
        cx = cell[:, :1] + _COLUMNS[:, 0]
        cy = cell[:, 1:2] + _COLUMNS[:, 1]
        inside = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
        base = (np.clip(cx, 0, nx - 1) * ny + np.clip(cy, 0, ny - 1)) * nz
        first = starts[base + np.maximum(cell[:, 2:] - 1, 0)]
        count = np.where(inside, starts[base + np.minimum(cell[:, 2:] + 1, nz - 1) + 1] - first, 0)
        del cx, cy, inside, base
        # No point outside the runs is closer than the gap to the block's
        # faces, in cells; the slack covers the rounding of t and of distances.
        low = np.where(cell >= 2, t - (cell - 1), np.inf)
        high = np.where(cell + 2 <= dims - 1, (cell + 2) - t, np.inf)
        gap = np.minimum(low, high) * (1 - _GRID_SLACK) - _GRID_SLACK * (2 * dims + 2)
        bound = h * gap.min(axis=1) * (1 - _GRID_SLACK)
        del t, cell, low, high, gap    # before the scans, which hold the most
        per_query = count.sum(axis=1)
        big = per_query > _GRID_PAIRS
        count[big] = per_query[big] = 0
        ends = np.cumsum(per_query)
        i = 0
        while i < len(sel):  # sub-chunks of at most _GRID_PAIRS distances
            j = int(np.searchsorted(ends, (ends[i - 1] if i else 0) + _GRID_PAIRS, "right"))
            d2[sel[i:j]], idx[sel[i:j]] = _scan_runs(ref_xyz, perm, block[i:j].T, first[i:j],
                                                     count[i:j], per_query[i:j])
            i = j
        # With one cell every scan was exhaustive.
        unsettled.append(sel[~((np.sqrt(d2[sel]) < bound) | (nx * ny * nz == 1) | big)])
        over.append(sel[big])
    return np.concatenate(unsettled), np.concatenate(over)


def _nearest(ref: np.ndarray, qry: np.ndarray, shift: int = 0):
    """Squared distance to and index of each query's nearest ref point, exactly.

    Squares are summed x, then y, then z, as cKDTree sums them, so the
    square roots have its bits; a tie goes to the lowest index.  ref is
    hashed into a grid; each query scans the 3x3x3 cells around its own
    as 9 runs of z-cells and keeps its best match if that is strictly
    closer than any point outside them could be.  The other queries
    search again on grids of coarser cells, and those whose scan would
    pass _GRID_PAIRS distances are brute-forced.  Both clouds are measured
    scaled by 2**shift, a chunk at a time, small enough that no squared
    distance overflows.
    """
    lo = np.ldexp(ref.min(axis=0), shift)
    span = np.ldexp(ref.max(axis=0), shift) - lo
    h = _cell_size(ref, lo, span, shift)
    d2 = np.empty(len(qry))
    idx = np.empty(len(qry), dtype=np.int64)
    todo, brute = slice(None), []     # slice(None): every query, with no index array
    while isinstance(todo, slice) or len(todo):
        todo, over = _grid_pass(ref, qry, todo, shift, lo, span, h, d2, idx)
        brute.append(over)
        h *= _GRID_COARSEN
    _brute_nearest(ref, qry, shift, np.concatenate(brute), d2, idx)
    return d2, idx


def chamfer(a: PointCloud, b: PointCloud) -> ChamferResult:
    """Symmetric nearest-neighbour distance between two clouds.

    accuracy is the mean distance from each point of `a` to its nearest
    neighbour in `b`, completeness the reverse, and chamfer their
    average.  Euclidean (not squared) distances throughout.  When both
    clouds carry normals, normal_consistency is the symmetric mean
    |n_i . n_match| over the same nearest-neighbour matches (1.0 means
    parallel normals, whatever their orientation); otherwise it is None.
    A match tied in distance goes to the lowest index.  Clouds of any
    size are measured scaled by one power of two, exactly, so the
    distances scale with the clouds bit for bit and are finite unless
    they exceed the largest float.
    """
    shift = _shift(a.points, b.points)
    means, dots = [], []
    for qry, ref in ((a, b), (b, a)):
        d2, idx = _nearest(ref.points, qry.points, shift)
        means.append(float(np.mean(np.sqrt(d2))) * math.ldexp(1.0, -shift))
        if a.normals is not None and b.normals is not None:
            dots.append(float(np.mean(np.abs(np.sum(qry.normals * ref.normals[idx], axis=1)))))
        del d2, idx    # before the other direction's search
    acc, comp = means
    return ChamferResult(acc, comp, 0.5 * (acc + comp), 0.5 * sum(dots) if dots else None)


def normal_consistency(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean |n_i . n_match| over nearest-neighbour matches.

    Both clouds must carry normals; the value is chamfer(a, b)'s
    normal_consistency.
    """
    if a.normals is None or b.normals is None:
        raise ValueError("normal consistency needs normals on both clouds")
    return chamfer(a, b).normal_consistency
