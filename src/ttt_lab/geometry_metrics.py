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

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "Trajectory",
    "Sim3Transform",
    "PointCloud",
    "ChamferResult",
    "quat_to_rotmat",
    "rotmat_to_quat",
    "se3_inverse",
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


def quat_to_rotmat(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4) in (w, x, y, z) order."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (4,):
        raise ValueError(f"quaternion must have 4 components, got shape {q.shape}")
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


def rotmat_to_quat(r) -> np.ndarray:
    """Unit quaternions (..., 4), (w, x, y, z) with w >= 0, of rotation matrices (..., 3, 3).

    Each matrix branches on its largest diagonal combination so the
    divisor stays well away from zero for every rotation, including
    180-degree ones.  Branch 0 (positive trace) solves for w first,
    branch k = 1, 2, 3 for the k-th vector component; the other three
    components are row k of `num` divided by s.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got shape {r.shape}")
    m = r.reshape(-1, 3, 3)
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    t = d0 + d1 + d2
    branch = np.where(t > 0, 0, np.where((d0 >= d1) & (d0 >= d2), 1, np.where(d1 >= d2, 2, 3)))
    rows = np.arange(len(m))
    s_sq = np.stack([t + 1.0, 1.0 + d0 - d1 - d2, 1.0 + d1 - d0 - d2, 1.0 + d2 - d0 - d1], axis=1)
    s = np.sqrt(s_sq[rows, branch]) * 2.0
    num = np.empty((len(m), 4, 4))
    num[:, 1:, 1:] = m + m.transpose(0, 2, 1)
    num[:, 0, 1:] = num[:, 1:, 0] = np.stack(
        [m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]], axis=1)
    q = num[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    # Canonical sign: w > 0, or w == 0 and the first non-zero component > 0.
    vec = q[:, 1:]
    first = vec[rows, np.argmax(vec != 0, axis=1)]
    q[(q[:, 0] < 0) | ((q[:, 0] == 0) & (first < 0))] *= -1.0
    return q.reshape(r.shape[:-2] + (4,))


def se3_inverse(t_mat) -> np.ndarray:
    """Closed-form inverses of rigid transforms (..., 4, 4)."""
    t_mat = np.asarray(t_mat, dtype=np.float64)
    r_t = np.swapaxes(t_mat[..., :3, :3], -1, -2)
    out = np.zeros(t_mat.shape)
    out[..., :3, :3] = r_t
    out[..., :3, 3] = -(r_t @ t_mat[..., :3, 3, None])[..., 0]
    out[..., 3, 3] = 1.0
    return out


@dataclass(frozen=True)
class Trajectory:
    """N >= 1 timestamped rigid poses as columns: world point = R_i p + t_i.

    timestamps is (N,) and strictly increasing, quats (N, 4) unit
    (w, x, y, z) rotations, translations (N, 3); all finite.  Quaternions
    must be unit within 1e-9 and are normalized.  The arrays are
    read-only copies.
    """

    timestamps: np.ndarray
    quats: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype=np.float64)
        q = np.array(self.quats, dtype=np.float64)
        t = np.array(self.translations, dtype=np.float64)
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
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(q)) and np.all(np.isfinite(t))):
            raise ValueError("trajectory contains non-finite entries")
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
        q /= norms[:, None]
        for name, arr in (("timestamps", ts), ("quats", q), ("translations", t)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def __getitem__(self, index: slice) -> "Trajectory":
        """The poses in a slice, as a trajectory."""
        return Trajectory(self.timestamps[index], self.quats[index], self.translations[index])

    def matrices(self) -> np.ndarray:
        """(N, 4, 4) homogeneous pose matrices."""
        out = np.zeros((len(self), 4, 4))
        out[:, :3, :3] = quat_to_rotmat(self.quats)
        out[:, :3, 3] = self.translations
        out[:, 3, 3] = 1.0
        return out

    @classmethod
    def from_matrices(cls, timestamps, mats) -> "Trajectory":
        """The trajectory of (N, 4, 4) rigid pose matrices at N timestamps."""
        mats = np.asarray(mats, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1:] != (4, 4):
            raise ValueError(f"pose matrices must be (N, 4, 4), got shape {mats.shape}")
        return cls(timestamps, rotmat_to_quat(mats[:, :3, :3]), mats[:, :3, 3])


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform p -> scale * R p + t."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9 or np.linalg.det(r) < 0:
            raise ValueError("rotation must be orthonormal with determinant +1")
        r = r.copy()
        r.setflags(write=False)
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return self.scale * points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class PointCloud:
    """N >= 1 points, optionally with unit normals."""

    points: np.ndarray
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must be a non-empty Nx3 array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=np.float64)
            if nrm.shape != pts.shape:
                raise ValueError(
                    f"normals shape {nrm.shape} does not match points shape {pts.shape}"
                )
            if not np.all(np.isfinite(nrm)):
                raise ValueError("normals contain non-finite entries")
            lengths = np.linalg.norm(nrm, axis=1)
            if np.any(np.abs(lengths - 1.0) > 1e-6):
                raise ValueError("normals must be unit-norm within 1e-6")
            nrm = nrm.copy()
            nrm.setflags(write=False)
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]


class ChamferResult(NamedTuple):
    accuracy: float
    completeness: float
    chamfer: float
    normal_consistency: Optional[float] = None


def associate(est: Trajectory, gt: Trajectory, max_dt: float = 0.02):
    """Match poses by nearest timestamp within max_dt, each used once.

    Candidate pairs are taken in order of increasing |dt| (ties broken
    by index), and a pose already matched is skipped.  Returns index
    pairs (i_est, j_gt) sorted by estimated-pose index.  The candidates
    are built and sorted as arrays; only the greedy skip walks them in
    Python, once each.
    """
    if not (max_dt > 0):
        raise ValueError(f"max_dt must be positive, got {max_dt}")
    est_ts = est.timestamps
    gt_ts = gt.timestamps
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
    if with_scale:
        var_src = float(np.sum(x * x)) / n
        scale = float(np.trace(np.diag(d) @ s_mat)) / var_src
        if not (scale > 0):
            raise DegenerateGeometryError(f"recovered scale {scale} is not positive")
    else:
        scale = 1.0
    t = mu_d - scale * rot @ mu_s
    return Sim3Transform(scale, rot, t)


def ate(est: Trajectory, gt: Trajectory, align: str = "sim3", max_dt: float = 0.02) -> float:
    """Absolute trajectory error: translational RMSE after alignment.

    align selects similarity ("sim3"), rigid ("se3", scale pinned to 1)
    or no alignment ("none").
    """
    if align not in ("sim3", "se3", "none"):
        raise ValueError(f"align must be 'sim3', 'se3' or 'none', got {align!r}")
    pairs = associate(est, gt, max_dt)
    if not pairs:
        raise ValueError("no matched pose pairs within the association window")
    p = est.translations[[i for i, _ in pairs]]
    g = gt.translations[[j for _, j in pairs]]
    if align != "none":
        if len(pairs) < 3:
            raise ValueError(
                f"alignment needs at least 3 matched pairs, got {len(pairs)}"
            )
        p = umeyama_sim3(p, g, with_scale=(align == "sim3")).apply(p)
    return float(np.sqrt(np.mean(np.sum((p - g) ** 2, axis=1))))


def rpe(est: Trajectory, gt: Trajectory, delta: int = 1, max_dt: float = 0.02):
    """Relative pose error over matched pairs delta steps apart.

    For each matched index i the residual motion is
    E = (gt_i^-1 gt_{i+delta})^-1 (est_i^-1 est_{i+delta}); returns the
    RMSE of the translation norms and of the rotation angles in
    degrees.  The angle is atan2(|vee(R - R^T)| / 2, (tr R - 1) / 2),
    which stays accurate near zero, where acos of the trace would not.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    pairs = associate(est, gt, max_dt)
    if len(pairs) < delta + 1:
        raise ValueError(
            f"need at least delta+1 = {delta + 1} matched pairs, got {len(pairs)}"
        )
    est_mats = est.matrices()[[i for i, _ in pairs]]
    gt_mats = gt.matrices()[[j for _, j in pairs]]
    est_rel = se3_inverse(est_mats[:-delta]) @ est_mats[delta:]
    gt_rel = se3_inverse(gt_mats[:-delta]) @ gt_mats[delta:]
    err = se3_inverse(gt_rel) @ est_rel
    rot = err[:, :3, :3]
    vee = np.stack([rot[:, 2, 1] - rot[:, 1, 2], rot[:, 0, 2] - rot[:, 2, 0],
                    rot[:, 1, 0] - rot[:, 0, 1]], axis=1)
    cos_angle = (np.trace(rot, axis1=1, axis2=2) - 1.0) / 2.0
    angle = np.degrees(np.arctan2(np.linalg.norm(vee, axis=1) / 2.0, cos_angle))
    trans_sq = np.sum(err[:, :3, 3] ** 2, axis=1)
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(angle * angle)))


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


def _valid_mask(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    return np.isfinite(pred) & (pred > 0) & np.isfinite(gt) & (gt > 0)


def depth_metrics(pred, gt, mode: str = "metric", scale: Optional[float] = None):
    """Mean absolute relative error and the delta < 1.25 inlier fraction.

    mode "metric" compares raw values; mode "per_sequence_scale"
    multiplies the prediction by `scale`, or by median(gt)/median(pred)
    over this map's valid pixels when no scale is given.  pred and gt
    are H x W arrays of one shape; pixels are valid where both maps are
    finite and positive.
    """
    if mode not in ("metric", "per_sequence_scale"):
        raise ValueError(f"mode must be 'metric' or 'per_sequence_scale', got {mode!r}")
    pred, gt = _depth_maps(pred, gt)
    mask = _valid_mask(pred, gt)
    if not np.any(mask):
        raise ValueError("no valid pixels shared by prediction and reference")
    p = pred[mask]
    g = gt[mask]
    if mode == "metric":
        if scale is not None:
            raise ValueError("scale only applies in per_sequence_scale mode")
        s = 1.0
    else:
        if scale is None:
            s = float(np.median(g) / np.median(p))
        else:
            s = float(scale)
        if not (s > 0) or not math.isfinite(s):
            raise ValueError(f"scale must be positive and finite, got {s}")
    p = p * s
    abs_rel = float(np.mean(np.abs(p - g) / g))
    ratio = np.maximum(p / g, g / p)
    delta_125 = float(np.mean(ratio < 1.25))
    return abs_rel, delta_125


def sequence_depth_scale(preds: Sequence, gts: Sequence) -> float:
    """One shared scale for a sequence: median(gt) / median(pred).

    Medians are taken over the valid pixels pooled across all frames,
    so a single scale serves every map of the sequence.  Each prediction
    has the shape of its reference.
    """
    if len(preds) != len(gts) or not preds:
        raise ValueError(
            f"need matching non-empty map lists, got {len(preds)} and {len(gts)}"
        )
    p_all = []
    g_all = []
    for pred, gt in zip(preds, gts):
        pred, gt = _depth_maps(pred, gt)
        mask = _valid_mask(pred, gt)
        p_all.append(pred[mask])
        g_all.append(gt[mask])
    p_all = np.concatenate(p_all)
    g_all = np.concatenate(g_all)
    if p_all.size == 0:
        raise ValueError("no valid pixels in the whole sequence")
    return float(np.median(g_all) / np.median(p_all))


def chamfer(a: PointCloud, b: PointCloud) -> ChamferResult:
    """Symmetric nearest-neighbour distance between two clouds.

    accuracy is the mean distance from each point of `a` to its nearest
    neighbour in `b`, completeness the reverse, and chamfer their
    average.  Euclidean (not squared) distances throughout.  When both
    clouds carry normals, normal_consistency is the symmetric mean
    |n_i . n_match| over the same nearest-neighbour matches (1.0 means
    parallel normals, whatever their orientation); otherwise it is None.
    """
    # Imported here, not at module level: scipy.spatial (with the
    # scipy.special it loads) takes about 0.4 s to import, which every
    # CLI command would otherwise pay.
    from scipy.spatial import cKDTree
    d_ab, idx_ab = cKDTree(b.points).query(a.points)
    d_ba, idx_ba = cKDTree(a.points).query(b.points)
    acc = float(np.mean(d_ab))
    comp = float(np.mean(d_ba))
    consistency = None
    if a.normals is not None and b.normals is not None:
        ab = float(np.mean(np.abs(np.sum(a.normals * b.normals[idx_ab], axis=1))))
        ba = float(np.mean(np.abs(np.sum(b.normals * a.normals[idx_ba], axis=1))))
        consistency = 0.5 * (ab + ba)
    return ChamferResult(acc, comp, 0.5 * (acc + comp), consistency)


def normal_consistency(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean |n_i . n_match| over nearest-neighbour matches.

    Both clouds must carry normals; the value is chamfer(a, b)'s
    normal_consistency.
    """
    if a.normals is None or b.normals is None:
        raise ValueError("normal consistency needs normals on both clouds")
    return chamfer(a, b).normal_consistency
