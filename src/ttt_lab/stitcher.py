"""Composition of per-chunk trajectories and clouds into one global map.

Long sequences are processed in fixed-size chunks, each expressed in
its own local frame with the first pose at the identity.  A chunk's
anchor is the global pose of that first frame; stitching composes it
with every local pose (and cloud point) on the quaternion and
translation columns.  Consecutive chunks overlap by exactly one frame:
the last frame of chunk k is the first frame of chunk k+1, which pins
each anchor without any optimization.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry_metrics import PointCloud, Trajectory, quat_mul, quat_to_rotmat

__all__ = ["StitchError", "Chunk", "stitch", "split_trajectory"]

# A re-localized chunk must start exactly at its own origin.
_LOCAL_IDENTITY_TOL = 1e-9
# Globalized overlap frames are compared entrywise, rotations absolutely
# and translations relative to max(1, |t|); disagreement beyond this
# means the chunks do not share the frame they claim to share.
_OVERLAP_TOL = 1e-6


class StitchError(ValueError):
    """Chunks are inconsistent with the overlap-of-one convention."""


@dataclass(frozen=True)
class Chunk:
    """A local trajectory (first pose = identity) with its global anchor,
    the one-pose trajectory of that first frame."""

    trajectory: Trajectory
    anchor: Trajectory
    cloud: Optional[PointCloud] = None

    def __post_init__(self):
        if len(self.anchor) != 1:
            raise ValueError(f"chunk anchor must be a single pose, got {len(self.anchor)}")
        rot = quat_to_rotmat(self.trajectory.quats[0])
        if (np.max(np.abs(rot - np.eye(3))) > _LOCAL_IDENTITY_TOL
                or np.max(np.abs(self.trajectory.translations[0])) > _LOCAL_IDENTITY_TOL):
            raise ValueError(
                f"chunk's first pose must be the identity within {_LOCAL_IDENTITY_TOL}"
            )


def stitch(chunks: Sequence[Chunk]):
    """Compose chunks into one global trajectory and merged cloud.

    A local pose (q, t) of a chunk anchored at (q_a, t_a) goes to the
    world pose (q_a q, R_a t + t_a), and its cloud points p to
    R_a p + t_a.  Each chunk after the first must re-observe the
    previous chunk's final frame: its anchor has to coincide with that
    frame's globalized pose within 1e-6 (rotation matrix entries
    absolutely, as q and -q are one rotation; translation entries
    relative to max(1, |t|), with |t| that pose's largest translation
    entry), and the duplicated frame is dropped from the output.

    Returns (trajectory, cloud); the cloud is None when no chunk
    carries one.  The merged points, and normals when every cloud has
    them, are allocated once and each chunk's cloud is transformed into
    its slice, so the merged cloud is held once, beside the chunks'.
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("need at least one chunk")
    clouds = [chunk.cloud for chunk in chunks if chunk.cloud is not None]
    n = sum(map(len, clouds))
    points = np.empty((n, 3)) if clouds else None
    normals = None
    if clouds and all(cloud.normals is not None for cloud in clouds):
        normals = np.empty((n, 3))
    timestamps, quats, translations = [], [], []
    last_rot = last_t = None
    done = 0    # the merged rows written
    for k, chunk in enumerate(chunks):
        q_a, t_a = chunk.anchor.quats[0], chunk.anchor.translations[0]
        rot = quat_to_rotmat(q_a)
        skip = int(k > 0)
        if skip:
            scale = max(1.0, float(np.max(np.abs(last_t))))
            gap = float(max(np.max(np.abs(rot - last_rot)), np.max(np.abs(t_a - last_t)) / scale))
            if gap > _OVERLAP_TOL:
                raise StitchError(
                    f"chunk {k}: anchor disagrees with the previous chunk's final pose "
                    f"by {gap:.3e} (tolerance {_OVERLAP_TOL})"
                )
            if len(chunk.trajectory) == 1:
                raise StitchError(f"chunk {k} has no frames beyond the shared one")
        q = quat_mul(q_a, chunk.trajectory.quats)
        t = chunk.trajectory.translations @ rot.T + t_a
        last_rot, last_t = quat_to_rotmat(q[-1]), t[-1]
        timestamps.append(chunk.trajectory.timestamps[skip:])
        quats.append(q[skip:])
        translations.append(t[skip:])
        if chunk.cloud is not None:
            rows = slice(done, done + len(chunk.cloud))
            np.matmul(chunk.cloud.points, rot.T, out=points[rows])
            points[rows] += t_a
            if normals is not None:
                np.matmul(chunk.cloud.normals, rot.T, out=normals[rows])
            done = rows.stop
    merged = None
    if clouds:
        for array in (points, normals) if normals is not None else (points,):
            array.setflags(write=False)    # so PointCloud keeps it without a copy
        merged = PointCloud(points, normals)
    columns = (np.concatenate(c) for c in (timestamps, quats, translations))
    return Trajectory(*columns), merged


def split_trajectory(traj: Trajectory, period: int, cloud: Optional[PointCloud] = None):
    """Cut a global trajectory, and optionally a global cloud, into overlapping local chunks.

    Chunk k covers global frames [k*period, min((k+1)*period, N-1)]
    inclusive, so consecutive chunks share exactly one frame.  Each
    chunk's poses (q, t) are re-expressed relative to its first pose
    (q_a, t_a), the anchor, as (conj(q_a) q, R_a^T (t - t_a)).  A cloud,
    when given, is cut into len(chunks) contiguous slices of at least
    one point each, and chunk k carries the k-th in its local frame.
    stitch() inverts this exactly (up to rounding).
    """
    if isinstance(period, bool) or not isinstance(period, numbers.Integral):
        raise ValueError(f"period must be an integer, got {period!r}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n = len(traj)
    if n < 2:
        raise ValueError("need at least 2 poses to split")
    starts = range(0, n - 1, period)
    if cloud is not None:
        if len(cloud) < len(starts):
            raise ValueError(
                f"cloud has {len(cloud)} points but {len(starts)} chunks need one each")
        bounds = np.linspace(0, len(cloud), len(starts) + 1).astype(int)
    q, t = traj.quats, traj.translations
    chunks = []
    for k, start in enumerate(starts):
        end = min(start + period, n - 1) + 1
        rot = quat_to_rotmat(q[start])
        inverse = q[start] * [1.0, -1.0, -1.0, -1.0]  # the conjugate
        local = Trajectory(traj.timestamps[start:end], quat_mul(inverse, q[start:end]),
                           (t[start:end] - t[start]) @ rot)
        piece = None
        if cloud is not None:
            lo, hi = bounds[k], bounds[k + 1]
            nrm = None if cloud.normals is None else cloud.normals[lo:hi] @ rot
            piece = PointCloud((cloud.points[lo:hi] - t[start]) @ rot, nrm)
        chunks.append(Chunk(local, traj[start:start + 1], piece))
    return chunks
