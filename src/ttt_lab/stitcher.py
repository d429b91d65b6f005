"""Composition of per-chunk trajectories and clouds into one global map.

Long sequences are processed in fixed-size chunks, each expressed in
its own local frame with the first pose at the identity.  A chunk's
anchor is the global pose of that first frame; stitching left-multiplies
every local pose (and cloud point) by the anchor.  Consecutive chunks
overlap by exactly one frame: the last frame of chunk k is the first
frame of chunk k+1, which pins each anchor without any optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry_metrics import PointCloud, Trajectory, quat_to_rotmat, se3_inverse

__all__ = ["StitchError", "Chunk", "stitch", "split_trajectory"]

# A re-localized chunk must start exactly at its own origin.
_LOCAL_IDENTITY_TOL = 1e-9
# Globalized overlap frames are compared entrywise on rotation and
# translation; disagreement beyond this means the chunks do not share
# the frame they claim to share.
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


def stitch(chunks: Sequence[Chunk], require_overlap: bool = True):
    """Compose chunks into one global trajectory and merged cloud.

    With require_overlap (the default) each chunk after the first must
    re-observe the previous chunk's final frame: its anchor has to
    coincide with that frame's globalized pose within 1e-6, and the
    duplicated frame is dropped from the output.  With
    require_overlap=False the anchors are taken as authoritative and
    nothing is checked or dropped.

    Returns (trajectory, cloud); the cloud is None when no chunk
    carries one.
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("need at least one chunk")
    timestamps, mats, points, normals = [], [], [], []
    prev_last = None
    for k, chunk in enumerate(chunks):
        anchor = chunk.anchor.matrices()[0]
        skip = int(require_overlap and k > 0)
        if skip:
            gap = float(np.max(np.abs(anchor[:3] - prev_last[:3])))
            if gap > _OVERLAP_TOL:
                raise StitchError(
                    f"chunk {k}: anchor disagrees with the previous chunk's final pose "
                    f"by {gap:.3e} (tolerance {_OVERLAP_TOL})"
                )
            if len(chunk.trajectory) == 1:
                raise StitchError(f"chunk {k} has no frames beyond the shared one")
        world = anchor @ chunk.trajectory.matrices()
        prev_last = world[-1]
        timestamps.append(chunk.trajectory.timestamps[skip:])
        mats.append(world[skip:])
        if chunk.cloud is not None:
            r = anchor[:3, :3]
            points.append(chunk.cloud.points @ r.T + anchor[:3, 3])
            normals.append(None if chunk.cloud.normals is None else chunk.cloud.normals @ r.T)
    merged = None
    if points:
        nrm = None if any(n is None for n in normals) else np.vstack(normals)
        merged = PointCloud(np.vstack(points), nrm)
    return Trajectory.from_matrices(np.concatenate(timestamps), np.concatenate(mats)), merged


def split_trajectory(traj: Trajectory, period: int):
    """Cut a global trajectory into overlapping local chunks.

    Chunk k covers global frames [k*period, min((k+1)*period, N-1)]
    inclusive, so consecutive chunks share exactly one frame.  Each
    chunk is re-expressed relative to its first pose, which becomes the
    anchor.  stitch() inverts this exactly (up to rounding).
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n = len(traj)
    if n < 2:
        raise ValueError("need at least 2 poses to split")
    mats = traj.matrices()
    chunks = []
    for start in range(0, n - 1, period):
        end = min(start + period, n - 1) + 1
        local = se3_inverse(mats[start]) @ mats[start:end]
        chunks.append(Chunk(Trajectory.from_matrices(traj.timestamps[start:end], local),
                            traj[start:start + 1]))
    return chunks
