"""Tests for trajectory chunking and re-stitching."""

import numpy as np
import pytest

from ttt_lab.geometry_metrics import (
    PointCloud,
    Trajectory,
    associate,
    ate,
    quat_to_rotmat,
)
from ttt_lab.stitcher import Chunk, StitchError, split_trajectory, stitch


def _rand_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def _rand_traj(n, seed=0):
    rng = np.random.default_rng(seed)
    draws = [(_rand_quat(rng), rng.standard_normal(3)) for _ in range(n)]
    return Trajectory(0.1 * np.arange(n), [q for q, _ in draws], [t for _, t in draws])


def test_split_chunks_start_at_identity_and_share_boundaries():
    traj = _rand_traj(300)
    chunks = split_trajectory(traj, 100)
    assert len(chunks) == 3
    for chunk in chunks:
        first = chunk.trajectory.matrices()[0]
        np.testing.assert_allclose(first, np.eye(4), rtol=0, atol=1e-12)
    # consecutive chunks share one frame: timestamps overlap by one
    assert chunks[0].trajectory.timestamps[-1] == chunks[1].trajectory.timestamps[0]


def test_split_matches_the_per_pose_oracle():
    traj = _rand_traj(23, seed=14)
    mats = []
    for q, t in zip(traj.quats, traj.translations):
        m = np.eye(4)
        m[:3, :3] = quat_to_rotmat(q)
        m[:3, 3] = t
        mats.append(m)
    chunks = split_trajectory(traj, 5)
    assert len(chunks) == 5
    for k, chunk in enumerate(chunks):
        start = 5 * k
        np.testing.assert_array_equal(chunk.anchor.timestamps, traj.timestamps[start:start + 1])
        np.testing.assert_allclose(chunk.anchor.quats, traj.quats[start:start + 1],
                                   rtol=0, atol=1e-15)
        origin_inv = np.linalg.inv(mats[start])
        for j, local in enumerate(chunk.trajectory.matrices()):
            np.testing.assert_allclose(local, origin_inv @ mats[start + j], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(chunk.trajectory.timestamps,
                                      traj.timestamps[start:start + len(chunk.trajectory)])
    assert [len(c.trajectory) for c in chunks] == [6, 6, 6, 6, 3]


def test_split_then_stitch_reproduces_the_trajectory():
    traj = _rand_traj(300)
    stitched, cloud = stitch(split_trajectory(traj, 100))
    assert cloud is None
    assert len(stitched) == len(traj)
    np.testing.assert_array_equal(stitched.timestamps, traj.timestamps)
    np.testing.assert_allclose(stitched.translations, traj.translations,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(stitched.quats, traj.quats, rtol=0, atol=1e-12)
    assert ate(stitched, traj, associate(stitched, traj), align="none") <= 1e-12


def test_round_trip_holds_for_awkward_period_remainders():
    traj = _rand_traj(17, seed=3)
    for period in (1, 2, 5, 16, 100):
        stitched, _ = stitch(split_trajectory(traj, period))
        assert len(stitched) == len(traj)
        assert ate(stitched, traj, associate(stitched, traj), align="none") <= 1e-12


def test_localized_chunks_ignore_the_global_frame():
    traj = _rand_traj(40, seed=4)
    rng = np.random.default_rng(5)
    world = np.eye(4)
    world[:3, :3] = quat_to_rotmat(_rand_quat(rng))
    world[:3, 3] = rng.standard_normal(3)
    moved = Trajectory.from_matrices(traj.timestamps, world @ traj.matrices())
    for a, b in zip(split_trajectory(traj, 10), split_trajectory(moved, 10)):
        np.testing.assert_allclose(a.trajectory.translations,
                                   b.trajectory.translations, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.trajectory.quats, b.trajectory.quats, rtol=0, atol=1e-9)


def test_single_chunk_round_trip():
    traj = _rand_traj(5, seed=6)
    chunks = split_trajectory(traj, 100)
    assert len(chunks) == 1
    stitched, _ = stitch(chunks)
    assert ate(stitched, traj, associate(stitched, traj), align="none") <= 1e-12


def test_inconsistent_anchor_is_rejected():
    traj = _rand_traj(30, seed=7)
    chunks = split_trajectory(traj, 10)
    bad_anchor = Trajectory(
        chunks[1].anchor.timestamps,
        chunks[1].anchor.quats,
        chunks[1].anchor.translations + np.array([0.01, 0.0, 0.0]),
    )
    chunks[1] = Chunk(chunks[1].trajectory, bad_anchor, chunks[1].cloud)
    with pytest.raises(StitchError):
        stitch(chunks)


def test_a_later_chunk_of_only_the_shared_frame_is_rejected():
    chunks = split_trajectory(_rand_traj(9, seed=7), 4)
    chunks[1] = Chunk(chunks[1].trajectory[:1], chunks[1].anchor)
    with pytest.raises(StitchError, match="^chunk 1 has no frames beyond the shared one$"):
        stitch(chunks)


def test_chunk_requires_identity_first_pose():
    traj = _rand_traj(3, seed=8)
    with pytest.raises(ValueError):
        Chunk(traj, traj[:1])
    local = split_trajectory(traj, 5)[0].trajectory
    with pytest.raises(ValueError):
        Chunk(local, traj[:2])  # an anchor is one pose


def test_stitch_carries_clouds_through_the_anchors():
    traj = _rand_traj(9, seed=9)
    rng = np.random.default_rng(10)
    chunks = split_trajectory(traj, 4)
    with_clouds = []
    expect_pts = []
    expect_nrm = []
    for chunk in chunks:
        pts = rng.standard_normal((6, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (6, 1))
        with_clouds.append(Chunk(chunk.trajectory, chunk.anchor, PointCloud(pts, nrm)))
        anchor = chunk.anchor.matrices()[0]
        expect_pts.append(pts @ anchor[:3, :3].T + anchor[:3, 3])
        expect_nrm.append(nrm @ anchor[:3, :3].T)
    stitched, merged = stitch(with_clouds)
    assert ate(stitched, traj, associate(stitched, traj), align="none") <= 1e-12
    np.testing.assert_allclose(merged.points, np.vstack(expect_pts), rtol=0, atol=1e-12)
    np.testing.assert_allclose(merged.normals, np.vstack(expect_nrm), rtol=0, atol=1e-12)


def test_cloud_normals_dropped_unless_every_chunk_has_them():
    traj = _rand_traj(9, seed=11)
    rng = np.random.default_rng(12)
    chunks = split_trajectory(traj, 4)
    a = Chunk(chunks[0].trajectory, chunks[0].anchor,
              PointCloud(rng.standard_normal((3, 3)), np.tile([0.0, 0.0, 1.0], (3, 1))))
    b = Chunk(chunks[1].trajectory, chunks[1].anchor,
              PointCloud(rng.standard_normal((3, 3))))
    _, merged = stitch([a, b])
    assert merged is not None
    assert len(merged) == 6
    assert merged.normals is None


def test_split_validation():
    traj = _rand_traj(10, seed=13)
    with pytest.raises(ValueError):
        split_trajectory(traj, 0)
    single = traj[:1]
    with pytest.raises(ValueError):
        split_trajectory(single, 5)
    with pytest.raises(ValueError):
        stitch([])
