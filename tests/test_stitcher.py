"""Tests for trajectory chunking and re-stitching."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

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


def _matrices(traj):
    """(N, 4, 4) pose matrices of traj from quat_to_rotmat: the matrix-path oracle."""
    out = np.tile(np.eye(4), (len(traj), 1, 1))
    out[:, :3, :3] = quat_to_rotmat(traj.quats)
    out[:, :3, 3] = traj.translations
    return out


def test_split_chunks_start_at_identity_and_share_boundaries():
    traj = _rand_traj(300)
    chunks = split_trajectory(traj, 100)
    assert len(chunks) == 3
    for chunk in chunks:
        # conj(q_a) q_a: an exactly zero vector part, and w = |q_a|^2
        q, t = chunk.trajectory.quats[0], chunk.trajectory.translations[0]
        assert q[1:].tolist() == [0.0, 0.0, 0.0] and t.tolist() == [0.0, 0.0, 0.0]
        assert abs(q[0] - 1.0) <= 4 * 2.0**-52
    # consecutive chunks share one frame: timestamps overlap by one
    assert chunks[0].trajectory.timestamps[-1] == chunks[1].trajectory.timestamps[0]


def test_split_matches_the_per_pose_oracle():
    traj = _rand_traj(23, seed=14)
    mats = _matrices(traj)
    chunks = split_trajectory(traj, 5)
    assert len(chunks) == 5
    for k, chunk in enumerate(chunks):
        start = 5 * k
        np.testing.assert_array_equal(chunk.anchor.timestamps, traj.timestamps[start:start + 1])
        np.testing.assert_array_equal(chunk.anchor.quats, traj.quats[start:start + 1])
        np.testing.assert_array_equal(chunk.anchor.translations,
                                      traj.translations[start:start + 1])
        origin_inv = np.linalg.inv(mats[start])
        for j, local in enumerate(_matrices(chunk.trajectory)):
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
    mats = world @ _matrices(traj)
    moved = Trajectory(traj.timestamps,
                       Rotation.from_matrix(mats[:, :3, :3]).as_quat(scalar_first=True),
                       mats[:, :3, 3])
    for a, b in zip(split_trajectory(traj, 10), split_trajectory(moved, 10)):
        # Rotations, not quaternions: scipy may return -q for q.
        np.testing.assert_allclose(_matrices(a.trajectory), _matrices(b.trajectory),
                                   rtol=0, atol=1e-9)


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


def test_an_anchor_of_the_opposite_quaternion_sign_is_accepted():
    # q and -q are one rotation, so the overlap check compares rotation
    # matrices and a sign-flipped anchor stitches to the same poses.
    traj = _rand_traj(30, seed=7)
    chunks = split_trajectory(traj, 10)
    flipped = Trajectory(chunks[1].anchor.timestamps, -chunks[1].anchor.quats,
                         chunks[1].anchor.translations)
    chunks[1] = Chunk(chunks[1].trajectory, flipped, chunks[1].cloud)
    stitched, _ = stitch(chunks)
    np.testing.assert_array_equal(stitched.timestamps, traj.timestamps)
    np.testing.assert_allclose(stitched.quats[11:21], -traj.quats[11:21], rtol=0, atol=1e-12)
    np.testing.assert_allclose(_matrices(stitched), _matrices(traj), rtol=0, atol=1e-12)


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
        anchor = _matrices(chunk.anchor)[0]
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
    cloud = PointCloud(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^cloud has 2 points but 3 chunks need one each$"):
        split_trajectory(traj, 4, cloud)
    assert len(split_trajectory(traj, 5, cloud)) == 2


@pytest.mark.parametrize("period", [2.5, 2.0, None, "3", True])
def test_a_period_that_is_not_an_integer_is_one_value_error(period):
    message = f"period must be an integer, got {period!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split_trajectory(_rand_traj(10, seed=13), period)


def test_a_numpy_integer_period_splits_as_its_int():
    traj = _rand_traj(10, seed=13)
    for a, b in zip(split_trajectory(traj, np.int64(4)), split_trajectory(traj, 4)):
        assert a.trajectory.translations.tobytes() == b.trajectory.translations.tobytes()


def _cli_loop_chunks(traj, period, cloud):
    """Oracle: the cloud-free split, then each chunk's contiguous slice of
    the cloud moved into that chunk's local frame, one chunk at a time."""
    chunks = split_trajectory(traj, period)
    bounds = np.linspace(0, len(cloud), len(chunks) + 1).astype(int)
    localized = []
    for chunk, lo, hi in zip(chunks, bounds[:-1], bounds[1:]):
        anchor = _matrices(chunk.anchor)[0]
        rot_inv = anchor[:3, :3].T
        pts = (cloud.points[lo:hi] - anchor[:3, 3]) @ rot_inv.T
        nrm = None if cloud.normals is None else cloud.normals[lo:hi] @ rot_inv.T
        localized.append(Chunk(chunk.trajectory, chunk.anchor, PointCloud(pts, nrm)))
    return localized


def _rand_cloud(n, seed, normals):
    rng = np.random.default_rng(seed)
    nrm = None
    if normals:
        nrm = rng.standard_normal((n, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(5.0 * rng.standard_normal((n, 3)), nrm)


@pytest.mark.parametrize("normals", [False, True], ids=["points", "normals"])
@pytest.mark.parametrize("n, period, points", [(300, 100, 1000), (23, 5, 5), (17, 1, 40),
                                               (2, 7, 1), (41, 4, 97)])
def test_split_hands_each_chunk_the_cli_loops_cloud_bit_for_bit(n, period, points, normals):
    traj = _rand_traj(n, seed=n)
    cloud = _rand_cloud(points, seed=points, normals=normals)
    got = split_trajectory(traj, period, cloud)
    want = _cli_loop_chunks(traj, period, cloud)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.trajectory.timestamps, b.trajectory.timestamps)
        np.testing.assert_array_equal(a.trajectory.quats, b.trajectory.quats)
        np.testing.assert_array_equal(a.trajectory.translations, b.trajectory.translations)
        np.testing.assert_array_equal(a.anchor.quats, b.anchor.quats)
        np.testing.assert_array_equal(a.anchor.translations, b.anchor.translations)
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        if normals:
            np.testing.assert_array_equal(a.cloud.normals, b.cloud.normals)
        else:
            assert a.cloud.normals is None and b.cloud.normals is None


@pytest.mark.parametrize("normals", [False, True], ids=["points", "normals"])
def test_stitch_of_a_split_cloud_restores_the_cloud(normals):
    traj = _rand_traj(300, seed=16)
    cloud = _rand_cloud(1000, seed=17, normals=normals)
    stitched, merged = stitch(split_trajectory(traj, 7, cloud))
    assert ate(stitched, traj, associate(stitched, traj), align="none") <= 1e-12
    np.testing.assert_allclose(merged.points, cloud.points, rtol=0, atol=1e-12)
    if normals:
        np.testing.assert_allclose(merged.normals, cloud.normals, rtol=0, atol=1e-12)
    else:
        assert merged.normals is None


@pytest.mark.parametrize("magnitude", [1.0, 1e9, 1e12, 1e100])
def test_round_trip_holds_for_translations_of_any_size(magnitude):
    # The overlap check compares translations relative to their size, so
    # its rounding error does not grow past the tolerance with them.
    base = _rand_traj(300, seed=20)
    traj = Trajectory(base.timestamps, base.quats, magnitude * base.translations)
    stitched, _ = stitch(split_trajectory(traj, 10))
    np.testing.assert_array_equal(stitched.timestamps, traj.timestamps)
    err = np.max(np.abs(stitched.translations - traj.translations))
    assert err <= 1e-14 * np.max(np.abs(traj.translations))
    np.testing.assert_allclose(stitched.quats, traj.quats, rtol=0, atol=1e-12)


@pytest.mark.parametrize("magnitude", [1e9, 1e12])
def test_an_anchor_off_by_a_relative_1e5_is_rejected_at_any_size(magnitude):
    base = _rand_traj(30, seed=21)
    traj = Trajectory(base.timestamps, base.quats, magnitude * base.translations)
    chunks = split_trajectory(traj, 10)
    anchor = chunks[2].anchor
    off = 1e-5 * np.max(np.abs(anchor.translations))
    moved = Trajectory(anchor.timestamps, anchor.quats,
                       anchor.translations + np.array([off, 0.0, 0.0]))
    chunks[2] = Chunk(chunks[2].trajectory, moved)
    with pytest.raises(StitchError, match="^chunk 2: anchor disagrees with the previous "
                                          r"chunk's final pose by \S+ \(tolerance 1e-06\)$"):
        stitch(chunks)


def _vstack_oracle(chunks):
    """The merged points and normals (or None) as stitch once built them:
    each chunk's cloud moved, points @ rot.T + t_a, then all stacked."""
    points, normals = [], []
    for chunk in chunks:
        if chunk.cloud is not None:
            rot = quat_to_rotmat(chunk.anchor.quats[0])
            points.append(chunk.cloud.points @ rot.T + chunk.anchor.translations[0])
            normals.append(None if chunk.cloud.normals is None else chunk.cloud.normals @ rot.T)
    return np.vstack(points), None if any(n is None for n in normals) else np.vstack(normals)


def _bench_chunks():
    """The recon-eval stitch's size: 10k poses and 50k points with normals, at period 100."""
    rng = np.random.default_rng(22)
    quats = rng.standard_normal((10_000, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    traj = Trajectory(0.1 * np.arange(10_000), quats, rng.standard_normal((10_000, 3)))
    cloud = _rand_cloud(50_000, seed=23, normals=True)
    return split_trajectory(traj, 100, cloud), cloud.points.nbytes + cloud.normals.nbytes


def test_stitch_writes_each_chunk_into_its_slice_with_the_vstack_bits():
    bench, _ = _bench_chunks()
    # A chunk without a cloud adds no rows; one without normals drops them all.
    gaps = split_trajectory(_rand_traj(40, seed=24), 5, _rand_cloud(70, seed=25, normals=True))
    gaps[3] = Chunk(gaps[3].trajectory, gaps[3].anchor)
    no_normals = list(gaps)
    no_normals[5] = Chunk(gaps[5].trajectory, gaps[5].anchor, PointCloud(gaps[5].cloud.points))
    for chunks in (bench, gaps, no_normals):
        _, merged = stitch(chunks)
        points, normals = _vstack_oracle(chunks)
        assert merged.points.tobytes() == points.tobytes()
        if normals is None:
            assert merged.normals is None
        else:
            assert merged.normals.tobytes() == normals.tobytes()
    assert merged.normals is None


def test_stitch_at_bench_size_holds_the_merged_cloud_once():
    chunks, arrays = _bench_chunks()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stitch(chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Stacking the moved chunks, then copying the stack into PointCloud, held
    # 3.63x the cloud's arrays.  Written in place, the peak is the merged cloud
    # and the trajectory's columns, pieces and copies: 2.02x.
    assert peak - before < 2.25 * arrays
