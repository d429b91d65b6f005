"""Tests for pose/trajectory/depth/cloud metrics.

Rotation conversions are cross-checked against scipy's Rotation class,
the alignment solver against synthetically transformed point sets, RPE
against a hand-derived closed form, and chamfer against an O(N^2)
brute-force oracle.  The grid nearest-neighbour search is checked bit
for bit against a brute-force oracle and against scipy's cKDTree, which
serves only as a test oracle.  Association and normal consistency are
checked against the per-candidate loop and the two-tree computation
they replaced.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from ttt_lab import geometry_metrics
from ttt_lab.geometry_metrics import (
    ChamferResult,
    DegenerateGeometryError,
    PointCloud,
    Sim3Transform,
    Trajectory,
    associate,
    ate,
    chamfer,
    depth_metrics,
    normal_consistency,
    quat_mul,
    quat_to_rotmat,
    rpe,
    sequence_depth_scale,
    umeyama_sim3,
)
from ttt_lab.io_formats import write_pfm


def _rand_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def _traj(translations, quats=None, t0=0.0, dt=0.1):
    n = len(translations)
    if quats is None:
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(t0 + dt * np.arange(n), quats, translations)


def _matrices(traj):
    """(N, 4, 4) pose matrices of traj from quat_to_rotmat: the matrix-path oracle."""
    out = np.tile(np.eye(4), (len(traj), 1, 1))
    out[:, :3, :3] = quat_to_rotmat(traj.quats)
    out[:, :3, 3] = traj.translations
    return out


def _from_matrices(timestamps, mats):
    """The trajectory of (N, 4, 4) pose matrices, rotations converted by scipy."""
    quats = Rotation.from_matrix(mats[:, :3, :3]).as_quat(scalar_first=True)
    return Trajectory(timestamps, quats, mats[:, :3, 3])


def _stamps(*timestamps):
    """Identity poses at the origin, one per timestamp."""
    n = len(timestamps)
    return Trajectory(timestamps, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros((n, 3)))


# ---------------------------------------------------------------------------
# rotation conversions


def test_quat_to_rotmat_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = _rand_quat(rng)
        ours = quat_to_rotmat(q)
        theirs = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def test_quarter_turn_about_z():
    q = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(quat_to_rotmat(q), expect, rtol=0, atol=1e-15)


def test_batched_quat_to_rotmat_matches_single_calls():
    rng = np.random.default_rng(14)
    quats = np.array([_rand_quat(rng) for _ in range(8)])
    rots = quat_to_rotmat(quats)
    for q, r in zip(quats, rots):
        np.testing.assert_array_equal(r, quat_to_rotmat(q))


def test_quat_mul_matches_the_matrix_product():
    # Over 1M random pairs the largest entry error was 7 * 2**-52, most
    # of it the rounding of the three quat_to_rotmat calls.
    rng = np.random.default_rng(15)
    a = np.array([_rand_quat(rng) for _ in range(200)])
    b = np.array([_rand_quat(rng) for _ in range(200)])
    got = quat_mul(a, b)
    assert got.shape == (200, 4)
    want = quat_to_rotmat(a) @ quat_to_rotmat(b)
    np.testing.assert_allclose(quat_to_rotmat(got), want, rtol=0, atol=8 * 2.0**-52)
    for i in (0, 7, 199):
        np.testing.assert_array_equal(quat_mul(a[i], b), [quat_mul(a[i], q) for q in b])
        np.testing.assert_array_equal(quat_mul(a, b[i]), [quat_mul(q, b[i]) for q in a])
    np.testing.assert_array_equal(quat_mul([1.0, 0.0, 0.0, 0.0], b), b)


def test_quat_mul_of_a_conjugate_has_an_exactly_zero_vector_part():
    rng = np.random.default_rng(16)
    q = rng.standard_normal((1000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    conj = q * [1.0, -1.0, -1.0, -1.0]
    for p in (quat_mul(conj, q), quat_mul(q, conj)):
        assert np.all(p[:, 1:] == 0.0)
        assert np.max(np.abs(p[:, 0] - 1.0)) <= 4 * 2.0**-52


@pytest.mark.parametrize("q", [[np.inf, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0],
                               [[1.0, 0.0, 0.0, 0.0], [0.0, -np.inf, 0.0, 0.0]]])
def test_non_finite_quaternions_raise_without_a_numpy_warning(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (quat_to_rotmat, lambda q: quat_mul(q, [1.0, 0.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="^quaternion contains non-finite entries$"):
                call(q)


# The first product overflows; the second's w is inf - inf.
@pytest.mark.parametrize("a, b", [([1e200, 0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0]),
                                  ([1e200, 1e200, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0],
                                                              [1e200, 1e200, 0.0, 0.0]])])
def test_a_quaternion_product_past_the_float_range_raises_without_a_numpy_warning(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^quaternion product overflows$"):
            quat_mul(a, b)


# ---------------------------------------------------------------------------
# pose containers


def test_trajectory_requires_increasing_timestamps():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Trajectory([1.0, 1.0], [q, q], [np.zeros(3), np.ones(3)])
    with pytest.raises(ValueError):
        Trajectory([], np.zeros((0, 4)), np.zeros((0, 3)))


@pytest.mark.parametrize("timestamps, quats, translations", [
    ([0.0, 1.0], [[1.0, 0, 0, 0]], np.zeros((2, 3))),               # too few quats
    ([0.0, 1.0], np.tile([1.0, 0, 0, 0], (2, 1)), np.zeros((2, 4))),  # 4-vector translations
    ([[0.0, 1.0]], np.tile([1.0, 0, 0, 0], (2, 1)), np.zeros((2, 3))),  # 2-D timestamps
    ([0.0, math.nan], np.tile([1.0, 0, 0, 0], (2, 1)), np.zeros((2, 3))),
    ([0.0, 1.0], [[1.0, 0, 0, 0], [math.inf, 0, 0, 0]], np.zeros((2, 3))),
    ([0.0, 1.0], np.tile([1.0, 0, 0, 0], (2, 1)), [[0, 0, 0], [0, math.nan, 0]]),
    ([0.0, 1.0], [[1.0, 0, 0, 0], [1.0 + 2e-9, 0, 0, 0]], np.zeros((2, 3))),
    ([0.0], [[1.0, 1.0, 0, 0]], np.zeros((1, 3))),
])
def test_trajectory_rejects_bad_columns(timestamps, quats, translations):
    with pytest.raises(ValueError):
        Trajectory(timestamps, quats, translations)


def test_trajectory_normalizes_and_freezes_its_columns():
    q = np.array([[1.0 + 5e-10, 0.0, 0.0, 0.0]])
    traj = Trajectory([0.0], q, [[1.0, 2.0, 3.0]])
    assert traj.quats[0, 0] == 1.0
    assert q[0, 0] == 1.0 + 5e-10  # the caller's array is copied, not changed
    for column in (traj.timestamps, traj.quats, traj.translations):
        with pytest.raises(ValueError):
            column[0] = 0.0


def test_trajectory_renormalizes_only_past_four_ulps_off_unit():
    # A quaternion within 4 * 2**-52 of unit norm keeps its bits; one
    # further off is divided by its norm, which here gives exactly 1.0.
    kept = Trajectory([0.0], [[1.0 + 2.0**-50, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    assert kept.quats[0, 0] == 1.0 + 2.0**-50
    moved = Trajectory([0.0], [[1.0 + 2.0**-49, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    assert moved.quats.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_trajectory_slices_and_rebuilds_keep_every_bit():
    # Normalized once, these quaternions are within 4 * 2**-52 of unit,
    # so a rebuild or a slice leaves them as they are; dividing by the
    # norm again moved 37 of them by an ulp.
    rng = np.random.default_rng(12)
    q = rng.standard_normal((1000, 4))
    traj = Trajectory(np.arange(1000.0), q / np.linalg.norm(q, axis=1, keepdims=True),
                      rng.standard_normal((1000, 3)))
    again = Trajectory(traj.timestamps, traj.quats, traj.translations)
    assert again.quats.tobytes() == traj.quats.tobytes()
    for lo, hi in ((1, 3), (100, 900), (0, 1000)):
        part = traj[lo:hi]
        np.testing.assert_array_equal(part.timestamps, np.arange(float(lo), hi))
        assert part.quats.tobytes() == traj.quats[lo:hi].tobytes()
        assert part.translations.tobytes() == traj.translations[lo:hi].tobytes()


def test_sim3_validation_and_apply():
    with pytest.raises(ValueError):
        Sim3Transform(0.0, np.eye(3), np.zeros(3))
    mirror = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Sim3Transform(1.0, mirror, np.zeros(3))
    rng = np.random.default_rng(4)
    rot = quat_to_rotmat(_rand_quat(rng))
    t = Sim3Transform(2.0, rot, np.array([1.0, 2.0, 3.0]))
    pts = rng.standard_normal((5, 3))
    np.testing.assert_allclose(
        t.apply(pts), 2.0 * pts @ rot.T + np.array([1.0, 2.0, 3.0]), rtol=0, atol=1e-14
    )


# ---------------------------------------------------------------------------
# association


def test_associate_matches_nearest_within_window():
    est = _traj([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    gt = _stamps(0.005, 0.115, 0.5)
    pairs = associate(est, gt, max_dt=0.02)
    assert pairs == [(0, 0), (1, 1)]


def test_associate_uses_each_pose_once():
    est = _stamps(0.0, 0.011)
    gt = _stamps(0.005)
    pairs = associate(est, gt, max_dt=0.02)
    # the 0.005 reference pose pairs with its nearest estimate only
    assert pairs == [(0, 0)]


def test_associate_empty_when_disjoint():
    est = _traj([[0, 0, 0], [1, 0, 0]])
    gt = _traj([[0, 0, 0], [1, 0, 0]], t0=100.0)
    assert associate(est, gt) == []


def _associate_loop(est, gt, max_dt):
    """The greedy match as a per-pose loop over sorted (dt, i, j) tuples."""
    cands = []
    for i, t in enumerate(est.timestamps):
        lo = int(np.searchsorted(gt.timestamps, t - max_dt, side="left"))
        hi = int(np.searchsorted(gt.timestamps, t + max_dt, side="right"))
        for j in range(lo, hi):
            dt = abs(t - gt.timestamps[j])
            if dt <= max_dt:
                cands.append((dt, i, j))
    cands.sort()
    used_i, used_j, pairs = set(), set(), []
    for _, i, j in cands:
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            pairs.append((i, j))
    return sorted(pairs)


# Timestamps on a 1/64 grid, where differences are exact: ties in |dt|,
# poses with several candidates and |dt| == max_dt all come up; an inf
# max_dt makes every pair a candidate.
_TICK = 1.0 / 64
_grid_stamps = st.lists(st.integers(0, 40), min_size=1, max_size=25, unique=True).map(
    lambda ticks: _stamps(*(_TICK * np.sort(ticks))))


@settings(max_examples=300)
@given(_grid_stamps, _grid_stamps,
       st.sampled_from([0.001, _TICK, 2 * _TICK, 3 * _TICK, 0.2, np.inf]))
def test_associate_matches_the_greedy_loop(est, gt, max_dt):
    pairs = associate(est, gt, max_dt)
    assert pairs == _associate_loop(est, gt, max_dt)
    assert all(type(k) is int for pair in pairs for k in pair)


def test_associate_takes_a_window_past_the_largest_float_without_a_warning():
    # 1.7e308 + 1e308 overflows to inf, which still bounds the window rightly.
    est = _stamps(*(1.7e308 - 1e293 * np.arange(5)[::-1]))
    gt = _stamps(*(-1.7e308 + 1e293 * np.arange(3)), *est.timestamps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = associate(est, gt, max_dt=1e308)
    assert pairs == [(i, i + 3) for i in range(5)]


# ---------------------------------------------------------------------------
# similarity alignment


def test_umeyama_recovers_random_similarity():
    rng = np.random.default_rng(5)
    src = rng.standard_normal((50, 3))
    rot = quat_to_rotmat(_rand_quat(rng))
    scale = 2.7
    t = np.array([0.5, -1.0, 2.0])
    dst = scale * src @ rot.T + t
    got = umeyama_sim3(src, dst, with_scale=True)
    assert got.scale == pytest.approx(scale, abs=1e-10)
    np.testing.assert_allclose(got.rotation, rot, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.translation, t, rtol=0, atol=1e-10)


def test_umeyama_rigid_mode_pins_scale_to_one():
    rng = np.random.default_rng(6)
    src = rng.standard_normal((30, 3))
    rot = quat_to_rotmat(_rand_quat(rng))
    dst = src @ rot.T + 1.5
    got = umeyama_sim3(src, dst, with_scale=False)
    assert got.scale == 1.0
    np.testing.assert_allclose(got.rotation, rot, rtol=0, atol=1e-10)


def test_umeyama_returns_proper_rotation_on_reflected_data():
    rng = np.random.default_rng(7)
    src = rng.standard_normal((40, 3))
    dst = src @ np.diag([1.0, 1.0, -1.0])
    got = umeyama_sim3(src, dst)
    assert np.linalg.det(got.rotation) == pytest.approx(1.0, abs=1e-9)


def test_umeyama_of_coordinates_too_large_to_square():
    # Unscaled, the covariance of points times 2^600 overflowed ("SVD did
    # not converge"), and the variance of src times 2^-600 underflowed to
    # 0.  src and dst are each aligned scaled by a power of two, so the
    # rotation keeps its bits, the scale is 2^(k_dst - k_src) times the
    # base scale and the translation 2^k_dst times the base translation.
    rng = np.random.default_rng(8)
    src = rng.standard_normal((20, 3))
    dst = 1.3 * src @ quat_to_rotmat(_rand_quat(rng)).T + np.array([0.5, -2.0, 1.0])
    base = umeyama_sim3(src, dst)
    for k_src, k_dst in ((600, 600), (-600, 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = umeyama_sim3(np.ldexp(src, k_src), np.ldexp(dst, k_dst))
        assert got.scale == math.ldexp(base.scale, k_dst - k_src)
        assert got.rotation.tobytes() == base.rotation.tobytes()
        assert got.translation.tobytes() == np.ldexp(base.translation, k_dst).tobytes()


def test_umeyama_rejects_degenerate_geometry():
    line = np.outer(np.linspace(0.0, 1.0, 10), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateGeometryError):
        umeyama_sim3(line, line)
    same = np.ones((5, 3))
    with pytest.raises(DegenerateGeometryError):
        umeyama_sim3(same, same)
    with pytest.raises(ValueError):
        umeyama_sim3(np.ones((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# trajectory metrics


def test_ate_unaligned_is_rmse_of_shift():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((20, 3))
    gt = _traj(pts)
    est = _traj(pts + np.array([1.0, 0.0, 0.0]))
    pairs = associate(est, gt)
    assert ate(est, gt, pairs, align="none") == pytest.approx(1.0, abs=1e-12)
    assert ate(est, gt, pairs, align="se3") <= 1e-12


def test_ate_sim3_absorbs_global_scale():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((20, 3))
    gt = _traj(pts)
    est = _traj(2.0 * pts)
    pairs = associate(est, gt)
    assert ate(est, gt, pairs, align="sim3") <= 1e-12
    assert ate(est, gt, pairs, align="se3") > 0.1


def test_ate_requires_three_matches_for_alignment():
    gt = _traj([[0, 0, 0], [1, 0, 0]])
    est = _traj([[0, 0, 0], [1, 0, 0]])
    pairs = associate(est, gt)
    with pytest.raises(ValueError):
        ate(est, gt, pairs, align="sim3")
    with pytest.raises(ValueError):
        ate(est, gt, pairs, align="bogus")


def test_ate_fails_without_associations():
    gt = _traj([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    est = _traj([[0, 0, 0], [1, 0, 0], [2, 0, 0]], t0=50.0)
    with pytest.raises(ValueError):
        ate(est, gt, associate(est, gt))


def test_rpe_matches_closed_form_for_single_displaced_pose():
    n = 11
    pts = [[float(i), 0.0, 0.0] for i in range(n)]
    gt = _traj(pts)
    bumped = [list(p) for p in pts]
    bumped[5][1] += 5.0
    est = _traj(bumped)
    trans, rot = rpe(est, gt, associate(est, gt), delta=1)
    # two relative steps feel the bump: into pose 5 and out of it
    expect = 5.0 * math.sqrt(2.0 / (n - 1))
    assert trans == pytest.approx(expect, abs=1e-12)
    assert rot == pytest.approx(0.0, abs=1e-9)


def test_rpe_zero_for_identical_trajectories():
    # Many seeds: an angle of acos((tr R - 1) / 2) reads a trace one ulp
    # below 3 as ~1e-6 degrees, which happened at delta 1 for 78 of these
    # 200.  conj(q) q has an exactly zero vector part, so the angle is 0.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        quats = [_rand_quat(rng) for _ in range(12)]
        pts = rng.standard_normal((12, 3))
        traj = _traj(pts, quats)
        for delta in (1, 3):
            assert rpe(traj, traj, associate(traj, traj), delta=delta) == (0.0, 0.0)


def _wobbled(traj, rng):
    """traj with each pose composed with a small random rigid error on the right."""
    wobble = np.tile(np.eye(4), (len(traj), 1, 1))
    for w in wobble:
        w[:3, :3] = Rotation.from_rotvec(0.02 * rng.standard_normal(3)).as_matrix()
        w[:3, 3] = 0.01 * rng.standard_normal(3)
    return _from_matrices(traj.timestamps, _matrices(traj) @ wobble)


def _rpe_per_pair(est, gt, delta):
    """The per-pair 4x4 loop: the oracle for the batched rpe (matched index i = i)."""
    def matrix(q, t):
        out = np.eye(4)
        out[:3, :3] = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        out[:3, 3] = t
        return out

    def inverse(m):
        out = np.eye(4)
        out[:3, :3] = m[:3, :3].T
        out[:3, 3] = -m[:3, :3].T @ m[:3, 3]
        return out

    est_mats = [matrix(q, t) for q, t in zip(est.quats, est.translations)]
    gt_mats = [matrix(q, t) for q, t in zip(gt.quats, gt.translations)]
    trans_sq, rot_sq = [], []
    for i in range(len(est_mats) - delta):
        gt_rel = inverse(gt_mats[i]) @ gt_mats[i + delta]
        est_rel = inverse(est_mats[i]) @ est_mats[i + delta]
        err = inverse(gt_rel) @ est_rel
        trans_sq.append(float(np.sum(err[:3, 3] ** 2)))
        cos_angle = (np.trace(err[:3, :3]) - 1.0) / 2.0
        angle = math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))
        rot_sq.append(angle * angle)
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(rot_sq)))


@pytest.mark.parametrize("seed", range(5))
def test_batched_rpe_matches_the_per_pair_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = 60
    gt = _traj(rng.standard_normal((n, 3)), [_rand_quat(rng) for _ in range(n)])
    est = _wobbled(gt, rng)
    for delta in (1, 2, 7):
        got = rpe(est, gt, associate(est, gt), delta=delta)
        want = _rpe_per_pair(est, gt, delta)
        assert want[1] > 0.5  # degrees: acos is well conditioned here
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12


def test_rpe_is_invariant_to_a_global_rigid_move():
    rng = np.random.default_rng(11)
    quats = [_rand_quat(rng) for _ in range(10)]
    pts = rng.standard_normal((10, 3))
    gt = _traj(pts, quats)
    # estimate = reference composed with a small per-pose pose error, so
    # both RPE components sit well away from the arccos singularity
    est = _wobbled(gt, rng)

    world = np.eye(4)
    world[:3, :3] = quat_to_rotmat(_rand_quat(rng))
    world[:3, 3] = rng.standard_normal(3)

    def moved(traj):
        return _from_matrices(traj.timestamps, world @ _matrices(traj))

    base = rpe(est, gt, associate(est, gt), delta=2)
    assert base[1] > 0.5  # degrees; comfortably off the singularity
    est, gt = moved(est), moved(gt)
    shifted = rpe(est, gt, associate(est, gt), delta=2)
    assert shifted[0] == pytest.approx(base[0], rel=1e-9)
    assert shifted[1] == pytest.approx(base[1], rel=1e-9)


def test_rpe_validates_delta():
    traj = _traj([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    pairs = associate(traj, traj)
    with pytest.raises(ValueError):
        rpe(traj, traj, pairs, delta=0)
    with pytest.raises(ValueError):
        rpe(traj, traj, pairs, delta=5)


@pytest.mark.parametrize("pairs, message", [
    ([(-1, 0), (1, 1), (2, 2)], "pair 0 indexes pose -1 of est, which has 4 poses"),
    ([(0, 0), (1, 1), (4, 2)], "pair 2 indexes pose 4 of est, which has 4 poses"),
    ([(0, 0), (1, -3), (2, 2)], "pair 1 indexes pose -3 of gt, which has 4 poses"),
    ([(0, 0), (1, 1), (2, 2**40)], f"pair 2 indexes pose {2**40} of gt, which has 4 poses"),
    ([(0.0, 0), (1, 1), (2, 2)], "pairs must be"),
    ([(0, 0), (1, 1), (2, 2**70)], "pairs must be"),
    ([(0, 0, 0), (1, 1, 1), (2, 2, 2)], "pairs must be"),
])
def test_ate_and_rpe_reject_pairs_that_do_not_index_both_trajectories(pairs, message):
    t = _traj([[0, 0, 0], [1, 0, 0], [2, 1, 0], [12, 9, 1]])
    for call in (lambda: ate(t, t, pairs, align="none"), lambda: ate(t, t, pairs),
                 lambda: rpe(t, t, pairs)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    # A negative index would wrap around to the last pose, 15.59 away.
    with pytest.raises(ValueError, match="pair 0 indexes pose -1 of est"):
        ate(t, t, [(-1, 0)], align="none")


def test_ate_and_rpe_take_pairs_as_an_integer_array():
    rng = np.random.default_rng(3)
    est = _traj(rng.standard_normal((12, 3)), [_rand_quat(rng) for _ in range(12)])
    gt = _traj(rng.standard_normal((12, 3)), [_rand_quat(rng) for _ in range(12)])
    pairs = associate(est, gt)
    for array in (np.array(pairs), np.array(pairs, dtype=np.uint32)):
        assert ate(est, gt, array) == ate(est, gt, pairs)
        assert rpe(est, gt, array, delta=2) == rpe(est, gt, pairs, delta=2)


@pytest.mark.parametrize("k", [-1000, -600, -300, 0, 300, 600, 1000])
def test_ate_and_rpe_scale_with_translations_too_large_to_square(k):
    # Equivariance oracle: scaling every translation by 2**k scales ATE and
    # the RPE translation by 2**k and leaves the RPE angle as it is, bit
    # for bit.  From about 2**500 the squares overflow, and from about
    # 2**-500 they underflow, unless the metric rescales.
    rng = np.random.default_rng(24)
    gt = _traj(rng.standard_normal((40, 3)), [_rand_quat(rng) for _ in range(40)])
    est = _wobbled(gt, rng)

    def big(traj):
        return Trajectory(traj.timestamps, traj.quats, np.ldexp(traj.translations, k))

    pairs = associate(est, gt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for align in ("sim3", "se3", "none"):
            got = ate(big(est), big(gt), pairs, align=align)
            assert got == math.ldexp(ate(est, gt, pairs, align=align), k), align
        got = rpe(big(est), big(gt), pairs, delta=2)
        base = rpe(est, gt, pairs, delta=2)
    assert got == (math.ldexp(base[0], k), base[1])


def test_ate_and_rpe_of_64_pairs_at_the_worst_case_size():
    # Every coordinate is +-1e300 and every pair is as far apart as its
    # coordinates allow; the RPE error translation is four long.
    s = 1e300
    est = _traj(s * np.outer((-1.0) ** np.arange(64), np.ones(3)))
    gt = _traj(-est.translations)
    pairs = associate(est, gt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_ate = ate(est, gt, pairs, align="none")
        got_rpe = rpe(est, gt, pairs)
    assert got_ate == pytest.approx(2 * math.sqrt(3) * s, rel=1e-15)
    assert got_rpe[0] == pytest.approx(4 * math.sqrt(3) * s, rel=1e-15)
    assert got_rpe[1] == 0.0


# ---------------------------------------------------------------------------
# depth metrics


def test_depth_metric_mode_on_doubled_prediction():
    rng = np.random.default_rng(12)
    gt = rng.uniform(1.0, 5.0, (6, 8))
    abs_rel, d125 = depth_metrics(2.0 * gt, gt)
    assert abs_rel == pytest.approx(1.0, abs=1e-15)
    assert d125 == 0.0


def test_depth_seq_scale_mode_on_doubled_prediction():
    rng = np.random.default_rng(13)
    gt = rng.uniform(1.0, 5.0, (6, 8))
    abs_rel, d125 = depth_metrics(2.0 * gt, gt, sequence_depth_scale([2.0 * gt], [gt]))
    assert abs_rel <= 1e-12
    assert d125 == 1.0


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_depth_metrics_rejects_a_scale_that_is_not_positive_and_finite(scale):
    gt = np.ones((2, 2))
    with pytest.raises(ValueError, match=f"^scale must be positive and finite, got {scale}$"):
        depth_metrics(gt, gt, scale)


@pytest.mark.parametrize("scale", [None, "2.0", True, np.array(2.0)])
def test_depth_metrics_rejects_a_scale_that_is_not_a_real_number(scale):
    gt = np.ones((2, 2))
    message = f"scale must be positive and finite, got {scale!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        depth_metrics(gt, gt, scale)
    assert depth_metrics(2.0 * gt, gt, np.float32(0.5)) == (0.0, 1.0)


def _depth_mask(pred, gt):
    return np.isfinite(pred) & (pred > 0) & np.isfinite(gt) & (gt > 0)


def _per_map_scale_metrics(pred, gt):
    """Metrics at one map's own scale, median(gt) / median(pred) over its
    valid pixels, as np.median gives it."""
    mask = _depth_mask(pred, gt)
    p, g = pred[mask], gt[mask]
    p = p * float(np.median(g) / np.median(p))
    return float(np.mean(np.abs(p - g) / g)), float(np.mean(np.maximum(p / g, g / p) < 1.25))


def test_one_map_sequence_scale_gives_the_per_map_median_ratio_bit_for_bit():
    rng = np.random.default_rng(15)
    specials = [0.0, -1.0, np.nan, np.inf, -np.inf]
    for case in range(300):
        shape = tuple(int(v) for v in rng.integers(1, 12, 2))
        pred, gt = rng.lognormal(0.0, 1.0, (2,) + shape)
        if case % 2:   # float32-exact pixels, as PFM files hold
            pred, gt = (m.astype(np.float32).astype(np.float64) for m in (pred, gt))
        for m in (pred, gt):
            hit = rng.random(shape) < 0.2
            m[hit] = rng.choice(specials, size=int(hit.sum()))
        if not np.any(_depth_mask(pred, gt)):
            continue
        got = depth_metrics(pred, gt, sequence_depth_scale([pred], [gt]))
        assert got == _per_map_scale_metrics(pred, gt), case


def test_depth_invalid_pixels_are_excluded():
    gt = np.array([[1.0, 2.0], [0.0, np.nan]])
    pred = np.array([[2.0, 4.0], [100.0, 100.0]])
    abs_rel, d125 = depth_metrics(pred, gt)
    # only the first row is valid; both pixels are off by a factor 2
    assert abs_rel == pytest.approx(1.0, abs=1e-15)
    assert d125 == 0.0


def test_depth_no_valid_pixels_raises():
    gt = np.array([[0.0, -1.0]])
    pred = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError):
        depth_metrics(pred, gt)


def test_sequence_scale_pools_pixels_before_the_median():
    gt1 = np.array([[1.0, 2.0, 3.0]])
    gt2 = np.array([[10.0, 20.0, 30.0]])
    scale = sequence_depth_scale([2.0 * gt1, 2.0 * gt2], [gt1, gt2])
    assert scale == pytest.approx(0.5, abs=1e-15)


@st.composite
def _depth_sequence(draw):
    """(preds, gts): maps of one shape, some holding only float32 values, some not,
    with zero, negative, NaN and infinite pixels mixed in."""
    seed = draw(st.integers(0, 2**32 - 1))
    frames = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -1.0, np.nan, np.inf, -np.inf])
    maps = []
    for _ in range(2 * frames):
        m = rng.lognormal(0.0, 2.0, shape)
        if rng.random() < 0.5:
            m = m.astype(np.float32).astype(np.float64)
        hit = rng.random(shape) < rng.choice([0.0, 0.3, 1.0])
        m[hit] = rng.choice(specials, size=int(hit.sum()))
        maps.append(m)
    return maps[:frames], maps[frames:]


class _Reread:
    """Re-iterable maps that give fresh copies one at a time, as the CLI's PFM
    readers do; passes counts the iterations begun."""

    def __init__(self, maps):
        self.maps, self.passes = maps, 0

    def __iter__(self):
        self.passes += 1
        return (m.copy() for m in self.maps)


@settings(max_examples=300)
@given(_depth_sequence())
def test_sequence_scale_rereads_its_inputs_with_the_float64_pool_bits(maps):
    preds, gts = maps
    masks = [np.isfinite(p) & (p > 0) & np.isfinite(g) & (g > 0) for p, g in zip(preds, gts)]
    if not any(m.any() for m in masks):
        with pytest.raises(ValueError, match="no valid pixels in the whole sequence"):
            sequence_depth_scale(_Reread(preds), _Reread(gts))
        return
    pooled_p = np.concatenate([p[m] for p, m in zip(preds, masks)])
    pooled_g = np.concatenate([g[m] for g, m in zip(gts, masks)])
    expected = float(np.median(pooled_g) / np.median(pooled_p))
    reread = _Reread(preds), _Reread(gts)
    got = sequence_depth_scale(*reread)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert [maps.passes for maps in reread] == [2, 2]
    assert sequence_depth_scale(preds, gts) == got


def _median_values(rng, n, values):
    """n positive values of one kind, for the pooled-median oracle."""
    if values == "spread":
        return rng.lognormal(0.0, 3.0, n)
    if values == "duplicates":
        return rng.choice([0.5, 1.0, 1.0 + 2**-20, 3.0], n)
    if values == "constant":                       # every value in one bin
        return np.full(n, 1.7)
    if values == "two bins":                       # an even count splits its middle pair
        jitter = rng.integers(0, 4, n) * 2.0**-20  # keeps each half in its 16-bit bin
        return rng.permutation(np.where(np.arange(n) < n // 2, 1.0, 3.0) + jitter)
    if values == "beyond float32":                 # float64 values in the inf bin
        return rng.choice([3e38, 1e39, 2e39, 1e300, np.finfo(np.float64).max], n)
    return rng.choice([1e-40, 1e-46, 2e-46, 1e-300, 5e-324], n)   # below float32: bin 0


def _median_of(parts) -> float:
    """The pooled median of the parts, as sequence_depth_scale takes it: the
    parts are reference maps (an empty part an invalid pixel) over
    predictions of 1.0, so the scale is that median divided by 1.0."""
    gts = [part.reshape(1, -1) if part.size else np.zeros((1, 1)) for part in parts]
    return sequence_depth_scale([np.ones(g.shape) for g in gts], gts)


@pytest.mark.parametrize("sizes", [[1], [2], [7], [8], [3, 0, 4], [1000, 1001], [0, 5],
                                   [0, 6, 0, 9]])
@pytest.mark.parametrize("kinds", ["float32", "float64", "mixed"])
@pytest.mark.parametrize("values", ["spread", "duplicates", "constant", "two bins",
                                    "beyond float32", "below float32"])
def test_sequence_scale_median_has_the_bits_of_the_float64_median(sizes, kinds, values):
    rng = np.random.default_rng(len(sizes) * 1000 + sum(sizes))
    pool = _median_values(rng, sum(sizes), values)
    parts = np.split(pool, np.cumsum(sizes)[:-1])
    single = np.finfo(np.float32)
    for k, part in enumerate(parts):
        if kinds == "float32" or (kinds == "mixed" and k % 2 == 0):
            # float32 parts take the nearest float32 extreme in place of what it cannot hold.
            parts[k] = np.clip(part, single.smallest_subnormal, single.max).astype(np.float32)
    expected = np.median(np.concatenate(parts, dtype=np.float64))
    assert np.float64(_median_of(parts)).tobytes() == expected.tobytes()


def test_sequence_scale_averages_the_middle_pair_in_float64():
    big = np.float32(np.finfo(np.float32).max)
    # In float32 the two largest values would sum to inf.
    assert _median_of([np.array([big, big], dtype=np.float32)]) == np.float64(big)
    # Odd pools return their middle element, not (x + x) / 2, which overflows here.
    top = np.finfo(np.float64).max
    assert _median_of([np.array([top, top, top])]) == top


def test_sequence_scale_holds_no_pixels_across_frames():
    frames, shape = 24, (160, 200)
    rng = np.random.default_rng(16)
    gts = [rng.uniform(1.0, 5.0, shape).astype(np.float32) for _ in range(frames)]
    preds = [(1.5 * g * rng.lognormal(0.0, 0.05, shape)).astype(np.float32) for g in gts]
    for g in gts:
        g[rng.random(shape) < 0.01] = 0.0
    # The float64 map pair being read, the pair before it and the valid
    # pixels of one, and four histograms' worth: the counts of both sides
    # and their running sums.  Keeping each frame's valid pixels, as float32,
    # would add 8 bytes per valid pixel: 6.1 MB here.
    pair = 2 * 8 * shape[0] * shape[1]
    bound = 3 * pair + 4 * 8 * geometry_metrics._NBINS
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sequence_depth_scale(preds, gts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= bound


def test_sequence_scale_counts_the_frames_of_iterables():
    a = np.ones((2, 3))
    for preds, gts, counts in [([a, a, a, a], [a, a], "4 and 2"), ([a], [a, a, a], "1 and 3"),
                               ([], [], "0 and 0")]:
        for p, g in [(preds, gts), (_Reread(preds), _Reread(gts))]:
            with pytest.raises(ValueError, match=f"need matching non-empty map lists, got {counts}"):
                sequence_depth_scale(p, g)
    with pytest.raises(ValueError, match="no valid pixels in the whole sequence"):
        sequence_depth_scale(_Reread([a, -a]), _Reread([-a, a]))


@pytest.mark.parametrize("one_shot", [iter, lambda maps: (m for m in maps)],
                         ids=["iterator", "generator"])
def test_sequence_scale_rejects_one_shot_iterables(one_shot):
    a = np.ones((2, 3))
    for preds, gts in [(one_shot([a]), [a]), ([a], one_shot([a]))]:
        with pytest.raises(ValueError, match="^sequence_depth_scale needs re-iterable inputs, "
                                             "such as lists, not a one-shot "):
            sequence_depth_scale(preds, gts)


@pytest.mark.parametrize("pred, gt, way", [(1e-300, 1e300, "overflows"),
                                            (1e300, 1e-300, "underflows")])
def test_a_sequence_scale_beyond_the_floats_is_one_value_error(pred, gt, way):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        message = f"the depth scale median(gt) / median(pred) = {gt!r} / {pred!r} {way}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sequence_depth_scale([np.full((2, 2), pred)], [np.full((2, 2), gt)])


def _depth_calls(bad, good):
    """Every depth-map entry point, given `bad` in one slot and `good` elsewhere."""
    return [lambda: depth_metrics(bad, good), lambda: depth_metrics(good, bad),
            lambda: depth_metrics(good, bad, 2.0),
            lambda: sequence_depth_scale([good, bad], [good, good]),
            lambda: sequence_depth_scale([good], [bad])]


@pytest.mark.parametrize("bad, message", [
    (np.ones(6), r"depth map must be a non-empty H x W array, got shape \(6,\)"),
    (np.ones((0, 3)), r"depth map must be a non-empty H x W array, got shape \(0, 3\)"),
    (np.ones((2, 0)), r"depth map must be a non-empty H x W array, got shape \(2, 0\)"),
    (np.ones((2, 3, 1)), r"depth map must be a non-empty H x W array, got shape \(2, 3, 1\)"),
])
def test_depth_maps_must_be_non_empty_2d_arrays(bad, message):
    calls = _depth_calls(bad, np.ones((2, 3))) + [lambda: write_pfm(bad)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                call()


def test_depth_map_shapes_must_match():
    good = np.ones((2, 3))
    for call in _depth_calls(np.ones((3, 2)), good):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"depth map sizes differ: (3x2 vs 2x3|2x3 vs 3x2)"):
                call()


def test_depth_functions_do_not_write_to_their_inputs():
    rng = np.random.default_rng(14)
    gt = rng.uniform(1.0, 5.0, (4, 5))
    gt[0, 0], gt[1, 1], gt[2, 2] = 0.0, np.nan, -np.inf
    pred = 1.5 * gt
    originals = gt.copy(), pred.copy()
    for arr in (gt, pred):
        arr.setflags(write=False)
    depth_metrics(pred, gt)
    depth_metrics(pred, gt, sequence_depth_scale([pred], [gt]))
    sequence_depth_scale([pred, pred], [gt, gt])
    write_pfm(pred)
    np.testing.assert_array_equal(gt, originals[0])
    np.testing.assert_array_equal(pred, originals[1])


# ---------------------------------------------------------------------------
# point-cloud metrics


def _brute_chamfer(a, b):
    d_ab = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    acc = float(d_ab.min(axis=1).mean())
    comp = float(d_ab.min(axis=0).mean())
    return acc, comp, 0.5 * (acc + comp)


def test_chamfer_equals_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = rng.standard_normal((100, 3))
        b = rng.standard_normal((80, 3))
        got = chamfer(PointCloud(a), PointCloud(b))
        acc, comp, total = _brute_chamfer(a, b)
        assert got.accuracy == pytest.approx(acc, abs=1e-12)
        assert got.completeness == pytest.approx(comp, abs=1e-12)
        assert got.chamfer == pytest.approx(total, abs=1e-12)


def test_chamfer_swaps_roles_under_argument_swap():
    rng = np.random.default_rng(15)
    a = PointCloud(rng.standard_normal((40, 3)))
    b = PointCloud(rng.standard_normal((60, 3)))
    fwd = chamfer(a, b)
    rev = chamfer(b, a)
    assert fwd.accuracy == rev.completeness
    assert fwd.completeness == rev.accuracy
    assert fwd.chamfer == rev.chamfer


def test_chamfer_single_point_example():
    a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    b = PointCloud(np.array([[3.0, 4.0, 0.0]]))
    assert chamfer(a, b) == ChamferResult(5.0, 5.0, 5.0)


def test_chamfer_identical_clouds_is_zero():
    rng = np.random.default_rng(16)
    pts = rng.standard_normal((30, 3))
    result = chamfer(PointCloud(pts), PointCloud(pts.copy()))
    assert result == ChamferResult(0.0, 0.0, 0.0)


def test_normal_consistency_conventions():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    z = np.tile([0.0, 0.0, 1.0], (2, 1))
    x = np.tile([1.0, 0.0, 0.0], (2, 1))
    same = normal_consistency(PointCloud(pts, z), PointCloud(pts, z))
    flipped = normal_consistency(PointCloud(pts, z), PointCloud(pts, -z))
    ortho = normal_consistency(PointCloud(pts, z), PointCloud(pts, x))
    assert same == pytest.approx(1.0, abs=1e-15)
    assert flipped == pytest.approx(1.0, abs=1e-15)  # orientation-free
    assert ortho == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite_normals(bad):
    normals = np.tile([0.0, 0.0, 1.0], (2, 1))
    normals[1, 0] = bad
    with pytest.raises(ValueError, match="^normals contains non-finite entries$"):
        PointCloud(np.zeros((2, 3)), normals)


def _unit_rows(rng, n):
    rows = rng.standard_normal((n, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_chamfer_normal_consistency_equals_the_two_tree_computation():
    rng = np.random.default_rng(17)
    for n_a, n_b in ((200, 150), (1, 40), (64, 64)):
        a = PointCloud(rng.standard_normal((n_a, 3)), _unit_rows(rng, n_a))
        b = PointCloud(rng.standard_normal((n_b, 3)), _unit_rows(rng, n_b))
        _, idx_ab = cKDTree(b.points).query(a.points)
        _, idx_ba = cKDTree(a.points).query(b.points)
        ab = float(np.mean(np.abs(np.sum(a.normals * b.normals[idx_ab], axis=1))))
        ba = float(np.mean(np.abs(np.sum(b.normals * a.normals[idx_ba], axis=1))))
        result = chamfer(a, b)
        assert result.normal_consistency == 0.5 * (ab + ba)
        assert normal_consistency(a, b) == result.normal_consistency
        assert result[:3] == chamfer(PointCloud(a.points), PointCloud(b.points))[:3]


def _oracle_nearest(ref, qry):
    """Brute force: squares summed x, then y, then z; the first minimum wins."""
    diff = ref[None, :, :] - qry[:, None, :]
    d2 = diff[..., 0] * diff[..., 0]
    d2 = d2 + diff[..., 1] * diff[..., 1]
    d2 = d2 + diff[..., 2] * diff[..., 2]
    idx = d2.argmin(axis=1)
    return d2[np.arange(len(qry)), idx], idx


_coord = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
_rows = st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=30).map(
    lambda rows: np.array(rows, dtype=np.float64))
_SHAPES = {
    "free": lambda p: p,
    "one point": lambda p: p[:1],
    "duplicates": lambda p: np.repeat(p[:1], len(p), axis=0),
    "collinear": lambda p: np.column_stack([p[:, 0], np.broadcast_to(p[0, 1:], (len(p), 2))]),
    "coplanar": lambda p: np.column_stack([p[:, :2], np.full(len(p), p[0, 2])]),
    # Two clusters 1e-8 wide, 100 apart: the cell cap binds.
    "far clusters": lambda p: 1e-9 * p + 100.0 * (np.arange(len(p)) % 2)[:, None],
}


@settings(max_examples=250)
@given(_rows, _rows, st.sampled_from(sorted(_SHAPES)), st.booleans(),
       st.sampled_from([1.0, 1e-150, 1e150]), st.booleans())
def test_grid_nearest_equals_the_brute_force_oracle(ref, qry, shape, far, scale, small_blocks):
    ref = _SHAPES[shape](ref)
    qry = np.vstack([qry + (1e3 if far else 0.0), ref])  # exact matches tie
    ref, qry = scale * ref, scale * qry
    # Small blocks push the search through its chunking and brute force.
    budget = (5, 7) if small_blocks else (geometry_metrics._GRID_CHUNK,
                                          geometry_metrics._GRID_PAIRS)
    with mock.patch.multiple(geometry_metrics, _GRID_CHUNK=budget[0], _GRID_PAIRS=budget[1]):
        d2, idx = geometry_metrics._nearest(ref, qry)
    want_d2, want_idx = _oracle_nearest(ref, qry)
    assert d2.tobytes() == want_d2.tobytes()
    np.testing.assert_array_equal(idx, want_idx)


def test_grid_nearest_has_the_bits_of_ckdtree_on_a_noisy_sphere():
    # Built like the recon-eval clouds: two samples of the unit sphere,
    # the second with radial noise.
    rng = np.random.default_rng(18)
    a = _unit_rows(rng, 20_000)
    b = _unit_rows(rng, 20_000) * (1.0 + 0.001 * rng.standard_normal((20_000, 1)))
    for ref, qry in ((a, b), (b, a)):
        d2, idx = geometry_metrics._nearest(ref, qry)
        want_d, want_idx = cKDTree(ref).query(qry)
        assert np.sqrt(d2).tobytes() == want_d.tobytes()
        np.testing.assert_array_equal(idx, want_idx)


def test_chamfer_scans_a_bounded_number_of_candidates_per_query(monkeypatch):
    # A deterministic work bound: on a 5,000-point unit sphere against a
    # noisy copy, the grid's scans and any brute force measure about 25
    # candidate distances per query.  Cells sized for count * n points
    # instead of count / n measure every pair, 5,000 per query.
    scanned = []
    scan_runs, brute_nearest = geometry_metrics._scan_runs, geometry_metrics._brute_nearest

    def counting_scan(ref_xyz, perm, q, first, count, per_query):
        scanned.append(int(per_query.sum()))
        return scan_runs(ref_xyz, perm, q, first, count, per_query)

    def counting_brute(ref, qry, shift, rows, d2, idx):
        scanned.append(len(rows) * len(ref))
        return brute_nearest(ref, qry, shift, rows, d2, idx)

    monkeypatch.setattr(geometry_metrics, "_scan_runs", counting_scan)
    monkeypatch.setattr(geometry_metrics, "_brute_nearest", counting_brute)
    rng = np.random.default_rng(22)
    a = _unit_rows(rng, 5000)
    b = a + 1e-3 * rng.standard_normal(a.shape)
    chamfer(PointCloud(a), PointCloud(b))
    assert sum(scanned) <= 64 * 2 * 5000


def test_chamfer_of_huge_clouds_is_the_scaled_chamfer():
    # Both clouds are measured scaled by one power of two, which is exact,
    # so every distance is the unscaled one times 2**k; unscaled, their
    # squares overflow at 2**600 and underflow to 0 at 2**-600.
    rng = np.random.default_rng(19)
    a = PointCloud(rng.standard_normal((50, 3)), _unit_rows(rng, 50))
    b = PointCloud(rng.standard_normal((70, 3)), _unit_rows(rng, 70))
    base = chamfer(a, b)
    for k in (600, -600):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chamfer(PointCloud(np.ldexp(a.points, k), a.normals),
                          PointCloud(np.ldexp(b.points, k), b.normals))
        assert got[:3] == tuple(math.ldexp(x, k) for x in base[:3])
        assert got.normal_consistency == base.normal_consistency


@pytest.mark.parametrize("k", [0, 10])
def test_chamfer_holds_no_whole_cloud_temporaries(k):
    # Two 50k-point clouds with normals, built like the recon-eval ones, at
    # unit scale (where the power-of-two factor is 1) and times 2**10.  The
    # search holds one cell index, the reference cloud sorted by cell, the
    # int32 query order, distances and indices, and one chunk's temporaries
    # with at most 2**15 candidate distances: 1.18x the clouds' bytes, down
    # from 1.46x at 2**16 distances with the chunk's cell coordinates held
    # through its scans.  Scaled copies of both clouds alone would add 0.5x;
    # with whole-cloud cell coordinates and a dense int64 cell count they
    # held 3.4x.
    rng = np.random.default_rng(21)
    n = 50_000
    unit_a = _unit_rows(rng, n)
    unit_b = _unit_rows(rng, n)
    a = PointCloud(np.ldexp(unit_a, k), unit_a)
    b = PointCloud(np.ldexp(unit_b * (1.0 + 0.001 * rng.standard_normal((n, 1))), k), unit_b)
    clouds = 2 * (a.points.nbytes + a.normals.nbytes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = chamfer(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1.3 * clouds
    assert 0.0 < result.accuracy < 0.01 * 2.0**k and result.normal_consistency > 0.99


def test_grid_nearest_of_two_tight_clusters_grows_the_capped_cells():
    # 500 points within 1e-3 of each of two corners of the unit cube: cells
    # sized for the clusters would number far more than _GRID_CAP a point,
    # so _cell_size grows them until they do not.
    rng = np.random.default_rng(20)
    clusters = [corner + 1e-3 * rng.random((500, 3)) for corner in (0.0, 1.0)]
    ref = np.vstack(clusters)
    qry = np.vstack([c + 1e-3 * rng.standard_normal((500, 3)) for c in clusters])
    lo = ref.min(axis=0)
    span = ref.max(axis=0) - lo
    h = geometry_metrics._cell_size(ref, lo, span)
    assert np.prod(np.floor(span / h) + 1) <= geometry_metrics._GRID_CAP * len(ref)
    d2, idx = geometry_metrics._nearest(ref, qry)
    want_d2, want_idx = _oracle_nearest(ref, qry)
    assert d2.tobytes() == want_d2.tobytes()
    np.testing.assert_array_equal(idx, want_idx)


def test_chamfer_leaves_normal_consistency_empty_without_normals():
    pts = np.zeros((1, 3))
    z = np.array([[0.0, 0.0, 1.0]])
    assert chamfer(PointCloud(pts), PointCloud(pts, z)).normal_consistency is None
    assert chamfer(PointCloud(pts, z), PointCloud(pts)).normal_consistency is None


def test_normal_consistency_requires_normals():
    pts = np.zeros((1, 3))
    z = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        normal_consistency(PointCloud(pts), PointCloud(pts, z))


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]))


def test_point_cloud_copies_an_array_unless_no_one_else_can_write_it():
    points = np.zeros((4, 3))
    cloud = PointCloud(points)
    assert cloud.points is not points and not cloud.points.flags.writeable
    points[0, 0] = 1.0
    assert cloud.points[0, 0] == 0.0
    # A read-only view of a writable array can change under the cloud.
    view = points[::2]
    view.setflags(write=False)
    assert PointCloud(view).points is not view
    # A read-only array that owns its data, as the PLY parser builds, is kept.
    points.setflags(write=False)
    assert PointCloud(points, np.tile([0.0, 0.0, 1.0], (4, 1))).points is points
    assert PointCloud(points.astype(np.float32)).points.dtype == np.float64
    # A trajectory keeps its columns the same way, and copies quats to normalize a row.
    timestamps, quats = np.arange(4.0), np.zeros((4, 4))
    quats[:, 0] = 1.0
    traj = Trajectory(timestamps, quats, points)
    assert traj.translations is points and not traj.timestamps.flags.writeable
    assert traj.timestamps is not timestamps and traj.quats is not quats
    for column in (timestamps, quats):
        column.setflags(write=False)
    traj = Trajectory(timestamps, quats, points)
    assert traj.timestamps is timestamps and traj.quats is quats
    quats = quats * [[1.0 + 1e-12], [1.0], [1.0], [1.0]]
    quats.setflags(write=False)
    traj = Trajectory(timestamps, quats, points)
    assert traj.quats is not quats and quats[0, 0] == 1.0 + 1e-12 and traj.quats[0, 0] == 1.0
    rotation = np.eye(3)
    transform = Sim3Transform(1.0, rotation, np.zeros(3))
    assert transform.rotation is not rotation and not transform.rotation.flags.writeable
