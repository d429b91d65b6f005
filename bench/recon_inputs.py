"""Seeded inputs for the recon-eval workload.

`generate(out_dir, seed, sizes)` writes, deterministically for a given
seed and sizes:

- gt.tum / est.tum: a smooth reference trajectory and an estimate that
  is a similarity-transformed, noisy copy of it, with timestamp jitter
  well inside the default 0.02 s association window;
- cloud_a.ply / cloud_b.ply: two independent samples of a sphere with
  normals, the second with radial noise;
- depth/gt/*.pfm, depth/pred/*.pfm: depth maps and predictions that are
  a scaled, noisy copy, with a few invalid pixels.

The files are written by this module's own small writers, not by
ttt_lab, so a defect in the program's writers cannot change the inputs.
"""

from __future__ import annotations

import os

import numpy as np

# Noise levels; the output checks derive their expected ranges from
# these, so they hold for every seed.
POSE_NOISE = 0.01        # per-axis position noise, in gt units
ROT_NOISE = 0.002        # per-axis rotation-vector noise, radians
TIME_JITTER = 0.005      # seconds; the default --max-dt is 0.02
RATE_HZ = 30.0
DEPTH_NOISE = 0.05       # log-normal sigma of the predicted depth
INVALID_FRACTION = 0.01  # share of depth pixels set to 0 (invalid)


def _quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """(N, 3) rotation vectors to (N, 4) unit quaternions (w, x, y, z)."""
    angle = np.linalg.norm(rv, axis=1, keepdims=True)
    axis = rv / np.where(angle > 0, angle, 1.0)
    return np.hstack([np.cos(0.5 * angle), np.sin(0.5 * angle) * axis])


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def _rotmat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _smooth(rng: np.random.Generator, t: np.ndarray, amplitude: float) -> np.ndarray:
    """(N, 3) sum of three random sinusoids per axis."""
    freq = rng.uniform(0.01, 0.2, (3, 3))
    phase = rng.uniform(0.0, 2 * np.pi, (3, 3))
    amp = amplitude * rng.uniform(0.3, 1.0, (3, 3))
    return np.stack([
        np.sum(amp[:, a, None] * np.sin(freq[:, a, None] * t + phase[:, a, None]), axis=0)
        for a in range(3)
    ], axis=1)


def _write_tum(path: str, t: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    rows = np.column_stack([t, p, q[:, 1:], q[:, :1]])
    with open(path, "w") as handle:
        handle.write("# timestamp tx ty tz qx qy qz qw\n")
        np.savetxt(handle, rows, fmt="%.17g")


def _write_ply(path: str, points: np.ndarray, normals: np.ndarray) -> None:
    header = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
    header += [f"property double {name}" for name in ("x", "y", "z", "nx", "ny", "nz")]
    header.append("end_header")
    with open(path, "w") as handle:
        handle.write("\n".join(header) + "\n")
        np.savetxt(handle, np.hstack([points, normals]), fmt="%.17g")


def _write_pfm(path: str, depth: np.ndarray) -> None:
    """Little-endian grayscale PFM; rows are stored bottom-up."""
    height, width = depth.shape
    with open(path, "wb") as handle:
        handle.write(f"Pf\n{width} {height}\n-1.0\n".encode("ascii"))
        handle.write(np.flipud(depth).astype("<f4").tobytes())


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.standard_normal((n, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _trajectories(rng: np.random.Generator, out_dir: str, poses: int) -> None:
    t = 1000.0 + np.arange(poses) / RATE_HZ
    p_gt = _smooth(rng, t, 2.0)
    q_gt = _quat_from_rotvec(_smooth(rng, t, 0.5))
    scale = rng.uniform(0.5, 2.0)
    q_align = rng.standard_normal(4)
    q_align /= np.linalg.norm(q_align)
    shift = rng.uniform(-5.0, 5.0, 3)
    noisy = p_gt + POSE_NOISE * rng.standard_normal((poses, 3))
    p_est = scale * noisy @ _rotmat(q_align).T + shift
    q_noise = _quat_from_rotvec(ROT_NOISE * rng.standard_normal((poses, 3)))
    q_est = _quat_mul(_quat_mul(q_align, q_gt), q_noise)
    q_est /= np.linalg.norm(q_est, axis=1, keepdims=True)
    t_est = t + rng.uniform(-TIME_JITTER, TIME_JITTER, poses)
    _write_tum(os.path.join(out_dir, "gt.tum"), t, p_gt, q_gt)
    _write_tum(os.path.join(out_dir, "est.tum"), t_est, p_est, q_est)


def _clouds(rng: np.random.Generator, out_dir: str, points: int) -> None:
    # Points on the unit sphere are their own normals.
    a = _unit_rows(rng, points)
    b = _unit_rows(rng, points)
    noisy_b = b * (1.0 + 0.001 * rng.standard_normal((points, 1)))
    _write_ply(os.path.join(out_dir, "cloud_a.ply"), a, a)
    _write_ply(os.path.join(out_dir, "cloud_b.ply"), noisy_b, b)


def _depth_maps(rng: np.random.Generator, out_dir: str, maps: int, height: int,
                width: int) -> None:
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    scale = rng.uniform(0.5, 2.0)
    for sub in ("gt", "pred"):
        os.makedirs(os.path.join(out_dir, "depth", sub), exist_ok=True)
    for k in range(maps):
        phase = rng.uniform(0.0, 2 * np.pi, 2)
        gt = (2.0 + np.sin(rows / 40.0 + phase[0]) + 0.5 * np.cos(cols / 30.0 + phase[1])
              + 0.002 * (rows + cols))
        pred = scale * gt * np.exp(DEPTH_NOISE * rng.standard_normal(gt.shape))
        gt[rng.random(gt.shape) < INVALID_FRACTION] = 0.0
        pred[rng.random(pred.shape) < INVALID_FRACTION] = 0.0
        name = f"frame_{k:03d}.pfm"
        _write_pfm(os.path.join(out_dir, "depth", "gt", name), gt)
        _write_pfm(os.path.join(out_dir, "depth", "pred", name), pred)


def generate(out_dir: str, seed: int, sizes: dict) -> None:
    """Write every recon-eval input into out_dir (created if missing)."""
    os.makedirs(out_dir, exist_ok=True)
    root = np.random.SeedSequence(seed % 2**64)  # SeedSequence rejects negative seeds
    traj_seq, cloud_seq, depth_seq = root.spawn(3)
    _trajectories(np.random.default_rng(traj_seq), out_dir, sizes["poses"])
    _clouds(np.random.default_rng(cloud_seq), out_dir, sizes["points"])
    height, width = sizes["depth_hw"]
    _depth_maps(np.random.default_rng(depth_seq), out_dir, sizes["depth_maps"],
                height, width)
