"""Acceptance suite: the twelve headline guarantees of this package.

Each test pins the exact tolerance and, where stated, the runtime
budget of one guarantee.  The suite summary (one PASS/FAIL line per
test) is printed by the conftest hook at the end of the run.
"""

import json
import os
import time

import numpy as np

from ttt_lab.cli import main
from ttt_lab.geometry_metrics import (
    PointCloud,
    Trajectory,
    associate,
    ate,
    chamfer,
    depth_metrics,
    quat_to_rotmat,
    sequence_depth_scale,
    umeyama_sim3,
)
from ttt_lab.io_formats import write_pfm, write_ply_ascii, write_tum
from ttt_lab.recall_bench import (
    StateDims,
    StreamConfig,
    gen_adversarial_task,
    gen_recall_task,
    run_stream,
)
from ttt_lab.state_rules import (
    ProjectionSet,
    confidence_gate,
    recon_loss,
    recon_loss_grad,
    ttt3r_update,
    update_vanilla_rnn,
)
from ttt_lab.stitcher import split_trajectory, stitch


def _rand_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def _rand_traj(rng, n):
    """n poses 0.1 s apart, each a random unit quaternion then a random translation."""
    draws = [(_rand_quat(rng), rng.standard_normal(3)) for _ in range(n)]
    return Trajectory(0.1 * np.arange(n), [q for q, _ in draws], [t for _, t in draws])


def test_01_gradient_matches_finite_differences():
    """acceptance 1: update gradient vs central differences, rel err <= 1e-6 over 100 instances in < 1 s"""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        c_k, c_v, m = (int(v) for v in rng.integers(1, 9, 3))
        s_arr = rng.standard_normal((c_v, c_k))
        keys = rng.standard_normal((c_k, m))
        values = rng.standard_normal((c_v, m))
        grad = recon_loss_grad(s_arr, keys.T, values.T)
        step = 1e-5
        fd = np.zeros_like(grad)
        for i in range(c_v):
            for j in range(c_k):
                bump = np.zeros_like(s_arr)
                bump[i, j] = step
                hi = recon_loss(s_arr + bump, keys.T, values.T)
                lo = recon_loss(s_arr - bump, keys.T, values.T)
                # divide by 4: the gradient is of HALF the squared error
                fd[i, j] = (hi - lo) / (4.0 * step)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(fd)))))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"max relative error {worst:.3e} exceeds 1e-6"
    assert elapsed < 1.0, f"gradient check took {elapsed:.2f} s, budget is 1 s"


def test_02_unit_gate_reduces_to_ungated_update():
    """acceptance 2: gated update at beta=1 equals the ungated update within 1e-12 over 1000 inputs"""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 9))
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        p = ProjectionSet.seeded(c, seed=int(rng.integers(0, 1 << 31)))
        s = rng.standard_normal((n, c))
        x = rng.standard_normal((m, c))
        gated, _ = ttt3r_update(s, x, p, 1.0)
        plain = update_vanilla_rnn(s, x, p)
        worst = max(worst, float(np.max(np.abs(gated - plain))))
    assert worst <= 1e-12, f"max deviation {worst:.3e} exceeds 1e-12"


def test_03_gate_output_is_strictly_inside_the_unit_interval():
    """acceptance 3: confidence gate strictly in (0,1) on 1e6 logit rows including +-40 extremes"""
    rng = np.random.default_rng(11)
    logits = rng.uniform(-40.0, 40.0, 10**6 - 4)
    logits = np.concatenate([logits, [-40.0, 40.0, -400.0, 400.0]])
    beta = confidence_gate(logits[:, None], np.array([[1.0]]), reduce="sum", scale=1.0)
    assert beta.shape == (10**6,)
    assert np.all(np.isfinite(beta))
    assert np.all(beta > 0.0), "gate reached 0"
    assert np.all(beta < 1.0), "gate reached 1"


def test_04_deeply_negative_logits_freeze_the_state():
    """acceptance 4: with reduced gate logits <= -40, max state drift <= 1e-12 across 100 updates"""
    rng = np.random.default_rng(13)
    n, c, m = 4, 64, 2
    p = ProjectionSet.identity(c, seed=0)
    s0 = rng.uniform(0.5, 1.5, (n, c))
    s = s0
    for t in range(100):
        x = -2.5 * rng.uniform(0.5, 1.5, (m, c))
        # precondition: every reduced logit is at or below -40
        reduced = (s @ x.T).sum(axis=1)
        assert np.all(reduced <= -40.0)
        s_next, _ = ttt3r_update(s, x, p, "confidence", scale=1.0)
        step = float(np.max(np.abs(s_next - s)))
        assert step <= 1e-12, f"single-update drift {step:.3e} exceeds 1e-12"
        s = s_next
    total = float(np.max(np.abs(s - s0)))
    assert total <= 1e-12, f"accumulated drift {total:.3e} exceeds 1e-12"


def test_05_delta_rule_capacity_and_interference():
    """acceptance 5: delta errors <= 1e-10 at count=c_k=16; erase-free write >= 10x worse on correlated(0.9), 20 seeds"""
    dims16 = StateDims(4, 16, 16, 16)
    for seed in range(5):
        task = gen_recall_task(16, dims16, "orthonormal", seed=seed)
        delta_curve = run_stream(task, StreamConfig("delta", dims16))
        assert delta_curve.worst_sq_error <= 1e-10
        hebb_curve = run_stream(task, StreamConfig("hebbian", dims16))
        assert hebb_curve.worst_sq_error <= 1e-10

    dims32 = StateDims(4, 32, 32, 32)
    delta_means, hebb_means = [], []
    for seed in range(20):
        task = gen_recall_task(32, dims32, "correlated", seed=seed, rho=0.9)
        d = run_stream(task, StreamConfig("delta", dims32))
        h = run_stream(task, StreamConfig("hebbian", dims32))
        delta_means.append(d.mean_sq_error)
        hebb_means.append(h.mean_sq_error)
    ratio = float(np.mean(hebb_means) / np.mean(delta_means))
    assert ratio >= 10.0, f"seed-averaged error ratio {ratio:.2f} is below 10"


def test_06_confidence_gate_wins_on_the_adversarial_stream():
    """acceptance 6: gated rule beats the ungated one on the adversarial task in >= 18/20 seeds"""
    dims = StateDims(4, 64, 64, 64)
    wins = 0
    for seed in range(20):
        task = gen_adversarial_task(dims, seed=seed)
        gated = run_stream(task, StreamConfig("ttt3r", dims, softmax_scale=1.0))
        plain = run_stream(task, StreamConfig("vanilla", dims, softmax_scale=1.0))
        wins += gated.mean_sq_error < plain.mean_sq_error
    assert wins >= 18, f"gated rule won only {wins}/20 seeds"


def test_07_full_attention_recall_is_exact_up_to_4096_frames():
    """acceptance 7: cache-append recall error <= 1e-8 at stream lengths 64/512/4096 in < 10 s"""
    start = time.perf_counter()
    for length in (64, 512, 4096):
        dims = StateDims(4, length, length, length)
        task = gen_recall_task(length, dims, "orthonormal", seed=0)
        cfg = StreamConfig("full", dims, softmax_scale=1.0)
        curve = run_stream(task, cfg)
        assert curve.worst_sq_error <= 1e-8, (
            f"length {length}: worst error {curve.worst_sq_error:.3e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s, budget is 10 s"


def test_08_similarity_alignment_recovers_exact_transforms():
    """acceptance 8: 100 random similarity transforms recovered within 1e-8; aligned ATE <= 1e-9"""
    rng = np.random.default_rng(17)
    for _ in range(100):
        src = rng.standard_normal((50, 3))
        rot = quat_to_rotmat(_rand_quat(rng))
        scale = float(rng.uniform(0.2, 5.0))
        t = rng.standard_normal(3)
        dst = scale * src @ rot.T + t
        got = umeyama_sim3(src, dst, with_scale=True)
        assert abs(got.scale - scale) <= 1e-8
        assert np.max(np.abs(got.rotation - rot)) <= 1e-8
        assert np.max(np.abs(got.translation - t)) <= 1e-8

    pts = rng.standard_normal((50, 3))
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (50, 1))
    gt = Trajectory(0.1 * np.arange(50), identity, pts)
    rot = quat_to_rotmat(_rand_quat(rng))
    est_pts = 1.7 * pts @ rot.T + np.array([3.0, -1.0, 2.0])
    est = Trajectory(0.1 * np.arange(50), identity, est_pts)
    assert ate(est, gt, associate(est, gt), align="sim3") <= 1e-9


def test_09_accelerated_chamfer_equals_brute_force():
    """acceptance 9: chamfer matches the O(N^2) oracle within 1e-9 on 50 pairs of 500-point clouds in < 5 s"""
    rng = np.random.default_rng(19)
    start = time.perf_counter()
    for _ in range(50):
        a = rng.standard_normal((500, 3))
        b = rng.standard_normal((500, 3))
        got = chamfer(PointCloud(a), PointCloud(b))
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        acc = float(d.min(axis=1).mean())
        comp = float(d.min(axis=0).mean())
        assert abs(got.accuracy - acc) <= 1e-9
        assert abs(got.completeness - comp) <= 1e-9
        assert abs(got.chamfer - 0.5 * (acc + comp)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s, budget is 5 s"


def test_10_depth_modes_agree_on_the_doubled_prediction():
    """acceptance 10: pred = 2x gt gives (1.0, 0.0) in metric mode and (<= 1e-12, 1.0) with a sequence scale"""
    rng = np.random.default_rng(23)
    gt_vals = rng.uniform(0.5, 8.0, (48, 64))
    gt = gt_vals
    pred = 2.0 * gt_vals

    abs_rel, d125 = depth_metrics(pred, gt)
    assert abs_rel == 1.0
    assert d125 == 0.0

    abs_rel, d125 = depth_metrics(pred, gt, sequence_depth_scale([pred], [gt]))
    assert abs_rel <= 1e-12
    assert d125 == 1.0


def test_11_chunked_trajectory_restitches_exactly():
    """acceptance 11: a 300-pose trajectory chunked at period 100 restitches with ATE <= 1e-9"""
    rng = np.random.default_rng(29)
    traj = _rand_traj(rng, 300)
    chunks = split_trajectory(traj, 100)
    stitched, _ = stitch(chunks)
    assert len(stitched) == 300
    assert ate(stitched, traj, associate(stitched, traj), align="none") <= 1e-9


def test_12_every_command_reruns_byte_identically(tmp_path):
    """acceptance 12: each CLI command rerun from its manifest reproduces every output byte for byte"""
    rng = np.random.default_rng(31)

    traj_file = tmp_path / "traj.tum"
    traj_file.write_text(write_tum(_rand_traj(rng, 30)))

    cloud_a = tmp_path / "a.ply"
    cloud_b = tmp_path / "b.ply"
    cloud_a.write_text(write_ply_ascii(PointCloud(rng.standard_normal((25, 3)))))
    cloud_b.write_text(write_ply_ascii(PointCloud(rng.standard_normal((25, 3)))))

    for sub in ("gtd", "predd"):
        os.makedirs(tmp_path / sub)
    for i in range(2):
        vals = rng.uniform(1.0, 5.0, (4, 5))
        (tmp_path / "gtd" / f"{i}.pfm").write_bytes(write_pfm(vals))
        (tmp_path / "predd" / f"{i}.pfm").write_bytes(
            write_pfm(2.0 * vals)
        )

    commands = {
        "recall": ["recall", "--rules", "full,vanilla,hebbian,delta:0.5,ttt3r",
                   "--count", "8", "--dims", "4,8,8,8", "--seed", "5"],
        "gradcheck": ["gradcheck", "--trials", "5", "--max-dim", "4"],
        "traj-eval": ["traj-eval", "--est", str(traj_file), "--gt", str(traj_file)],
        "depth-eval": ["depth-eval", "--pred", str(tmp_path / "predd"),
                       "--gt", str(tmp_path / "gtd")],
        "chamfer": ["chamfer", "--a", str(cloud_a), "--b", str(cloud_b)],
        "stitch": ["stitch", "--traj", str(traj_file), "--reset-period", "10"],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}-run"
        second = tmp_path / f"{name}-rerun"
        assert main(argv + ["--out", str(first)]) == 0, f"{name} failed"
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["outputs"] == sorted(set(os.listdir(first)) - {"manifest.json"})
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0, f"{name} rerun failed"
        files = sorted(os.listdir(first))
        assert files == sorted(os.listdir(second)), f"{name}: output sets differ"
        for f in files:
            a = (first / f).read_bytes()
            b = (second / f).read_bytes()
            assert a == b, f"{name}: {f} differs between run and rerun"
