"""Tests for the associative-recall benchmark and its task generators."""

import collections
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from ttt_lab import recall_bench
from ttt_lab.recall_bench import (
    QUERY_SATURATION,
    RecallTask,
    RuleRun,
    StateDims,
    StreamConfig,
    UnsupportedRuleCombination,
    compare_rules,
    curves_to_csv,
    gate_trace_to_csv,
    gen_adversarial_task,
    gen_recall_task,
    run_stream,
    summary_to_csv,
)
from ttt_lab.recall_bench import _parse
from ttt_lab.seeding import derive_seed
from ttt_lab.state_rules import ProjectionSet, ttt3r_update

DIMS16 = StateDims(4, 16, 16, 16)


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_is_deterministic_and_label_sensitive():
    a = derive_seed(123, "projections")
    assert a == derive_seed(123, "projections")
    assert a != derive_seed(123, "state-init")
    assert a != derive_seed(124, "projections")
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# key generators


def test_orthonormal_keys_are_exactly_orthonormal():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    gram = task.keys @ task.keys.T
    np.testing.assert_allclose(gram, np.eye(16), rtol=0, atol=1e-9)


def test_orthonormal_keys_share_no_memory_with_a_larger_basis():
    # 64 keys of width 1024 hold 0.5 MB, not a view into a 1024 x 1024 basis.
    keys = gen_recall_task(64, StateDims(4, 1024, 1024, 8)).keys
    assert keys.shape == (64, 1024)
    assert keys.base is None or keys.base.nbytes == keys.nbytes


def test_orthonormal_mode_rejects_overfull_count():
    with pytest.raises(ValueError):
        gen_recall_task(17, DIMS16, "orthonormal", seed=0)


def test_random_unit_keys_have_unit_norm():
    task = gen_recall_task(40, DIMS16, "random_unit", seed=1)
    np.testing.assert_allclose(np.linalg.norm(task.keys, axis=1), 1.0, rtol=0, atol=1e-12)


def test_correlated_keys_have_requested_overlap():
    task = gen_recall_task(16, DIMS16, "correlated", seed=2, rho=0.9)
    gram = task.keys @ task.keys.T
    off = gram[~np.eye(16, dtype=bool)]
    assert 0.8 <= float(np.mean(np.abs(off))) <= 0.95


def test_correlated_overlap_concentrates_across_seeds():
    means = []
    for seed in range(100):
        task = gen_recall_task(16, DIMS16, "correlated", seed=seed, rho=0.9)
        gram = task.keys @ task.keys.T
        off = gram[~np.eye(16, dtype=bool)]
        means.append(float(np.mean(np.abs(off))))
    assert min(means) >= 0.8
    assert max(means) <= 0.95


def test_task_generation_is_pure_in_the_seed():
    a = gen_recall_task(8, DIMS16, "random_unit", seed=5)
    b = gen_recall_task(8, DIMS16, "random_unit", seed=5)
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.values, b.values)
    c = gen_recall_task(8, DIMS16, "random_unit", seed=6)
    assert np.any(a.keys != c.keys)


def test_task_validation():
    with pytest.raises(ValueError,
                       match=r"^key row 0 must be unit-norm within 1e-9, got norm 2\.0$"):
        RecallTask(np.ones((2, 4)), np.ones((2, 4)))
    keys = np.eye(4)[:3]
    keys[2] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match=r"^key row 2 must be unit-norm within 1e-9"):
        RecallTask(keys, np.ones((3, 4)))
    with pytest.raises(ValueError):
        gen_recall_task(0, DIMS16)
    with pytest.raises(ValueError):
        gen_recall_task(4, DIMS16, "correlated", rho=1.0)
    eye = np.eye(4)
    for keys, values, layout, message in [
        (eye, np.ones((3, 3)), {}, "^4 keys but 3 values$"),
        (eye[0], np.ones(3), {}, r"^keys must be a 2-D array, got shape \(4,\)$"),
        (eye, np.ones(3), {}, r"^values must be a 2-D array, got shape \(3,\)$"),
        (eye[:0], np.ones((0, 3)), {}, r"^count must lie in \[1, 0\], the stream's rows, got 0$"),
        (eye, np.ones((4, 3)), {"count": 0}, r"^count must lie in \[1, 4\], .* got 0$"),
        (eye, np.ones((4, 3)), {"count": 5}, r"^count must lie in \[1, 4\], .* got 5$"),
        (eye, np.ones((4, 3)), {"count": 2.0}, "^count must be an integer, got 2.0$"),
        (eye, np.ones((4, 3)), {"count": True}, "^count must be an integer, got True$"),
        (eye, np.ones((4, 3)), {"count": 1, "frame_size": 1.5},
         "^frame_size must be an integer, got 1.5$"),
        (eye, np.ones((4, 3)), {"count": 1, "frame_size": 0},
         "^the 3 rows after the pairs are not whole frames of frame_size 0$"),
        (eye, np.ones((4, 3)), {"count": 2, "frame_size": 3},
         "^the 2 rows after the pairs are not whole frames of frame_size 3$"),
    ]:
        with pytest.raises(ValueError, match=message):
            RecallTask(keys, values, **layout)
    # Integer types of any kind are taken and stored as int.
    task = RecallTask(eye, np.ones((4, 3)), np.int64(2), np.int32(2))
    assert (type(task.count), type(task.frame_size)) == (int, int)
    assert task.offsets.tolist() == [0, 1, 2, 4]


def test_task_rejects_non_finite_rows():
    keys = np.eye(4)[:3]
    nan_key = keys.copy()
    nan_key[1, 0] = np.nan
    inf_value = np.ones((3, 2))
    inf_value[2, 1] = np.inf
    # Distractor rows are named by their stream row: with one pair and
    # frames of two rows, stream row 2 is frame 1's second row.
    for args, message in [
        ((nan_key, np.ones((3, 2))), "^key row 1 contains non-finite entries$"),
        ((keys, inf_value), "^value row 2 contains non-finite entries$"),
        ((nan_key, np.ones((3, 2)), 1, 2), "^key row 1 contains non-finite entries$"),
        ((keys, inf_value, 1, 2), "^value row 2 contains non-finite entries$"),
    ]:
        with pytest.raises(ValueError, match=message):
            RecallTask(*args)


def test_generated_orthonormal_keys_are_pairwise_orthogonal():
    # RecallTask checks unit norms only; orthogonality is the generators'
    # promise, so the check lives here.
    # Adversarial distractor rows lean against the stored keys, so the
    # Gram matrix is over the stored keys only.
    for task in (gen_recall_task(64, StateDims(4, 64, 64, 64), seed=3),
                 gen_adversarial_task(StateDims(4, 64, 64, 64), seed=3)):
        stored = task.keys[:task.count]
        np.testing.assert_allclose(stored @ stored.T, np.eye(task.count), rtol=0, atol=1e-9)
        rebuilt = RecallTask(task.keys.copy(), task.values, task.count, task.frame_size)
        np.testing.assert_array_equal(rebuilt.keys, task.keys)


def test_recall_task_is_the_stream_rows_and_their_layout():
    assert [f.name for f in dataclasses.fields(RecallTask)] == [
        "keys", "values", "count", "frame_size"]


def test_task_checks_every_distractor_key_for_unit_norm():
    # Checked once, when the task is built, so no rule can ingest a bad
    # key, not even in a segment whose state no readout sees.
    task = gen_recall_task(12, DIMS16, "orthonormal", seed=0)
    keys = np.vstack((task.keys, np.broadcast_to(task.keys[:1], (6, 16))))
    values = np.vstack((task.values, np.zeros((6, 16))))
    for frame, row in ((0, 0), (2, 1)):
        bad = keys.copy()
        bad[12 + 2 * frame + row] *= 2.0
        with pytest.raises(ValueError, match=f"^key row {12 + 2 * frame + row} must be "
                                             r"unit-norm within 1e-9, got norm 2\.0$"):
            RecallTask(bad, values, 12, 2)
    RecallTask(keys, values, 12, 2)


def test_task_pairs_property():
    task = gen_recall_task(3, DIMS16, "random_unit", seed=0)
    pairs = tuple(zip(task.keys, task.values))
    assert len(pairs) == 3
    np.testing.assert_array_equal(pairs[1][0], task.keys[1])
    np.testing.assert_array_equal(pairs[1][1], task.values[1])


# ---------------------------------------------------------------------------
# stream assembly


def test_stored_pairs_land_one_per_frame_by_default():
    task = gen_recall_task(6, DIMS16, "orthonormal", seed=0)
    run = run_stream(task, StreamConfig("delta", DIMS16))
    assert run.sq_errors.shape == (6,)
    assert task.offsets.tolist() == list(range(7))
    assert np.diff(run.gate_offsets).tolist() == [1] * 6


def test_distractor_groups_occupy_their_positions():
    # stream: pair0, pair1, then two distractor frames of three rows
    eye = np.eye(16)
    keys = np.vstack((eye[:2], eye[10:16]))
    task = RecallTask(keys, np.vstack((np.ones((2, 16)), np.zeros((6, 16)))), 2, 3)
    run = run_stream(task, StreamConfig("delta", DIMS16))
    assert run.sq_errors.shape == (2,)
    assert np.diff(run.gate_offsets).tolist() == [1, 1, 3, 3]
    assert task.offsets.tolist() == [0, 1, 2, 5, 8]
    # The task keeps the rows it is given as float64.
    assert task.keys is keys
    # Without distractors every row is a pair, whatever the frame size.
    plain = RecallTask(eye[:2], np.ones((2, 16)), frame_size=5)
    assert (plain.count, plain.offsets.tolist()) == (2, [0, 1, 2])


# ---------------------------------------------------------------------------
# stream config validation and unsupported combinations


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig("vanilla", DIMS16, reset_period=0)
    for field in ("reset_period", "seed"):
        for value in (2.5, 2.0, "3", True):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "
                                                 f"{re.escape(repr(value))}$"):
                StreamConfig("delta", DIMS16, **{field: value})
    task = gen_recall_task(6, DIMS16, "orthonormal", seed=0)
    a = run_stream(task, StreamConfig("delta", DIMS16, reset_period=np.int64(4),
                                      seed=np.int32(2)))
    b = run_stream(task, StreamConfig("delta", DIMS16, reset_period=4, seed=2))
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"scale must be positive and finite, got {scale}"):
            StreamConfig("vanilla", DIMS16, softmax_scale=scale)
    with pytest.raises(ValueError):
        StreamConfig("vanilla", StateDims(0, 16, 16, 16))


def test_token_rules_require_matching_state_and_key_width():
    with pytest.raises(UnsupportedRuleCombination):
        StreamConfig("vanilla", StateDims(2, 8, 16, 16))


def test_delta_rule_rejects_state_dependent_gates():
    for spec in ("delta:confidence", "delta:per_token"):
        with pytest.raises(UnsupportedRuleCombination):
            StreamConfig(spec, DIMS16)


def test_delta_rule_supports_input_sigmoid_gate():
    task = gen_recall_task(4, DIMS16, "orthonormal", seed=0)
    run = run_stream(task, StreamConfig("delta:input", DIMS16))
    assert len(run.gate_offsets) - 1 == 4
    assert np.all(run.betas > 0.0) and np.all(run.betas < 1.0)


# ---------------------------------------------------------------------------
# gate traces


def test_ungated_rules_return_empty_trace():
    task = gen_recall_task(4, DIMS16, "orthonormal", seed=0)
    for rule in ("full", "vanilla", "hebbian"):
        run = run_stream(task, StreamConfig(rule, DIMS16, softmax_scale=1.0))
        assert len(run.gate_offsets) - 1 == 0
        assert run.betas.size == 0 and run.gate_offsets.tolist() == [0]


def test_gated_rules_trace_every_frame():
    task = gen_recall_task(5, DIMS16, "orthonormal", seed=0)
    run = run_stream(task, StreamConfig("ttt3r", DIMS16))
    assert len(run.gate_offsets) - 1 == 5
    assert np.diff(run.gate_offsets).tolist() == [4] * 5


_RISE = ("gate_offsets must be integers that rise from 0 to the number of betas, "
         "by at least one per frame")


@pytest.mark.parametrize("sq_errors, gate_offsets, message", [
    ([1.0, -2.0, 3.0], [0, 2, 6], "squared errors must be finite and nonnegative"),
    ([1.0, np.inf], [0, 2, 6], "squared errors must be finite and nonnegative"),
    (np.ones((3, 1)), [0, 2, 6], "sq_errors must be a 1-D array, got shape (3, 1)"),
    ([1.0], [0, 2, 5], _RISE),
    ([1.0], [1, 6], _RISE),
    ([1.0], [0, 4, 4, 6], _RISE),
    ([1.0], np.array([], dtype=np.int64), _RISE),
    ([1.0], [[0, 6]], _RISE),
    ([1.0], [], _RISE),
    ([1.0], [0, 2.0, 6], _RISE),
    ([1.0], [False, True, True], _RISE),
])
def test_rule_run_validation(sq_errors, gate_offsets, message):
    RuleRun("x", [1.0], np.full(6, 0.5), [0, 2, 6])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RuleRun("x", sq_errors, np.full(6, 0.5), gate_offsets)


def test_stream_honours_the_rules_confidence_reduce():
    eye = np.eye(16)
    task = RecallTask(eye[:8], np.vstack((np.ones((2, 16)), np.zeros((6, 16)))), 2, 3)
    t_sum = run_stream(task, StreamConfig("ttt3r", DIMS16, reset_period=2))
    t_mean = run_stream(task, StreamConfig("ttt3r", DIMS16, reset_period=2,
                                           gate_reduce="mean"))
    # The reset before frame 2 starts both streams there from the same
    # state, and the frame holds 3 tokens, so its mean-reduced logits are
    # a third of the summed ones.
    logit = lambda b: np.log(b / (1.0 - b))
    frame = slice(t_sum.gate_offsets[2], t_sum.gate_offsets[3])
    np.testing.assert_allclose(3.0 * logit(t_mean.betas[frame]), logit(t_sum.betas[frame]),
                               rtol=1e-9)
    a = t_sum.betas
    b = t_mean.betas
    assert np.any(a != b)


# ---------------------------------------------------------------------------
# reset protocol


def test_reset_every_frame_keeps_only_the_last_frame():
    task = gen_recall_task(8, DIMS16, "orthonormal", seed=3)
    cfg = StreamConfig("delta", DIMS16, reset_period=1)
    curve = run_stream(task, cfg)
    # wiped pairs read back as zero, so their error is exactly ||v||^2
    expect = np.sum(task.values**2, axis=1)
    np.testing.assert_allclose(curve.sq_errors[:-1], expect[:-1], rtol=0, atol=1e-12)
    assert curve.sq_errors[-1] <= 1e-20


def test_reset_longer_than_stream_changes_nothing():
    task = gen_recall_task(8, DIMS16, "orthonormal", seed=3)
    base = StreamConfig("ttt3r", DIMS16)
    huge = StreamConfig("ttt3r", DIMS16, reset_period=1000)
    a = run_stream(task, base)
    b = run_stream(task, huge)
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)


@pytest.mark.parametrize("dims, count", [(DIMS16, 4), (StateDims(4, 16, 768, 771), 64)],
                         ids=["dims16", "wide"])
@pytest.mark.parametrize("rule", ["hebbian", "delta:1"])
def test_reset_restores_the_seeded_initial_state(rule, dims, count):
    # with P = count - 1, the last window sees only the final pair, so the
    # stream behaves like a fresh one-pair stream for that pair.  The
    # fast-weight read takes that pair's key at position count - 1 of a
    # 64-query block, and the solo stream at position 0; at the wide dims,
    # position 63 is one where a Q_b @ S^T block gives other bits.
    task = gen_recall_task(count, dims, "orthonormal", seed=7)
    cfg = StreamConfig(rule, dims, reset_period=count - 1)
    curve = run_stream(task, cfg)
    solo = RecallTask(task.keys[-1:], task.values[-1:])
    solo_curve = run_stream(solo, StreamConfig(rule, dims))
    assert curve.sq_errors[-1] == solo_curve.sq_errors[0]


def test_full_attention_reset_drops_cached_history():
    task = gen_recall_task(8, DIMS16, "orthonormal", seed=3)
    cfg = StreamConfig("full", DIMS16, reset_period=4, softmax_scale=1.0)
    curve = run_stream(task, cfg)
    assert np.all(curve.sq_errors[4:] <= 1e-16)
    assert np.all(curve.sq_errors[:4] > 1e-3)


# ---------------------------------------------------------------------------
# segment ingest against the per-frame, per-pair oracle


def _with_frames(task, frames, rows, seed):
    """The task followed by `frames` frames of `rows` distinct random unit rows."""
    rng = np.random.default_rng(seed)
    d_keys = rng.standard_normal((frames * rows, task.keys.shape[1]))
    d_keys /= np.linalg.norm(d_keys, axis=1, keepdims=True)
    d_values = rng.uniform(-1.0, 1.0, (frames * rows, task.values.shape[1]))
    return RecallTask(np.vstack((task.keys, d_keys)), np.vstack((task.values, d_values)),
                      task.count, rows)


def _oracle_frames(task):
    """The stream's frames as (keys, values) arrays, sliced by hand.

    One frame per stored pair, then frames of frame_size rows up to the
    end, from count and frame_size alone, never from task.offsets.
    """
    edges = [*range(task.count + 1), *range(task.count + task.frame_size, len(task.keys) + 1,
                                            task.frame_size)]
    return [(task.keys[lo:hi], task.values[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _oracle_sigmoid(z):
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _oracle_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def _per_frame_oracle(task, cfg):
    """Curve errors, per-frame gates and stream length of one rule.

    A plain numpy loop over the frames (and over the pairs of a frame
    for the fast-weight rules), with run_stream's gate map; the token
    and cache rules keep the arithmetic of the per-frame kernels, so
    they must match bit for bit.  It reads the rule name and gate off
    the canonical spec itself.
    """
    dims = cfg.state_dims
    name, _, gate = cfg.rule.partition(":")
    scale = cfg.softmax_scale or 1.0 / math.sqrt(dims.c)
    gate_map = ProjectionSet.identity(dims.c, seed=derive_seed(cfg.seed, "projections")).gate_map
    frames = _oracle_frames(task)
    tokens = name in ("vanilla", "ttt3r")

    def initial():
        if name == "full":
            return []
        if tokens:
            rng = np.random.default_rng(derive_seed(cfg.seed, "state-init"))
            return rng.uniform(-1.0, 1.0, (dims.n, dims.c)) / math.sqrt(dims.c)
        return np.zeros((dims.c_v, dims.c_k))

    s, gates = initial(), []
    for t, (keys, values) in enumerate(frames):
        if cfg.reset_period and t and t % cfg.reset_period == 0:
            s = initial()
        if name == "full":
            s = s + [keys]
        elif name == "vanilla":
            s = s + _oracle_softmax(scale * (s @ keys.T)) @ keys
        elif tokens:
            z = scale * (s @ keys.T)
            if gate == "input":
                beta = np.full(dims.n, _oracle_sigmoid(float(np.mean(keys @ gate_map))))
            elif gate == "per_token":
                beta = _oracle_sigmoid(s @ gate_map)
            elif gate == "confidence":
                beta = _oracle_sigmoid(z.sum(axis=1) if cfg.gate_reduce == "sum"
                                       else z.mean(axis=1))
            else:
                beta = np.full(dims.n, float(gate))
            s = s + beta[:, None] * (_oracle_softmax(z) @ keys)
            gates.append(beta)
        else:
            betas = []
            for k, v in zip(keys, values):
                if name == "hebbian":
                    s = s + np.outer(v, k)
                    continue
                beta = (1.0 / (1.0 + math.exp(-float(k @ gate_map))) if gate == "input"
                        else float(gate))
                s = s - beta * np.outer(s @ k - v, k)
                betas.append(beta)
            if betas:
                gates.append(np.array(betas))
    stored_keys, stored_values = task.keys[:task.count], task.values[:task.count]
    if name == "full":
        queries, cached = QUERY_SATURATION * stored_keys, np.vstack(s)
        reads = queries + _oracle_softmax(scale * (queries @ cached.T)) @ cached
        errors = np.sum((reads - queries - stored_keys) ** 2, axis=1)
    elif tokens:
        errors = np.sum((_oracle_softmax(scale * (stored_keys @ s.T)) @ s - stored_keys) ** 2,
                        axis=1)
    else:
        errors = np.array([float(np.sum((s @ k - v) ** 2))
                           for k, v in zip(stored_keys, stored_values)])
    return errors, gates, len(frames)


def _oracle_stream(shape, rule):
    dims32, dims64 = StateDims(4, 32, 32, 32), StateDims(4, 64, 64, 64)
    if shape == "reset-not-dividing":
        # Segments of 70, 70 and 10 frames: one pair each, so a segment
        # crosses the 64-pair chunk boundary of the delta kernel.
        return (gen_recall_task(150, dims32, "random_unit", seed=5),
                StreamConfig(rule, dims32, reset_period=70, seed=3))
    if shape == "batch-3":
        # 62 pairs, then 5 frames of 3 distinct rows, never reset: the
        # frame of rows 62 to 64 straddles the delta kernel's 64-pair chunk
        # boundary.
        return (_with_frames(gen_recall_task(62, dims32, "correlated", seed=6), 5, 3, seed=9),
                StreamConfig(rule, dims32, seed=3))
    if shape == "scattered-distractors":
        # 40 pairs, then 6 frames of 3 distinct rows scattered over the
        # sphere, reset every 9 frames: segment 4 holds pairs 36 to 39 and
        # 5 distractor frames, segment 5 the last distractor frame.
        return (_with_frames(gen_recall_task(40, dims32, "random_unit", seed=8), 6, 3, seed=9),
                StreamConfig(rule, dims32, reset_period=9, seed=3))
    return gen_adversarial_task(dims64, seed=7), StreamConfig(rule, dims64, seed=3)


_FAST_WEIGHT_SPECS = ["hebbian", "delta:1", "delta:input"]
_SHAPES = ["reset-not-dividing", "batch-3", "adversarial", "scattered-distractors"]


def _assert_matches_the_oracle(task, cfg):
    run = run_stream(task, cfg)
    errors, gates, n_frames = _per_frame_oracle(task, cfg)
    exact = cfg.rule not in _FAST_WEIGHT_SPECS
    assert len(task.offsets) - 1 == n_frames
    if exact:
        np.testing.assert_array_equal(run.sq_errors, errors)
    else:
        # The chunked kernels reorder the sums: equal up to rounding.
        np.testing.assert_allclose(run.sq_errors, errors, rtol=0, atol=1e-12)
    if not gates:
        assert len(run.gate_offsets) - 1 == 0 and run.betas.size == 0
        return
    assert len(run.gate_offsets) - 1 == n_frames
    assert np.diff(run.gate_offsets).tolist() == [len(g) for g in gates]
    if exact:
        np.testing.assert_array_equal(run.betas, np.concatenate(gates))
    else:
        np.testing.assert_allclose(run.betas, np.concatenate(gates), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", _FAST_WEIGHT_SPECS + ["full", "vanilla", "ttt3r:confidence",
                                                     "ttt3r:input", "ttt3r:per_token",
                                                     "ttt3r:0.5"])
@pytest.mark.parametrize("shape", _SHAPES)
def test_segment_ingest_matches_the_per_frame_oracle(spec, shape):
    _assert_matches_the_oracle(*_oracle_stream(shape, spec))


@pytest.mark.parametrize("shape", _SHAPES)
def test_mean_reduced_confidence_ingest_matches_the_per_frame_oracle(shape):
    task, cfg = _oracle_stream(shape, "ttt3r")
    _assert_matches_the_oracle(task, dataclasses.replace(cfg, gate_reduce="mean"))


def _lockstep_stream():
    """14 reset segments of 5 frames in three layouts.

    12 segments of pairs, then one of 3 pairs and 2 distractor frames of
    3 rows, and a ragged last one of 2 distractor frames.
    """
    return _with_frames(gen_recall_task(63, DIMS16, "random_unit", seed=11), 4, 3, seed=12), 5


def _per_segment_ttt3r(task, cfg):
    """The ttt3r kernel called once per reset segment on 2-D arrays."""
    keys, offsets = task.keys, task.offsets
    _, entry, gate = _parse(cfg.rule)
    seed = derive_seed(cfg.seed, "projections")
    gate_map = ProjectionSet.identity(cfg.state_dims.c, seed).gate_map
    period = cfg.reset_period or len(offsets) - 1
    betas = []
    for t0 in range(0, len(offsets) - 1, period):
        bounds = offsets[t0:t0 + period + 1]
        state, segment_betas = ttt3r_update(entry.init(cfg.state_dims, cfg.seed),
                                            keys[bounds[0]:bounds[-1]], gate,
                                            cfg.softmax_scale, offsets=bounds - bounds[0],
                                            reduce=cfg.gate_reduce, gate_map=gate_map)
        betas.append(segment_betas.ravel())
    return state, np.concatenate(betas)


# (count, distractor frames, rows per frame, reset period): no reset, a
# reset every frame and periods that divide the stream or do not; frames
# of one row share the layout of a pair.
_LOCKSTEP_GRID = list(itertools.product((1, 5, 12), (0, 1, 4), (1, 3), (None, 1, 2, 5)))


@pytest.mark.parametrize("spec", ["ttt3r:confidence", "ttt3r:input", "ttt3r:per_token",
                                  "ttt3r:0.5"])
def test_lockstep_ttt3r_equals_per_segment_calls(spec, monkeypatch):
    # Over every stream of the grid, at the stock cap and at a cap of 2
    # stacked states: the same bits as one call per segment, and one call
    # per layout (per cap), so the segments of a layout are consecutive
    # and each stacked call reads a view of the stream.
    gate_map = ProjectionSet.identity(16, seed=derive_seed(2, "projections")).gate_map
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return ttt3r_update(*args, **kwargs)

    monkeypatch.setattr(recall_bench, "ttt3r_update", counting)
    caps = (recall_bench._STACK_BYTES // (DIMS16.n * DIMS16.c * 8), 2)
    for count, frames, rows, period in _LOCKSTEP_GRID:
        task = _with_frames(gen_recall_task(count, DIMS16, "random_unit", seed=11), frames, rows,
                            seed=12)
        cfg = StreamConfig(spec, DIMS16, reset_period=period, seed=2)
        keys, values, offsets = task.keys, task.values, task.offsets
        _, entry, gate = _parse(cfg.rule)
        want_state, want_betas = _per_segment_ttt3r(task, cfg)
        starts = np.arange(0, len(offsets) - 1, period or len(offsets) - 1)
        ends = [*starts[1:], len(offsets) - 1]
        layouts = collections.Counter((offsets[t0:t1 + 1] - offsets[t0]).tobytes()
                                      for t0, t1 in zip(starts, ends))
        for cap in caps:
            monkeypatch.setattr(recall_bench, "_STACK_BYTES", cap * DIMS16.n * DIMS16.c * 8)
            calls.clear()
            state, betas, counts = entry.ingest(entry.init(DIMS16, 2), keys, values, offsets,
                                                starts, gate, cfg, gate_map)
            assert state.tobytes() == want_state.tobytes()
            assert betas.tobytes() == want_betas.tobytes()
            assert counts.tolist() == [DIMS16.n] * (len(offsets) - 1)
            assert len(calls) == sum(-(-members // cap) for members in layouts.values())


_KERNELS = ["update_full_attention", "update_vanilla_rnn", "hebbian_update",
            "delta_rule_update", "ttt3r_update"]


def test_kernel_calls_per_stream(monkeypatch):
    # Counted through the module globals the rule table calls at run
    # time, so no timing is involved.
    task, period = _lockstep_stream()
    calls = dict.fromkeys(_KERNELS, 0)

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in _KERNELS:
        monkeypatch.setattr(recall_bench, name, counting(name, getattr(recall_bench, name)))
    specs = ["full", "vanilla", "hebbian", "delta", "delta:input", "ttt3r"]
    runs = {}
    for spec in specs:
        runs[spec] = run_stream(task, StreamConfig(spec, DIMS16, reset_period=period))
    assert calls == {"update_full_attention": 1, "update_vanilla_rnn": 1, "hebbian_update": 1,
                     "delta_rule_update": 2, "ttt3r_update": 3}
    # A cap of 4 stacked states splits the 12-segment layout into 3 calls.
    monkeypatch.setattr(recall_bench, "_STACK_BYTES", 4 * DIMS16.n * DIMS16.c * 8)
    calls.update(dict.fromkeys(_KERNELS, 0))
    run = run_stream(task, StreamConfig("ttt3r", DIMS16, reset_period=period))
    assert calls["ttt3r_update"] == 5
    np.testing.assert_array_equal(run.sq_errors, runs["ttt3r"].sq_errors)
    np.testing.assert_array_equal(run.betas, runs["ttt3r"].betas)
    np.testing.assert_array_equal(run.gate_offsets, runs["ttt3r"].gate_offsets)


# ---------------------------------------------------------------------------
# scoring in blocks of stored keys

_RULE_NAMES = ("full", "vanilla", "hebbian", "delta", "ttt3r")


@pytest.mark.parametrize("dims, key_mode, count, period, exact", [
    (StateDims(4, 64, 64, 64), "random_unit", 1473, 64, ("full", "hebbian", "delta")),
    (StateDims(4, 768, 768, 768), "orthonormal", 129, None, ("full", "hebbian", "delta")),
    (StateDims(3, 130, 130, 65), "random_unit", 1025, 7, ("hebbian", "delta")),
    (StateDims(4, 1216, 1216, 1216), "orthonormal", 1153, None, ("hebbian", "delta")),
], ids=["recall-long", "recall-wide", "cache-moves", "state-sized-blocks"])
def test_blocked_scoring_against_the_whole_batch_read(monkeypatch, dims, key_mode, count,
                                                       period, exact):
    # The benchmark's two recall shapes at reduced counts, a shape where
    # the cache rows move, and states whose third exceeds the stock budget
    # (128-row blocks for the cache and fast weights), scored in the
    # smallest blocks (64 rows, or a third of the state's bytes), in the
    # stock blocks and in one block of every key (the whole-batch read).
    # Each count is one past a multiple of 64, so the last 64-row block is
    # one key, which numpy reads by matrix-vector products.  A fast-weight
    # read gives a row its bits in any batch.  OpenBLAS rounds the token
    # and cache reads' products by the block's row count; the cache read
    # keeps its bits at the benchmark's shapes only.
    task = gen_recall_task(count, dims, key_mode, seed=0)
    for rule in _RULE_NAMES:
        runs = []
        for budget in (1, recall_bench._SCORE_BYTES, 1 << 40):
            monkeypatch.setattr(recall_bench, "_SCORE_BYTES", budget)
            runs.append(run_stream(task, StreamConfig(rule, dims, reset_period=period)))
        whole = runs[-1].sq_errors
        for curve in runs[:-1]:
            if rule in exact:
                assert curve.sq_errors.tobytes() == whole.tobytes()
            else:
                # Each logit is a length-c dot product, and two orders of
                # one agree within c 2^-53 of its absolute terms each way;
                # errors near 0 get the 1e-12 of the per-frame oracle.
                np.testing.assert_allclose(curve.sq_errors, whole, rtol=dims.c * 2.0 ** -52,
                                           atol=1e-12)


@pytest.mark.parametrize("rule", _RULE_NAMES)
def test_run_stream_holds_the_task_one_state_and_one_block(rule):
    # Above the live task, run_stream holds a few states and one block of
    # the scoring loop, so from 512 to 4096 stored pairs its peak grows by
    # less than one block.  Whole-batch reads held count x c arrays: 4 MB
    # each at 4096 pairs.
    dims = StateDims(4, 128, 128, 128)
    state_rows = {"full": 256, "vanilla": 4, "ttt3r": 4}.get(rule, 128)
    state_bytes = 8 * state_rows * 128
    block_bytes = recall_bench._SCORE_BYTES   # 64 rows are below it at these dims
    cfg = StreamConfig(rule, dims, reset_period=256)
    # The first run in a process imports numpy modules lazily.
    run_stream(gen_recall_task(8, dims, "random_unit", seed=0), cfg)
    peaks = {}
    for count in (512, 4096):
        task = gen_recall_task(count, dims, "random_unit", seed=0)
        tracemalloc.start()
        try:
            run_stream(task, cfg)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] < 4 * state_bytes + 2 * block_bytes
    assert peaks[4096] - peaks[512] < block_bytes


# ---------------------------------------------------------------------------
# recall quality


def test_delta_rule_is_exact_at_orthonormal_capacity():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    curve = run_stream(task, StreamConfig("delta", DIMS16))
    assert curve.worst_sq_error <= 1e-20


def test_hebbian_matches_delta_on_orthonormal_keys():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    curve = run_stream(task, StreamConfig("hebbian", DIMS16))
    assert curve.worst_sq_error <= 1e-20


def test_full_attention_recall_is_exact_at_unit_scale():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    cfg = StreamConfig("full", DIMS16, softmax_scale=1.0)
    curve = run_stream(task, cfg)
    assert curve.worst_sq_error <= 1e-16


def test_random_unit_overload_degrades_delta_recall():
    lo, hi = [], []
    for seed in range(5):
        dims = DIMS16
        small = gen_recall_task(8, dims, "random_unit", seed=seed)
        big = gen_recall_task(64, dims, "random_unit", seed=seed)
        c_small = run_stream(small, StreamConfig("delta", dims))
        c_big = run_stream(big, StreamConfig("delta", dims))
        lo.append(c_small.mean_sq_error)
        hi.append(c_big.mean_sq_error)
    assert np.mean(hi) > 5.0 * np.mean(lo)


def test_gated_and_ungated_token_rules_coincide_at_unit_gate():
    task = gen_recall_task(12, DIMS16, "orthonormal", seed=4)
    a = run_stream(task, StreamConfig("ttt3r:1", DIMS16))
    b = run_stream(task, StreamConfig("vanilla", DIMS16))
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)


def test_run_stream_is_pure():
    task = gen_recall_task(6, DIMS16, "orthonormal", seed=9)
    cfg = StreamConfig("ttt3r", DIMS16, gate_reduce="mean")
    a = run_stream(task, cfg)
    b = run_stream(task, cfg)
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)
    np.testing.assert_array_equal(a.gate_offsets, b.gate_offsets)
    np.testing.assert_array_equal(a.betas, b.betas)


# ---------------------------------------------------------------------------
# adversarial task


def test_adversarial_task_shape():
    dims = StateDims(4, 64, 64, 64)
    task = gen_adversarial_task(dims, seed=0)
    assert (task.count, task.frame_size) == (32, 16)
    assert task.keys.shape == task.values.shape == (160, 64)
    # Each frame repeats one token and one value; the frames follow the pairs.
    d_keys = task.keys[32:].reshape(8, 16, 64)
    d_values = task.values[32:].reshape(8, 16, 64)
    assert np.all(d_keys == d_keys[:, :1])
    assert np.all(d_values == d_values[:, :1])
    assert task.offsets.tolist() == list(range(32)) + list(range(32, 161, 16))
    np.testing.assert_allclose(np.linalg.norm(task.keys, axis=1), 1.0, rtol=0, atol=1e-9)
    # distractor directions lean away from the stored keys
    k_mean = task.keys[:32].sum(axis=0)
    assert np.all(task.keys[32:] @ k_mean < 0.0)


def test_adversarial_task_validation():
    dims = StateDims(4, 64, 64, 64)
    with pytest.raises(ValueError):
        gen_adversarial_task(dims, distractor_count=100, frame_size=16)
    with pytest.raises(ValueError):
        gen_adversarial_task(StateDims(4, 16, 16, 16))  # not enough directions


# ---------------------------------------------------------------------------
# rule comparison


def test_compare_rules_disambiguates_repeated_labels():
    task = gen_recall_task(4, DIMS16, "orthonormal", seed=1)
    configs = [StreamConfig("vanilla", DIMS16),
               StreamConfig("vanilla", DIMS16, softmax_scale=1.0),
               StreamConfig("ttt3r", DIMS16), StreamConfig("ttt3r", DIMS16, seed=1)]
    runs = compare_rules(task, configs)
    assert tuple(r.rule_label for r in runs) == ("vanilla", "vanilla#2", "ttt3r:confidence",
                                                 "ttt3r:confidence#2")
    # The relabelled run keeps its own errors and gates.
    alone = run_stream(task, configs[3])
    np.testing.assert_array_equal(runs[3].sq_errors, alone.sq_errors)
    np.testing.assert_array_equal(runs[3].betas, alone.betas)
    np.testing.assert_array_equal(runs[3].gate_offsets, alone.gate_offsets)
    assert len(runs[3].gate_offsets) - 1 == 4 and np.any(runs[3].betas != runs[2].betas)


def test_compare_rules_requires_configs():
    task = gen_recall_task(4, DIMS16, "orthonormal", seed=1)
    with pytest.raises(ValueError):
        compare_rules(task, [])


def test_rule_labels():
    for spec, label in [("full", "full"), ("vanilla", "vanilla"), ("hebbian", "hebbian"),
                        ("delta", "delta:1"), ("delta:", "delta:1"), ("delta:1.0", "delta:1"),
                        ("delta:0.50", "delta:0.5"), ("delta:input", "delta:input"),
                        ("ttt3r", "ttt3r:confidence"), ("ttt3r:1e-3", "ttt3r:0.001"),
                        ("ttt3r:input", "ttt3r:input"), ("ttt3r:per_token", "ttt3r:per_token"),
                        ("ttt3r:confidence", "ttt3r:confidence"),
                        # :g would round to 0.123457, so the label keeps the repr
                        ("delta:0.1234567891", "delta:0.1234567891")]:
        assert StreamConfig(spec, DIMS16).rule == label


@pytest.mark.parametrize("reduce", ["sum", "mean"])
def test_canonical_spec_names_the_same_rule(reduce):
    specs = ["full", "vanilla", "hebbian", "delta", "delta:0.5", "delta:0.125", "delta:input",
             "delta:0.1234567891", "ttt3r", "ttt3r:1", "ttt3r:0.5", "ttt3r:input",
             "ttt3r:per_token", "ttt3r:confidence", "ttt3r:3e-300"]
    for spec in specs:
        cfg = StreamConfig(spec, DIMS16, gate_reduce=reduce)
        assert StreamConfig(cfg.rule, DIMS16, gate_reduce=reduce) == cfg
        assert dataclasses.replace(cfg) == cfg
        gate = spec.partition(":")[2]
        if gate[:1].isdigit():
            # a constant rate reads back as the same float
            assert float(cfg.rule.partition(":")[2]) == float(gate)


def test_stream_config_rejects_bad_specs():
    valid = ("valid rules: full, vanilla, hebbian, delta[:<beta>|:input], "
             "ttt3r[:<beta>|:input|:per_token|:confidence]")
    for spec, message in [
        ("gru", f"unknown rule 'gru'; {valid}"),
        ("delta0.5", f"unknown rule 'delta0.5'; {valid}"),
        ("vanilla:0.5", "rule 'vanilla' takes no gate mode, got 'vanilla:0.5'"),
        ("full:confidence", "rule 'full' takes no gate mode, got 'full:confidence'"),
        ("delta:high", f"unknown gate mode 'high' in 'delta:high'; {valid}"),
        ("ttt3r:Input", f"unknown gate mode 'Input' in 'ttt3r:Input'; {valid}"),
        ("delta:1.5", "constant gate must lie in (0, 1], got 1.5"),
        ("ttt3r:0", "constant gate must lie in (0, 1], got 0.0"),
        ("delta:nan", "constant gate must lie in (0, 1], got nan"),
        ("ttt3r:-inf", "constant gate must lie in (0, 1], got -inf"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            StreamConfig(spec, DIMS16)
    with pytest.raises(ValueError, match="reduce must be 'sum' or 'mean', got 'max'"):
        StreamConfig("hebbian", DIMS16, gate_reduce="max")


def test_unsupported_combinations_raise_when_the_config_is_built():
    narrow = StateDims(2, 8, 16, 16)
    for spec, dims, message in [
        ("delta:confidence", DIMS16,
         "delta:confidence (the delta rule takes a constant or input gate)"),
        ("delta:per_token", DIMS16,
         "delta:per_token (the delta rule takes a constant or input gate)"),
        ("delta:input", narrow, "input-sigmoid delta gate needs c == c_k"),
    ] + [(spec, narrow, "token and cache rules need c == c_k, got c=8, c_k=16")
         for spec in ("full", "vanilla", "ttt3r", "ttt3r:0.5", "ttt3r:input",
                      "ttt3r:per_token")]:
        with pytest.raises(UnsupportedRuleCombination,
                           match=re.escape(f"unsupported rule/read combination: {message}")):
            StreamConfig(spec, dims)
    # The fast-weight rules read keys of their own width.
    for spec in ("hebbian", "delta", "delta:0.5"):
        assert StreamConfig(spec, narrow).rule.startswith(spec)


# ---------------------------------------------------------------------------
# CSV rendering


def test_curves_csv_schema_and_roundtrip():
    task = gen_recall_task(3, DIMS16, "orthonormal", seed=1)
    curve = run_stream(task, StreamConfig("delta", DIMS16))
    text = curves_to_csv([curve])
    lines = text.strip().split("\n")
    assert lines[0] == "rule,position,sq_error"
    assert len(lines) == 4
    for pos, (line, err) in enumerate(zip(lines[1:], curve.sq_errors)):
        rule, p, e = line.split(",")
        assert rule == "delta:1"
        assert int(p) == pos
        assert float(e) == err  # repr round-trips float64 exactly


def test_curves_csv_matches_the_per_row_oracle():
    task = gen_recall_task(24, DIMS16, "random_unit", seed=2)
    curves = [run_stream(task, StreamConfig(rule, DIMS16, reset_period=5))
              for rule in ("hebbian", "delta:0.5")]
    curves.append(RuleRun("edge", np.array([0.0, 5e-324, 1.7976931348623157e308])))
    lines = ["rule,position,sq_error"]
    for curve in curves:
        for pos, err in enumerate(curve.sq_errors):
            lines.append(f"{curve.rule_label},{pos},{float(err)!r}")
    assert curves_to_csv(curves) == "\n".join(lines) + "\n"


def test_gate_trace_csv_schema():
    task = gen_recall_task(3, DIMS16, "orthonormal", seed=1)
    run = run_stream(task, StreamConfig("ttt3r", DIMS16))
    lines = gate_trace_to_csv(run).strip().split("\n")
    assert lines[0] == "frame,token,beta"
    assert len(lines) == 1 + 3 * 4
    frame, token, beta = lines[1].split(",")
    assert (int(frame), int(token)) == (0, 0)
    assert 0.0 < float(beta) < 1.0
    # An ungated run has no gates: the header alone.
    assert gate_trace_to_csv(RuleRun("x", [1.0])) == "frame,token,beta\n"


def test_summary_csv_schema():
    task = gen_recall_task(3, DIMS16, "orthonormal", seed=1)
    curves = compare_rules(task, [StreamConfig("delta", DIMS16)])
    lines = summary_to_csv(curves).strip().split("\n")
    assert lines[0] == "rule,mean_sq_error,worst_sq_error"
    rule, mean, worst = lines[1].split(",")
    assert rule == "delta:1"
    assert float(mean) == curves[0].mean_sq_error
    assert float(worst) == curves[0].worst_sq_error
