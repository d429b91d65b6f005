"""Tests for the associative-recall benchmark and its task generators."""

import dataclasses
import math
import re

import numpy as np
import pytest

from ttt_lab.recall_bench import (
    QUERY_SATURATION,
    ForgettingCurve,
    GateTrace,
    RecallTask,
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
from ttt_lab.seeding import derive_seed
from ttt_lab.state_rules import ProjectionSet

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
    with pytest.raises(ValueError):
        RecallTask(np.ones((2, 4)), np.ones((2, 4)))  # keys not unit
    with pytest.raises(ValueError):
        gen_recall_task(0, DIMS16)
    with pytest.raises(ValueError):
        gen_recall_task(4, DIMS16, "correlated", rho=1.0)
    eye = np.eye(4)
    with pytest.raises(ValueError):
        RecallTask(eye[:2], np.ones((2, 3)), [2], np.ones((1, 5)), np.ones((1, 3)))
    for positions, d_keys, d_values, message in [
        ([1, 2], np.ones((1, 4)) / 2, np.ones((1, 3)),
         "2 distractor positions but 1 keys and 1 values"),
        ([1], np.ones((1, 4)) / 2, np.ones((2, 3)),
         "1 distractor positions but 1 keys and 2 values"),
        ([1], np.ones((1, 5)), np.ones((1, 3)), "distractor key width differs"),
        ([1], np.ones((1, 4)), np.ones((1, 2)), "distractor value width differs"),
        ([1, -2], np.ones((2, 4)), np.ones((2, 3)), "distractor row 1 has negative position -2"),
        ([1.5], np.ones((1, 4)), np.ones((1, 3)),
         "distractor positions must be a 1-D integer array"),
        ([1], np.ones(4), np.ones((1, 3)), "distractor keys and values must be 2-D"),
    ]:
        with pytest.raises(ValueError, match=message):
            RecallTask(eye[:2], np.ones((2, 3)), positions, d_keys, d_values)


def test_task_rejects_non_finite_rows():
    keys = np.eye(4)[:3]
    nan_key = keys.copy()
    nan_key[1, 0] = np.nan
    inf_value = np.ones((3, 2))
    inf_value[2, 1] = np.inf
    nan_distractor = np.array([[0.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    for args, message in [
        ((nan_key, np.ones((3, 2))), "key row 1 contains non-finite entries"),
        ((keys, inf_value), "value row 2 contains non-finite entries"),
        ((keys, np.ones((3, 2)), [0, 1], nan_distractor, np.ones((2, 2))),
         "distractor key row 1 contains non-finite entries"),
        ((keys, np.ones((3, 2)), [0], keys[:1], np.array([[1.0, -np.inf]])),
         "distractor value row 0 contains non-finite entries"),
    ]:
        with pytest.raises(ValueError, match=message):
            RecallTask(*args)


def test_generated_orthonormal_keys_are_pairwise_orthogonal():
    # RecallTask checks unit norms only; orthogonality is the generators'
    # promise, so the check lives here.
    for task in (gen_recall_task(64, StateDims(4, 64, 64, 64), seed=3),
                 gen_adversarial_task(StateDims(4, 64, 64, 64), seed=3)):
        gram = task.keys @ task.keys.T
        np.testing.assert_allclose(gram, np.eye(len(gram)), rtol=0, atol=1e-9)
        rebuilt = RecallTask(task.keys.copy(), task.values, task.distractor_positions,
                             task.distractor_keys, task.distractor_values)
        np.testing.assert_array_equal(rebuilt.keys, task.keys)


def test_recall_task_is_five_arrays():
    assert [f.name for f in dataclasses.fields(RecallTask)] == [
        "keys", "values", "distractor_positions", "distractor_keys", "distractor_values"]


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
    curve, _ = run_stream(task, StreamConfig("delta", DIMS16))
    np.testing.assert_array_equal(curve.positions, np.arange(6))
    assert curve.stream_length == 6


def test_batched_mode_packs_consecutive_pairs():
    task = gen_recall_task(10, DIMS16, "orthonormal", seed=0)
    cfg = StreamConfig("delta", DIMS16, batch_size=4)
    curve, trace = run_stream(task, cfg)
    assert curve.stream_length == 3
    np.testing.assert_array_equal(curve.positions, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2])
    assert np.diff(trace.offsets).tolist() == [4, 4, 2]


def test_distractor_groups_occupy_their_positions():
    eye = np.eye(16)
    d_key = eye[10]
    task = RecallTask(eye[:2], np.ones((2, 16)), [1, 1, 3], np.array([d_key] * 3),
                      np.zeros((3, 16)))
    curve, trace = run_stream(task, StreamConfig("delta", DIMS16))
    # stream: pair0, distractor pair(x2), pair1, distractor
    assert curve.stream_length == 4
    np.testing.assert_array_equal(curve.positions, [0, 2])
    assert np.diff(trace.offsets).tolist() == [1, 2, 1, 1]


def test_out_of_range_distractor_position_raises():
    eye = np.eye(16)
    # 2 pairs + 1 distractor group = 3 frames, so position 10 is invalid
    task = RecallTask(eye[:2], np.ones((2, 16)), [10], eye[10:11], np.zeros((1, 16)))
    with pytest.raises(ValueError):
        run_stream(task, StreamConfig("delta", DIMS16))


# ---------------------------------------------------------------------------
# stream config validation and unsupported combinations


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig("vanilla", DIMS16, reset_period=0)
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"scale must be positive and finite, got {scale}"):
            StreamConfig("vanilla", DIMS16, softmax_scale=scale)
    with pytest.raises(ValueError):
        StreamConfig("vanilla", DIMS16, batch_size=0)
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
    curve, trace = run_stream(task, StreamConfig("delta:input", DIMS16))
    assert len(trace) == 4
    assert np.all(trace.betas > 0.0) and np.all(trace.betas < 1.0)


# ---------------------------------------------------------------------------
# gate traces


def test_ungated_rules_return_empty_trace():
    task = gen_recall_task(4, DIMS16, "orthonormal", seed=0)
    for rule in ("full", "vanilla", "hebbian"):
        _, trace = run_stream(task, StreamConfig(rule, DIMS16, softmax_scale=1.0))
        assert len(trace) == 0
        assert trace.betas.size == 0 and trace.offsets.tolist() == [0]


def test_gated_rules_trace_every_frame():
    task = gen_recall_task(5, DIMS16, "orthonormal", seed=0)
    _, trace = run_stream(task, StreamConfig("ttt3r", DIMS16))
    assert len(trace) == 5
    assert np.diff(trace.offsets).tolist() == [4] * 5


def test_gate_trace_rejects_offsets_that_do_not_fit():
    GateTrace("x", np.full(6, 0.5), [0, 2, 6])
    for offsets in ([0, 2, 5], [1, 6], [0, 4, 4, 6], [], [[0, 6]]):
        with pytest.raises(ValueError, match="offsets must rise from 0"):
            GateTrace("x", np.full(6, 0.5), offsets)


def test_stream_honours_the_rules_confidence_reduce():
    task = gen_recall_task(6, DIMS16, "orthonormal", seed=0)
    _, t_sum = run_stream(task, StreamConfig("ttt3r", DIMS16, batch_size=3))
    _, t_mean = run_stream(task, StreamConfig("ttt3r", DIMS16, batch_size=3,
                                              gate_reduce="mean"))
    # Both streams start from the same state and see the same first frame
    # of 3 tokens, so its mean-reduced logits are a third of the summed ones.
    logit = lambda b: np.log(b / (1.0 - b))
    np.testing.assert_allclose(3.0 * logit(t_mean.betas[:t_mean.offsets[1]]),
                               logit(t_sum.betas[:t_sum.offsets[1]]), rtol=1e-9)
    a = t_sum.betas
    b = t_mean.betas
    assert np.any(a != b)


# ---------------------------------------------------------------------------
# reset protocol


def test_reset_every_frame_keeps_only_the_last_frame():
    task = gen_recall_task(8, DIMS16, "orthonormal", seed=3)
    cfg = StreamConfig("delta", DIMS16, reset_period=1)
    curve, _ = run_stream(task, cfg)
    # wiped pairs read back as zero, so their error is exactly ||v||^2
    expect = np.sum(task.values**2, axis=1)
    np.testing.assert_allclose(curve.sq_errors[:-1], expect[:-1], rtol=0, atol=1e-12)
    assert curve.sq_errors[-1] <= 1e-20


def test_reset_longer_than_stream_changes_nothing():
    task = gen_recall_task(8, DIMS16, "orthonormal", seed=3)
    base = StreamConfig("ttt3r", DIMS16)
    huge = StreamConfig("ttt3r", DIMS16, reset_period=1000)
    a, _ = run_stream(task, base)
    b, _ = run_stream(task, huge)
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)


def test_reset_restores_the_seeded_initial_state():
    # with P = count, the last window sees only the final pair, so the
    # stream behaves like a fresh one-pair stream for that pair
    task = gen_recall_task(4, DIMS16, "orthonormal", seed=7)
    cfg = StreamConfig("delta", DIMS16, reset_period=3)
    curve, _ = run_stream(task, cfg)
    solo = RecallTask(task.keys[3:], task.values[3:])
    solo_curve, _ = run_stream(solo, StreamConfig("delta", DIMS16))
    assert curve.sq_errors[3] == solo_curve.sq_errors[0]


def test_full_attention_reset_drops_cached_history():
    task = gen_recall_task(8, DIMS16, "orthonormal", seed=3)
    cfg = StreamConfig("full", DIMS16, reset_period=4, softmax_scale=1.0)
    curve, _ = run_stream(task, cfg)
    assert np.all(curve.sq_errors[4:] <= 1e-16)
    assert np.all(curve.sq_errors[:4] > 1e-3)


# ---------------------------------------------------------------------------
# segment ingest against the per-frame, per-pair oracle


def _oracle_frames(task, batch_size):
    """The stream's frames as (keys, values) arrays, built from the task alone.

    Distractor rows that share a position form the frame there, in row
    order; stored pairs fill the other frames in batches.  Also returns
    each stored pair's frame index.
    """
    groups = {}
    for pos, k, v in zip(task.distractor_positions.tolist(), task.distractor_keys,
                         task.distractor_values):
        groups.setdefault(pos, []).append((k, v))
    frames, positions, pair = [], [], 0
    while pair < task.count or len(frames) in groups:
        rows = groups.get(len(frames))
        if rows is None:
            rows = list(zip(task.keys[pair:pair + batch_size], task.values[pair:pair + batch_size]))
            positions += [len(frames)] * len(rows)
            pair += len(rows)
        frames.append((np.array([k for k, _ in rows]), np.array([v for _, v in rows])))
    return frames, np.array(positions)


def _oracle_sigmoid(z):
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _oracle_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def _per_frame_oracle(task, cfg):
    """Curve errors, pair positions and per-frame gates of one rule.

    A plain numpy loop over the frames (and over the pairs of a frame
    for the fast-weight rules), with identity projections as in
    run_stream; the token and cache rules keep the arithmetic of the
    per-frame kernels, so they must match bit for bit.  It reads the
    rule name and gate off the canonical spec itself.
    """
    dims = cfg.state_dims
    name, _, gate = cfg.rule.partition(":")
    scale = cfg.softmax_scale or 1.0 / math.sqrt(dims.c)
    gate_map = ProjectionSet.identity(dims.c, seed=derive_seed(cfg.seed, "projections")).gate_map
    frames, positions = _oracle_frames(task, cfg.batch_size)
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
            else:
                assert gate == "confidence"
                beta = _oracle_sigmoid(z.sum(axis=1) if cfg.gate_reduce == "sum"
                                       else z.mean(axis=1))
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
    if name == "full":
        queries, cached = QUERY_SATURATION * task.keys, np.vstack(s)
        reads = queries + _oracle_softmax(scale * (queries @ cached.T)) @ cached
        errors = np.sum((reads - queries - task.keys) ** 2, axis=1)
    elif tokens:
        errors = np.sum((_oracle_softmax(scale * (task.keys @ s.T)) @ s - task.keys) ** 2, axis=1)
    else:
        errors = np.array([float(np.sum((s @ k - v) ** 2)) for k, v in zip(task.keys, task.values)])
    return errors, positions, gates, len(frames)


def _oracle_stream(shape, rule):
    dims32, dims64 = StateDims(4, 32, 32, 32), StateDims(4, 64, 64, 64)
    if shape == "reset-not-dividing":
        # Segments of 70, 70 and 10 frames: one pair each, so a segment
        # crosses the 64-pair chunk boundary of the delta kernel.
        return (gen_recall_task(150, dims32, "random_unit", seed=5),
                StreamConfig(rule, dims32, reset_period=70, seed=3))
    if shape == "batch-3":
        # 34 frames of 3 pairs (the last of 1); a frame straddles a chunk boundary.
        return (gen_recall_task(100, dims32, "correlated", seed=6),
                StreamConfig(rule, dims32, reset_period=25, batch_size=3, seed=3))
    if shape == "scattered-distractors":
        # Distinct distractor rows, out of position order, grouped into
        # frames of 1 to 3 rows among frames of 2 pairs.
        base = gen_recall_task(40, dims32, "random_unit", seed=8)
        rng = np.random.default_rng(9)
        d_keys = rng.standard_normal((7, 32))
        d_keys /= np.linalg.norm(d_keys, axis=1, keepdims=True)
        task = RecallTask(base.keys, base.values, [5, 0, 5, 17, 5, 23, 0], d_keys,
                          rng.uniform(-1.0, 1.0, (7, 32)))
        return task, StreamConfig(rule, dims32, reset_period=9, batch_size=2, seed=3)
    return gen_adversarial_task(dims64, seed=7), StreamConfig(rule, dims64, seed=3)


_FAST_WEIGHT_SPECS = ["hebbian", "delta:1", "delta:input"]


@pytest.mark.parametrize("spec", _FAST_WEIGHT_SPECS + ["full", "vanilla", "ttt3r:confidence",
                                                     "ttt3r:input"])
@pytest.mark.parametrize("shape", ["reset-not-dividing", "batch-3", "adversarial",
                                   "scattered-distractors"])
def test_segment_ingest_matches_the_per_frame_oracle(spec, shape):
    task, cfg = _oracle_stream(shape, spec)
    curve, trace = run_stream(task, cfg)
    errors, positions, gates, n_frames = _per_frame_oracle(task, cfg)
    assert curve.stream_length == n_frames
    np.testing.assert_array_equal(curve.positions, positions)
    if spec in _FAST_WEIGHT_SPECS:
        # The chunked kernels reorder the sums: equal up to rounding.
        np.testing.assert_allclose(curve.sq_errors, errors, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(curve.sq_errors, errors)
    if not gates:
        assert len(trace) == 0 and trace.betas.size == 0
        return
    assert len(trace) == n_frames
    assert np.diff(trace.offsets).tolist() == [len(g) for g in gates]
    if spec in _FAST_WEIGHT_SPECS:
        np.testing.assert_allclose(trace.betas, np.concatenate(gates), rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(trace.betas, np.concatenate(gates))


# ---------------------------------------------------------------------------
# recall quality


def test_delta_rule_is_exact_at_orthonormal_capacity():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    curve, _ = run_stream(task, StreamConfig("delta", DIMS16))
    assert curve.worst_sq_error <= 1e-20


def test_hebbian_matches_delta_on_orthonormal_keys():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    curve, _ = run_stream(task, StreamConfig("hebbian", DIMS16))
    assert curve.worst_sq_error <= 1e-20


def test_full_attention_recall_is_exact_at_unit_scale():
    task = gen_recall_task(16, DIMS16, "orthonormal", seed=0)
    cfg = StreamConfig("full", DIMS16, softmax_scale=1.0)
    curve, _ = run_stream(task, cfg)
    assert curve.worst_sq_error <= 1e-16


def test_random_unit_overload_degrades_delta_recall():
    lo, hi = [], []
    for seed in range(5):
        dims = DIMS16
        small = gen_recall_task(8, dims, "random_unit", seed=seed)
        big = gen_recall_task(64, dims, "random_unit", seed=seed)
        c_small, _ = run_stream(small, StreamConfig("delta", dims))
        c_big, _ = run_stream(big, StreamConfig("delta", dims))
        lo.append(c_small.mean_sq_error)
        hi.append(c_big.mean_sq_error)
    assert np.mean(hi) > 5.0 * np.mean(lo)


def test_gated_and_ungated_token_rules_coincide_at_unit_gate():
    task = gen_recall_task(12, DIMS16, "orthonormal", seed=4)
    a, _ = run_stream(task, StreamConfig("ttt3r:1", DIMS16))
    b, _ = run_stream(task, StreamConfig("vanilla", DIMS16))
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)


def test_run_stream_is_pure():
    task = gen_recall_task(6, DIMS16, "orthonormal", seed=9)
    cfg = StreamConfig("ttt3r", DIMS16, gate_reduce="mean")
    a, ta = run_stream(task, cfg)
    b, tb = run_stream(task, cfg)
    np.testing.assert_array_equal(a.sq_errors, b.sq_errors)
    np.testing.assert_array_equal(ta.offsets, tb.offsets)
    np.testing.assert_array_equal(ta.betas, tb.betas)


# ---------------------------------------------------------------------------
# adversarial task


def test_adversarial_task_shape():
    dims = StateDims(4, 64, 64, 64)
    task = gen_adversarial_task(dims, seed=0)
    assert task.count == 32
    assert len(task.distractor_positions) == 128
    positions = sorted(set(task.distractor_positions.tolist()))
    assert positions == list(range(32, 40))
    np.testing.assert_allclose(np.linalg.norm(task.distractor_keys, axis=1), 1.0,
                               rtol=0, atol=1e-9)
    # distractor directions lean away from the stored keys
    k_mean = task.keys.sum(axis=0)
    assert np.all(task.distractor_keys @ k_mean < 0.0)


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
               StreamConfig("vanilla", DIMS16, softmax_scale=1.0)]
    curves, _ = compare_rules(task, configs)
    assert tuple(c.rule_label for c in curves) == ("vanilla", "vanilla#2")
    assert curves[1].rule_label == "vanilla#2"


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
    curve, _ = run_stream(task, StreamConfig("delta", DIMS16))
    text = curves_to_csv([curve])
    lines = text.strip().split("\n")
    assert lines[0] == "rule,position,sq_error"
    assert len(lines) == 4
    for line, pos, err in zip(lines[1:], curve.positions, curve.sq_errors):
        rule, p, e = line.split(",")
        assert rule == "delta:1"
        assert int(p) == pos
        assert float(e) == err  # repr round-trips float64 exactly


def test_curves_csv_matches_the_per_row_oracle():
    task = gen_recall_task(24, DIMS16, "random_unit", seed=2)
    curves = [run_stream(task, StreamConfig(rule, DIMS16, reset_period=5))[0]
              for rule in ("hebbian", "delta:0.5")]
    curves.append(ForgettingCurve("edge", np.array([0, 7, 2**40]),
                                  np.array([0.0, 5e-324, 1.7976931348623157e308]), 3))
    lines = ["rule,position,sq_error"]
    for curve in curves:
        for pos, err in zip(curve.positions, curve.sq_errors):
            lines.append(f"{curve.rule_label},{int(pos)},{float(err)!r}")
    assert curves_to_csv(curves) == "\n".join(lines) + "\n"


def test_gate_trace_csv_schema():
    task = gen_recall_task(3, DIMS16, "orthonormal", seed=1)
    _, trace = run_stream(task, StreamConfig("ttt3r", DIMS16))
    lines = gate_trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "frame,token,beta"
    assert len(lines) == 1 + 3 * 4
    frame, token, beta = lines[1].split(",")
    assert (int(frame), int(token)) == (0, 0)
    assert 0.0 < float(beta) < 1.0


def test_summary_csv_schema():
    task = gen_recall_task(3, DIMS16, "orthonormal", seed=1)
    curves, _ = compare_rules(task, [StreamConfig("delta", DIMS16)])
    lines = summary_to_csv(curves).strip().split("\n")
    assert lines[0] == "rule,mean_sq_error,worst_sq_error"
    rule, mean, worst = lines[1].split(",")
    assert rule == "delta:1"
    assert float(mean) == curves[0].mean_sq_error
    assert float(worst) == curves[0].worst_sq_error


def test_forgetting_curve_validation():
    with pytest.raises(ValueError):
        ForgettingCurve("x", np.arange(3), np.array([1.0, -2.0, 3.0]), 3)
    with pytest.raises(ValueError):
        ForgettingCurve("x", np.arange(3), np.array([1.0, 2.0]), 3)
