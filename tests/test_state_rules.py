"""Unit and property tests for the state-update rules.

Oracles here are deliberately independent of the library code paths:
matrix products are re-derived with scalar Python loops, gradients with
central finite differences, and the softmax against frozen literals
evaluated offline in 50-digit arithmetic.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ttt_lab.state_rules import (
    ProjectionSet,
    _GATE_HI,
    _GATE_LO,
    _resolve_scale,
    _row_blocked,
    confidence_gate,
    delta_rule_update,
    hebbian_update,
    read_fast_weight,
    read_full_attention,
    read_token_state,
    recon_loss,
    recon_loss_grad,
    ttt3r_update,
    update_full_attention,
    update_vanilla_rnn,
)

# softmax([1, 2, 3]) at unit scale, evaluated with 50-digit mpmath and
# rounded to nearest float64.
_SOFTMAX_123 = (0.09003057317038046, 0.24472847105479764, 0.6652409557748219)


def _loop_matmul(a, b):
    """Matrix product with explicit scalar loops, no vectorized path."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _loop_softmax(logits, scale):
    logits = np.asarray(logits, dtype=np.float64)
    out = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        row = [scale * v for v in logits[i]]
        top = max(row)
        exps = [math.exp(v - top) for v in row]
        total = sum(exps)
        out[i] = [e / total for e in exps]
    return out


# ---------------------------------------------------------------------------
# softmax
#
# The softmax is reached through the token read: over the state eye(c),
# read_token_state(eye(c), logits, scale) is exactly the row-wise
# softmax(scale * logits), since every product by the identity is exact.


def _read_softmax(logits, scale=1.0):
    logits = np.asarray(logits, dtype=np.float64)
    return read_token_state(np.eye(logits.shape[1]), logits, scale)


def test_softmax_matches_frozen_literals():
    out = _read_softmax(np.array([[1.0, 2.0, 3.0]]), scale=1.0)
    assert out.shape == (1, 3)
    np.testing.assert_allclose(out[0], _SOFTMAX_123, rtol=0, atol=5e-16)


def test_softmax_rows_sum_to_one_and_are_positive():
    rng = np.random.default_rng(0)
    out = _read_softmax(rng.standard_normal((7, 5)) * 10, scale=0.3)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(out > 0)


def test_softmax_is_shift_stable_at_large_magnitudes():
    for big in (1000.0, -1000.0):
        a = _read_softmax(np.array([[big, big + 1.0]]), scale=1.0)
        b = _read_softmax(np.array([[0.0, 1.0]]), scale=1.0)
        assert np.all(np.isfinite(a))
        np.testing.assert_array_equal(a, b)


def test_softmax_scale_folds_into_logits():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(
        _read_softmax(x, scale=2.5), _read_softmax(2.5 * x, scale=1.0),
        rtol=0, atol=1e-15,
    )


def test_softmax_rejects_bad_scale_and_nonfinite_input():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            _read_softmax(np.ones((2, 2)), scale=bad)
    with pytest.raises(ValueError, match="non-finite"):
        _read_softmax(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="scale 1e\\+308 overflows the scaled logits"):
        _read_softmax(np.array([[1.0, 10.0]]), scale=1e308)
    # Finite logits whose product already overflows at scale 1.0.
    with pytest.raises(ValueError, match="the logits Q K\\^T overflow"):
        read_token_state(np.full((1, 2), 1e200), np.full((1, 2), 1e200), 1.0)


@settings(max_examples=50)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-50, 50)),
       st.floats(0.05, 10.0))
def test_softmax_rows_always_normalized(logits, scale):
    out = _read_softmax(logits, scale=scale)
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    # strict positivity holds until exp(-spread) underflows near -745
    if scale * float(logits.max() - logits.min()) < 700.0:
        assert np.all(out > 0)


def test_default_scale_is_inverse_sqrt_width():
    assert _resolve_scale(None, 16) == 1.0 / 4.0
    assert _resolve_scale(None, 2) == 1.0 / math.sqrt(2.0)
    # The reads and updates take None to that scale.
    rng = np.random.default_rng(2)
    s, x = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
    half = 1.0 / math.sqrt(2.0)
    np.testing.assert_array_equal(read_token_state(s, x), read_token_state(s, x, half))
    np.testing.assert_array_equal(update_vanilla_rnn(s, x), update_vanilla_rnn(s, x, half))


# ---------------------------------------------------------------------------
# the gate map and gate validation


@pytest.mark.parametrize("c", [1, 2, 64, 768])
@pytest.mark.parametrize("seed", [0, 9, 2**40 + 3])
def test_gate_map_is_the_tail_of_one_uniform_draw(c, seed):
    bound = 1.0 / math.sqrt(c)
    want = np.random.default_rng(seed).uniform(-bound, bound, 3 * c * c + c)[-c:]
    for draw in (ProjectionSet.identity, ProjectionSet.seeded):
        gate_map = draw(c, seed).gate_map
        assert gate_map.dtype == np.float64 and gate_map.tobytes() == want.tobytes()
        assert not gate_map.flags.writeable


@pytest.mark.parametrize("gate", ["input", "per_token"])
def test_the_gate_map_gates_need_a_finite_gate_map_of_the_state_width(gate):
    s, x = np.ones((2, 4)), np.eye(4)[:3]
    message = f"^the {gate} gate needs a finite gate_map of length 4$"
    for gate_map in (None, np.zeros(3), np.zeros(5), np.zeros((1, 4)), [0.0, 0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match=message):
            ttt3r_update(s, x, gate, gate_map=gate_map)
        with pytest.raises(ValueError, match=message):
            ttt3r_update(np.stack([s, s]), np.stack([x, x]), gate, gate_map=gate_map)
    ttt3r_update(s, x, gate, gate_map=np.zeros(4))
    for other in (1.0, 0.5, "confidence"):
        ttt3r_update(s, x, other, gate_map=None)


def test_constant_scalar_domain():
    s, x = np.ones((2, 4)), np.eye(4)[:3]
    for rate in (1.0, 1e-6):
        _, betas = ttt3r_update(s, x, rate)
        assert np.all(betas == rate)
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"constant gate must lie in \(0, 1\]"):
            ttt3r_update(s, x, bad)


def test_confidence_gate_mode_rejects_unknown_reduce():
    s, x = np.ones((2, 4)), np.eye(4)[:3]
    for reduce in ("sum", "mean"):
        ttt3r_update(s, x, "confidence", reduce=reduce)
    with pytest.raises(ValueError, match="reduce must be 'sum' or 'mean', got 'max'"):
        ttt3r_update(s, x, "confidence", reduce="max")


def test_an_unknown_gate_name_lists_the_valid_gates():
    with pytest.raises(ValueError, match=r"unknown gate 'sigmoid'; valid gates: input, "
                                         r"per_token, confidence or a rate in \(0, 1\]"):
        ttt3r_update(np.ones((2, 4)), np.eye(4)[:3], "sigmoid")


# ---------------------------------------------------------------------------
# full-attention cache


def test_read_from_empty_cache_raises():
    with pytest.raises(ValueError):
        read_full_attention(np.empty((0, 3)), np.ones((1, 3)))


def test_full_attention_read_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    cache = np.empty((0, 4))
    frames = [rng.standard_normal((m, 4)) for m in (2, 3, 1)]
    for f in frames:
        cache = update_full_attention(cache, f)
    x = rng.standard_normal((2, 4))
    got = read_full_attention(cache, x, scale=0.7)

    all_tokens = np.vstack(frames)
    weights = _loop_softmax(_loop_matmul(x, all_tokens.T), 0.7)
    expect = x + _loop_matmul(weights, all_tokens)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_cache_rejects_mismatched_widths():
    cache = update_full_attention(np.empty((0, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        update_full_attention(cache, np.ones((1, 4)))


def test_cache_append_validates_the_new_entry():
    cache = np.ones((1, 3))
    with pytest.raises(ValueError, match="width"):
        update_full_attention(cache, np.ones((1, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        update_full_attention(cache, np.full((1, 3), np.nan))


def test_cache_append_checks_the_cache():
    tokens = np.ones((2, 3))
    non_finite = np.ones((2, 3))
    non_finite[1, 0] = np.inf
    for cache, message in ((np.ones(3), "cache must be a 2-D array"),
                           (np.ones((2, 4)), "token width 3 does not match state width 4"),
                           (np.empty((0, 0)), r"cache must be non-empty, got shape \(0, 0\)"),
                           (non_finite, "cache contains non-finite entries")):
        with pytest.raises(ValueError, match=message):
            update_full_attention(cache, tokens)
    for cache in (np.empty((0, 3)), np.ones((1, 3))):
        out = update_full_attention(cache, tokens)
        assert not np.shares_memory(out, cache) and not np.shares_memory(out, tokens)


def test_cache_appends_a_segment_as_one_block():
    rng = np.random.default_rng(4)
    first, second = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
    cache = update_full_attention(np.empty((0, 3)), first)
    assert cache.shape == (4, 3)
    cache = update_full_attention(cache, second)
    # the cache keeps the raw token rows
    np.testing.assert_array_equal(cache, np.vstack([first, second]))


# ---------------------------------------------------------------------------
# token-state updates


def test_vanilla_update_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    s = rng.standard_normal((3, 5))
    x = rng.standard_normal((4, 5))
    got = update_vanilla_rnn(s, x, scale=0.4)

    weights = _loop_softmax(_loop_matmul(s, x.T), 0.4)
    expect = s + _loop_matmul(weights, x)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


# name -> (state kind, call(state, x)); x is 3 unit rows of width 4.
# Token states are 2 x 4, fast-weight states 3 x 4 (c_v x c_k), and the
# cache holds the rows of x.
_STATE_KERNELS = {
    "full": ("cache", update_full_attention),
    "vanilla": ("tokens", update_vanilla_rnn),
    "ttt3r": ("tokens", lambda s, x, **kw: ttt3r_update(s, x, "confidence", **kw)[0]),
    "hebbian": ("fast", lambda s, x: hebbian_update(s, x, x[:, :3])),
    "delta": ("fast", lambda s, x: delta_rule_update(s, x, x[:, :3], 0.5)),
    "read_full": ("cache", read_full_attention),
    "read_token": ("tokens", read_token_state),
    "read_fast_weight": ("fast", lambda s, x: read_fast_weight(s, x[0])),
}


@pytest.mark.parametrize("name", list(_STATE_KERNELS))
def test_vanilla_update_does_not_mutate_inputs(name):
    rng = np.random.default_rng(8)
    x_arr = rng.standard_normal((3, 4))
    x_arr /= np.linalg.norm(x_arr, axis=1, keepdims=True)
    kind, call = _STATE_KERNELS[name]
    s_arr = {"tokens": rng.standard_normal((2, 4)), "fast": rng.standard_normal((3, 4)),
             "cache": x_arr}[kind]
    calls = [(s_arr, x_arr, {})]
    if name in ("vanilla", "ttt3r"):
        # One-token frames, and a stack of two segments: a kernel that
        # stepped the caller's state in place would change it.
        one_token = {"offsets": np.arange(len(x_arr) + 1)}
        calls += [(s_arr, x_arr, one_token),
                  (np.stack((s_arr, -s_arr)), np.stack((x_arr, x_arr[::-1])), {}),
                  (np.stack((s_arr, -s_arr)), np.stack((x_arr, x_arr[::-1])), one_token)]
    for s_arr, x_arr, kwargs in calls:
        s = s_arr.copy()
        x = x_arr.copy()
        out = call(s, x, **kwargs)
        np.testing.assert_array_equal(s, s_arr)
        np.testing.assert_array_equal(x, x_arr)
        if not name.startswith("read"):
            assert isinstance(out, np.ndarray) and not np.shares_memory(out, s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", list(_STATE_KERNELS))
def test_kernels_reject_a_non_finite_state(name, bad):
    kind, call = _STATE_KERNELS[name]
    x = np.eye(4)[1:]   # read_fast_weight's query is e_1: column 2 meets a 0
    s = np.ones((2, 4) if kind == "tokens" else (3, 4))
    s[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="non-finite"):
            call(s, x)


def test_gated_update_with_unit_constant_equals_ungated_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(25):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        s = rng.standard_normal((n, c))
        x = rng.standard_normal((m, c))
        gated, betas = ttt3r_update(s, x, 1.0)
        plain = update_vanilla_rnn(s, x)
        np.testing.assert_array_equal(gated, plain)
        np.testing.assert_array_equal(betas[0], np.ones(n))


def test_gated_update_scales_increment_per_state_token():
    rng = np.random.default_rng(10)
    s = rng.standard_normal((3, 4))
    x = rng.standard_normal((2, 4))
    half, betas = ttt3r_update(s, x, 0.5)
    full = update_vanilla_rnn(s, x)
    np.testing.assert_allclose(
        half - s, 0.5 * (full - s), rtol=0, atol=1e-15
    )
    np.testing.assert_array_equal(betas[0], np.full(3, 0.5))


def test_per_token_gate_squashes_state_rows():
    rng = np.random.default_rng(11)
    gate_map = ProjectionSet.identity(4, seed=6).gate_map
    s = rng.standard_normal((3, 4))
    x = rng.standard_normal((2, 4))
    _, betas = ttt3r_update(s, x, "per_token", gate_map=gate_map)
    expect = 1.0 / (1.0 + np.exp(-(s @ gate_map)))
    np.testing.assert_allclose(betas[0], expect, rtol=0, atol=1e-12)


def test_input_scalar_gate_is_shared_across_state_rows():
    rng = np.random.default_rng(12)
    gate_map = ProjectionSet.identity(4, seed=6).gate_map
    s = rng.standard_normal((3, 4))
    x = rng.standard_normal((2, 4))
    _, betas = ttt3r_update(s, x, "input", gate_map=gate_map)
    beta = betas[0]
    assert beta.shape == (3,)
    assert np.all(beta == beta[0])
    expect = 1.0 / (1.0 + np.exp(-float(np.mean(x @ gate_map))))
    assert beta[0] == pytest.approx(expect, rel=0, abs=1e-12)


# (gate, reduce) of each gate mode; the ids spell the modes' long names.
_GATE_MODES = [pytest.param(1.0, "sum", id="ConstantScalar(value=1.0)"),
               pytest.param(0.5, "sum", id="ConstantScalar(value=0.5)"),
               pytest.param("input", "sum", id="InputScalarSigmoid()"),
               pytest.param("per_token", "sum", id="PerTokenInputSigmoid()"),
               pytest.param("confidence", "sum", id="ConfidenceGate(reduce='sum')"),
               pytest.param("confidence", "mean", id="ConfidenceGate(reduce='mean')")]


@pytest.mark.parametrize("gate, reduce", _GATE_MODES)
def test_token_segment_equals_one_call_per_frame(gate, reduce):
    # Frames of 1 to 4 tokens.  The segment call runs the very arithmetic
    # of the single-frame calls, so it is bitwise equal.
    rng = np.random.default_rng(21)
    sizes = [1, 3, 1, 4, 2]
    tokens = rng.standard_normal((sum(sizes), 6))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    gate_map = ProjectionSet.identity(6, seed=3).gate_map
    s0 = rng.standard_normal((3, 6))
    got, got_betas = ttt3r_update(s0, tokens, gate, 0.7, offsets=offsets, reduce=reduce,
                                  gate_map=gate_map)
    s, betas = s0, []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        s, frame_betas = ttt3r_update(s, tokens[lo:hi], gate, 0.7, reduce=reduce,
                                      gate_map=gate_map)
        betas.append(frame_betas[0])
    np.testing.assert_array_equal(got, s)
    np.testing.assert_array_equal(got_betas, np.array(betas))
    assert got_betas.shape == (len(sizes), 3)
    if gate == 1.0:
        plain = update_vanilla_rnn(s0, tokens, 0.7, offsets=offsets)
        np.testing.assert_array_equal(plain, got)


@pytest.mark.parametrize("gate, reduce", _GATE_MODES)
def test_stacked_token_update_equals_per_segment_calls(gate, reduce):
    # Frames of 1 to 4 tokens; each stacked segment must get the bits of
    # its own 2-D call, from one broadcast initial state as from distinct
    # ones.
    rng = np.random.default_rng(22)
    sizes = [2, 1, 4, 1, 3]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    tokens = rng.standard_normal((5, offsets[-1], 6))
    gate_map = ProjectionSet.identity(6, seed=3).gate_map
    s0 = rng.standard_normal((3, 6))
    for states in (np.broadcast_to(s0, (5, 3, 6)), rng.standard_normal((5, 3, 6))):
        got, got_betas = ttt3r_update(states, tokens, gate, 0.7, offsets=offsets,
                                      reduce=reduce, gate_map=gate_map)
        assert got.shape == (5, 3, 6) and got_betas.shape == (5, len(sizes), 3)
        for b in range(5):
            want, want_betas = ttt3r_update(states[b], tokens[b], gate, 0.7, offsets=offsets,
                                            reduce=reduce, gate_map=gate_map)
            np.testing.assert_array_equal(got[b], want)
            np.testing.assert_array_equal(got_betas[b], want_betas)
        if gate == 1.0:
            plain = update_vanilla_rnn(states, tokens, 0.7, offsets=offsets)
            np.testing.assert_array_equal(plain, got)


@pytest.mark.parametrize("c", [4, 16, 64, 200, 768])
def test_stacked_matmul_gives_each_slice_the_bits_of_its_2d_product(c):
    # The lockstep token kernel rests on this: numpy's stacked matmul runs
    # the 2-D BLAS routine once per slice, for each product the kernel
    # takes (logits, attention-weighted values and gate-map responses),
    # including stride-0 and sliced stacks.
    rng = np.random.default_rng(c)
    g = rng.standard_normal(c)
    for frame in (1, 2, 7, 64):
        s = rng.standard_normal((5, 4, c))
        x = rng.standard_normal((5, frame + 3, c))[:, 1:frame + 1]
        z = rng.standard_normal((5, 4, frame))
        shared = np.broadcast_to(s[0], s.shape)
        stacked = [(s @ x.transpose(0, 2, 1), lambda b: s[b] @ x[b].T),
                   (shared @ x.transpose(0, 2, 1), lambda b: s[0] @ x[b].T),
                   (z @ x, lambda b: z[b] @ x[b]),
                   (x @ g, lambda b: x[b] @ g),
                   (s @ g, lambda b: s[b] @ g)]
        for product, per_slice in stacked:
            for b in range(5):
                np.testing.assert_array_equal(product[b], per_slice(b))


def test_stacked_token_update_checks_its_stack():
    tokens = np.ones((2, 6, 4))
    offsets = [0, 2, 5, 6]
    with pytest.raises(ValueError, match="3 stacked states for 2 stacked segments"):
        ttt3r_update(np.ones((3, 2, 4)), tokens, "confidence", offsets=offsets)
    with pytest.raises(ValueError, match="state must be a 3-D array"):
        ttt3r_update(np.ones((2, 4)), tokens, "confidence", offsets=offsets)
    with pytest.raises(ValueError, match="state must be a 2-D array"):
        ttt3r_update(np.ones((2, 2, 4)), tokens[0], "confidence", offsets=offsets)
    with pytest.raises(ValueError, match=r"tokens must be a non-empty 2-D or 3-D array, "
                                         r"got shape \(0, 6, 4\)"):
        ttt3r_update(np.ones((0, 2, 4)), tokens[:0], "confidence", offsets=offsets)
    bad = tokens.copy()
    bad[1, 3, 2] = np.nan
    with pytest.raises(ValueError, match=r"token row 3 \(frame 1\) of segment 1 contains "
                                         "non-finite"):
        update_vanilla_rnn(np.ones((2, 2, 4)), bad, offsets=offsets)
    with pytest.raises(ValueError, match="tokens must be a non-empty 2-D array"):
        read_token_state(np.ones((2, 4)), tokens)


@pytest.mark.parametrize("gate", [None, 1.0, 0.5, "input", "per_token", "confidence"])
def test_token_updates_raise_when_the_scaled_logits_overflow(gate):
    # Each logit is 4 before scaling and overflows at 1e308, for one
    # segment and for a stack.  A numpy warning instead fails the suite.
    gate_map = ProjectionSet.identity(4).gate_map
    for s, tokens, offsets in ((np.ones((2, 4)), np.ones((3, 4)), None),
                               (np.ones((2, 2, 4)), np.ones((2, 3, 4)), [0, 2, 3])):
        with pytest.raises(ValueError, match="scale 1e\\+308 overflows the scaled logits"):
            if gate is None:
                update_vanilla_rnn(s, tokens, 1e308, offsets=offsets)
            else:
                ttt3r_update(s, tokens, gate, 1e308, offsets=offsets, gate_map=gate_map)


def _frame_sum(s0, betas, x):
    """S_0 + sum_f beta_f x_f, added one frame at a time in frame order."""
    state = s0
    for beta, row in zip(betas, x):
        state = state + beta[:, None] * row
    return state


def test_one_token_frames_add_their_gated_tokens_exactly():
    # The softmax weight of one finite logit is exactly 1.0, so a one-token
    # frame adds beta_f x_f to the state.  Over a stream of 8,192 frames of
    # random unit rows the kernel's state is that running sum, bit for bit,
    # from the betas it returns, and so is each segment of a lockstep call.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8192, 64))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    s0 = rng.uniform(-1.0, 1.0, (4, 64)) / 8.0
    offsets = np.arange(len(x) + 1)
    for gate in ("confidence", 0.5):
        state, betas = ttt3r_update(s0, x, gate, offsets=offsets)
        assert state.tobytes() == _frame_sum(s0, betas, x).tobytes()
    state = update_vanilla_rnn(s0, x, offsets=offsets)
    assert state.tobytes() == _frame_sum(s0, np.ones((len(x), 4)), x).tobytes()
    segments = x.reshape(128, 64, 64)
    states, betas = ttt3r_update(np.broadcast_to(s0, (128, 4, 64)), segments, "confidence",
                                 offsets=np.arange(65))
    for b in (0, 77, 127):
        assert states[b].tobytes() == _frame_sum(s0, betas[b], segments[b]).tobytes()


def test_read_token_state_matches_scalar_loop_oracle():
    rng = np.random.default_rng(13)
    s = rng.standard_normal((3, 4))
    queries = rng.standard_normal((5, 4))
    got = read_token_state(s, queries, scale=1.0)
    expect = _loop_matmul(_loop_softmax(_loop_matmul(queries, s.T), 1.0), s)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# reconstruction objective and its gradient


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(15)
    s_arr = rng.standard_normal((3, 4))
    keys = rng.standard_normal((6, 4))
    values = rng.standard_normal((6, 3))
    grad = recon_loss_grad(s_arr, keys, values)
    step = 1e-6
    fd = np.zeros_like(grad)
    for i in range(3):
        for j in range(4):
            bump = np.zeros_like(s_arr)
            bump[i, j] = step
            hi = recon_loss(s_arr + bump, keys, values)
            lo = recon_loss(s_arr - bump, keys, values)
            # gradient of HALF the squared error, hence the extra 2
            fd[i, j] = (hi - lo) / (4.0 * step)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_loss_is_squared_residual_norm():
    s = np.array([[1.0, 0.0], [0.0, 2.0]])
    keys = np.array([[1.0, 0.0]])
    values = np.array([[3.0, 4.0]])
    # residual = S k - v = (1-3, 0-4) = (-2, -4); squared norm 20
    assert recon_loss(s, keys, values) == pytest.approx(20.0, rel=0, abs=0)


# recon_loss and recon_loss_grad of seed-1 draws (S 5 x 7, K 6 x 7, V 6 x 5),
# frozen from the row form S K^T - V^T.  The residual (K S^T - V)^T is the
# same matrix in exact arithmetic but moves the loss to ...a21p+7 here, so
# an order change in the loss cannot pass unseen.
_RECON_LOSS_HEX = "0x1.39dac14537a23p+7"
_RECON_GRAD_HEX = [
    ["0x1.fdf7b838dac93p+0", "-0x1.2c08023675cd0p-1", "-0x1.787161867f888p+0",
     "-0x1.528c51ef09dd7p-1", "-0x1.10ce19a5c8344p-1", "0x1.d4b7334a9f9efp-1",
     "-0x1.506b78af6e5d0p+0"],
    ["-0x1.a4b8a25e297c3p+1", "-0x1.0e5dab448ac7ep+0", "-0x1.ec83ccdcec643p+0",
     "-0x1.d4196eaa7cb96p-2", "0x1.0ea9ea13c2328p+1", "-0x1.ad8fef05ad3ecp+2",
     "0x1.509ca2e954fc9p+0"],
    ["-0x1.5d0f5991f98a0p+2", "0x1.e2f2d159a2406p+0", "0x1.410dd5e00fecfp+2",
     "-0x1.1bd1b9d9f943bp+1", "-0x1.7ab67c9c7c8ccp-2", "-0x1.6f00d9100f107p+1",
     "0x1.4d2ede3bd2791p+1"],
    ["-0x1.a83b65e79d370p+2", "0x1.1ba3d41cd66ebp+2", "0x1.33f7e3fc76afdp+3",
     "-0x1.aa8562ee971eep+2", "-0x1.39e62d90428edp+0", "0x1.e1daa8519c9ddp+0",
     "0x1.614367eb79b24p+1"],
    ["-0x1.091014883fa76p+0", "0x1.41a32d8e53697p+1", "0x1.1981cdbd129e8p+4",
     "-0x1.674259acca139p+1", "-0x1.293528f991d01p+2", "0x1.09666d7bc5fb9p+4",
     "0x1.8df7bb550a94dp+2"],
]


def _recon_draws():
    rng = np.random.default_rng(1)
    return rng.standard_normal((5, 7)), rng.standard_normal((6, 7)), rng.standard_normal((6, 5))


def test_recon_loss_bits_are_frozen():
    assert recon_loss(*_recon_draws()).hex() == _RECON_LOSS_HEX


def test_recon_loss_grad_bits_are_frozen():
    grad = recon_loss_grad(*_recon_draws())
    assert [[v.hex() for v in row] for row in grad.tolist()] == _RECON_GRAD_HEX


def test_gradient_shape_validation():
    s = np.zeros((2, 3))
    with pytest.raises(ValueError):
        recon_loss_grad(s, np.ones((4, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        recon_loss(s, np.ones((4, 3)), np.ones((5, 2)))


# ---------------------------------------------------------------------------
# delta rule and Hebbian write


def test_delta_update_is_identity_at_stored_association():
    rng = np.random.default_rng(16)
    s_arr = rng.standard_normal((3, 4))
    k = rng.standard_normal(4)
    k /= np.linalg.norm(k)
    v = s_arr @ k
    out = delta_rule_update(s_arr, k, v, beta=0.7)
    np.testing.assert_array_equal(out, s_arr)


def test_delta_update_contracts_residual_by_one_minus_beta():
    rng = np.random.default_rng(17)
    s_arr = rng.standard_normal((3, 4))
    k = rng.standard_normal(4)
    k /= np.linalg.norm(k)
    v = rng.standard_normal(3)
    for beta in (0.25, 0.5, 1.0):
        out = delta_rule_update(s_arr, k, v, beta=beta)
        before = s_arr @ k - v
        after = out @ k - v
        np.testing.assert_allclose(after, (1.0 - beta) * before, rtol=0, atol=1e-12)


def test_delta_full_step_writes_value_exactly():
    rng = np.random.default_rng(18)
    s = rng.standard_normal((3, 4))
    k = rng.standard_normal(4)
    k /= np.linalg.norm(k)
    v = rng.standard_normal(3)
    out = delta_rule_update(s, k, v, beta=1.0)
    np.testing.assert_allclose(read_fast_weight(out, k), v, rtol=0, atol=1e-12)


def test_read_fast_weight_checks_its_query():
    s = np.ones((3, 4))
    for bad in (np.ones(5), np.ones((0, 4)), np.ones((2, 5)), np.ones((2, 1, 4)),
                np.float64(1.0)):
        with pytest.raises(ValueError, match=r"query must have shape \(4,\)"):
            read_fast_weight(s, bad)
    np.testing.assert_array_equal(read_fast_weight(s, np.ones((1, 4))), [[4.0, 4.0, 4.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="S q is not finite"):
            read_fast_weight(s, np.array([0.0, bad, 0.0, 0.0]))


def test_read_fast_weight_finds_non_finite_readouts_through_padded_blocks():
    # Queries are read in zero-padded blocks of 64, so a 65-row batch ends
    # in a block with 63 zero columns.  The padding must neither hide a
    # non-finite readout nor make one.
    for bad in (np.nan, np.inf, -np.inf):
        s = np.ones((3, 4))
        s[1, 2] = bad
        for q in (np.eye(4)[0], np.eye(4)[:1], np.tile(np.eye(4)[0], (65, 1))):
            with pytest.raises(ValueError, match="S q is not finite"):
                read_fast_weight(s, q)   # bad * 0 is nan
        q = np.ones((65, 4))
        q[64, 1] = bad                   # the last block's only real row
        with pytest.raises(ValueError, match="S q is not finite"):
            read_fast_weight(np.ones((3, 4)), q)
    q = np.zeros((65, 4))
    q[30, 0] = 1e300
    with pytest.raises(ValueError, match="S q is not finite"):
        read_fast_weight(np.full((3, 4), 1e300), q)   # 1e300 * 1e300 overflows
    s = np.full((3, 4), 1e300)
    for m in (1, 63, 64, 65, 129):
        out = read_fast_weight(s, np.full((m, 4), 1e-300))
        assert out.shape == (m, 3) and np.all(out == 4.0)


def _assert_near_s_q(s, queries, out):
    """Each row lies within c_k 2^-52 (|Q| |S|^T) of the per-row gemv S @ q.

    Both the read and S @ q are float64 dot products of length c_k, each within
    c_k 2^-53 (|q| . |s_i|) of the exact value, so the bound is that
    standard dot-product error bound taken once for each side.
    """
    oracle = np.array([s @ q for q in queries])
    bound = s.shape[1] * 2.0 ** -52 * (np.abs(queries) @ np.abs(s).T)
    assert np.all(np.abs(out - oracle) <= bound)


@pytest.mark.parametrize("c_v, c_k", [(1, 1), (3, 4), (7, 5), (16, 16), (64, 64),
                                      (33, 100), (768, 768), (771, 768), (103, 100)])
def test_batched_read_gives_each_row_the_bits_of_s_q(c_v, c_k):
    # A row read in any batch has the bits of its own read, alone, and is
    # within the dot-product error bound of S @ q.  (771, 768) and
    # (103, 100) are shapes where, with OpenBLAS, a Q_b @ S^T block gives
    # some rows bits that depend on their place in the block.
    rng = np.random.default_rng(c_v * 1000 + c_k)
    s = rng.standard_normal((c_v, c_k))
    queries = rng.standard_normal((130, c_k))
    alone = np.array([read_fast_weight(s, q) for q in queries])
    for i, q in enumerate(queries):
        assert read_fast_weight(s, q[None]).tobytes() == alone[i].tobytes()
    for batch in (queries, np.asfortranarray(queries)):
        out = read_fast_weight(s, batch)
        assert out.shape == (130, c_v)
        assert out.tobytes() == alone.tobytes()
        for k in (1, 63, 64, 65, 129):
            assert read_fast_weight(s, batch[:k]).tobytes() == out[:k].tobytes()
    _assert_near_s_q(s, queries, alone)


_BLOCK_EDGES = (63, 64, 65, 128, 129)


@settings(max_examples=40)
@given(c_v=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 300)),
       c_k=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 300)),
       m=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 200)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(c_v=63, c_k=64, m=65, seed=0)
@example(c_v=64, c_k=65, m=128, seed=1)
@example(c_v=65, c_k=128, m=129, seed=2)
@example(c_v=128, c_k=129, m=63, seed=3)
@example(c_v=129, c_k=63, m=64, seed=4)
def test_read_fast_weight_rows_keep_their_lone_bits_in_any_layout(c_v, c_k, m, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((c_v, c_k))
    base = rng.standard_normal((2 * m, 2 * c_k))
    batches = (np.ascontiguousarray(base[:m, :c_k]), np.asfortranarray(base[:m, :c_k]),
               base[::2, :c_k], base[:m, ::2])
    for batch in batches:
        out = read_fast_weight(s, batch)
        for i in range(m):
            assert out[i].tobytes() == read_fast_weight(s, batch[i]).tobytes()
        _assert_near_s_q(s, batch, out)


def test_delta_rejects_non_unit_key_and_bad_beta():
    s = np.zeros((2, 3))
    v = np.ones(2)
    with pytest.raises(ValueError):
        delta_rule_update(s, np.array([1.0, 1.0, 0.0]), v, beta=0.5)
    k = np.array([1.0, 0.0, 0.0])
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            delta_rule_update(s, k, v, beta=bad)


def test_hebbian_update_adds_outer_product():
    rng = np.random.default_rng(19)
    s_arr = rng.standard_normal((3, 4))
    k = rng.standard_normal(4)
    k /= np.linalg.norm(k)
    v = rng.standard_normal(3)
    out = hebbian_update(s_arr, k, v)
    np.testing.assert_array_equal(out, s_arr + np.outer(v, k))


def test_fast_weight_kernels_allocate_no_state_sized_temporary():
    # At width 768 a state is 4.5 MiB.  Each kernel may allocate its result
    # and at most 1.5 MiB more numpy memory: blocks of state rows, never a
    # second state.  (BLAS packing buffers are not numpy memory.)
    rng = np.random.default_rng(768)
    keys = _key_rows("random_unit", 768, 768, rng)
    values = rng.uniform(-1.0, 1.0, (768, 768))
    s_arr = 0.01 * rng.standard_normal((768, 768))
    for kernel in (lambda: hebbian_update(s_arr, keys, values),
                   lambda: delta_rule_update(s_arr, keys, values, 0.5),
                   lambda: read_fast_weight(s_arr, keys)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before - out.nbytes <= 1.5 * 2**20


def _one_gemm_delta(s_arr, keys, values, betas):
    """The chunkwise delta rule with U^T K added to S by one GEMM per chunk."""
    out = np.array(s_arr, dtype=np.float64)
    for lo in range(0, len(keys), 64):
        k, b = keys[lo:lo + 64], betas[lo:lo + 64]
        t = np.linalg.solve(np.eye(len(k)) + b[:, None] * np.tril(k @ k.T, -1), np.diag(b))
        u = t @ (values[lo:lo + 64] - _row_blocked(out, k.T).T)
        out += u.T @ k
    return out


# The benchmark's state shapes (c_v, c_k) = (64, 64) and (768, 768), and
# c_v just past a block of rows, with chunks of 64 pairs and a short one.
# At some other shapes, e.g. 126 x 137, two OpenBLAS threads split the one
# GEMM so that an edge column rounds differently from one thread, and from
# the row blocks (which round alike for one and two threads); the per-pair
# bound holds there as everywhere.
@pytest.mark.parametrize("c_v, c_k, n", [(64, 64, 130), (768, 768, 130), (1025, 64, 130),
                                         (129, 1024, 70), (833, 768, 65), (1, 257, 65)])
def test_row_blocked_delta_keeps_the_one_gemm_bits(c_v, c_k, n):
    rng = np.random.default_rng(c_v + c_k)
    keys = _key_rows("random_unit", n, c_k, rng)
    values = rng.uniform(-1.0, 1.0, (n, c_v))
    s_arr = 0.1 * rng.standard_normal((c_v, c_k))
    betas = rng.uniform(0.05, 1.0, n)
    got = delta_rule_update(s_arr, keys, values, betas)
    assert got.tobytes() == _one_gemm_delta(s_arr, keys, values, betas).tobytes()
    np.testing.assert_allclose(got, _sequential_delta(s_arr, keys, values, betas),
                               rtol=0, atol=1e-12)


def _sequential_delta(s_arr, keys, values, betas):
    """Per-pair oracle: S <- S - beta (S k - v) k^T, one pair at a time."""
    s = np.array(s_arr, dtype=np.float64)
    for k, v, beta in zip(keys, values, betas):
        s = s - beta * np.outer(s @ k - v, k)
    return s


def _sequential_hebbian(s_arr, keys, values):
    """Per-pair oracle: S <- S + v k^T, one pair at a time."""
    s = np.array(s_arr, dtype=np.float64)
    for k, v in zip(keys, values):
        s = s + np.outer(v, k)
    return s


def _key_rows(kind, n, c, rng):
    if kind == "orthonormal":
        q, _ = np.linalg.qr(rng.standard_normal((c, c)))
        return q[:n]
    rows = rng.standard_normal((n, c))
    if kind == "correlated":   # pairwise overlaps near rho = 0.99
        base = rng.standard_normal(c)
        rows = math.sqrt(0.99) * base / np.linalg.norm(base) + math.sqrt(0.01) * rows / math.sqrt(c)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# n crosses the 64-pair chunk boundary of the batched delta kernel.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("kind", ["orthonormal", "random_unit", "correlated"])
def test_batched_fast_weight_kernels_match_the_per_pair_oracle(n, kind):
    rng = np.random.default_rng(n)
    keys = _key_rows(kind, n, 200, rng)
    values = rng.uniform(-1.0, 1.0, (n, 24))
    s_arr = rng.standard_normal((24, 200))
    per_row = rng.uniform(0.05, 1.0, n)
    for beta, betas in ((1.0, np.ones(n)), (0.5, np.full(n, 0.5)), (per_row, per_row)):
        got = delta_rule_update(s_arr, keys, values, beta)
        np.testing.assert_allclose(got, _sequential_delta(s_arr, keys, values, betas),
                                   rtol=0, atol=1e-12)
    got = hebbian_update(s_arr, keys, values)
    np.testing.assert_allclose(got, _sequential_hebbian(s_arr, keys, values), rtol=0, atol=1e-12)


_SEGMENT_KERNELS = {
    "full": lambda x, offsets: update_full_attention(np.empty((0, 4)), x),
    "vanilla": lambda x, offsets: update_vanilla_rnn(np.ones((2, 4)), x, offsets=offsets),
    "ttt3r": lambda x, offsets: ttt3r_update(np.ones((2, 4)), x, "confidence",
                                             offsets=offsets),
}
_NON_FINITE = np.ones((6, 4))
_NON_FINITE[3, 1] = np.inf
_FRAMES = [0, 2, 5, 6]   # frames of 2, 3 and 1 rows
_BAD_SEGMENTS = [
    # the cache appends the segment as one block, so it takes no offsets
    ("full", _NON_FINITE, None, r"token row 3 \(frame 0\) contains non-finite"),
    ("full", np.ones((6, 5)), None, "token width 5 does not match state width 4"),
] + [(kernel, *case) for kernel in ("vanilla", "ttt3r") for case in [
    (_NON_FINITE, _FRAMES, r"token row 3 \(frame 1\) contains non-finite"),
    (np.ones((6, 5)), _FRAMES, "token width 5 does not match state width 4"),
    (np.ones((6, 4)), [0, 2, 5],
     "offsets must run from 0 to the 6 token rows, got 0 to 5"),
    (np.ones((6, 4)), [0, 2, 7],
     "offsets must run from 0 to the 6 token rows, got 0 to 7"),
    (np.ones((6, 4)), [0, 2, 2, 6], "frame 1 has no rows: offsets 2 then 2"),
    (np.ones((6, 4)), [0.0, 6.0], "offsets must be a 1-D integer array"),
]]


def test_batched_kernels_name_the_offending_row():
    s = np.zeros((2, 4))
    keys, values = np.eye(4)[:3], np.ones((3, 2))
    off = keys.copy()
    off[1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="key row 1 must be unit-norm"):
        delta_rule_update(s, off, values, 0.5)
    with pytest.raises(ValueError, match=r"key row 2 must be unit-norm within 1e-9, "
                                         r"got norm 2\.0$"):
        delta_rule_update(s, keys * [[1.0], [1.0], [2.0]], values, 0.5)
    for bad in (0.0, 1.1):
        betas = np.array([0.5, 0.5, bad])
        with pytest.raises(ValueError, match=r"beta row 2 must lie in \(0, 1\]"):
            delta_rule_update(s, keys, values, betas)
    nan_values = values.copy()
    nan_values[2, 1] = np.nan
    for update in (hebbian_update, lambda s, k, v: delta_rule_update(s, k, v, 0.5)):
        with pytest.raises(ValueError, match="3 key rows but 2 value rows"):
            update(s, keys, values[:2])
        with pytest.raises(ValueError, match="values contains non-finite"):
            update(s, keys, nan_values)
    # the token and cache kernels take a segment of token rows and frame offsets
    for kernel, tokens, offsets, message in _BAD_SEGMENTS:
        with pytest.raises(ValueError, match=message):
            _SEGMENT_KERNELS[kernel](tokens, offsets)


@settings(max_examples=50)
@given(hnp.arrays(np.float64, (2, 3), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, (3,), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, (2,), elements=st.floats(-10, 10)),
       st.floats(0.01, 1.0))
def test_delta_residual_never_grows(s_arr, k, v, beta):
    norm = np.linalg.norm(k)
    if norm < 1e-3:
        return
    k = k / norm
    out = delta_rule_update(s_arr, k, v, beta=beta)
    before = np.linalg.norm(s_arr @ k - v)
    after = np.linalg.norm(out @ k - v)
    assert after <= before + 1e-9


# ---------------------------------------------------------------------------
# confidence gate


def test_confidence_gate_strict_at_saturated_logits():
    q_s = np.array([[40.0], [-40.0], [400.0], [-400.0]])
    k_x = np.array([[1.0]])
    beta = confidence_gate(q_s, k_x, reduce="sum", scale=1.0)
    assert np.all(beta > 0.0)
    assert np.all(beta < 1.0)
    assert beta[0] > 1.0 - 1e-15
    assert beta[1] < 1e-15


def test_confidence_gate_sigmoid_matches_scipy_expit():
    # scipy.special.expit serves only as a test oracle; the package does not import
    # scipy for its sigmoid.  Both compute 1 / (1 + exp(-z)), but numpy's exp and
    # the C library's differ by up to 1 ulp, and rounding 1 + exp(-z) can multiply
    # that: by 2 for z > 0.9, and by 4 for z < -36.7, where exp(-z) > 2**53 and its
    # own ulp is 2.  Nearly every entry is equal or 1 ulp apart.
    expit = pytest.importorskip("scipy.special").expit
    z = np.concatenate([np.linspace(-50.0, 50.0, 200001), np.linspace(-800.0, 800.0, 16001),
                        [-800.0, -40.0, 0.0, 40.0, 800.0]])
    got = confidence_gate(z[:, None], np.array([[1.0]]), reduce="sum", scale=1.0)
    lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    want = np.clip(expit(z), lo, hi)
    np.testing.assert_array_max_ulp(got, want, maxulp=4)
    apart = np.abs(got.view(np.int64) - want.view(np.int64))
    assert np.mean(apart == 0) > 0.95
    assert np.mean(apart <= 1) > 0.99
    np.testing.assert_array_max_ulp(got[-5:], want[-5:], maxulp=1)  # -800, -40, 0, 40, 800
    assert got[-5] == lo and got[-3] == 0.5 and got[-1] == hi


def test_confidence_gate_reduce_modes_differ_for_multiple_tokens():
    q_s = np.array([[1.0, 0.0]])
    k_x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    g_sum = confidence_gate(q_s, k_x, reduce="sum", scale=1.0)
    g_mean = confidence_gate(q_s, k_x, reduce="mean", scale=1.0)
    # sum sees logit 3, mean sees logit 1
    assert g_sum[0] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), abs=1e-12)
    assert g_mean[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_confidence_gate_uses_shared_temperature():
    rng = np.random.default_rng(20)
    q_s = rng.standard_normal((3, 4))
    k_x = rng.standard_normal((2, 4))
    default = confidence_gate(q_s, k_x, reduce="sum")
    explicit = confidence_gate(q_s, k_x, reduce="sum", scale=0.5)
    np.testing.assert_array_equal(default, explicit)


@pytest.mark.parametrize("reduce", ["sum", "mean"])
def test_kernel_confidence_gates_are_confidence_gate_bit_for_bit(reduce):
    # The gates the stream records are the public gate's, on a frame of 4 tokens.
    rng = np.random.default_rng(22)
    s, x = rng.standard_normal((3, 5)), rng.standard_normal((4, 5))
    _, betas = ttt3r_update(s, x, "confidence", 0.7, reduce=reduce)
    np.testing.assert_array_equal(betas[0], confidence_gate(s, x, reduce, 0.7))


def test_confidence_gate_validation():
    with pytest.raises(ValueError):
        confidence_gate(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        confidence_gate(np.ones((2, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        confidence_gate(np.ones((2, 3)), np.ones((2, 3)), reduce="median")
    with pytest.raises(ValueError, match="scale 1e\\+308 overflows the scaled logits"):
        confidence_gate(np.ones((2, 3)), np.ones((2, 3)), scale=1e308)


@pytest.mark.parametrize("reduce", ["sum", "mean"])
def test_a_confidence_reduce_that_overflows_gives_its_sigmoid_limit(reduce):
    # Each logit is finite; their sum is not, and mean sums first.
    k_x = np.full((2, 1), 1.5e308)
    beta = confidence_gate(np.array([[1.0], [-1.0]]), k_x, reduce=reduce, scale=1.0)
    np.testing.assert_array_equal(beta, [_GATE_HI, _GATE_LO])
    _, betas = ttt3r_update(np.array([[1.0], [-1.0]]), k_x, "confidence", 1.0, reduce=reduce)
    np.testing.assert_array_equal(betas, [[_GATE_HI, _GATE_LO]])


@settings(max_examples=100)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-1e6, 1e6)),
       hnp.arrays(np.float64, (2, 3), elements=st.floats(-1e6, 1e6)),
       st.sampled_from(["sum", "mean"]))
def test_confidence_gate_always_open_interval(q_s, k_x, reduce):
    beta = confidence_gate(q_s, k_x, reduce=reduce, scale=1.0)
    assert np.all(np.isfinite(beta))
    assert np.all(beta > 0.0)
    assert np.all(beta < 1.0)


# ---------------------------------------------------------------------------
# projection sets as values


def test_projection_sets_compare_by_identity():
    p, q = ProjectionSet.seeded(4, 0), ProjectionSet.seeded(4, 0)
    assert (p == p) is True
    assert (p == q) is False and (p != q) is True
    assert (ProjectionSet.identity(4) == ProjectionSet.identity(4)) is False
    assert len({p, q, p}) == 2
