"""Recurrent state-update and read rules over small dense matrices.

A stream of observation tokens updates a recurrent state, and queries
read stored associations back out.  Every update takes a segment of the
stream at once: its token rows, and for the token rules the offsets at
which its frames start.  The token updates also take a stack of
segments that share those offsets, along a leading axis, and step them
in lockstep.  Three state layouts are supported, each with its own
update family:

* the token rows seen since the last reset, read by softmax
  cross-attention (full attention, the limiting case of a token state),
* a fixed bank of state tokens updated by softmax attention over the
  incoming tokens (optionally scaled per state token by a gate vector),
* a fast-weight matrix updated by the delta rule or a plain Hebbian
  outer product.

Every state is a plain float64 array: the m x c cache (m may be 0), the
n x c token state (n state tokens of width c) and the c_v x c_k
fast-weight state.  Each update and read checks its state once at
entry and returns a new array.  There are no slow-weight maps: the
token and cache rules take their queries, keys and values from the
raw rows, and the cache is read through the token read, so both reads
attend over the state rows themselves.  ProjectionSet holds only the
seeded gate map of the input and per_token gates.  Key/value pairs are
rows everywhere: the delta and Hebbian writes and the reconstruction
objective recon_loss/recon_loss_grad all take keys as m x c_k rows and
values as m x c_v rows, and read_fast_weight takes its queries as
m x c_k rows.

The attention logits are scale * Q K^T (scale None: 1/sqrt(c)), scaled
in one helper for the token updates, both reads and the confidence gate,
so a scale whose logits overflow is one ValueError in each.

A gate is a constant learning rate in (0, 1] or a name in GATES, as the
rule spec spells it.  The gated token update with the gate 1.0
reproduces the ungated token update exactly; the ungated update is that
case of the one token kernel, so the equivalence holds bit for bit.

All functions are pure: inputs are never mutated, identical inputs give
identical outputs, and every array is carried in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._args import choice, floats, integer, rates, real, unit_norms

__all__ = [
    "ProjectionSet",
    "GATES",
    "REDUCES",
    "lookup_gate",
    "update_full_attention",
    "read_full_attention",
    "update_vanilla_rnn",
    "recon_loss",
    "recon_loss_grad",
    "delta_rule_update",
    "hebbian_update",
    "confidence_gate",
    "ttt3r_update",
    "read_token_state",
    "read_fast_weight",
]

# Sigmoid outputs are clamped to the largest open subinterval of (0, 1)
# representable in float64.  Without the clamp, sigmoid(z) rounds to
# exactly 1.0 for z >= 37 and the strict-bounds invariant on gates
# would fail even though the true value is merely close to 1.
_GATE_LO = np.nextafter(0.0, 1.0)
_GATE_HI = np.nextafter(1.0, 0.0)


def _state(value, name: str, finite: bool = True, empty: bool = False,
           batch=None) -> np.ndarray:
    """A state as a 2-D float64 array, checked once at entry.

    It is non-empty (only the rows may be 0, if empty=True) and finite
    unless finite=False.  With batch B it is a stack of B such states,
    B x rows x width.  It is not copied: kernels build their result as
    a new array.
    """
    arr = floats(value, name, 2 if batch is None else 3, finite)
    if arr.shape[-2] < (0 if empty else 1) or arr.shape[-1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if batch is not None and arr.shape[0] != batch:
        raise ValueError(f"{arr.shape[0]} stacked {name}s for {batch} stacked segments")
    return arr


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """The seeded gate map of the input and per_token gates: c entries.

    Sets compare by identity: == on the map array has no single truth
    value.
    """

    gate_map: np.ndarray

    @classmethod
    def identity(cls, c: int, seed: int = 0) -> "ProjectionSet":
        """Draw the gate map i.i.d. uniform on (-1/sqrt(c), 1/sqrt(c)).

        The generator first skips 3 c^2 draws (one step per entry), so
        the map is the last c values of a 3 c^2 + c uniform draw from
        the seed.
        """
        c = integer(c, "c", 1)
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(3 * c * c)
        gate_map = rng.uniform(-1.0 / math.sqrt(c), 1.0 / math.sqrt(c), c)
        gate_map.setflags(write=False)
        return cls(gate_map)

    # bench/traced.py times the draw under both names.
    seeded = identity


def _resolve_scale(scale, c: int) -> float:
    """The attention scale as a float: a positive finite real, or 1/sqrt(c) (c >= 1) for None."""
    return 1.0 / math.sqrt(c) if scale is None else real(scale, "scale")


def _token_segment(tokens, c: int, offsets=None, stacked: bool = False):
    """A segment's tokens (m x c, finite, c the state's width) and frame offsets, checked once.

    offsets are the rows at which the frames start, followed by m:
    0 = o_0 < o_1 < ... < o_F = m, so frame f is rows o_f to o_(f+1).
    None is one frame of all m rows.  If stacked, tokens may also be
    B x m x c: B segments that share the offsets.  Errors name the
    offending row or frame (and segment).
    """
    arr = floats(tokens, "tokens", finite=False)
    if arr.ndim not in ((2, 3) if stacked else (2,)) or 0 in arr.shape[:-1]:
        raise ValueError(f"tokens must be a non-empty {'2-D or 3-D' if stacked else '2-D'} "
                         f"array, got shape {arr.shape}")
    if arr.shape[-1] != c:
        raise ValueError(f"token width {arr.shape[-1]} does not match state width {c}")
    m = arr.shape[-2]
    off = np.array([0, m]) if offsets is None else np.asarray(offsets)
    if off.ndim != 1 or off.size < 2 or not np.issubdtype(off.dtype, np.integer):
        raise ValueError(f"offsets must be a 1-D integer array of at least 2 entries, "
                         f"got shape {off.shape} and dtype {off.dtype}")
    if off[0] != 0 or off[-1] != m:
        raise ValueError(f"offsets must run from 0 to the {m} token rows, "
                         f"got {off[0]} to {off[-1]}")
    empty = np.flatnonzero(np.diff(off) < 1)
    if empty.size:
        f = empty[0]
        raise ValueError(f"frame {f} has no rows: offsets {off[f]} then {off[f + 1]}")
    finite = np.isfinite(arr).all(axis=-1)
    if not finite.all():
        *segment, row = np.argwhere(~finite)[0].tolist()
        frame = np.searchsorted(off, row, side="right") - 1
        where = f" of segment {segment[0]}" if segment else ""
        raise ValueError(f"token row {row} (frame {frame}){where} contains non-finite entries")
    return arr, off


def _scaled_logits(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """scale * Q K^T over the last two axes: the one place the attention scale is applied.

    Scaling by 1.0 is exact and skipped.  Logits that overflow raise
    ValueError; callers hold np.errstate(over="ignore") once per call,
    so an overflow never shows as a numpy warning.
    """
    z = q @ k.swapaxes(-1, -2)
    if scale != 1.0:
        z *= scale
    if not np.isfinite(z).all():
        raise ValueError(f"scale {scale!r} overflows the scaled logits" if scale != 1.0
                         else "the logits Q K^T overflow")
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    # Softmax along the last axis, in place: z holds finite logits that
    # the caller owns and no longer reads.  The row maximum is subtracted
    # first, so logits of +-1000 still give finite weights.
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def update_full_attention(cache, tokens) -> np.ndarray:
    """Append a segment's token rows to the m x c cache as one block.

    The cache holds the raw token rows since the last reset (m may be
    0) and sets their width c.
    """
    cache = _state(cache, "cache", empty=True)
    tokens, _ = _token_segment(tokens, cache.shape[1])
    return np.concatenate((cache, tokens))


def read_full_attention(cache, queries, scale=None) -> np.ndarray:
    """Residual cross-attention read over a non-empty cache: X + read_token_state(cache, X)."""
    out = read_token_state(cache, queries, scale)
    out += queries
    return out


def update_vanilla_rnn(s, tokens, scale=None, *, offsets=None) -> np.ndarray:
    """Ungated token update S <- S + softmax(S X^T) X, once per frame.

    s is the n x c state and tokens and offsets are one segment, or a
    B x n x c stack of states and B x m x c stack of segments, as in
    ttt3r_update; this is its case of a constant gate of 1.0.
    """
    return _token_steps(s, tokens, 1.0, scale, offsets, "sum", None)[0]


def _pair_rows(s, keys, values):
    """The c_v x c_k state and keys and values as matching m x c_k and m x c_v rows.

    A 1-D key or value is a batch of one row, made so after floats has
    checked the argument itself.  Checked once for the whole batch.
    """
    s = _state(s, "fast-weight state")
    keys = floats(np.atleast_2d(floats(keys, "keys")), "keys", 2, finite=False)
    values = floats(np.atleast_2d(floats(values, "values")), "values", 2, finite=False)
    if keys.shape[1] != s.shape[1]:
        raise ValueError(f"key length {keys.shape[1]} != c_k {s.shape[1]}")
    if values.shape[1] != s.shape[0]:
        raise ValueError(f"value length {values.shape[1]} != c_v {s.shape[0]}")
    if keys.shape[0] != values.shape[0]:
        raise ValueError(f"{keys.shape[0]} key rows but {values.shape[0]} value rows")
    return s, keys, values


def recon_loss(s, keys, values) -> float:
    """Reconstruction objective ||S K^T - V^T||_F^2 for key rows K and value rows V."""
    s, keys, values = _pair_rows(s, keys, values)
    r = s @ keys.T - values.T
    return float(np.sum(r * r))


def recon_loss_grad(s, keys, values) -> np.ndarray:
    """Gradient (S K^T - V^T) K of half the reconstruction objective.

    With a single unit key this is exactly the delta-rule correction
    direction (S k - v) k^T, which is what ties the update to gradient
    descent on the reconstruction objective.
    """
    s, keys, values = _pair_rows(s, keys, values)
    return (s @ keys.T - values.T) @ keys


# Pairs per chunk of the batched delta rule.  A chunk costs one 64 x 64
# solve and three GEMMs, so the state is read and written once per chunk.
_DELTA_CHUNK = 64

# Products over a c_v x c_k state run in blocks of its rows, a multiple of
# 64 rows (64 at least) whose operand and product blocks fit in this many
# bytes: 64 rows at width 768, so BLAS never packs a whole 4.7 MB state.
_UPDATE_BYTES = 1 << 19


def _row_blocked(left, right, out=None) -> np.ndarray:
    """left @ right, one GEMM per block of left's rows, or added to out if given.

    Every block has the same number of rows (or all of them): a short
    last block is taken from the end, overlapping the one before, and
    only its new rows are kept.  numpy computes a one-row product as a
    matrix-vector product, with other bits.
    """
    rows = 64 * max(1, _UPDATE_BYTES // (64 * 8 * max(left.shape[1], right.shape[1])))
    result = np.empty((len(left), right.shape[1])) if out is None else out
    for r in range(0, len(left), rows):
        first = max(0, min(r, len(left) - rows))
        if out is None:
            result[r:r + rows] = (left[first:r + rows] @ right)[r - first:]
        else:
            result[r:r + rows] += (left[first:r + rows] @ right)[r - first:]
    return result


def delta_rule_update(s, keys, values, beta) -> np.ndarray:
    """Delta-rule steps S' = S - beta_i (S k_i - v_i) k_i^T, one per row in order.

    keys (n x c_k, unit rows) and values (n x c_v) are a batch of pairs;
    a 1-D key and value are a batch of one.  beta is one learning rate
    in (0, 1] for every pair, or one per pair.

    The pairs are applied in chunks in the chunkwise (UT) form of Yang et
    al., arXiv 2406.06484: a chunk adds U^T K to S, where U = T (V - K S^T)
    and T = (I + diag(beta) strictlower(K K^T))^-1 diag(beta) is chunk-sized.
    """
    s, keys, values = _pair_rows(s, keys, values)
    n = keys.shape[0]
    unit_norms(keys, "key")    # the delta rule's contraction argument needs unit keys
    betas = floats(beta, "beta", finite=False)
    if betas.shape not in ((), (n,)):
        raise ValueError(f"beta must be a scalar or one per pair, got shape {betas.shape} "
                         f"for {n} pairs")
    betas = rates(np.broadcast_to(betas, n), "beta")
    out = s.copy()
    for lo in range(0, n, _DELTA_CHUNK):
        k, b = keys[lo:lo + _DELTA_CHUNK], betas[lo:lo + _DELTA_CHUNK]
        t = np.linalg.solve(np.eye(k.shape[0]) + b[:, None] * np.tril(k @ k.T, -1), np.diag(b))
        u = t @ (values[lo:lo + _DELTA_CHUNK] - _row_blocked(out, k.T).T)
        _row_blocked(u.T, k, out)
    return out


def hebbian_update(s, keys, values) -> np.ndarray:
    """Accumulate the outer products of a batch of pairs: S' = S + V^T K.

    A 1-D key and value are a batch of one, S' = S + v k^T.  V^T K is
    added to a copy of S in blocks of state rows, as in delta_rule_update.
    """
    s, keys, values = _pair_rows(s, keys, values)
    return _row_blocked(values.T, keys, s.copy())


def _sigmoid_open(z) -> np.ndarray:
    # exp(-z) overflows to inf for z below about -709.8, and 1/(1 + inf) is
    # the correct limit 0, which the clamp then lifts.
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    return np.minimum(np.maximum(out, _GATE_LO), _GATE_HI)


def confidence_gate(q_s: np.ndarray, k_x: np.ndarray, reduce: str = "sum",
                    scale=None) -> np.ndarray:
    """Per-state-token gate beta_i = sigmoid(reduce_j of scale * q_i . k_j).

    The attention scale (None: 1/sqrt(c)) feeds the gate, so a state
    token whose queries barely match the incoming keys (large negative
    reduced logit) gets a learning rate near 0 and the update nearly
    freezes.  Outputs are clamped to the open interval (0, 1), even for
    saturated or overflowing reduced logits; overflowing logits raise.
    """
    q_s, k_x = _state(q_s, "q_s", empty=True), _state(k_x, "k_x")
    if q_s.shape[1] != k_x.shape[1]:
        raise ValueError(f"q_s width {q_s.shape[1]} != k_x width {k_x.shape[1]}")
    choice(reduce, "reduce", REDUCES)
    with np.errstate(over="ignore"):
        return _confidence(_scaled_logits(q_s, k_x, _resolve_scale(scale, q_s.shape[1])), reduce)


# The reductions of the confidence gate's logits over the incoming tokens.
REDUCES = ("sum", "mean")


def _confidence(logits: np.ndarray, reduce: str) -> np.ndarray:
    # Reduce each row of scaled logits and squash it: the confidence gate of
    # confidence_gate and of the token kernel alike.  Callers hold
    # np.errstate(over="ignore"): an overflowing reduce gives its sigmoid limit.
    return _sigmoid_open(logits.sum(axis=-1) if reduce == "sum" else logits.mean(axis=-1))


# The named gates, keyed as the rule spec names them:
# gate(gate map, states, frame tokens, scaled logits S X^T, reduce) -> the
# frame's betas.  The arguments are stacked along a leading segment axis,
# and so are the betas: B x n, or B x 1 for a gate shared by the n state
# tokens.  A constant gate is spelled as its rate.
GATES = {
    "input": lambda g, s, x, z, reduce: _sigmoid_open(np.mean(x @ g, axis=-1))[:, None],
    "per_token": lambda g, s, x, z, reduce: _sigmoid_open(s @ g),
    "confidence": lambda g, s, x, z, reduce: _confidence(z, reduce),
}


def lookup_gate(gate):
    """(kind, gate function) of a gate: a name in GATES is its own kind, and
    a rate (a number or its text) in (0, 1] is "constant", returned for
    every state token.  ValueError for anything else."""
    if isinstance(gate, str) and gate in GATES:
        return gate, GATES[gate]
    try:
        if isinstance(gate, bool):
            raise TypeError(gate)
        rate = float(gate)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"unknown gate {gate!r}; valid gates: {', '.join(GATES)} "
                         f"or a rate in (0, 1]") from None
    beta = np.full(1, rates(rate, "constant gate"))
    return "constant", lambda g, s, x, z, reduce: beta


def _token_steps(s, tokens, gate, scale, offsets, reduce, gate_map):
    """The token kernel: one gated step per frame of a segment, in order.

    A 2-D call is a stack of one segment.  Frame f of every stacked
    segment steps at once; numpy's stacked matmul runs the 2-D BLAS
    product once per segment, so each segment gets the bits of its own
    2-D call.
    """
    kind, gate = lookup_gate(gate)
    choice(reduce, "reduce", REDUCES)
    stacked = np.ndim(tokens) == 3
    state = _state(s, "state", batch=len(tokens) if stacked else None)
    c = state.shape[-1]
    tokens, offsets = _token_segment(tokens, c, offsets, stacked=True)
    if kind in ("input", "per_token"):
        gate_map = None if gate_map is None else floats(gate_map, "gate_map", finite=False)
        if gate_map is None or gate_map.shape != (c,) or not np.isfinite(gate_map).all():
            raise ValueError(f"the {kind} gate needs a finite gate_map of length {c}")
    if not stacked:
        state, tokens = state[None], tokens[None]
    scale = _resolve_scale(scale, c)
    bounds = offsets.tolist()
    betas = np.empty((len(tokens), len(bounds) - 1, state.shape[1]))
    with np.errstate(over="ignore"):
        for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            x = tokens[:, lo:hi]
            z = _scaled_logits(state, x, scale)
            betas[:, f] = beta = gate(gate_map, state, x, z, reduce)
            state = state + beta[..., None] * (_softmax(z) @ x)
    return (state, betas) if stacked else (state[0], betas[0])


def ttt3r_update(s, tokens, gate, scale=None, *, offsets=None, reduce: str = "sum",
                 gate_map=None):
    """Gated token update S <- S + diag(beta) softmax(S X^T) X, once per frame.

    s is the n x c state.  tokens (m x c) are one segment of the stream
    and offsets the rows at which its frames start, followed by m (None:
    one frame); each frame updates the state in turn.  scale (None:
    1/sqrt(c)) multiplies the logits S X^T.  gate is a rate in (0, 1]
    or a name in GATES; reduce ("sum" or "mean") reduces the confidence
    gate's logits, and the input and per_token gates read gate_map, a
    finite vector of length c.  Returns (new state, betas), one row of
    n gates per frame.

    With a leading axis, s is a B x n x c stack of states and tokens a
    B x m x c stack of segments that share the offsets; segment b
    updates state b, and the result is (B x n x c states, B x F x n
    betas), each slice bitwise equal to the 2-D call on that segment.
    With gate 1.0 the state is bitwise identical to update_vanilla_rnn's,
    since both run this kernel and scaling by 1.0 is exact.
    """
    return _token_steps(s, tokens, gate, scale, offsets, reduce, gate_map)


def read_token_state(s, query, scale=None) -> np.ndarray:
    """Attend queries over the n x c state: softmax(scale Q S^T) S."""
    s = _state(s, "state")
    query, _ = _token_segment(query, s.shape[1])
    with np.errstate(over="ignore"):
        logits = _scaled_logits(query, s, _resolve_scale(scale, s.shape[1]))
    return _softmax(logits) @ s


# Queries per column block of a fast-weight read.  Each block is one
# c_k x 64 S @ Q_b^T product over row blocks of S, zero-padded if short, so
# the state is streamed once per block instead of once per query, and a
# row's bits depend on neither the batch size nor its place in the block.
# (With Q_b @ S^T they do depend on that place.)
_READ_BLOCK = 64


def read_fast_weight(s, queries) -> np.ndarray:
    """Linear readouts S q of a c_v x c_k fast-weight state: m x c_k rows in, m x c_v out.

    m >= 1, and a 1-D query gives one c_v vector.  The queries are read
    in zero-padded column blocks of 64, one S @ Q_b^T product per block, so
    a row has the same bits alone or in any batch, and lies within
    c_k * 2^-52 * (|S| |q|) of S @ q elementwise.  A non-finite entry in
    S or q reaches S q (inf * 0 and nan * 0 are nan), so the result is
    checked instead of scanning the whole state on every read.
    """
    s = _state(s, "fast-weight state", finite=False)
    queries = floats(queries, "query", finite=False)
    c_k = s.shape[1]
    if queries.ndim not in (1, 2) or queries.shape[-1] != c_k or queries.size == 0:
        raise ValueError(f"query must have shape ({c_k},) or (m, {c_k}) with m >= 1, "
                         f"got {queries.shape}")
    rows = queries.reshape(-1, c_k)
    out = np.empty((rows.shape[0], s.shape[0]))
    block = np.zeros((c_k, _READ_BLOCK))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, rows.shape[0], _READ_BLOCK):
            part = rows[lo:lo + _READ_BLOCK]
            n = part.shape[0]
            block[:, :n] = part.T
            block[:, n:] = 0.0
            out[lo:lo + n] = _row_blocked(s, block)[:, :n].T
    if not np.isfinite(out).all():
        raise ValueError("S q is not finite: the state or the query holds non-finite "
                         "entries, or the product overflows")
    return out if queries.ndim == 2 else out[0]
