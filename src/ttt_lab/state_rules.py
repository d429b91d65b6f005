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
entry and returns a new array.  The cache is read through the token
read, so both reads attend over state rows projected by w_k and w_v.
Key/value pairs are rows everywhere: the delta and Hebbian writes and
the reconstruction objective recon_loss/recon_loss_grad all take keys
as m x c_k rows and values as m x c_v rows, and read_fast_weight takes
its queries as m x c_k rows.

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

__all__ = [
    "ProjectionSet",
    "GATES",
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


def _as_float_matrix(value, name: str, finite: bool = True, ndim: int = 2) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if finite and arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _state(value, name: str, width=None, finite: bool = True,
           empty: bool = False, batch=None) -> np.ndarray:
    """A state as a 2-D float64 array, checked once at entry.

    It is non-empty (only the rows may be 0, if empty=True), finite
    unless finite=False, and has `width` columns if given.  With batch
    B it is a stack of B such states, B x rows x width.  It is not
    copied: kernels build their result as a new array.
    """
    arr = _as_float_matrix(value, name, finite, 2 if batch is None else 3)
    if arr.shape[-2] < (0 if empty else 1) or arr.shape[-1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if width is not None and arr.shape[-1] != width:
        raise ValueError(f"{name} width {arr.shape[-1]} does not match projection width {width}")
    if batch is not None and arr.shape[0] != batch:
        raise ValueError(f"{arr.shape[0]} stacked {name}s for {batch} stacked segments")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Frozen square projection maps w_q, w_k, w_v plus a gate map vector.

    The projections are "slow weights": they are fixed for the lifetime
    of a stream while the state plays the role of fast weights.  Sets
    compare by identity: == on the map arrays has no single truth value.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    gate_map: np.ndarray
    # Set only by identity(): multiplying by an exact identity reproduces
    # the operand, so the products are skipped; at width 4096 that saves
    # a 134 MB matrix scan per call without changing any result.
    _identity = False

    def __post_init__(self):
        w_q = _as_float_matrix(self.w_q, "w_q")
        w_k = _as_float_matrix(self.w_k, "w_k")
        w_v = _as_float_matrix(self.w_v, "w_v")
        gate_map = _as_float_matrix(self.gate_map, "gate_map", ndim=1)
        c = w_q.shape[0]
        for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v)):
            if w.shape != (c, c):
                raise ValueError(f"{name} must be square of width {c}, got {w.shape}")
        if gate_map.shape != (c,):
            raise ValueError(
                f"gate_map must have length {c}, got {gate_map.shape[0]}"
            )
        object.__setattr__(self, "w_q", _frozen(w_q))
        object.__setattr__(self, "w_k", _frozen(w_k))
        object.__setattr__(self, "w_v", _frozen(w_v))
        object.__setattr__(self, "gate_map", _frozen(gate_map))

    @property
    def c(self) -> int:
        return self.w_q.shape[0]

    def project_q(self, tokens: np.ndarray) -> np.ndarray:
        return tokens if self._identity else tokens @ self.w_q

    def project_k(self, tokens: np.ndarray) -> np.ndarray:
        return tokens if self._identity else tokens @ self.w_k

    def project_v(self, tokens: np.ndarray) -> np.ndarray:
        return tokens if self._identity else tokens @ self.w_v

    @classmethod
    def seeded(cls, c: int, seed: int) -> "ProjectionSet":
        """Draw all maps i.i.d. uniform on (-1/sqrt(c), 1/sqrt(c))."""
        if c < 1:
            raise ValueError("c must be >= 1")
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(c)
        w_q, w_k, w_v = rng.uniform(-bound, bound, (3, c, c))
        return cls(w_q, w_k, w_v, rng.uniform(-bound, bound, c))

    @classmethod
    def identity(cls, c: int, seed: int = 0) -> "ProjectionSet":
        """Identity w_q/w_k/w_v with a seeded gate map: every recall run's projections."""
        if c < 1:
            raise ValueError("c must be >= 1")
        rng = np.random.default_rng(seed)
        # Skip the three c x c draws of seeded() (one generator step per
        # entry), so the gate map is the one seeded() draws.
        rng.bit_generator.advance(3 * c * c)
        gate_map = _frozen(rng.uniform(-1.0 / math.sqrt(c), 1.0 / math.sqrt(c), c))
        # np.eye(c)'s values as a read-only O(c) view: row i of the
        # windows over a 2c - 1 buffer, read from the last, is one at i.
        ones = np.zeros(2 * c - 1)
        ones[c - 1] = 1.0
        eye = np.lib.stride_tricks.sliding_window_view(ones, c)[::-1]
        # Built without __post_init__: one shared identity, and no c x c
        # validation scans or copies of it.
        out = object.__new__(cls)
        for name, value in (("w_q", eye), ("w_k", eye), ("w_v", eye), ("gate_map", gate_map),
                            ("_identity", True)):
            object.__setattr__(out, name, value)
        return out


def _resolve_scale(scale, c: int) -> float:
    """The attention scale: a positive finite float, or 1/sqrt(c) for None."""
    if scale is None:
        if c < 1:
            raise ValueError("c must be >= 1")
        return 1.0 / math.sqrt(c)
    scale = float(scale)
    if not (scale > 0.0) or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return scale


def _token_segment(tokens, c: int, offsets=None, stacked: bool = False):
    """A segment's tokens (m x c, finite) and frame offsets, checked once.

    offsets are the rows at which the frames start, followed by m:
    0 = o_0 < o_1 < ... < o_F = m, so frame f is rows o_f to o_(f+1).
    None is one frame of all m rows.  If stacked, tokens may also be
    B x m x c: B segments that share the offsets.  Errors name the
    offending row or frame (and segment).
    """
    arr = np.asarray(tokens, dtype=np.float64)
    if arr.ndim not in ((2, 3) if stacked else (2,)) or 0 in arr.shape[:-1]:
        raise ValueError(f"tokens must be a non-empty {'2-D or 3-D' if stacked else '2-D'} "
                         f"array, got shape {arr.shape}")
    if arr.shape[-1] != c:
        raise ValueError(f"token width {arr.shape[-1]} does not match projection width {c}")
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


def update_full_attention(cache, tokens, p: ProjectionSet) -> np.ndarray:
    """Append a segment's token rows to the m x c cache as one block.

    The cache holds the raw token rows since the last reset (m may be
    0); the read projects them, as it projects a token state.
    """
    tokens, _ = _token_segment(tokens, p.c)
    return np.concatenate((_state(cache, "cache", p.c, empty=True), tokens))


def read_full_attention(cache, queries, p: ProjectionSet, scale=None) -> np.ndarray:
    """Residual cross-attention read over a non-empty cache: X + read_token_state(cache, X)."""
    out = read_token_state(cache, queries, p, scale)
    out += queries
    return out


def update_vanilla_rnn(s, tokens, p: ProjectionSet, scale=None, *, offsets=None) -> np.ndarray:
    """Ungated token update S <- S + softmax(Q_s K_x^T) V_x, once per frame.

    s is the n x c state and tokens and offsets are one segment, or a
    B x n x c stack of states and B x m x c stack of segments, as in
    ttt3r_update; this is its case of a constant gate of 1.0.
    """
    return _token_steps(s, tokens, p, 1.0, scale, offsets, "sum")[0]


def _pair_rows(s, keys, values):
    """The c_v x c_k state and keys and values as matching m x c_k and m x c_v rows.

    A 1-D key or value is a batch of one row.  Checked once for the
    whole batch.
    """
    s = _state(s, "fast-weight state")
    keys = _as_float_matrix(np.atleast_2d(keys), "keys")
    values = _as_float_matrix(np.atleast_2d(values), "values")
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


def _check_unit_rows(keys: np.ndarray, name: str) -> None:
    # The delta rule's contraction argument needs unit keys.
    norms = np.sqrt(np.einsum("ij,ij->i", keys, keys))
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} must be unit-norm within 1e-9, "
                         f"got norm {float(norms[bad[0]])}")


# Pairs per chunk of the batched delta rule.  A chunk costs one triangular
# solve and two GEMMs over the state, so the state is read and written
# once per chunk instead of once per pair.
_DELTA_CHUNK = 64

# A chunk's U^T K is added to the state in blocks of state rows, a multiple
# of 64 rows (64 at least) whose product stays within this many bytes: at
# width 768 that is 64 rows, where one product would be a 4.7 MB temporary.
_UPDATE_BYTES = 1 << 19


def delta_rule_update(s, keys, values, beta) -> np.ndarray:
    """Delta-rule steps S' = S - beta_i (S k_i - v_i) k_i^T, one per row in order.

    keys (n x c_k, unit rows) and values (n x c_v) are a batch of pairs;
    a 1-D key and value are a batch of one.  beta is one learning rate
    in (0, 1] for every pair, or one per pair.

    The pairs are applied in chunks in the chunkwise (UT) form of Yang et
    al., arXiv 2406.06484: within a chunk the sequential steps add
    U^T K to S, where U solves the unit lower-triangular system
    (I + diag(beta) strictlower(K K^T)) U = diag(beta) (V - K S^T).
    """
    s, keys, values = _pair_rows(s, keys, values)
    n = keys.shape[0]
    _check_unit_rows(keys, "key")
    betas = np.asarray(beta, dtype=np.float64)
    if betas.ndim == 0:
        betas = np.full(n, betas)
    elif betas.shape != (n,):
        raise ValueError(f"beta must be a scalar or one per pair, got shape {betas.shape} "
                         f"for {n} pairs")
    bad = np.flatnonzero(~((betas > 0.0) & (betas <= 1.0)))
    if bad.size:
        raise ValueError(f"beta row {bad[0]} must lie in (0, 1], got {betas[bad[0]]}")
    out = s.copy()
    c_v, c_k = out.shape
    rows = 64 * max(1, _UPDATE_BYTES // (64 * 8 * c_k))
    for lo in range(0, n, _DELTA_CHUNK):
        k = keys[lo:lo + _DELTA_CHUNK]
        b = betas[lo:lo + _DELTA_CHUNK, None]
        system = np.eye(k.shape[0]) + b * np.tril(k @ k.T, -1)
        u = np.linalg.solve(system, b * (values[lo:lo + _DELTA_CHUNK] - (out @ k.T).T))
        # One GEMM per block of rows.  Every block has the same number of
        # rows (or all c_v): a short last block is taken from the end,
        # overlapping the one before, and only its new rows are added.
        # numpy computes a one-row product as a matrix-vector product,
        # with other bits.
        for r in range(0, c_v, rows):
            first = max(0, min(r, c_v - rows))
            out[r:r + rows] += (u[:, first:r + rows].T @ k)[r - first:]
    return out


def hebbian_update(s, keys, values) -> np.ndarray:
    """Accumulate the outer products of a batch of pairs: S' = S + V^T K.

    A 1-D key and value are a batch of one, S' = S + v k^T.
    """
    s, keys, values = _pair_rows(s, keys, values)
    # S is added into the product, not the product into a copy of S: one
    # c_v x c_k array instead of two, and addition is commutative.
    out = values.T @ keys
    out += s
    return out


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
    q_s = _as_float_matrix(q_s, "q_s")
    k_x = _as_float_matrix(k_x, "k_x")
    if q_s.shape[1] != k_x.shape[1]:
        raise ValueError(f"q_s width {q_s.shape[1]} != k_x width {k_x.shape[1]}")
    if k_x.shape[0] < 1:
        raise ValueError("k_x must contain at least one token")
    _check_reduce(reduce)
    with np.errstate(over="ignore"):
        return _confidence(_scaled_logits(q_s, k_x, _resolve_scale(scale, q_s.shape[1])), reduce)


def _check_reduce(reduce: str) -> None:
    if reduce not in ("sum", "mean"):
        raise ValueError(f"reduce must be 'sum' or 'mean', got {reduce!r}")


def _confidence(logits: np.ndarray, reduce: str) -> np.ndarray:
    # Reduce each row of scaled logits and squash it: the confidence gate of
    # confidence_gate and of the token kernel alike.  Callers hold
    # np.errstate(over="ignore"): an overflowing reduce gives its sigmoid limit.
    return _sigmoid_open(logits.sum(axis=-1) if reduce == "sum" else logits.mean(axis=-1))


# The named gates, keyed as the rule spec names them:
# gate(p, states, frame tokens, scaled logits Q_s K_x^T, reduce) -> the
# frame's betas.  The arguments are stacked along a leading segment axis,
# and so are the betas: B x n, or B x 1 for a gate shared by the n state
# tokens.  A constant gate is spelled as its rate.
GATES = {
    "input": lambda p, s, x, z, reduce: _sigmoid_open(np.mean(x @ p.gate_map, axis=-1))[:, None],
    "per_token": lambda p, s, x, z, reduce: _sigmoid_open(s @ p.gate_map),
    "confidence": lambda p, s, x, z, reduce: _confidence(z, reduce),
}


def lookup_gate(gate):
    """(kind, gate function) of a gate: a name in GATES is its own kind, and
    a rate (a number or its text) in (0, 1] is "constant", returned for
    every state token.  ValueError for anything else."""
    if gate in GATES:
        return gate, GATES[gate]
    try:
        rate = float(gate)
    except (TypeError, ValueError):
        raise ValueError(f"unknown gate {gate!r}; valid gates: {', '.join(GATES)} "
                         f"or a rate in (0, 1]") from None
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"constant gate must lie in (0, 1], got {rate}")
    beta = np.full(1, rate)
    return "constant", lambda p, s, x, z, reduce: beta


def _token_steps(s, tokens, p: ProjectionSet, gate, scale, offsets, reduce):
    """The token kernel: one gated step per frame of a segment, in order.

    A 2-D call is a stack of one segment.  Frame f of every stacked
    segment steps at once; numpy's stacked matmul runs the 2-D BLAS
    product once per segment, so each segment gets the bits of its own
    2-D call.
    """
    _, gate = lookup_gate(gate)
    _check_reduce(reduce)
    tokens, offsets = _token_segment(tokens, p.c, offsets, stacked=True)
    stacked = tokens.ndim == 3
    state = _state(s, "state", p.c, batch=len(tokens) if stacked else None)
    if not stacked:
        state, tokens = state[None], tokens[None]
    n = state.shape[1]
    scale = _resolve_scale(scale, p.c)
    k_x, v_x = p.project_k(tokens), p.project_v(tokens)
    bounds = offsets.tolist()
    betas = np.empty((len(tokens), len(bounds) - 1, n))
    with np.errstate(over="ignore"):
        for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            z = _scaled_logits(p.project_q(state), k_x[:, lo:hi], scale)
            betas[:, f] = beta = gate(p, state, tokens[:, lo:hi], z, reduce)
            state = state + beta[..., None] * (_softmax(z) @ v_x[:, lo:hi])
    return (state, betas) if stacked else (state[0], betas[0])


def ttt3r_update(s, tokens, p: ProjectionSet, gate, scale=None, *, offsets=None,
                 reduce: str = "sum"):
    """Gated token update S <- S + diag(beta) softmax(Q_s K_x^T) V_x, once per frame.

    s is the n x c state.  tokens (m x c) are one segment of the stream
    and offsets the rows at which its frames start, followed by m (None:
    one frame); each frame updates the state in turn.  scale (None:
    1/sqrt(c)) multiplies the logits Q_s K_x^T.  gate is a rate in
    (0, 1] or a name in GATES; reduce ("sum" or "mean") reduces the
    confidence gate's logits.  Returns (new state, betas), one row of n
    gates per frame.

    With a leading axis, s is a B x n x c stack of states and tokens a
    B x m x c stack of segments that share the offsets; segment b
    updates state b, and the result is (B x n x c states, B x F x n
    betas), each slice bitwise equal to the 2-D call on that segment.
    With gate 1.0 the state is bitwise identical to update_vanilla_rnn's,
    since both run this kernel and scaling by 1.0 is exact.
    """
    return _token_steps(s, tokens, p, gate, scale, offsets, reduce)


def read_token_state(s, query, p: ProjectionSet, scale=None) -> np.ndarray:
    """Attend queries over the n x c state: softmax(scale Q W_q (S W_k)^T) (S W_v)."""
    s = _state(s, "state", p.c)
    query, _ = _token_segment(query, p.c)
    with np.errstate(over="ignore"):
        logits = _scaled_logits(p.project_q(query), p.project_k(s), _resolve_scale(scale, p.c))
    return _softmax(logits) @ p.project_v(s)


# Queries per column block of a fast-weight read.  Each block is one
# c_k x 64 S @ Q_b^T GEMM, zero-padded if short, so the state is streamed
# once per block instead of once per query, and a row's bits depend on
# neither the batch size nor its place in the block.  (With Q_b @ S^T
# they do depend on that place.)
_READ_BLOCK = 64


def read_fast_weight(s, queries) -> np.ndarray:
    """Linear readouts S q of a c_v x c_k fast-weight state: m x c_k rows in, m x c_v out.

    m >= 1, and a 1-D query gives one c_v vector.  The queries are read
    in zero-padded column blocks of 64, one S @ Q_b^T GEMM per block, so
    a row has the same bits alone or in any batch, and lies within
    c_k * 2^-52 * (|S| |q|) of S @ q elementwise.  A non-finite entry in
    S or q reaches S q (inf * 0 and nan * 0 are nan), so the result is
    checked instead of scanning the whole state on every read.
    """
    s = _state(s, "fast-weight state", finite=False)
    queries = np.asarray(queries, dtype=np.float64)
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
            out[lo:lo + n] = (s @ block)[:, :n].T
    if not np.isfinite(out).all():
        raise ValueError("S q is not finite: the state or the query holds non-finite "
                         "entries, or the product overflows")
    return out if queries.ndim == 2 else out[0]
