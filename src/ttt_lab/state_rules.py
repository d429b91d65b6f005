"""Recurrent state-update and read rules over small dense matrices.

A stream of observation tokens updates a recurrent state, and queries
read stored associations back out.  Every update takes a segment of the
stream at once: its token rows, and for the token rules the offsets at
which its frames start.  Three state layouts are
supported, each with its own update family:

* a growing key/value cache read by softmax cross-attention,
* a fixed bank of state tokens updated by softmax attention over the
  incoming tokens (optionally scaled per state token by a gate vector),
* a fast-weight matrix updated by the delta rule or a plain Hebbian
  outer product.

The gated token update with a constant gate of 1.0 reproduces the
ungated token update exactly; the ungated update is that case of the
one token kernel, so the equivalence holds bit for bit.

All functions are pure: inputs are never mutated, identical inputs give
identical outputs, and every array is carried in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "TokenState",
    "FastWeightMatrix",
    "KvCache",
    "ProjectionSet",
    "ConstantScalar",
    "InputScalarSigmoid",
    "PerTokenInputSigmoid",
    "ConfidenceGate",
    "BetaMode",
    "FullAttentionAppend",
    "VanillaSoftmaxRnn",
    "LinearAttentionHebbian",
    "DeltaRule",
    "Ttt3r",
    "RuleKind",
    "default_scale",
    "softmax_rows",
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


def _as_float_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_float_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


def _exact_identity(w: np.ndarray) -> bool:
    # exactly c nonzeros, all of them 1.0 on the diagonal
    return np.count_nonzero(w) == w.shape[0] and bool(
        np.all(np.diagonal(w) == 1.0)
    )


@dataclass(frozen=True)
class TokenState:
    """A fixed bank of n >= 1 state tokens of width c."""

    tokens: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.tokens, "state tokens")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"state tokens must be non-empty, got shape {arr.shape}")
        object.__setattr__(self, "tokens", _frozen(arr))

    @property
    def n(self) -> int:
        return self.tokens.shape[0]

    @property
    def c(self) -> int:
        return self.tokens.shape[1]


@dataclass(frozen=True)
class FastWeightMatrix:
    """A c_v x c_k associative weight matrix."""

    s: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.s, "fast-weight matrix")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"fast-weight matrix must be non-empty, got {arr.shape}")
        object.__setattr__(self, "s", _frozen(arr))

    @classmethod
    def zeros(cls, c_v: int, c_k: int) -> "FastWeightMatrix":
        return cls(np.zeros((c_v, c_k)))

    @property
    def c_v(self) -> int:
        return self.s.shape[0]

    @property
    def c_k(self) -> int:
        return self.s.shape[1]


@dataclass(frozen=True)
class KvCache:
    """The projected key and value rows of every ingested token, in order.

    keys and values are matching m x c read-only arrays, one row per
    token, so len(cache) is the token count; KvCache() is empty.
    """

    keys: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    values: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        keys = _frozen(_as_float_matrix(self.keys, "cache keys"))
        # Identity maps project keys and values to the same array; one
        # read-only copy then serves as both.
        values = keys if self.values is self.keys else _frozen(
            _as_float_matrix(self.values, "cache values"))
        if keys.shape != values.shape:
            raise ValueError(f"cache keys shape {keys.shape} != values shape {values.shape}")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def width(self):
        return self.keys.shape[1] if len(self) else None


@dataclass(frozen=True)
class ProjectionSet:
    """Frozen square projection maps w_q, w_k, w_v plus a gate map vector.

    The projections are "slow weights": they are fixed for the lifetime
    of a stream while the state plays the role of fast weights.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    gate_map: np.ndarray
    seed: int = 0

    def __post_init__(self):
        w_q = _as_float_matrix(self.w_q, "w_q")
        w_k = _as_float_matrix(self.w_k, "w_k")
        w_v = _as_float_matrix(self.w_v, "w_v")
        gate_map = _as_float_vector(self.gate_map, "gate_map")
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
        object.__setattr__(self, "_skip_q", _exact_identity(self.w_q))
        object.__setattr__(self, "_skip_k", _exact_identity(self.w_k))
        object.__setattr__(self, "_skip_v", _exact_identity(self.w_v))

    @property
    def c(self) -> int:
        return self.w_q.shape[0]

    # Multiplying by an exact identity reproduces the operand, so the
    # product is skipped; at width 4096 that saves a 134 MB matrix scan
    # per call without changing any result.
    def project_q(self, tokens: np.ndarray) -> np.ndarray:
        return tokens if self._skip_q else tokens @ self.w_q

    def project_k(self, tokens: np.ndarray) -> np.ndarray:
        return tokens if self._skip_k else tokens @ self.w_k

    def project_v(self, tokens: np.ndarray) -> np.ndarray:
        return tokens if self._skip_v else tokens @ self.w_v

    @classmethod
    def seeded(cls, c: int, seed: int) -> "ProjectionSet":
        """Draw all maps i.i.d. uniform on (-1/sqrt(c), 1/sqrt(c))."""
        if c < 1:
            raise ValueError("c must be >= 1")
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(c)
        w_q, w_k, w_v = rng.uniform(-bound, bound, (3, c, c))
        return cls(w_q, w_k, w_v, rng.uniform(-bound, bound, c), seed=seed)

    @classmethod
    def identity(cls, c: int, seed: int = 0) -> "ProjectionSet":
        """Identity w_q/w_k/w_v with a seeded gate map, for analytic tests."""
        if c < 1:
            raise ValueError("c must be >= 1")
        rng = np.random.default_rng(seed)
        # Skip the three c x c draws of seeded() (one generator step per
        # entry), so the gate map is the one seeded() draws.
        rng.bit_generator.advance(3 * c * c)
        gate_map = _frozen(rng.uniform(-1.0 / math.sqrt(c), 1.0 / math.sqrt(c), c))
        eye = np.eye(c)
        eye.setflags(write=False)
        # Built without __post_init__: one shared read-only identity, and
        # no c x c validation scans or copies of it.
        out = object.__new__(cls)
        for name, value in (("w_q", eye), ("w_k", eye), ("w_v", eye), ("gate_map", gate_map),
                            ("seed", seed), ("_skip_q", True), ("_skip_k", True),
                            ("_skip_v", True)):
            object.__setattr__(out, name, value)
        return out


@dataclass(frozen=True)
class ConstantScalar:
    """Fixed learning rate shared by every state token."""

    value: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"constant gate must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class InputScalarSigmoid:
    """One shared rate: sigmoid of the mean gate-map response of the input."""


@dataclass(frozen=True)
class PerTokenInputSigmoid:
    """Per-token rate: sigmoid of each state token's gate-map response."""


@dataclass(frozen=True)
class ConfidenceGate:
    """Per-token rate from reduced attention logits (see confidence_gate)."""

    reduce: str = "sum"

    def __post_init__(self):
        if self.reduce not in ("sum", "mean"):
            raise ValueError(f"reduce must be 'sum' or 'mean', got {self.reduce!r}")


BetaMode = Union[ConstantScalar, InputScalarSigmoid, PerTokenInputSigmoid, ConfidenceGate]


@dataclass(frozen=True)
class FullAttentionAppend:
    """Append projected tokens to a key/value cache; read by cross-attention."""


@dataclass(frozen=True)
class VanillaSoftmaxRnn:
    """Additive softmax-attention update of a fixed token state."""


@dataclass(frozen=True)
class LinearAttentionHebbian:
    """Fast-weight outer-product accumulation without forgetting."""


@dataclass(frozen=True)
class DeltaRule:
    """Fast-weight correction step S' = S - beta (S k - v) k^T."""

    mode: BetaMode = field(default_factory=ConstantScalar)


@dataclass(frozen=True)
class Ttt3r:
    """Gated token-state update S' = S + diag(beta) softmax(Q_s K_x^T) V_x."""

    mode: BetaMode = field(default_factory=lambda: ConfidenceGate())


RuleKind = Union[FullAttentionAppend, VanillaSoftmaxRnn, LinearAttentionHebbian, DeltaRule, Ttt3r]


def default_scale(c: int) -> float:
    """Attention temperature 1/sqrt(c) used when no scale is given."""
    if c < 1:
        raise ValueError("c must be >= 1")
    return 1.0 / math.sqrt(c)


def _resolve_scale(scale, c: int) -> float:
    if scale is None:
        return default_scale(c)
    scale = float(scale)
    if not (scale > 0.0) or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return scale


def _token_segment(tokens, c: int, offsets=None):
    """A segment's tokens (m x c, finite) and frame offsets, checked once.

    offsets are the rows at which the frames start, followed by m:
    0 = o_0 < o_1 < ... < o_F = m, so frame f is rows o_f to o_(f+1).
    None is one frame of all m rows.  Errors name the offending row or
    frame.
    """
    arr = np.asarray(tokens, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"tokens must be a non-empty 2-D array, got shape {arr.shape}")
    if arr.shape[1] != c:
        raise ValueError(f"token width {arr.shape[1]} does not match projection width {c}")
    m = arr.shape[0]
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
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        frame = np.searchsorted(off, bad[0], side="right") - 1
        raise ValueError(f"token row {bad[0]} (frame {frame}) contains non-finite entries")
    return arr, off


def _softmax(z: np.ndarray) -> np.ndarray:
    # Row-wise softmax of logits that are already scaled; after the shift
    # it works in place on its own copy.
    w = z - z.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def softmax_rows(logits, scale=1.0) -> np.ndarray:
    """Row-wise softmax of scale * logits.

    The row maximum is subtracted before exponentiation, so rows whose
    scaled entries reach +-1000 still produce finite weights.  Every
    output row sums to 1 within 1e-12 and a row of equal logits maps to
    the uniform distribution.
    """
    arr = _as_float_matrix(logits, "logits")
    if arr.shape[1] < 1:
        raise ValueError("logits must have at least one column")
    scale = float(scale)
    if not (scale > 0.0) or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    # Scaling by 1.0 is exact, so it is skipped (a full pass at width 4096).
    return _softmax(arr if scale == 1.0 else scale * arr)


def update_full_attention(cache: KvCache, tokens, p: ProjectionSet) -> KvCache:
    """Append a segment's projected key and value rows to the cache as one block."""
    tokens, _ = _token_segment(tokens, p.c)
    if len(cache) == 0:
        return KvCache(p.project_k(tokens), p.project_v(tokens))
    if cache.width != p.c:
        raise ValueError(f"cache width {cache.width} does not match projection width {p.c}")
    return KvCache(np.concatenate((cache.keys, p.project_k(tokens))),
                   np.concatenate((cache.values, p.project_v(tokens))))


def read_full_attention(cache: KvCache, queries, p: ProjectionSet, scale=None) -> np.ndarray:
    """Residual cross-attention read: X + softmax(Q_x K_cache^T) V_cache."""
    if len(cache) == 0:
        raise ValueError("cannot read from an empty cache")
    queries, _ = _token_segment(queries, p.c)
    if cache.width != p.c:
        raise ValueError(f"cache width {cache.width} does not match projection width {p.c}")
    weights = softmax_rows(p.project_q(queries) @ cache.keys.T, _resolve_scale(scale, p.c))
    out = weights @ cache.values
    out += queries
    return out


def update_vanilla_rnn(s: TokenState, tokens, p: ProjectionSet, scale=None, *,
                       offsets=None) -> TokenState:
    """Ungated token update S <- S + softmax(Q_s K_x^T) V_x, once per frame.

    tokens and offsets are one segment, as in ttt3r_update; this is its
    case of a constant gate of 1.0.
    """
    return _token_steps(s, tokens, p, ConstantScalar(1.0), scale, offsets)[0]


def recon_loss(s: FastWeightMatrix, keys: np.ndarray, values: np.ndarray) -> float:
    """Reconstruction objective ||S K - V||_F^2 for column-stacked K and V."""
    keys = _as_float_matrix(keys, "keys")
    values = _as_float_matrix(values, "values")
    if keys.shape[0] != s.c_k:
        raise ValueError(f"keys have {keys.shape[0]} rows, expected {s.c_k}")
    if values.shape[0] != s.c_v:
        raise ValueError(f"values have {values.shape[0]} rows, expected {s.c_v}")
    if keys.shape[1] != values.shape[1]:
        raise ValueError(
            f"keys and values must pair up: {keys.shape[1]} vs {values.shape[1]} columns"
        )
    r = s.s @ keys - values
    return float(np.sum(r * r))


def recon_loss_grad(s: FastWeightMatrix, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Gradient (S K - V) K^T of half the reconstruction objective.

    With a single unit key this is exactly the delta-rule correction
    direction (S k - v) k^T, which is what ties the update to gradient
    descent on the reconstruction objective.
    """
    keys = _as_float_matrix(keys, "keys")
    values = _as_float_matrix(values, "values")
    if keys.shape[0] != s.c_k or values.shape[0] != s.c_v:
        raise ValueError(
            f"gradient dims mismatch: S is {s.c_v}x{s.c_k}, K {keys.shape}, V {values.shape}"
        )
    if keys.shape[1] != values.shape[1]:
        raise ValueError(
            f"keys and values must pair up: {keys.shape[1]} vs {values.shape[1]} columns"
        )
    return (s.s @ keys - values) @ keys.T


def _pair_rows(s: FastWeightMatrix, keys, values):
    """Keys and values as matching n x c_k and n x c_v row batches.

    A 1-D key or value is a batch of one row.  Checked once for the
    whole batch.
    """
    keys = _as_float_matrix(np.atleast_2d(keys), "keys")
    values = _as_float_matrix(np.atleast_2d(values), "values")
    if keys.shape[1] != s.c_k:
        raise ValueError(f"key length {keys.shape[1]} != c_k {s.c_k}")
    if values.shape[1] != s.c_v:
        raise ValueError(f"value length {values.shape[1]} != c_v {s.c_v}")
    if keys.shape[0] != values.shape[0]:
        raise ValueError(f"{keys.shape[0]} key rows but {values.shape[0]} value rows")
    return keys, values


# Pairs per chunk of the batched delta rule.  A chunk costs one triangular
# solve and two GEMMs over the state, so the state is read and written
# once per chunk instead of once per pair.
_DELTA_CHUNK = 64


def delta_rule_update(s: FastWeightMatrix, keys: np.ndarray, values: np.ndarray,
                      beta) -> FastWeightMatrix:
    """Delta-rule steps S' = S - beta_i (S k_i - v_i) k_i^T, one per row in order.

    keys (n x c_k, unit rows) and values (n x c_v) are a batch of pairs;
    a 1-D key and value are a batch of one.  beta is one learning rate
    in (0, 1] for every pair, or one per pair.

    The pairs are applied in chunks in the chunkwise (UT) form of Yang et
    al., arXiv 2406.06484: within a chunk the sequential steps add
    U^T K to S, where U solves the unit lower-triangular system
    (I + diag(beta) strictlower(K K^T)) U = diag(beta) (V - K S^T).
    """
    keys, values = _pair_rows(s, keys, values)
    n = keys.shape[0]
    norms = np.sqrt(np.einsum("ij,ij->i", keys, keys))
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"key row {bad[0]} must be unit-norm within 1e-9, "
                         f"got norm {norms[bad[0]]!r}")
    betas = np.asarray(beta, dtype=np.float64)
    if betas.ndim == 0:
        betas = np.full(n, betas)
    elif betas.shape != (n,):
        raise ValueError(f"beta must be a scalar or one per pair, got shape {betas.shape} "
                         f"for {n} pairs")
    bad = np.flatnonzero(~((betas > 0.0) & (betas <= 1.0)))
    if bad.size:
        raise ValueError(f"beta row {bad[0]} must lie in (0, 1], got {betas[bad[0]]}")
    out = s.s.copy()
    for lo in range(0, n, _DELTA_CHUNK):
        k = keys[lo:lo + _DELTA_CHUNK]
        b = betas[lo:lo + _DELTA_CHUNK, None]
        system = np.eye(k.shape[0]) + b * np.tril(k @ k.T, -1)
        u = np.linalg.solve(system, b * (values[lo:lo + _DELTA_CHUNK] - (out @ k.T).T))
        out += u.T @ k
    return FastWeightMatrix(out)


def hebbian_update(s: FastWeightMatrix, keys: np.ndarray, values: np.ndarray) -> FastWeightMatrix:
    """Accumulate the outer products of a batch of pairs: S' = S + V^T K.

    A 1-D key and value are a batch of one, S' = S + v k^T.
    """
    keys, values = _pair_rows(s, keys, values)
    return FastWeightMatrix(s.s + values.T @ keys)


def _sigmoid_open(z) -> np.ndarray:
    # exp(-z) overflows to inf for z below about -709.8, and 1/(1 + inf) is
    # the correct limit 0, which the clamp then lifts.
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    return np.minimum(np.maximum(out, _GATE_LO), _GATE_HI)


def confidence_gate(q_s: np.ndarray, k_x: np.ndarray, reduce: str = "sum",
                    scale=None) -> np.ndarray:
    """Per-state-token gate beta_i = sigmoid(reduce_j of scale * q_i . k_j).

    The same temperature that scales the attention logits feeds the
    gate, so a state token whose queries barely match the incoming keys
    (large negative reduced logit) gets a learning rate near 0 and the
    update nearly freezes.  Outputs are clamped to the open interval
    (0, 1): saturated logits of +-40 or beyond stay strictly inside.
    """
    q_s = _as_float_matrix(q_s, "q_s")
    k_x = _as_float_matrix(k_x, "k_x")
    if q_s.shape[1] != k_x.shape[1]:
        raise ValueError(f"q_s width {q_s.shape[1]} != k_x width {k_x.shape[1]}")
    if k_x.shape[0] < 1:
        raise ValueError("k_x must contain at least one token")
    if reduce not in ("sum", "mean"):
        raise ValueError(f"reduce must be 'sum' or 'mean', got {reduce!r}")
    logits = _resolve_scale(scale, q_s.shape[1]) * (q_s @ k_x.T)
    return _sigmoid_open(logits.sum(axis=1) if reduce == "sum" else logits.mean(axis=1))


def _frame_gate(mode: BetaMode, p: ProjectionSet, n: int):
    """gate(state, frame tokens, scaled logits Q_s K_x^T) -> the frame's n betas."""
    if isinstance(mode, ConstantScalar):
        beta = np.full(n, mode.value)
        return lambda s, x, z: beta
    if isinstance(mode, InputScalarSigmoid):
        return lambda s, x, z: np.full(n, _sigmoid_open(float(np.mean(x @ p.gate_map))))
    if isinstance(mode, PerTokenInputSigmoid):
        return lambda s, x, z: _sigmoid_open(s @ p.gate_map)
    if isinstance(mode, ConfidenceGate):
        if mode.reduce == "sum":
            return lambda s, x, z: _sigmoid_open(z.sum(axis=1))
        return lambda s, x, z: _sigmoid_open(z.mean(axis=1))
    raise TypeError(f"unknown gate mode {mode!r}")


def _token_steps(s: TokenState, tokens, p: ProjectionSet, mode: BetaMode, scale, offsets):
    """The token kernel: one gated step per frame of a segment, in order."""
    tokens, offsets = _token_segment(tokens, p.c, offsets)
    if s.c != p.c:
        raise ValueError(f"state width {s.c} does not match projection width {p.c}")
    scale = _resolve_scale(scale, p.c)
    gate = _frame_gate(mode, p, s.n)
    k_x, v_x = p.project_k(tokens), p.project_v(tokens)
    bounds = offsets.tolist()
    state = s.tokens
    betas = np.empty((len(bounds) - 1, s.n))
    for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        z = scale * (p.project_q(state) @ k_x[lo:hi].T)
        betas[f] = beta = gate(state, tokens[lo:hi], z)
        state = state + beta[:, None] * (_softmax(z) @ v_x[lo:hi])
    return TokenState(state), betas


def ttt3r_update(s: TokenState, tokens, p: ProjectionSet, mode: BetaMode, scale=None, *,
                 offsets=None):
    """Gated token update S <- S + diag(beta) softmax(Q_s K_x^T) V_x, once per frame.

    tokens (m x c) are one segment of the stream and offsets the rows at
    which its frames start, followed by m (None: one frame); each frame
    updates the state in turn.  Returns (new state, betas), one row of n
    gates per frame.  With mode ConstantScalar(1.0) the state is bitwise
    identical to update_vanilla_rnn's, since both run this kernel and
    scaling by 1.0 is exact.
    """
    return _token_steps(s, tokens, p, mode, scale, offsets)


def read_token_state(s: TokenState, query: np.ndarray, p: ProjectionSet, scale=None) -> np.ndarray:
    """Attend queries over the state: softmax(Q W_q (S W_k)^T) (S W_v)."""
    query = _as_float_matrix(query, "query")
    if query.shape[1] != p.c or s.c != p.c:
        raise ValueError(
            f"query width {query.shape[1]} and state width {s.c} must match projection width {p.c}"
        )
    q = p.project_q(query)
    k_s = p.project_k(s.tokens)
    v_s = p.project_v(s.tokens)
    return softmax_rows(q @ k_s.T, _resolve_scale(scale, p.c)) @ v_s


def read_fast_weight(s: FastWeightMatrix, query: np.ndarray) -> np.ndarray:
    """Linear readout S q of a fast-weight matrix."""
    query = _as_float_vector(query, "query")
    if query.shape[0] != s.c_k:
        raise ValueError(f"query length {query.shape[0]} != c_k {s.c_k}")
    return s.s @ query
