"""Synthetic associative-recall benchmark for the state-update rules.

A task is a sequence of key/value pairs, optionally interleaved with
distractor frames.  The stream is one key array, one value array and
the offsets at which its frames start, so a reset segment is a slice of
rows.  Each rule ingests the stream with one kernel call per reset
segment (the whole stream when the state is never reset): the token
rules step through the segment's frames inside the kernel, the cache
appends the segment as one block, and the fast-weight rules take it as
one batch of pairs.  Recall is then scored per position as the squared
readout error, which plotted over positions gives a forgetting curve.

Scoring targets: fast-weight rules store the explicit (key, value)
pair and are scored against the raw value.  Token and cache rules
consume the raw key row as the observation token and are scored on
recovering its projected value (read_token_state with the stored key
as the query); that target choice has no single canonical form, so it
is restated in the report docs.  The stock benchmark uses identity
projections so the exact algebraic statements (orthonormal-capacity
recall, saturated attention reads) hold; the gate map stays seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .seeding import derive_seed
from .state_rules import (
    ConfidenceGate,
    ConstantScalar,
    DeltaRule,
    FastWeightMatrix,
    FullAttentionAppend,
    InputScalarSigmoid,
    KvCache,
    LinearAttentionHebbian,
    PerTokenInputSigmoid,
    ProjectionSet,
    RuleKind,
    TokenState,
    Ttt3r,
    VanillaSoftmaxRnn,
    delta_rule_update,
    hebbian_update,
    read_fast_weight,
    read_full_attention,
    read_token_state,
    ttt3r_update,
    update_full_attention,
    update_vanilla_rnn,
)
from .state_rules import _sigmoid_open

__all__ = [
    "QUERY_SATURATION",
    "StateDims",
    "RecallTask",
    "StreamConfig",
    "ForgettingCurve",
    "GateTrace",
    "RuleComparison",
    "UnsupportedRuleCombination",
    "gen_recall_task",
    "gen_adversarial_task",
    "rule_label",
    "parse_rule",
    "run_stream",
    "compare_rules",
    "curves_to_csv",
    "gate_trace_to_csv",
    "summary_to_csv",
]

# Recall queries into the key/value cache are scaled by this factor so
# the softmax saturates onto the matching key: with orthonormal keys
# and unit temperature the off-match attention mass is about
# T * exp(-QUERY_SATURATION), i.e. below 1e-13 even at T = 4096.
QUERY_SATURATION = 40.0


class UnsupportedRuleCombination(ValueError):
    """A rule was paired with a gate mode or read path it cannot support."""


class StateDims(NamedTuple):
    """State sizes: n state tokens of width c; fast weights are c_v x c_k."""

    n: int
    c: int
    c_k: int
    c_v: int


@dataclass(frozen=True)
class RecallTask:
    """Keys/values to store plus optional distractor rows.

    Keys are unit rows.  In orthonormal mode they are also pairwise
    orthogonal to 1e-9 and their count cannot exceed the key width.
    rho records the target overlap of correlated mode and is None
    otherwise.  Distractors are three row-aligned arrays: frame
    positions (d, >= 0), keys (d x c_k) and values (d x c_v); rows that
    share a position form one frame, in row order.  None means none.
    """

    keys: np.ndarray
    values: np.ndarray
    distractor_positions: Optional[np.ndarray] = None
    distractor_keys: Optional[np.ndarray] = None
    distractor_values: Optional[np.ndarray] = None
    key_mode: str = "orthonormal"
    seed: int = 0
    rho: Optional[float] = None

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if keys.ndim != 2 or values.ndim != 2:
            raise ValueError("keys and values must be 2-D")
        if keys.shape[0] != values.shape[0]:
            raise ValueError(f"{keys.shape[0]} keys but {values.shape[0]} values")
        if keys.shape[0] < 1:
            raise ValueError("task must contain at least one pair")
        norms = np.linalg.norm(keys, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("all keys must be unit-norm within 1e-9")
        if self.key_mode == "orthonormal":
            if keys.shape[0] > keys.shape[1]:
                raise ValueError(
                    f"orthonormal mode: count {keys.shape[0]} exceeds key width {keys.shape[1]}"
                )
            gram = keys @ keys.T
            off = gram - np.diag(np.diag(gram))
            if np.max(np.abs(off)) > 1e-9:
                raise ValueError("orthonormal mode: keys are not pairwise orthogonal to 1e-9")
        elif self.key_mode not in ("random_unit", "correlated"):
            raise ValueError(f"unknown key_mode {self.key_mode!r}")
        positions = np.asarray(() if self.distractor_positions is None
                               else self.distractor_positions)
        if positions.ndim != 1 or (positions.size and positions.dtype.kind not in "iu"):
            raise ValueError("distractor positions must be a 1-D integer array")
        d_keys, d_values = (np.empty((0, width)) if rows is None
                            else np.asarray(rows, dtype=np.float64)
                            for rows, width in ((self.distractor_keys, keys.shape[1]),
                                                (self.distractor_values, values.shape[1])))
        if d_keys.ndim != 2 or d_values.ndim != 2:
            raise ValueError("distractor keys and values must be 2-D")
        if not len(positions) == len(d_keys) == len(d_values):
            raise ValueError(f"{len(positions)} distractor positions but {len(d_keys)} keys "
                             f"and {len(d_values)} values")
        if d_keys.shape[1] != keys.shape[1]:
            raise ValueError("distractor key width differs from task key width")
        if d_values.shape[1] != values.shape[1]:
            raise ValueError("distractor value width differs from task value width")
        negative = np.flatnonzero(positions < 0)
        if negative.size:
            raise ValueError(f"distractor row {negative[0]} has negative position "
                             f"{positions[negative[0]]}")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "distractor_positions", positions.astype(np.int64))
        object.__setattr__(self, "distractor_keys", d_keys)
        object.__setattr__(self, "distractor_values", d_values)

    @property
    def count(self) -> int:
        return self.keys.shape[0]

    @property
    def pairs(self):
        """The stored (key, value) pairs in storage order."""
        return tuple(zip(self.keys, self.values))


@dataclass(frozen=True)
class StreamConfig:
    """How one rule runs over a task.

    reset_period None means the state is never reset; a period P >= 1
    restores the initial state before ingesting frame t for every t > 0
    with t % P == 0, so recall sees only what arrived since the last
    boundary.  softmax_scale None selects the default 1/sqrt(c);
    exact-recall claims hold at softmax_scale 1.0.  batch_size packs
    that many consecutive stored pairs into one multi-token frame.
    """

    rule: RuleKind
    state_dims: StateDims
    reset_period: Optional[int] = None
    softmax_scale: Optional[float] = None
    seed: int = 0
    batch_size: int = 1

    def __post_init__(self):
        if self.reset_period is not None and self.reset_period < 1:
            raise ValueError("reset_period must be >= 1 when set")
        if min(self.state_dims) < 1:
            raise ValueError(f"state dims must be >= 1, got {self.state_dims}")
        if self.softmax_scale is not None and not (self.softmax_scale > 0):
            raise ValueError("softmax_scale must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class ForgettingCurve:
    """Squared recall error of each stored pair, by stream position."""

    rule_label: str
    positions: np.ndarray
    sq_errors: np.ndarray
    stream_length: int

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.int64)
        sq_errors = np.asarray(self.sq_errors, dtype=np.float64)
        if positions.shape != sq_errors.shape or positions.ndim != 1:
            raise ValueError("positions and sq_errors must be matching 1-D arrays")
        if not np.all(np.isfinite(sq_errors)) or np.any(sq_errors < 0):
            raise ValueError("squared errors must be finite and nonnegative")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "sq_errors", sq_errors)

    @property
    def mean_sq_error(self) -> float:
        return float(np.mean(self.sq_errors))

    @property
    def worst_sq_error(self) -> float:
        return float(np.max(self.sq_errors))


@dataclass(frozen=True)
class GateTrace:
    """The gates of every ingested frame: one flat array plus frame offsets.

    Frame f's gates are betas[offsets[f]:offsets[f + 1]]: one per state
    token for token rules, one per pair of the frame for the delta
    rule.  Ungated rules have no frames: betas is empty, offsets is [0].
    """

    rule_label: str
    betas: np.ndarray = field(default_factory=lambda: np.empty(0))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if (betas.ndim != 1 or offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0
                or offsets[-1] != betas.size or np.any(np.diff(offsets) < 1)):
            raise ValueError("gate offsets must rise from 0 to the number of betas, "
                             "by at least one per frame")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1


@dataclass(frozen=True)
class RuleComparison:
    """Curves, gate traces and summary rows for a batch of configs."""

    curves: tuple
    traces: tuple
    labels: tuple

    @property
    def summary(self):
        return [(c.rule_label, c.mean_sq_error, c.worst_sq_error) for c in self.curves]


def _orthonormal_rows(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly orthonormal rows: a signed permutation mixed by reflections.

    QR of a dense Gaussian matrix would also work but costs O(dim^3)
    with a large constant; at dim 4096 it dominates the whole stream
    run.  Householder mixing keeps the rows orthonormal to machine
    precision at a fraction of the cost.
    """
    if count > dim:
        raise ValueError(f"cannot draw {count} orthonormal rows in width {dim}")
    perm = rng.permutation(dim)
    signs = rng.choice(np.array([-1.0, 1.0]), dim)
    basis = np.zeros((dim, dim))
    basis[np.arange(dim), perm] = signs
    for _ in range(4):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        # In place, with the exact factor 2 on v: the same bits as
        # basis - 2 (basis v) v^T without two dim x dim temporaries.
        basis -= np.outer(basis @ v, 2.0 * v)
    return basis[:count]


def _orthonormal_task(*args, **kwargs) -> RecallTask:
    """A task whose keys the generators made orthonormal by construction.

    It is checked as random_unit, which skips only the O(count^2 c_k)
    orthogonality check (0.9 s at count 4096), then labelled orthonormal.
    """
    task = RecallTask(*args, key_mode="random_unit", **kwargs)
    object.__setattr__(task, "key_mode", "orthonormal")
    return task


def _unit_rows(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _correlated_rows(count: int, dim: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Unit rows with pairwise dot products concentrated near rho.

    Each key mixes a shared base direction with an independent unit
    direction orthogonal to it: k_i = sqrt(rho) b + sqrt(1-rho) g_i.
    Cross terms vanish, so k_i . k_j = rho + (1-rho) g_i . g_j, and the
    second term is O(1/sqrt(dim)).
    """
    if dim < 2:
        raise ValueError("correlated mode needs key width >= 2")
    base = rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    keys = np.empty((count, dim))
    for i in range(count):
        g = rng.standard_normal(dim)
        g -= (g @ base) * base
        g /= np.linalg.norm(g)
        keys[i] = math.sqrt(rho) * base + math.sqrt(1.0 - rho) * g
    return keys / np.linalg.norm(keys, axis=1, keepdims=True)


def gen_recall_task(count: int, dims: StateDims, key_mode: str = "orthonormal",
                    seed: int = 0, rho: float = 0.9) -> RecallTask:
    """Draw a seeded task of `count` pairs with the requested key geometry."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    rng = np.random.default_rng(derive_seed(seed, "recall-task"))
    if key_mode == "orthonormal":
        keys = _orthonormal_rows(count, dims.c_k, rng)
    elif key_mode == "random_unit":
        keys = _unit_rows(count, dims.c_k, rng)
    elif key_mode == "correlated":
        keys = _correlated_rows(count, dims.c_k, rho, rng)
    else:
        raise ValueError(f"unknown key_mode {key_mode!r}")
    values = rng.uniform(-1.0, 1.0, (count, dims.c_v))
    if key_mode == "orthonormal":
        return _orthonormal_task(keys, values, seed=seed)
    return RecallTask(keys, values, key_mode=key_mode, seed=seed,
                      rho=rho if key_mode == "correlated" else None)


def gen_adversarial_task(dims: StateDims, seed: int = 0, true_count: int = 32,
                         distractor_count: int = 128, frame_size: int = 16,
                         anti: float = 0.12) -> RecallTask:
    """A retention stress task: true pairs followed by bursty distractors.

    The stream stores `true_count` orthonormal pairs, then appends
    distractor frames of `frame_size` identical tokens each (the
    low-texture analogue: many tokens, no new content).  Every
    distractor direction carries a small component *against* the mean
    stored key, so a confidence gate sees strongly negative reduced
    logits and nearly freezes the state, while an ungated update keeps
    overwriting it.
    """
    if true_count < 1 or distractor_count < 1:
        raise ValueError("true_count and distractor_count must be >= 1")
    if frame_size < 1 or distractor_count % frame_size:
        raise ValueError("distractor_count must be a positive multiple of frame_size")
    if not (0.0 < anti < 1.0):
        raise ValueError(f"anti must lie in (0, 1), got {anti}")
    n_frames = distractor_count // frame_size
    if true_count + n_frames > dims.c_k:
        raise ValueError(
            f"need {true_count + n_frames} orthonormal directions but key width is {dims.c_k}"
        )
    rng = np.random.default_rng(derive_seed(seed, "adversarial-task"))
    basis = _orthonormal_rows(true_count + n_frames, dims.c_k, rng)
    keys = basis[:true_count]
    extra = basis[true_count:]
    values = rng.uniform(-1.0, 1.0, (true_count, dims.c_v))
    k_mean = keys.sum(axis=0) / math.sqrt(true_count)
    directions = -anti * k_mean + math.sqrt(1.0 - anti * anti) * extra
    directions /= np.array([[np.linalg.norm(d)] for d in directions])
    d_values = rng.uniform(-1.0, 1.0, (n_frames, dims.c_v))
    return _orthonormal_task(keys, values, np.repeat(true_count + np.arange(n_frames), frame_size),
                             np.repeat(directions, frame_size, axis=0),
                             np.repeat(d_values, frame_size, axis=0), seed=seed)


def _assemble_stream(task: RecallTask, batch_size: int):
    """The stream as one key array, one value array and frame offsets.

    Distractor rows that share a position form the frame at that
    position; stored pairs fill the other frames in order, batch_size
    per frame.  Returns keys, values, offsets (frame f is rows
    offsets[f] to offsets[f + 1]) and each stored pair's frame index.
    """
    d_positions = task.distractor_positions
    d_frames = np.unique(d_positions)
    total = -(-task.count // batch_size) + len(d_frames)
    outside = d_positions[d_positions >= total]
    if outside.size:
        raise ValueError(f"distractor position {outside[0]} outside stream of length {total}")
    pair_frames = np.setdiff1d(np.arange(total), d_frames)
    positions = pair_frames[np.arange(task.count) // batch_size]
    frame_of_row = np.concatenate((positions, d_positions))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(frame_of_row, minlength=total))))
    if not d_positions.size:
        return task.keys, task.values, offsets, positions
    order = np.argsort(frame_of_row, kind="stable")
    return (np.concatenate((task.keys, task.distractor_keys))[order],
            np.concatenate((task.values, task.distractor_values))[order], offsets, positions)


# ---------------------------------------------------------------------------
# The rule table: everything the stream knows about a rule lives in its
# entry, and run_stream, rule_label and parse_rule only look entries up.
# Entries reach the state_rules kernels through this module's globals at
# call time, so a kernel wrapped here (as a profiler does) sees every call.

_VALID_RULES = ("full, vanilla, hebbian, delta[:<beta>|:input], "
                "ttt3r[:<beta>|:input|:per_token|:confidence]")

# Gate modes spelled by name; a constant learning rate is spelled as its value.
_GATE_NAMES = {InputScalarSigmoid: "input", PerTokenInputSigmoid: "per_token",
               ConfidenceGate: "confidence"}


class _RuleEntry(NamedTuple):
    """How the stream drives one rule class.

    default_gate: the gate spec a bare rule name means (None: ungated).
    tokens: the rule reads keys as state-width tokens, so c must be c_k.
    init(dims, seed): the initial state, built again at every reset.
    ingester(rule, dims, proj, scale): ingest(state, keys, values, offsets)
    -> (state, betas, counts) for one reset segment (its rows, and the
    rows at which its frames start, followed by the row count), after
    rejecting an unsupported gate; betas are the segment's gates, frame
    after frame, and counts the number of gates of each frame (both
    empty for ungated rules).
    read(state, task, proj, scale): per-pair squared recall errors.
    """

    name: str
    default_gate: Optional[str]
    tokens: bool
    init: Callable
    ingester: Callable
    read: Callable


def _init_tokens(dims: StateDims, seed: int) -> TokenState:
    rng = np.random.default_rng(derive_seed(seed, "state-init"))
    return TokenState(rng.uniform(-1.0, 1.0, (dims.n, dims.c)) / math.sqrt(dims.c))


def _init_fast_weights(dims: StateDims, seed: int) -> FastWeightMatrix:
    return FastWeightMatrix.zeros(dims.c_v, dims.c_k)


_NO_GATES = (np.empty(0), np.empty(0, dtype=np.int64))


def _full_ingester(rule, dims, proj, scale):
    return lambda state, keys, values, offsets: (update_full_attention(state, keys, proj),
                                                 *_NO_GATES)


def _vanilla_ingester(rule, dims, proj, scale):
    def ingest(state, keys, values, offsets):
        return update_vanilla_rnn(state, keys, proj, scale, offsets=offsets), *_NO_GATES
    return ingest


def _ttt3r_ingester(rule, dims, proj, scale):
    def ingest(state, keys, values, offsets):
        state, betas = ttt3r_update(state, keys, proj, rule.mode, scale, offsets=offsets)
        return state, betas.ravel(), np.full(len(betas), dims.n)
    return ingest


def _hebbian_ingester(rule, dims, proj, scale):
    return lambda state, keys, values, offsets: (hebbian_update(state, keys, values),
                                                 *_NO_GATES)


def _delta_ingester(rule, dims, proj, scale):
    mode = rule.mode
    constant = isinstance(mode, ConstantScalar)
    if not constant and not isinstance(mode, InputScalarSigmoid):
        raise UnsupportedRuleCombination(
            f"unsupported rule/read combination: {rule_label(rule)} "
            "(the delta rule takes a constant or input gate)"
        )
    if not constant and dims.c != dims.c_k:
        raise UnsupportedRuleCombination(
            "unsupported rule/read combination: input-sigmoid delta gate needs c == c_k"
        )

    def ingest(state, keys, values, offsets):
        betas = np.full(len(keys), mode.value) if constant else _sigmoid_open(keys @ proj.gate_map)
        return delta_rule_update(state, keys, values, betas), betas, np.diff(offsets)
    return ingest


def _read_cache(state, task, proj, scale):
    queries = QUERY_SATURATION * task.keys
    # In place on the fresh reads: at width 4096 each temporary is 134 MB.
    reads = read_full_attention(state, queries, proj, scale)
    reads -= queries
    reads -= proj.project_v(task.keys)
    return np.sum(np.square(reads, out=reads), axis=1)


def _read_tokens(state, task, proj, scale):
    reads = read_token_state(state, task.keys, proj, scale)
    return np.sum((reads - proj.project_v(task.keys)) ** 2, axis=1)


def _read_fast_weights(state, task, proj, scale):
    reads = np.array([read_fast_weight(state, k) for k in task.keys])
    return np.sum((reads - task.values) ** 2, axis=1)


_RULES = {
    FullAttentionAppend: _RuleEntry("full", None, True, lambda dims, seed: KvCache(),
                                    _full_ingester, _read_cache),
    VanillaSoftmaxRnn: _RuleEntry("vanilla", None, True, _init_tokens,
                                  _vanilla_ingester, _read_tokens),
    LinearAttentionHebbian: _RuleEntry("hebbian", None, False, _init_fast_weights,
                                       _hebbian_ingester, _read_fast_weights),
    DeltaRule: _RuleEntry("delta", "1", False, _init_fast_weights,
                          _delta_ingester, _read_fast_weights),
    Ttt3r: _RuleEntry("ttt3r", "confidence", True, _init_tokens,
                      _ttt3r_ingester, _read_tokens),
}
_RULES_BY_NAME = {entry.name: cls for cls, entry in _RULES.items()}
_GATES_BY_NAME = {name: cls for cls, name in _GATE_NAMES.items()}


def _entry(rule) -> _RuleEntry:
    entry = _RULES.get(type(rule))
    if entry is None:
        raise TypeError(f"unknown rule {rule!r}")
    return entry


def rule_label(rule: RuleKind) -> str:
    """Canonical short name for a rule; parse_rule inverts it."""
    entry = _entry(rule)
    if entry.default_gate is None:
        return entry.name
    gate = _GATE_NAMES.get(type(rule.mode))
    return f"{entry.name}:{gate if gate is not None else f'{rule.mode.value:g}'}"


def parse_rule(spec: str, gate_reduce: str = "sum") -> RuleKind:
    """The rule a "<rule>[:<gate>]" spec names; ValueError if none.

    Inverse of rule_label.  Labels do not spell a confidence gate's
    reduce, so gate_reduce supplies it.
    """
    name, _, gate = spec.partition(":")
    cls = _RULES_BY_NAME.get(name)
    if cls is None:
        raise ValueError(f"unknown rule {spec!r}; valid rules: {_VALID_RULES}")
    default_gate = _RULES[cls].default_gate
    if default_gate is None:
        if gate:
            raise ValueError(f"rule {name!r} takes no gate mode, got {spec!r}")
        return cls()
    gate = gate or default_gate
    gate_cls = _GATES_BY_NAME.get(gate)
    if gate_cls is not None:
        return cls(gate_cls(gate_reduce) if gate_cls is ConfidenceGate else gate_cls())
    try:
        value = float(gate)
    except ValueError:
        raise ValueError(
            f"unknown gate mode {gate!r} in {spec!r}; valid rules: {_VALID_RULES}"
        ) from None
    return cls(ConstantScalar(value))


def run_stream(task: RecallTask, config: StreamConfig):
    """Ingest the task stream under one rule and score recall per pair.

    Returns (ForgettingCurve, GateTrace); the trace is empty for
    ungated rules.  Pure in its inputs: the same task and config always
    produce identical outputs.
    """
    dims = config.state_dims
    entry = _entry(config.rule)
    if entry.tokens and dims.c != dims.c_k:
        raise UnsupportedRuleCombination(
            f"unsupported rule/read combination: token and cache rules need c == c_k, "
            f"got c={dims.c}, c_k={dims.c_k}"
        )
    if task.keys.shape[1] != dims.c_k:
        raise ValueError(f"task key width {task.keys.shape[1]} != c_k {dims.c_k}")
    if task.values.shape[1] != dims.c_v:
        raise ValueError(f"task value width {task.values.shape[1]} != c_v {dims.c_v}")
    proj = ProjectionSet.identity(dims.c, seed=derive_seed(config.seed, "projections"))
    ingest = entry.ingester(config.rule, dims, proj, config.softmax_scale)
    keys, values, offsets, positions = _assemble_stream(task, config.batch_size)
    n_frames = len(offsets) - 1

    # One ingest call per reset segment.  The initial state is built anew
    # for each segment, not kept: keeping the 4.7 MB state of a width-768
    # stream alive cost 100x the page faults under glibc malloc.
    period = config.reset_period or n_frames
    betas, counts = [], []
    for t0 in range(0, n_frames, period):
        bounds = offsets[t0:t0 + period + 1]
        lo, hi = bounds[0], bounds[-1]
        state, segment_betas, segment_counts = ingest(
            entry.init(dims, config.seed), keys[lo:hi], values[lo:hi], bounds - lo)
        betas.append(segment_betas)
        counts.append(segment_counts)

    errors = entry.read(state, task, proj, config.softmax_scale)
    label = rule_label(config.rule)
    curve = ForgettingCurve(label, positions, errors, n_frames)
    gate_offsets = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return curve, GateTrace(label, np.concatenate(betas), gate_offsets)


def compare_rules(task: RecallTask, configs: Sequence[StreamConfig]):
    """Run several configs over one task; results are in config order.

    Labels of repeated rules get a #k suffix so report rows stay
    unambiguous.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    seen: dict = {}
    curves, traces = [], []
    for cfg in configs:
        curve, trace = run_stream(task, cfg)
        seen[curve.rule_label] = bump = seen.get(curve.rule_label, 0) + 1
        if bump > 1:
            label = f"{curve.rule_label}#{bump}"
            curve = ForgettingCurve(label, curve.positions, curve.sq_errors,
                                    curve.stream_length)
            trace = replace(trace, rule_label=label)
        curves.append(curve)
        traces.append(trace)
    return RuleComparison(tuple(curves), tuple(traces), tuple(c.rule_label for c in curves))


def curves_to_csv(curves: Sequence[ForgettingCurve]) -> str:
    """One row per stored pair: rule,position,sq_error."""
    lines = ["rule,position,sq_error"]
    for curve in curves:
        for pos, err in zip(curve.positions, curve.sq_errors):
            lines.append(f"{curve.rule_label},{int(pos)},{float(err)!r}")
    return "\n".join(lines) + "\n"


def gate_trace_to_csv(trace: GateTrace) -> str:
    """One row per gate entry: frame,token,beta."""
    sizes = np.diff(trace.offsets)
    frames = np.repeat(np.arange(len(sizes)), sizes)
    tokens = np.arange(trace.betas.size) - np.repeat(trace.offsets[:-1], sizes)
    lines = ["frame,token,beta"]
    lines += [f"{f},{i},{beta!r}"
              for f, i, beta in zip(frames.tolist(), tokens.tolist(), trace.betas.tolist())]
    return "\n".join(lines) + "\n"


def summary_to_csv(comparison: RuleComparison) -> str:
    """One row per rule: rule,mean_sq_error,worst_sq_error."""
    lines = ["rule,mean_sq_error,worst_sq_error"]
    for label, mean, worst in comparison.summary:
        lines.append(f"{label},{mean!r},{worst!r}")
    return "\n".join(lines) + "\n"
