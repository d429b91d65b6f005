"""Synthetic associative-recall benchmark for the state-update rules.

A rule is named by its spec, "<rule>[:<gate>]", its gate a rate or a
name in state_rules.GATES.  StreamConfig checks the spec once and keeps
its canonical form, the label of the rule's report rows; one table keyed
by rule name holds what the stream does with each rule and its gates.

A task is the stream itself: one key row and one value row per stream
row, the first `count` rows stored pairs, one per frame, and the rest
distractor frames of `frame_size` rows; its offsets are the rows at
which its frames start, so a reset segment is a slice of rows.  The
generators' key_mode, seed and rho shape the draw and are not stored.
Each rule ingests only what its outputs read.  The readout sees
the state after the last reset segment, so full, vanilla, hebbian and
delta run their kernel once, on that segment: the token rule steps
through its frames inside the kernel, the cache appends it as one
block, and the fast-weight rules take it as one batch of pairs.  The
delta gates of the other segments never read the state, so they are
computed without the kernel.  The ttt3r gates can read the state, and
a run keeps every frame's gates, so ttt3r steps every segment:
consecutive segments with the same frame layout go through one stacked
kernel call, frame by frame in lockstep.  With the distractors after
the pairs, the segments of a layout are consecutive.  Recall is then
scored per position as the squared readout error, which plotted over
positions gives a forgetting curve.  Scoring is one loop over fixed
blocks of stored keys: each rule reads a block, and the loop
differences, squares and sums its rows in place, so a run holds the
task, one state and one block.  Each rule's run is one RuleRun: its
label, its forgetting curve and its gates, which the three CSV
writers render.

Scoring targets: fast-weight rules store the explicit (key, value)
pair and are scored against the raw value.  Token and cache rules
consume the raw key row as the observation token, which is its own key
and value, and are scored on recovering that key row (read_token_state
with the stored key as the query).  The gate map of the input and
per_token gates is seeded from the config's seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._args import choice, floats, integer, real, unit_norms
from .io_formats import write_table
from .seeding import derive_seed
from .state_rules import (
    GATES,
    REDUCES,
    ProjectionSet,
    delta_rule_update,
    hebbian_update,
    lookup_gate,
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
    "RuleRun",
    "UnsupportedRuleCombination",
    "gen_recall_task",
    "gen_adversarial_task",
    "run_stream",
    "compare_rules",
    "curves_to_csv",
    "gate_trace_to_csv",
    "summary_to_csv",
]

# Recall queries into the full-attention cache are scaled by this factor so
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
    """The recall stream: stored pairs, one per frame, then distractor frames.

    keys (rows x c_k) are finite unit rows and values (rows x c_v)
    finite rows, one of each per stream row; the task does not record
    how its keys were drawn.  Rows 0..count-1 are the stored pairs,
    one per frame (count None means every row is a pair), and the rows
    after them are whole frames of frame_size rows.  A bad row is named
    by its stream index.
    """

    keys: np.ndarray
    values: np.ndarray
    count: Optional[int] = None
    frame_size: int = 1

    def __post_init__(self):
        keys = floats(self.keys, "keys", 2, finite=False)
        values = floats(self.values, "values", 2, finite=False)
        if keys.shape[0] != values.shape[0]:
            raise ValueError(f"{keys.shape[0]} keys but {values.shape[0]} values")
        rows = len(keys)
        count = integer(rows if self.count is None else self.count, "count")
        frame_size = integer(self.frame_size, "frame_size")
        if not 1 <= count <= rows:
            raise ValueError(f"count must lie in [1, {rows}], the stream's rows, got {count}")
        if frame_size < 1 or (rows - count) % frame_size:
            raise ValueError(f"the {rows - count} rows after the pairs are not whole frames "
                             f"of frame_size {frame_size}")
        for name, arr in (("key", keys), ("value", values)):
            bad = ~np.isfinite(arr).all(axis=1)
            if bad.any():
                raise ValueError(f"{name} row {int(np.argmax(bad))} contains non-finite entries")
        unit_norms(keys, "key")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "frame_size", frame_size)

    @property
    def offsets(self) -> np.ndarray:
        """The row at which each frame starts, followed by the row count."""
        return np.concatenate((np.arange(self.count),
                               np.arange(self.count, len(self.keys) + 1, self.frame_size)))


@dataclass(frozen=True)
class StreamConfig:
    """How one rule runs over a task.

    rule is a "<rule>[:<gate>]" spec, checked here once and stored in
    the canonical form of _parse ("delta" becomes "delta:1", "ttt3r"
    becomes "ttt3r:confidence").  gate_reduce ("sum" or "mean") reduces
    a confidence gate's logits.  reset_period None means the state is
    never reset; a period P >= 1 restores the initial state before
    ingesting frame t for every t > 0 with t % P == 0, so recall sees
    only what arrived since the last boundary; a period at or above the
    stream's frame count never resets.  softmax_scale None selects the
    default 1/sqrt(c); exact-recall claims hold at softmax_scale 1.0.
    state_dims must be a StateDims of integers, and reset_period and
    seed integers.
    """

    rule: str
    state_dims: StateDims
    reset_period: Optional[int] = None
    softmax_scale: Optional[float] = None
    seed: int = 0
    gate_reduce: str = "sum"

    def __post_init__(self):
        dims = self.state_dims
        if not isinstance(dims, StateDims):
            raise ValueError(f"state_dims must be a StateDims, got {dims!r}")
        for name, value in zip(dims._fields, dims):
            integer(value, f"state_dims.{name}", 1)
        integer(self.seed, "seed")
        if self.reset_period is not None:
            integer(self.reset_period, "reset_period", 1)
        if self.softmax_scale is not None:
            real(self.softmax_scale, "scale")
        choice(self.gate_reduce, "reduce", REDUCES)
        spec, entry, gate = _parse(self.rule)
        if entry.tokens and dims.c != dims.c_k:
            raise UnsupportedRuleCombination(
                f"unsupported rule/read combination: token and cache rules need c == c_k, "
                f"got c={dims.c}, c_k={dims.c_k}"
            )
        # The input gate maps keys through the c-wide gate map.
        if gate == "input" and dims.c != dims.c_k:
            raise UnsupportedRuleCombination(
                "unsupported rule/read combination: input-sigmoid delta gate needs c == c_k"
            )
        object.__setattr__(self, "rule", spec)


@dataclass(frozen=True)
class RuleRun:
    """One rule's run over a task: its recall errors and its gates.

    sq_errors[i] is the squared recall error of stored pair i, which
    sits at stream position i.  The gates of every ingested frame are
    one flat array plus frame offsets: frame f's gates are
    betas[gate_offsets[f]:gate_offsets[f + 1]], one per state token for
    token rules, one per pair of the frame for the delta rule.  Ungated
    rules have no frames: betas is empty, gate_offsets is [0].
    """

    rule_label: str
    sq_errors: np.ndarray
    betas: np.ndarray = field(default_factory=lambda: np.empty(0))
    gate_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    def __post_init__(self):
        sq_errors = floats(self.sq_errors, "sq_errors", 1, finite=False)
        if not np.all(np.isfinite(sq_errors)) or np.any(sq_errors < 0):
            raise ValueError("squared errors must be finite and nonnegative")
        betas = floats(self.betas, "betas", finite=False)
        offsets = np.asarray(self.gate_offsets)
        if (not np.issubdtype(offsets.dtype, np.integer) or betas.ndim != 1
                or offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0
                or offsets[-1] != betas.size or np.any(np.diff(offsets) < 1)):
            raise ValueError("gate_offsets must be integers that rise from 0 to the number "
                             "of betas, by at least one per frame")
        object.__setattr__(self, "sq_errors", sq_errors)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gate_offsets", np.asarray(offsets, dtype=np.int64))

    @property
    def mean_sq_error(self) -> float:
        return float(np.mean(self.sq_errors))

    @property
    def worst_sq_error(self) -> float:
        return float(np.max(self.sq_errors))


def _orthonormal_rows(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly orthonormal rows: a signed permutation mixed by reflections.

    QR of a dense Gaussian matrix costs O(dim^3) with a large constant
    (at dim 4096 it dominates the stream run); Householder mixing keeps
    the rows orthonormal to machine precision at a fraction of the cost.
    Fewer than dim rows are copied out: a view would hold the whole basis.
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
        # In place, 64 rows at a time, with the exact factor 2 on v: the
        # same bits as basis - 2 (basis v) v^T without a dim x dim
        # temporary.
        projected, v = basis @ v, 2.0 * v
        for lo in range(0, dim, 64):
            basis[lo:lo + 64] -= np.outer(projected[lo:lo + 64], v)
    return basis[:count].copy() if count < dim else basis


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
    integer(count, "count", 1)
    integer(seed, "seed")
    real(rho, "rho", 0.0, 1.0, closed=True)
    choice(key_mode, "key_mode", ("orthonormal", "random_unit", "correlated"))
    rng = np.random.default_rng(derive_seed(seed, "recall-task"))
    if key_mode == "orthonormal":
        keys = _orthonormal_rows(count, dims.c_k, rng)
    elif key_mode == "random_unit":
        keys = _unit_rows(count, dims.c_k, rng)
    else:
        keys = _correlated_rows(count, dims.c_k, rho, rng)
    return RecallTask(keys, rng.uniform(-1.0, 1.0, (count, dims.c_v)))


# Each adversarial distractor direction is -_ANTI times the mean stored
# key direction plus sqrt(1 - _ANTI^2) times a fresh orthonormal direction.
_ANTI = 0.12


def gen_adversarial_task(dims: StateDims, seed: int = 0, true_count: int = 32,
                         distractor_count: int = 128, frame_size: int = 16) -> RecallTask:
    """A retention stress task: true pairs followed by bursty distractors.

    The stream stores `true_count` orthonormal pairs, then appends
    distractor frames of `frame_size` identical tokens each (the
    low-texture analogue: many tokens, no new content).  Every
    distractor direction carries a small component (_ANTI) *against*
    the mean stored key, so a confidence gate sees strongly negative
    reduced logits and nearly freezes the state, while an ungated update
    keeps overwriting it.
    """
    integer(seed, "seed")
    for name, value in (("true_count", true_count), ("distractor_count", distractor_count),
                        ("frame_size", frame_size)):
        integer(value, name, 1)
    if distractor_count % frame_size:
        raise ValueError("distractor_count must be a positive multiple of frame_size")
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
    directions = -_ANTI * k_mean + math.sqrt(1.0 - _ANTI * _ANTI) * extra
    directions /= np.array([[np.linalg.norm(d)] for d in directions])
    d_values = rng.uniform(-1.0, 1.0, (n_frames, dims.c_v))
    return RecallTask(np.concatenate((keys, np.repeat(directions, frame_size, axis=0))),
                      np.concatenate((values, np.repeat(d_values, frame_size, axis=0))),
                      true_count, frame_size)


# ---------------------------------------------------------------------------
# The rule table, keyed by rule name: everything the stream knows about a
# rule lives in its entry, which _parse looks up.  Entries reach the
# state_rules kernels through this module's globals at call time, so a
# kernel wrapped here (as a profiler does) sees every call.

class _RuleEntry(NamedTuple):
    """How the stream drives one rule.

    default_gate: the gate a bare rule name means (None: ungated).
    gates: the gate kinds the rule takes ("constant" or names in GATES).
    tokens: the rule reads keys as state-width tokens, so c must be c_k.
    init(dims, seed): the initial state, which every reset restores.
    ingest(state, keys, values, offsets, starts, gate, config, gate_map)
    -> (state, betas, counts) for the whole stream (its rows, the rows
    at which its frames start followed by the row count, and the frames
    at which its reset segments start) from the initial state `state`
    under `gate` (as _parse returns it), the StreamConfig and the gate
    map of the input and per_token gates.  The state is the one after
    the last segment; betas are the gates of every frame, frame after
    frame, and counts the number of gates of each frame (both empty for
    ungated rules).
    read(state, keys, scale): the rows recalled for a block of stored
    keys, as a new array that the scoring loop overwrites.
    """

    default_gate: Optional[str]
    gates: tuple
    tokens: bool
    init: Callable
    ingest: Callable
    read: Callable


def _init_tokens(dims: StateDims, seed: int) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(seed, "state-init"))
    return rng.uniform(-1.0, 1.0, (dims.n, dims.c)) / math.sqrt(dims.c)


def _init_fast_weights(dims: StateDims, seed: int) -> np.ndarray:
    return np.zeros((dims.c_v, dims.c_k))


_NO_GATES = (np.empty(0), np.empty(0, dtype=np.int64))

# Stored keys are scored in blocks of a multiple of 64 rows (64 at least,
# like a fast-weight read's query block) whose query rows, logits over
# the state's rows and recalled rows stay within this many bytes, or a
# third of the state's if more, as every block reads the whole state: a
# 4096-wide cache is read in 448-row blocks, 768-wide states in 64.
# Without blocks, a read at width 4096 holds count x 4096 arrays.
_SCORE_BYTES = 1 << 20

# Stacked states of one lockstep ttt3r call stay within this many bytes
# (one state at least).  Without a cap, width 768 with a reset every
# frame would stack 768 states.
_STACK_BYTES = 8 << 20


def _last_segment(keys, values, offsets, starts):
    """The last reset segment: its keys, values and frame offsets from row 0."""
    bounds = offsets[starts[-1]:]
    lo = bounds[0]
    return keys[lo:], values[lo:], bounds - lo


def _ingest_full(state, keys, values, offsets, starts, gate, config, gate_map):
    keys, _, _ = _last_segment(keys, values, offsets, starts)
    return update_full_attention(state, keys), *_NO_GATES


def _ingest_vanilla(state, keys, values, offsets, starts, gate, config, gate_map):
    keys, _, bounds = _last_segment(keys, values, offsets, starts)
    return update_vanilla_rnn(state, keys, config.softmax_scale, offsets=bounds), *_NO_GATES


def _ingest_hebbian(state, keys, values, offsets, starts, gate, config, gate_map):
    keys, values, _ = _last_segment(keys, values, offsets, starts)
    return hebbian_update(state, keys, values), *_NO_GATES


def _ingest_delta(state, keys, values, offsets, starts, gate, config, gate_map):
    if gate == "input":
        # One product per segment, as the kernel took them: a product over
        # the whole stream rounds some rows differently.
        rows = [*offsets[starts].tolist(), len(keys)]
        betas = np.concatenate([_sigmoid_open(keys[lo:hi] @ gate_map)
                                for lo, hi in zip(rows, rows[1:])])
    else:
        betas = np.full(len(keys), gate)
    lo = offsets[starts[-1]]
    return (delta_rule_update(state, keys[lo:], values[lo:], betas[lo:]), betas,
            np.diff(offsets))


def _ingest_ttt3r(state, keys, values, offsets, starts, gate, config, gate_map):
    # A run of consecutive segments whose frames start at the same rows,
    # relative to the segment, shares a layout and steps in lockstep: one
    # stacked call per run (per _STACK_BYTES of stacked states) on a view
    # of the stream.  With the distractors after the pairs, each layout
    # is one run.
    ends = [*starts[1:].tolist(), len(offsets) - 1]
    layouts = [offsets[t0:t1 + 1] - offsets[t0] for t0, t1 in zip(starts.tolist(), ends)]
    betas = np.empty((len(offsets) - 1, config.state_dims.n))
    cap = max(1, _STACK_BYTES // state.nbytes)
    first = 0
    for _, run in itertools.groupby(layouts, np.ndarray.tobytes):
        bounds, end = layouts[first], first + len(list(run))
        for lo in range(first, end, cap):
            group, length = starts[lo:min(lo + cap, end)], bounds[-1]
            tokens = keys[offsets[group[0]]:offsets[group[0]] + len(group) * length]
            stacked, group_betas = ttt3r_update(
                np.broadcast_to(state, (len(group), *state.shape)),
                tokens.reshape(len(group), length, -1), gate, config.softmax_scale,
                offsets=bounds, reduce=config.gate_reduce, gate_map=gate_map)
            betas[group[:, None] + np.arange(len(bounds) - 1)] = group_betas
        first = end
    return stacked[-1], betas.ravel(), np.full(len(betas), betas.shape[1])


def _read_cache(state, keys, scale):
    # The residual read adds the saturated queries to the attended values;
    # they are taken off again in place, so the block's one query array
    # and one read are all it holds.
    queries = QUERY_SATURATION * keys
    reads = read_full_attention(state, queries, scale)
    reads -= queries
    return reads


def _read_tokens(state, keys, scale):
    return read_token_state(state, keys, scale)


def _read_fast_weights(state, keys, scale):
    return read_fast_weight(state, keys)


_RULES = {
    "full": _RuleEntry(None, (), True, lambda dims, seed: np.empty((0, dims.c)),
                       _ingest_full, _read_cache),
    "vanilla": _RuleEntry(None, (), True, _init_tokens, _ingest_vanilla, _read_tokens),
    "hebbian": _RuleEntry(None, (), False, _init_fast_weights, _ingest_hebbian,
                          _read_fast_weights),
    "delta": _RuleEntry("1", ("constant", "input"), False, _init_fast_weights, _ingest_delta,
                        _read_fast_weights),
    "ttt3r": _RuleEntry("confidence", ("constant", *GATES), True, _init_tokens, _ingest_ttt3r,
                        _read_tokens),
}
# The spec grammar that errors name: each rule and its gates, as "delta[:<beta>|:input]".
_VALID_RULES = ", ".join(
    name + ("[%s]" % "|".join(":<beta>" if g == "constant" else f":{g}" for g in entry.gates)
            if entry.gates else "")
    for name, entry in _RULES.items())


def _parse(spec: str):
    """(canonical spec, table entry, gate) of a "<rule>[:<gate>]" spec.

    A bare name means the rule's default gate, and an ungated rule has
    gate None; otherwise the gate is a name in GATES or a constant rate
    as a float.  The canonical spec is the label of the rule's report
    rows: it names the gate, and spells a constant as f"{beta:g}", or
    as its repr where that does not read back as the same float.
    Parsing it gives the same entry and gate.  ValueError if the spec
    names no rule or no gate, or gates an ungated rule;
    UnsupportedRuleCombination if the rule does not take the gate.
    """
    if not isinstance(spec, str):
        raise ValueError(f"rule spec must be a str, got {spec!r}")
    name, _, gate = spec.partition(":")
    entry = _RULES.get(name)
    if entry is None:
        raise ValueError(f"unknown rule {spec!r}; valid rules: {_VALID_RULES}")
    if entry.default_gate is None:
        if gate:
            raise ValueError(f"rule {name!r} takes no gate mode, got {spec!r}")
        return name, entry, None
    gate = label = gate or entry.default_gate
    if gate not in GATES:
        try:
            gate = float(gate)
        except ValueError:
            raise ValueError(
                f"unknown gate mode {gate!r} in {spec!r}; valid rules: {_VALID_RULES}"
            ) from None
        label = f"{gate:g}" if float(f"{gate:g}") == gate else repr(gate)
    kind, _ = lookup_gate(gate)
    label = f"{name}:{label}"
    if kind not in entry.gates:
        raise UnsupportedRuleCombination(
            f"unsupported rule/read combination: {label} "
            f"(the {name} rule takes a {' or '.join(entry.gates)} gate)")
    return label, entry, gate


def run_stream(task: RecallTask, config: StreamConfig) -> RuleRun:
    """Ingest the task stream under one rule and score recall per pair.

    Returns the RuleRun labelled config.rule; it has no gates for
    ungated rules.  Pure in its inputs: the same task and config always
    produce identical outputs.
    """
    dims = config.state_dims
    _, entry, gate = _parse(config.rule)
    if task.keys.shape[1] != dims.c_k:
        raise ValueError(f"task key width {task.keys.shape[1]} != c_k {dims.c_k}")
    if task.values.shape[1] != dims.c_v:
        raise ValueError(f"task value width {task.values.shape[1]} != c_v {dims.c_v}")
    gate_map = ProjectionSet.identity(dims.c, derive_seed(config.seed, "projections")).gate_map
    offsets = task.offsets
    n_frames = len(offsets) - 1
    # Capped: a period past int64 would give np.arange non-integer starts.
    starts = np.arange(0, n_frames, min(config.reset_period or n_frames, n_frames))
    state, betas, counts = entry.ingest(entry.init(dims, config.seed), task.keys, task.values,
                                        offsets, starts, gate, config, gate_map)
    # Each block's recalled rows are differenced from their targets,
    # squared and summed in place.
    row_bytes = 8 * (state.shape[0] + dims.c_k + dims.c_v)
    budget = max(_SCORE_BYTES, state.nbytes // 3)
    rows = 64 * max(1, budget // (64 * row_bytes))
    errors = np.empty(task.count)
    for lo in range(0, task.count, rows):
        block = slice(lo, min(lo + rows, task.count))
        recalled = entry.read(state, task.keys[block], config.softmax_scale)
        recalled -= (task.keys if entry.tokens else task.values)[block]
        np.sum(np.square(recalled, out=recalled), axis=1, out=errors[block])
    return RuleRun(config.rule, errors, betas, np.concatenate(([0], np.cumsum(counts))))


def compare_rules(task: RecallTask, configs: Sequence[StreamConfig]) -> list:
    """Run several configs over one task: their RuleRuns, in config order.

    Labels of repeated rules get a #k suffix so report rows stay
    unambiguous.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    seen: dict = {}
    runs = []
    for cfg in configs:
        run = run_stream(task, cfg)
        seen[run.rule_label] = bump = seen.get(run.rule_label, 0) + 1
        runs.append(replace(run, rule_label=f"{run.rule_label}#{bump}") if bump > 1 else run)
    return runs


def curves_to_csv(runs: Sequence[RuleRun]) -> str:
    """One row per stored pair: rule,position,sq_error."""
    return "rule,position,sq_error\n" + "".join(
        block for run in runs
        for block in write_table("", "%s,%d,%r", [[run.rule_label] * run.sq_errors.size,
                                                  range(run.sq_errors.size), run.sq_errors]))


def gate_trace_to_csv(run: RuleRun) -> str:
    """One row per gate entry: frame,token,beta (only the header for an ungated run)."""
    sizes = np.diff(run.gate_offsets)
    frames = np.repeat(np.arange(len(sizes)), sizes)
    tokens = np.arange(run.betas.size) - np.repeat(run.gate_offsets[:-1], sizes)
    return "".join(write_table("frame,token,beta\n", "%d,%d,%r", [frames, tokens, run.betas]))


def summary_to_csv(runs: Sequence[RuleRun]) -> str:
    """One row per rule: rule,mean_sq_error,worst_sq_error."""
    return "".join(write_table("rule,mean_sq_error,worst_sq_error\n", "%s,%r,%r",
                               [[r.rule_label for r in runs], [r.mean_sq_error for r in runs],
                                [r.worst_sq_error for r in runs]]))
