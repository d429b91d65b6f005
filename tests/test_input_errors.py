"""Input checks of the public API, one bad input per row.

Each row calls one entry point with one malformed argument and expects
one ValueError whose whole message names what is wrong.  The rows are
checks that the per-module tests do not otherwise reach.
"""

import re
import tracemalloc

import numpy as np
import pytest

from ttt_lab import _args
from ttt_lab.geometry_metrics import (
    PointCloud,
    Sim3Transform,
    Trajectory,
    associate,
    depth_metrics,
    quat_mul,
    quat_to_rotmat,
    rpe,
    sequence_depth_scale,
    umeyama_sim3,
)
from ttt_lab.io_formats import parse_pfm, write_metrics_csv, write_pfm, write_table
from ttt_lab.recall_bench import (
    RecallTask,
    RuleRun,
    StateDims,
    StreamConfig,
    gen_adversarial_task,
    gen_recall_task,
    run_stream,
)
from ttt_lab.seeding import derive_seed
from ttt_lab.state_rules import (
    ProjectionSet,
    confidence_gate,
    delta_rule_update,
    hebbian_update,
    lookup_gate,
    read_fast_weight,
    read_token_state,
    recon_loss,
    ttt3r_update,
    update_full_attention,
)

DIMS16 = StateDims(4, 16, 16, 16)
DIMS8 = StateDims(4, 8, 8, 8)
_UNKNOWN_GATE = "unknown gate {}; valid gates: input, per_token, confidence or a rate in (0, 1]"
_TRAJ = Trajectory(np.arange(3.0), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.zeros((3, 3)))
_HUGE = 10**400    # an int past the float range: not finite, and numpy cannot convert it
_PAST_RANGE = "{} contains an integer past the float range"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: delta_rule_update(np.zeros((2, 2)), np.eye(2), np.ones((2, 2)),
                                           np.ones(3)),
                 "beta must be a scalar or one per pair, got shape (3,) for 2 pairs",
                 id="delta-beta-shape"),
    pytest.param(lambda: recon_loss(np.zeros((2, 2)), np.eye(2), np.ones((2, 3))),
                 "value length 3 != c_v 2", id="recon-loss-value-width"),
    pytest.param(lambda: quat_to_rotmat(np.ones(3)),
                 "quaternion must have 4 components, got shape (3,)", id="quat-shape"),
    pytest.param(lambda: quat_mul(np.ones(4), np.ones((2, 3))),
                 "quaternion must have 4 components, got shape (2, 3)", id="quat-mul-shape"),
    pytest.param(lambda: Sim3Transform(1.0, np.eye(3), np.zeros(2)),
                 "rotation must be 3x3 and translation length 3", id="sim3-shapes"),
    pytest.param(lambda: Sim3Transform(None, np.eye(3), np.zeros(3)),
                 "scale must be positive and finite, got None", id="sim3-scale-none"),
    # An int past the float range is not finite as a float, and math.isfinite
    # would raise OverflowError on it.
    pytest.param(lambda: Sim3Transform(10**400, np.eye(3), np.zeros(3)),
                 f"scale must be positive and finite, got {10**400}", id="sim3-scale-huge-int"),
    # numpy raises OverflowError on an int past the float range in an array.
    pytest.param(lambda: Sim3Transform(1.0, np.eye(3), [10**400, 0, 0]),
                 "translation contains non-finite entries", id="sim3-translation-huge-int"),
    pytest.param(lambda: Sim3Transform(1.0, np.full((3, 3), np.nan), np.zeros(3)),
                 "rotation contains non-finite entries", id="sim3-rotation-nan"),
    pytest.param(lambda: PointCloud(np.array([[10**400, 0, 0]], dtype=object)),
                 "points contains non-finite entries", id="cloud-huge-int"),
    pytest.param(lambda: PointCloud(np.zeros((1, 3)), np.array([[10**400, 0, 0]], dtype=object)),
                 "normals contains non-finite entries", id="cloud-normals-huge-int"),
    pytest.param(lambda: Trajectory([10**400], [[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]),
                 "trajectory contains non-finite entries", id="trajectory-huge-int"),
    # Squares past the float range: the overflow is the error, not a warning.
    pytest.param(lambda: quat_to_rotmat([0, 1e200, 0, 0]),
                 "quaternion's rotation matrix overflows", id="quat-rotmat-overflow"),
    pytest.param(lambda: PointCloud(np.zeros((1, 3)), [[1e200, 0, 0]]),
                 "normals row 0 must be unit-norm within 1e-6, got norm inf",
                 id="cloud-normal-overflow"),
    pytest.param(lambda: Trajectory([0.0], [[2.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]),
                 "quaternion row 0 must be unit-norm within 1e-9, got norm 2.0",
                 id="trajectory-quaternion-norm"),
    pytest.param(lambda: Trajectory([0.0], [[1e200, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]),
                 "quaternion row 0 must be unit-norm within 1e-9, got norm inf",
                 id="trajectory-quaternion-overflow"),
    pytest.param(lambda: depth_metrics(np.ones((2, 2)), np.ones((2, 2)), scale=10**400),
                 f"scale must be positive and finite, got {10**400}", id="depth-scale-huge-int"),
    # numpy raises TypeError on an entry that is not a number.
    pytest.param(lambda: PointCloud([[{}, 0, 0]]), "points must be an array of real numbers",
                 id="cloud-dict-entry"),
    pytest.param(lambda: hebbian_update(np.zeros((2, 2)), [{}, 0], [1.0, 0.0]),
                 "keys must be an array of real numbers", id="hebbian-dict-entry"),
    # An entry must be a real number that is not a bool: numpy would read
    # None as nan, numeric text as its number and a bool as 0 or 1.
    pytest.param(lambda: Sim3Transform(1.0, np.eye(3), np.zeros(3)).apply([[None, 0, 0]]),
                 "points must be an array of real numbers", id="sim3-apply-none"),
    pytest.param(lambda: depth_metrics([[None, 1.0]], np.ones((1, 2))),
                 "depth map must be an array of real numbers", id="depth-none"),
    pytest.param(lambda: sequence_depth_scale([[[None, 1.0]]], [np.ones((1, 2))]),
                 "depth map must be an array of real numbers", id="depth-scale-none"),
    pytest.param(lambda: write_pfm([[None]]), "depth map must be an array of real numbers",
                 id="write-pfm-none"),
    pytest.param(lambda: write_metrics_csv([("x", None)]),
                 "metric values must be an array of real numbers", id="metrics-csv-none"),
    pytest.param(lambda: read_fast_weight(np.eye(2), ["1", "0"]),
                 "query must be an array of real numbers", id="read-fast-weight-text"),
    pytest.param(lambda: write_metrics_csv([("ate", "0.25")]),
                 "metric values must be an array of real numbers", id="metrics-csv-text"),
    pytest.param(lambda: PointCloud([[True, False, False]]),
                 "points must be an array of real numbers", id="cloud-bool"),
    pytest.param(lambda: PointCloud([[0.0, 0.0, np.nan]]),
                 "points contains non-finite entries", id="cloud-non-finite"),
    pytest.param(lambda: PointCloud(np.zeros((2, 3)), np.ones((1, 3))),
                 "normals shape (1, 3) does not match points shape (2, 3)",
                 id="cloud-normals-shape"),
    pytest.param(lambda: associate(_TRAJ, _TRAJ, max_dt=0.0),
                 "max_dt must be positive and finite, or inf, got 0.0", id="associate-max-dt"),
    pytest.param(lambda: associate(_TRAJ, _TRAJ, None),
                 "max_dt must be positive and finite, or inf, got None",
                 id="associate-max-dt-none"),
    # A finite window past the float range would overflow in est_ts - max_dt.
    pytest.param(lambda: associate(_TRAJ, _TRAJ, max_dt=10**400),
                 f"max_dt must be positive and finite, or inf, got {10**400}",
                 id="associate-max-dt-huge-int"),
    pytest.param(lambda: rpe(_TRAJ, _TRAJ, [(0, 0), (1, 1), (2, 2)], delta=1.5),
                 "delta must be an integer, got 1.5", id="rpe-delta-float"),
    pytest.param(lambda: umeyama_sim3(np.zeros((4, 3)), np.zeros((5, 3))),
                 "src and dst must be matching Nx3 arrays, got (4, 3) and (5, 3)",
                 id="umeyama-shapes"),
    pytest.param(lambda: parse_pfm(b"Pf\n1 1\nabc\n" + bytes(4)),
                 "bad PFM scale b'abc'", id="pfm-scale"),
    pytest.param(lambda: write_table("", "%r", [[1.0], [2.0]]),
                 "write_table row '%r' needs one % field per column, got 1 for 2 columns",
                 id="write-table-row-fields"),
    pytest.param(lambda: gen_recall_task(2, DIMS16, "spiral"),
                 "key_mode must be 'orthonormal', 'random_unit' or 'correlated', got 'spiral'",
                 id="recall-key-mode"),
    pytest.param(lambda: gen_recall_task(2, DIMS8, rho=None),
                 "rho must lie in [0, 1), got None", id="recall-rho-none"),
    pytest.param(lambda: gen_recall_task(2, StateDims(1, 1, 1, 1), "correlated"),
                 "correlated mode needs key width >= 2", id="correlated-width-1"),
    pytest.param(lambda: gen_adversarial_task(StateDims(4, 64, 64, 64), true_count=0),
                 "true_count must be >= 1, got 0", id="adversarial-count-0"),
    pytest.param(lambda: run_stream(gen_recall_task(2, StateDims(4, 8, 8, 16)),
                                    StreamConfig("delta", DIMS16)),
                 "task key width 8 != c_k 16", id="stream-key-width"),
    pytest.param(lambda: run_stream(gen_recall_task(2, StateDims(4, 16, 16, 8)),
                                    StreamConfig("delta", DIMS16)),
                 "task value width 8 != c_v 16", id="stream-value-width"),
    pytest.param(lambda: StreamConfig(5, DIMS8), "rule spec must be a str, got 5",
                 id="stream-rule-int"),
    pytest.param(lambda: StreamConfig("vanilla", DIMS8, softmax_scale=True),
                 "scale must be positive and finite, got True", id="stream-scale-bool"),
    pytest.param(lambda: StreamConfig("vanilla", DIMS8, softmax_scale="2"),
                 "scale must be positive and finite, got '2'", id="stream-scale-str"),
    pytest.param(lambda: StreamConfig("vanilla", DIMS8, softmax_scale=[2]),
                 "scale must be positive and finite, got [2]", id="stream-scale-list"),
    pytest.param(lambda: StreamConfig("vanilla", DIMS8, softmax_scale=10**400),
                 f"scale must be positive and finite, got {10**400}",
                 id="stream-scale-huge-int"),
    pytest.param(lambda: StreamConfig("delta", DIMS8, seed=None),
                 "seed must be an integer, got None", id="stream-seed-none"),
    pytest.param(lambda: StreamConfig("delta", StateDims(4, 8.5, 8, 8)),
                 "state_dims.c must be an integer, got 8.5", id="stream-dims-float"),
    pytest.param(lambda: StreamConfig("delta", (4, 8, 8, 8)),
                 "state_dims must be a StateDims, got (4, 8, 8, 8)", id="stream-dims-tuple"),
    pytest.param(lambda: gen_recall_task(2.5, DIMS8),
                 "count must be an integer, got 2.5", id="recall-count-float"),
    pytest.param(lambda: gen_recall_task(True, DIMS8),
                 "count must be an integer, got True", id="recall-count-bool"),
    pytest.param(lambda: gen_recall_task(2, DIMS8, seed=None),
                 "seed must be an integer, got None", id="recall-seed-none"),
    pytest.param(lambda: gen_adversarial_task(DIMS8, true_count=2, distractor_count=4,
                                              frame_size=2.0),
                 "frame_size must be an integer, got 2.0", id="adversarial-frame-size-float"),
    pytest.param(lambda: gen_adversarial_task(DIMS8, seed=1.5, true_count=2,
                                              distractor_count=4, frame_size=2),
                 "seed must be an integer, got 1.5", id="adversarial-seed-float"),
    pytest.param(lambda: RuleRun("x", np.zeros(2), np.full(6, 0.5), [0, 2.7, 6]),
                 "gate_offsets must be integers that rise from 0 to the number of betas, "
                 "by at least one per frame", id="run-gate-offsets-float"),
    pytest.param(lambda: derive_seed(0, ""), "label must be non-empty", id="seed-label-empty"),
    pytest.param(lambda: confidence_gate(np.ones((1, 0)), np.ones((1, 0))),
                 "q_s must be non-empty, got shape (1, 0)", id="gate-width-0"),
    pytest.param(lambda: ProjectionSet.identity(0), "c must be >= 1, got 0",
                 id="projection-set-width-0"),
    pytest.param(lambda: lookup_gate([1]), _UNKNOWN_GATE.format([1]), id="gate-list"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), [1]),
                 _UNKNOWN_GATE.format([1]), id="ttt3r-gate-list"),
    # float(True) is 1.0, but a bool is no rate.
    pytest.param(lambda: lookup_gate(True), _UNKNOWN_GATE.format(True), id="gate-bool"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), True),
                 _UNKNOWN_GATE.format(True), id="ttt3r-gate-bool"),
    pytest.param(lambda: lookup_gate(10**400), _UNKNOWN_GATE.format(10**400),
                 id="gate-huge-int"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), "per_token"),
                 "the per_token gate needs a finite gate_map of length 4",
                 id="ttt3r-per-token-gate-map-none"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), "input", gate_map=None),
                 "the input gate needs a finite gate_map of length 4",
                 id="ttt3r-input-gate-map-none"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), "input",
                                      gate_map=np.zeros(3)),
                 "the input gate needs a finite gate_map of length 4",
                 id="ttt3r-input-gate-map-length"),
    pytest.param(lambda: read_token_state([[_HUGE, 0.0]], np.ones((1, 2))),
                 "state contains non-finite entries", id="read-token-state-huge-int"),
    pytest.param(lambda: confidence_gate([[_HUGE, 0.0]], np.ones((1, 2))),
                 "q_s contains non-finite entries", id="confidence-gate-huge-int"),
    pytest.param(lambda: hebbian_update(np.zeros((2, 2)), [_HUGE, 0], [1.0, 0.0]),
                 "keys contains non-finite entries", id="hebbian-huge-int"),
    pytest.param(lambda: read_fast_weight(np.eye(2), [_HUGE, 0]),
                 _PAST_RANGE.format("query"), id="read-fast-weight-huge-int"),
    pytest.param(lambda: recon_loss(np.zeros((2, 2)), np.eye(2), [[_HUGE, 0], [0, 0]]),
                 "values contains non-finite entries", id="recon-loss-huge-int"),
    pytest.param(lambda: update_full_attention(np.empty((0, 2)), [[_HUGE, 0]]),
                 _PAST_RANGE.format("tokens"), id="full-attention-huge-int"),
    pytest.param(lambda: delta_rule_update(np.zeros((2, 2)), np.eye(2), np.ones((2, 2)), _HUGE),
                 _PAST_RANGE.format("beta"), id="delta-beta-huge-int"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), "input",
                                      gate_map=[_HUGE, 0, 0, 0]),
                 _PAST_RANGE.format("gate_map"), id="ttt3r-gate-map-huge-int"),
    pytest.param(lambda: RecallTask([[1.0, 0.0]], [[_HUGE]]),
                 _PAST_RANGE.format("values"), id="task-huge-int"),
    pytest.param(lambda: RuleRun("x", [_HUGE]), _PAST_RANGE.format("sq_errors"),
                 id="run-huge-int"),
    pytest.param(lambda: depth_metrics([[_HUGE]], np.ones((1, 1))),
                 _PAST_RANGE.format("depth map"), id="depth-huge-int"),
    pytest.param(lambda: sequence_depth_scale([[[_HUGE]]], [np.ones((1, 1))]),
                 _PAST_RANGE.format("depth map"), id="depth-scale-huge-int-map"),
    pytest.param(lambda: write_pfm([[_HUGE]]), _PAST_RANGE.format("depth map"),
                 id="write-pfm-huge-int"),
    pytest.param(lambda: write_metrics_csv([("ate", _HUGE)]), _PAST_RANGE.format("metric values"),
                 id="metrics-csv-huge-int"),
    pytest.param(lambda: umeyama_sim3([[_HUGE, 0, 0], [0, 1, 0], [0, 0, 1]], np.eye(3)),
                 "src contains non-finite entries", id="umeyama-huge-int"),
    # numpy's SVD raised LinAlgError("SVD did not converge") on a NaN.
    pytest.param(lambda: umeyama_sim3(np.eye(3), np.full((3, 3), np.nan)),
                 "dst contains non-finite entries", id="umeyama-nan"),
    pytest.param(lambda: Sim3Transform(1.0, np.eye(3), np.zeros(3)).apply([[_HUGE, 0, 0]]),
                 _PAST_RANGE.format("points"), id="sim3-apply-huge-int"),
    pytest.param(lambda: ProjectionSet.identity(2.5), "c must be an integer, got 2.5",
                 id="projection-set-width-float"),
    pytest.param(lambda: ProjectionSet.identity(True), "c must be an integer, got True",
                 id="projection-set-width-bool"),
    # int() would truncate 1.5 to 1, so two float seeds would share a child seed.
    pytest.param(lambda: derive_seed(1.5, "x"), "master must be an integer, got 1.5",
                 id="seed-master-float"),
    pytest.param(lambda: derive_seed(True, "x"), "master must be an integer, got True",
                 id="seed-master-bool"),
])
def test_a_bad_input_is_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_unit_row_check_holds_one_float_per_row():
    rows = np.random.default_rng(0).standard_normal((50_000, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _args.unit_norms(rows, "row")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The norms, then |norm - 1| as a new array, held 3.0 float64s per row;
    # in place they are one array of N floats and its N-byte mask.
    assert peak - before < 1.5 * 8 * len(rows)
