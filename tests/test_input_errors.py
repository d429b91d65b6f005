"""Input checks of the public API, one bad input per row.

Each row calls one entry point with one malformed argument and expects
one ValueError whose whole message names what is wrong.  The rows are
checks that the per-module tests do not otherwise reach.
"""

import re

import numpy as np
import pytest

from ttt_lab.geometry_metrics import (
    PointCloud,
    Sim3Transform,
    Trajectory,
    associate,
    quat_mul,
    quat_to_rotmat,
    rpe,
    umeyama_sim3,
)
from ttt_lab.io_formats import parse_pfm, write_table
from ttt_lab.recall_bench import (
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
    recon_loss,
    ttt3r_update,
)

DIMS16 = StateDims(4, 16, 16, 16)
DIMS8 = StateDims(4, 8, 8, 8)
_TRAJ = Trajectory(np.arange(3.0), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.zeros((3, 3)))


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
    pytest.param(lambda: PointCloud([[0.0, 0.0, np.nan]]),
                 "points contain non-finite entries", id="cloud-non-finite"),
    pytest.param(lambda: PointCloud(np.zeros((2, 3)), np.ones((1, 3))),
                 "normals shape (1, 3) does not match points shape (2, 3)",
                 id="cloud-normals-shape"),
    pytest.param(lambda: associate(_TRAJ, _TRAJ, max_dt=0.0),
                 "max_dt must be positive, got 0.0", id="associate-max-dt"),
    pytest.param(lambda: associate(_TRAJ, _TRAJ, None),
                 "max_dt must be a real number, got None", id="associate-max-dt-none"),
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
                 "unknown key_mode 'spiral'", id="recall-key-mode"),
    pytest.param(lambda: gen_recall_task(2, StateDims(1, 1, 1, 1), "correlated"),
                 "correlated mode needs key width >= 2", id="correlated-width-1"),
    pytest.param(lambda: gen_adversarial_task(StateDims(4, 64, 64, 64), true_count=0),
                 "true_count and distractor_count must be >= 1", id="adversarial-count-0"),
    pytest.param(lambda: run_stream(gen_recall_task(2, StateDims(4, 8, 8, 16)),
                                    StreamConfig("delta", DIMS16)),
                 "task key width 8 != c_k 16", id="stream-key-width"),
    pytest.param(lambda: run_stream(gen_recall_task(2, StateDims(4, 16, 16, 8)),
                                    StreamConfig("delta", DIMS16)),
                 "task value width 8 != c_v 16", id="stream-value-width"),
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
                 "c must be >= 1", id="gate-width-0"),
    pytest.param(lambda: ProjectionSet.identity(0), "c must be >= 1",
                 id="projection-set-width-0"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), "per_token"),
                 "the per_token gate needs a finite gate_map of length 4",
                 id="ttt3r-per-token-gate-map-none"),
    pytest.param(lambda: ttt3r_update(np.ones((2, 4)), np.ones((3, 4)), "input",
                                      gate_map=np.zeros(3)),
                 "the input gate needs a finite gate_map of length 4",
                 id="ttt3r-input-gate-map-length"),
])
def test_a_bad_input_is_one_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
