"""State-update rules, an associative-recall benchmark, and the
trajectory/depth/point-cloud metrics used to evaluate streaming
reconstruction systems."""

__version__ = "0.1.0"

from .state_rules import (
    ConfidenceGate,
    ConstantScalar,
    DeltaRule,
    FullAttentionAppend,
    InputScalarSigmoid,
    KvCache,
    LinearAttentionHebbian,
    PerTokenInputSigmoid,
    ProjectionSet,
    Ttt3r,
    VanillaSoftmaxRnn,
    confidence_gate,
    default_scale,
    delta_rule_update,
    hebbian_update,
    read_fast_weight,
    read_full_attention,
    read_token_state,
    recon_loss,
    recon_loss_grad,
    softmax_rows,
    ttt3r_update,
    update_full_attention,
    update_vanilla_rnn,
)
from .recall_bench import (
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
    rule_label,
    run_stream,
    summary_to_csv,
)
from .geometry_metrics import (
    ChamferResult,
    DegenerateGeometryError,
    PointCloud,
    Sim3Transform,
    Trajectory,
    associate,
    ate,
    chamfer,
    depth_metrics,
    normal_consistency,
    rpe,
    sequence_depth_scale,
    umeyama_sim3,
)
from .stitcher import Chunk, StitchError, split_trajectory, stitch
from .io_formats import (
    ParseError,
    UnsupportedFormatError,
    parse_pfm,
    parse_ply_ascii,
    parse_tum,
    write_pfm,
    write_ply_ascii,
    write_tum,
)
from .seeding import derive_seed
