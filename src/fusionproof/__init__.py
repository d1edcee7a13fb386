"""Deterministic serverless-workload simulator with tamper-evident logging.

Subpackages by pipeline stage: handler (identity and routing), workload
(simulation and attacks), proofs (filtering, hashing, Merkle trees, and
the group file), store (evidence backends), verification (proof checking,
sampling, and fusion optimization), cli (scenario runner).
"""

from .errors import FusionProofError
from .handler import (
    FusionSetup,
    RouteKind,
    TraceID,
    generate_trace_id,
    parse_and_validate_trace_id,
    route_call,
)
from .proofs import (
    ThresholdPolicy,
    TreeInfo,
    build_merkle_tree,
    canonical_record_bytes,
    filter_batch,
    load_setups,
    parse_log_lines,
    persist_evidence,
)
from .store import FileStore, MemoryStore
from .verification import (
    AnnotatedMetrics,
    SamplingState,
    VerificationReport,
    annotate_metrics,
    commit,
    csp1_step,
    estimate_cost,
    find_mismatch,
    optimize_step,
    propose_candidates,
    run_optimization,
    verify_integrity,
)
from .workload import (
    AppSpec,
    AttackPlan,
    CostModel,
    InvocationRecord,
    TaskSpec,
    builtin_iot_app,
    builtin_tree_app,
    emit_platform_logs,
    execute_request,
    run_workload,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedMetrics",
    "AppSpec",
    "AttackPlan",
    "CostModel",
    "FileStore",
    "FusionProofError",
    "FusionSetup",
    "InvocationRecord",
    "MemoryStore",
    "RouteKind",
    "SamplingState",
    "TaskSpec",
    "ThresholdPolicy",
    "TraceID",
    "TreeInfo",
    "VerificationReport",
    "annotate_metrics",
    "build_merkle_tree",
    "builtin_iot_app",
    "builtin_tree_app",
    "canonical_record_bytes",
    "commit",
    "csp1_step",
    "emit_platform_logs",
    "estimate_cost",
    "execute_request",
    "filter_batch",
    "find_mismatch",
    "generate_trace_id",
    "load_setups",
    "optimize_step",
    "parse_and_validate_trace_id",
    "parse_log_lines",
    "persist_evidence",
    "propose_candidates",
    "route_call",
    "run_optimization",
    "run_workload",
    "verify_integrity",
]
