"""Four-layer NFR analysis: stakeholders, goals, sub-goals and the
non-functional requirements that constrain them.

Parse the line-oriented ``.nfr4`` DSL into a model, lint its structure,
score checklist completeness (MCR), and derive the NFR x goal
traceability matrix with a critical-NFR ranking.
"""

from .analysis import (
    ChecklistScore,
    CompletenessResult,
    CriticalityReport,
    EmptyMatrixError,
    EmptyModelError,
    InvalidModelError,
    NOT_YET_VALIDATED,
    ThresholdMode,
    TraceabilityMatrix,
    VALIDATED_CORRECT,
    build_traceability_matrix,
    compute_mcr,
    derive_status,
    rank_criticality,
    score_checklist,
    score_nfr,
)
from .dsl import ParseError, SerializeError, parse, serialize
from .model import (
    ChecklistRecord,
    Diagnostic,
    Goal,
    Model,
    Nfr,
    Stakeholder,
    SubGoal,
    UnresolvedCheck,
    validate_structure,
)
from .report import (
    ReportBundle,
    build_bundle,
    export_json,
    format_ratio,
    render_matrix_table,
    render_summary,
)

__version__ = "0.1.0"

__all__ = [
    "ChecklistRecord",
    "ChecklistScore",
    "CompletenessResult",
    "CriticalityReport",
    "Diagnostic",
    "EmptyMatrixError",
    "EmptyModelError",
    "Goal",
    "InvalidModelError",
    "Model",
    "Nfr",
    "NOT_YET_VALIDATED",
    "ParseError",
    "ReportBundle",
    "SerializeError",
    "Stakeholder",
    "SubGoal",
    "ThresholdMode",
    "TraceabilityMatrix",
    "UnresolvedCheck",
    "VALIDATED_CORRECT",
    "build_bundle",
    "build_traceability_matrix",
    "compute_mcr",
    "derive_status",
    "export_json",
    "format_ratio",
    "parse",
    "rank_criticality",
    "render_matrix_table",
    "render_summary",
    "score_checklist",
    "score_nfr",
    "serialize",
    "validate_structure",
]
