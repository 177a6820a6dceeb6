"""The benchmark's tracer reads analysis results through the library API.

``perfbench/tracer.py`` counts matrix cells and marks with
``TraceabilityMatrix.nfr_ids``, ``goal_ids`` and ``row_sum``.  These
tests run its counting code as the file stands, so renaming any of them
fails here rather than in a benchmark run.
"""

import random
import types
from pathlib import Path

from nfr4.analysis import build_traceability_matrix
from nfr4.model import validate_structure

from support import brute_force_marks, random_model

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    """Run perfbench/tracer.py as a fresh module, writing no bytecode."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def traced_counts(tracer_module, model):
    """Validate and build the matrix through the tracer's wrappers, which
    keep both results, and return its counts."""
    tracer = tracer_module.Tracer()
    validate = tracer.wrap("model.validate_structure", validate_structure)
    build = tracer.wrap("analysis.build_traceability_matrix",
                        build_traceability_matrix)
    build(model, diagnostics=validate(model))
    return tracer.counts()


def test_tracer_counts_library(library_model):
    assert traced_counts(load_tracer(), library_model) == {
        "model.diagnostics": 0,
        "analysis.matrix_cells": 6 * 13,
        "analysis.matrix_marks": 7 + 3 + 1 + 2 + 2 + 1,
    }


def test_tracer_counts_agree_with_scan_oracle():
    tracer_module = load_tracer()
    rng = random.Random(4242)
    for _ in range(100):
        model = random_model(rng)
        assert traced_counts(tracer_module, model) == {
            "model.diagnostics": len(validate_structure(model)),
            "analysis.matrix_cells": len(model.nfrs) * len(model.goals),
            "analysis.matrix_marks": sum(map(sum, brute_force_marks(model))),
        }
