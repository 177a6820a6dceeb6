"""Run the nfr4 CLI with spans around its public layer functions.

Usage: python3 tracer.py SPANS_JSON CLI_ARG...  (with nfr4 importable)

Every listed function is replaced by a timing wrapper at every place an
``nfr4`` module binds it, so calls between modules are traced too.
Spans are kept in memory and written to SPANS_JSON when the CLI exits;
the process then exits with the CLI's own code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import nfr4.cli

TRACED = {
    "cli": ("main",),
    "dsl": ("parse",),
    "model": ("validate_structure",),
    "analysis": ("score_checklist", "build_traceability_matrix",
                 "rank_criticality", "compute_mcr"),
    "report": ("build_bundle", "render_matrix_table", "render_summary",
               "export_json"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # name, start, end, parent index
        self.stack: list[int] = []
        self.results: dict[str, list] = {"model.validate_structure": [],
                                         "analysis.build_traceability_matrix": []}

    def wrap(self, name: str, function):
        spans, stack = self.spans, self.stack
        kept = self.results.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        traced.__wrapped__ = function
        return traced

    def counts(self) -> dict[str, int]:
        """Work counts, taken after the run so they cost no traced time."""
        matrices = self.results["analysis.build_traceability_matrix"]
        return {
            "model.diagnostics": sum(map(len, self.results["model.validate_structure"])),
            "analysis.matrix_cells": sum(len(m.nfr_ids) * len(m.goal_ids)
                                         for m in matrices),
            "analysis.matrix_marks": sum(m.row_sum(i) for m in matrices
                                         for i in range(len(m.nfr_ids))),
        }


def _members(value):
    if isinstance(value, dict):
        return value.values()
    if isinstance(value, (list, tuple, set, frozenset)):
        return value
    return ()


def install(tracer: Tracer) -> None:
    """Wrap every binding of every traced function; fail if one is missed."""
    modules = {name: module for name, module in sys.modules.items()
               if name == "nfr4" or name.startswith("nfr4.")}
    wrappers = {}
    for module_name, functions in TRACED.items():
        module = modules[f"nfr4.{module_name}"]
        for function_name in functions:
            original = getattr(module, function_name)
            wrappers[id(original)] = (original, tracer.wrap(
                f"{module_name}.{function_name}", original))
    for module in modules.values():
        for attribute, value in list(vars(module).items()):
            if id(value) in wrappers and value is wrappers[id(value)][0]:
                setattr(module, attribute, wrappers[id(value)][1])
    missed = [f"{name}.{attribute}"
              for name, module in modules.items()
              for attribute, value in vars(module).items()
              for item in (value, *_members(value))
              if id(item) in wrappers and item is wrappers[id(item)][0]]
    if missed:
        raise RuntimeError(f"untraced references to traced functions: {missed}")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        nfr4.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
