"""Compare one CLI invocation's outputs with the workload oracle.

Each check returns a list of failure reasons; an empty list means the
invocation passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import CHECKLIST_SIZE, RULE_ORDER, Expected, ratio4

_DIAGNOSTIC = re.compile(r": (error|warning) ([A-Z0-9]+): ")
JSON_KEYS = ["system", "layers", "diagnostics", "mcr", "checklist", "matrix",
             "criticality"]


def check_stderr(stderr: bytes, expected: Expected) -> list[str]:
    """Diagnostic counts per rule; nothing else may reach stderr."""
    text = stderr.decode("utf-8", errors="replace")
    if "Traceback" in text:
        return ["traceback on stderr: " + text.strip().splitlines()[-1]]
    counts = {rule: 0 for rule in RULE_ORDER}
    for line in text.splitlines():
        match = _DIAGNOSTIC.search(line)
        if match is None or match.group(2) not in counts:
            return [f"unexpected stderr line: {line[:200]!r}"]
        counts[match.group(2)] += 1
    if counts != expected.rule_counts:
        return [f"diagnostics per rule {counts} != {expected.rule_counts}"]
    return []


def check_stdout(command: str, stdout: bytes, expected: Expected) -> list[str]:
    """Everything the oracle knows about the command's standard output."""
    if command == "check" or expected.critical is None:
        return [] if not stdout else [f"{command}: expected empty stdout"]
    if command == "report":
        return _check_text(stdout.decode("utf-8", errors="replace"), expected)
    return _check_json(stdout, expected)


def _critical(expected: Expected) -> list[tuple[int, int]]:
    return [(i, len(expected.marked_goals[i])) for i in expected.critical]


def _mcr(expected: Expected) -> tuple[int, int, str]:
    total = len(expected.layer_ids["nfrs"])
    return expected.n_c, total - expected.n_c, ratio4(Fraction(expected.n_c, total))


def _check_text(text: str, expected: Expected) -> list[str]:
    """Every section of the text report; diagnostics by rule, subject and line.

    The oracle does not know the wording of diagnostic messages, so each
    Diagnostics line is matched on its severity, rule, quoted subject and
    source line only.  All other sections are compared byte for byte.
    """
    head, tail = _text_sections(expected)
    failures = [] if text.startswith(head) else ["report: Model section differs"]
    failures += [f"report: {title} section differs"
                 for title, body in tail if body not in text]
    ending = "".join(body for _, body in tail)
    if failures or not text.endswith(ending):
        return failures or ["report: sections out of order"]

    lines = text[len(head):len(text) - len(ending)].split("\n")
    want = [(f"  {severity} {rule}: ", f"'{subject}'", f" (line {line})")
            for rule, severity, subject, line in expected.diagnostics]
    if lines[-2:] != ["", ""] or len(lines) - 2 != max(len(want), 1):
        return ["report: Diagnostics section has the wrong number of lines"]
    if not want:
        return [] if lines[0] == "  none" else ["report: Diagnostics section differs"]
    for got, (prefix, subject, suffix) in zip(lines, want):
        if not (got.startswith(prefix) and subject in got and got.endswith(suffix)):
            return [f"report: Diagnostics line {got[:200]!r} differs"]
    return []


def _text_sections(expected: Expected) -> tuple[str, list[tuple[str, str]]]:
    """The text report before its diagnostic lines, and each section after."""
    ids = expected.layer_ids
    head = (f"Model\n  system: {expected.system}\n"
            f"  stakeholders: {len(ids['stakeholders'])}\n"
            f"  goals: {len(ids['goals'])}\n  sub-goals: {len(ids['subgoals'])}\n"
            f"  NFRs: {len(ids['nfrs'])}\n\nDiagnostics\n")
    n_c, n_nv, value = _mcr(expected)

    def validation(label: str, yes: int) -> str:
        return f"  {label}: {yes}/{CHECKLIST_SIZE} = {ratio4(Fraction(yes, CHECKLIST_SIZE))}\n"

    per_nfr = "".join(validation(nid, yes)
                      for nid, yes in zip(ids["nfrs"], expected.yes_counts))
    critical = [f"  {expected.nfr_names[i]} ({score})\n"
                for i, score in _critical(expected)] or ["  none\n"]
    return head, [
        ("Completeness", f"Completeness\n  MCR = {n_c} / [{n_c}+{n_nv}] = {value}\n\n"),
        ("Validation", "Validation\n" + validation("validation", expected.whole_yes)
         + per_nfr + "\n"),
        ("Traceability", "Traceability\n" + _table(expected) + "\n\n"),
        ("Critical NFRs", "Critical NFRs\n  threshold (mean):"
         f" {ratio4(expected.threshold)}\n" + "".join(critical)),
    ]


def _table(expected: Expected) -> str:
    """The traceability table and its legend, without a final newline."""
    headers = [f"G{j + 1}" for j in range(len(expected.goal_names))]
    blank = [" " * len(h) for h in headers]
    scores = [len(cells) for cells in expected.marked_goals]
    name_width = max(len("NFR"), *map(len, expected.nfr_names))
    score_width = max(len("score"), *(len(str(s)) for s in scores))
    critical = set(expected.critical)
    rows = ["  ".join(["NFR".ljust(name_width), *headers,
                       "score".ljust(score_width), "critical"])]
    for i, (name, cells) in enumerate(zip(expected.nfr_names, expected.marked_goals)):
        row = blank.copy()
        for j in cells:
            row[j] = "X".ljust(len(headers[j]))
        rows.append("  ".join([name.ljust(name_width), *row,
                               str(scores[i]).ljust(score_width),
                               "*" if i in critical else ""]).rstrip())
    rows.append("")
    rows += [f"{h} = {name}" for h, name in zip(headers, expected.goal_names)]
    return "\n".join(rows)


def _check_json(stdout: bytes, expected: Expected) -> list[str]:
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return [f"report --format json: not JSON ({exc})"]
    if not isinstance(data, dict) or list(data) != JSON_KEYS:
        return ["report --format json: top-level keys differ"]
    ids = expected.layer_ids
    nfr_ids, goal_ids = ids["nfrs"], ids["goals"]
    n_c, n_nv, value = _mcr(expected)

    def score(yes: int, answered: int) -> dict:
        return {"yes": yes, "answered": answered,
                "metric": ratio4(Fraction(yes, CHECKLIST_SIZE))}

    want = {
        "system": expected.system,
        "layers": {label: {"count": len(values), "ids": values}
                   for label, values in ids.items()},
        "diagnostics": expected.diagnostics,
        "mcr": {"n_c": n_c, "n_nv": n_nv, "value": value},
        "checklist": {
            "whole_model": score(expected.whole_yes, expected.whole_answered),
            "per_nfr": {nid: score(y, a) for nid, y, a in zip(
                nfr_ids, expected.yes_counts, expected.answered_counts)},
        },
        "criticality": {
            "scores": {nid: len(cells)
                       for nid, cells in zip(nfr_ids, expected.marked_goals)},
            "threshold_mode": "mean",
            "threshold_value": ratio4(expected.threshold),
            "critical": [nfr_ids[i] for i in expected.critical],
        },
    }
    got = dict(data)
    try:
        got["diagnostics"] = [(d["rule"], d["severity"], d["subject"], d["line"])
                              for d in data["diagnostics"]]
    except (TypeError, KeyError):
        return ["report --format json: malformed diagnostics"]
    failures = [f"report --format json: {key} differs"
                for key, value in want.items() if got[key] != value]

    matrix = data["matrix"]
    if not isinstance(matrix, dict) or list(matrix) != ["nfr_ids", "goal_ids", "marks"]:
        return failures + ["report --format json: matrix keys differ"]
    if matrix["nfr_ids"] != nfr_ids or matrix["goal_ids"] != goal_ids:
        failures.append("report --format json: matrix ids differ")
    marks = matrix["marks"]
    if not isinstance(marks, list) or len(marks) != len(nfr_ids):
        return failures + ["report --format json: matrix row count differs"]
    for nid, row, cells in zip(nfr_ids, marks, expected.marked_goals):
        want_row = [False] * len(goal_ids)
        for j in cells:
            want_row[j] = True
        if row != want_row:
            failures.append(f"report --format json: matrix row {nid} differs")
            break
    return failures
