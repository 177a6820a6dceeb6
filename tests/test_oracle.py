"""The CLI against the benchmark's oracle on small seeded workloads.

``perfbench/workloads.py`` generates the benchmark's models and derives
every expected result from the README's rules without importing nfr4;
``perfbench/checks.py`` compares CLI output with it.  Both run here from
their source as they stand, writing no bytecode, at sizes small enough
for 100 seeds per workload.
"""

import functools
import re
import sys
import types
from pathlib import Path

import pytest

from support import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# `tall` keeps 32 NFRs so that the MCR and the mean threshold, both
# fractions over the NFR count, hit exact halves at the fifth decimal.
SIZES = {
    "wide": {"stakeholders": 6, "goals": 6, "subgoals": 12, "nfrs": 6,
             "yes_rate": 0.95},
    "tall": {"stakeholders": 3, "goals": 3, "subgoals": 6, "nfrs": 32,
             "yes_rate": 0.95},
    "draft": {"stakeholders": 8, "goals": 8, "subgoals": 16, "nfrs": 8,
              "answer_rate": 0.5, "bad_ref_rate": 0.1, "barren_rate": 0.25,
              "orphan_checks": 2},
}
COMMANDS = {"check": ["check"], "report": ["report"],
            "report_json": ["report", "--format", "json"]}
# `<stdin>:<line>: <severity> <rule>: <message>`; the subject is the
# first quoted id of every message.
DIAGNOSTIC = re.compile(r"<stdin>:(\d+): (\w+) (\w+): [^']*'([^']*)'")


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = sys.modules[name] = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


@functools.cache
def oracle():
    """(workloads, checks), each in ``sys.modules`` only while it loads:
    dataclasses look their module up there, and checks.py imports
    workloads by name."""
    saved = {name: sys.modules.get(name) for name in ("workloads", "checks")}
    try:
        return tuple(map(_load, saved))
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def diagnostics_of(stderr):
    found = []
    for line in stderr.splitlines():
        match = DIAGNOSTIC.match(line)
        if match is None:
            return None
        number, severity, rule, subject = match.groups()
        found.append((rule, severity, subject, int(number)))
    return found


@pytest.mark.parametrize("name", SIZES)
def test_cli_agrees_with_the_benchmark_oracle(name):
    workloads, checks = oracle()
    for seed in range(100):
        text, expected = workloads.generate(name, seed, SIZES[name])
        for command, argv in COMMANDS.items():
            code, out, err = run_cli([*argv, "-"], text.encode())
            where = (name, seed, command)
            assert code == expected.exit_codes[command], where
            assert checks.check_stderr(err.encode(), expected) == [], where
            # check_stderr counts lines per rule; the order is the contract.
            assert diagnostics_of(err) == expected.diagnostics, where
            assert checks.check_stdout(command, out.encode(), expected) \
                == [], where
