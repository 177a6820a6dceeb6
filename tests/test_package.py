"""The package's import graph: ``import nfr4`` binds nothing, each
submodule loads only the modules it needs, and uses every name it
imports, and no module but ``nfr4.fixtures`` imports ``typing`` or
``pathlib``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import nfr4

# The package's own location, so the child imports the code under test.
PACKAGE_ROOT = str(Path(nfr4.__file__).resolve().parent.parent)

STEPS = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "nfr4" or name.startswith("nfr4."))

steps = {}
before = set(sys.modules)
import nfr4
steps["nfr4"] = loaded()
public = sorted(name for name in vars(nfr4) if not name.startswith("_"))
import nfr4.dsl
steps["nfr4.dsl"] = loaded()
import nfr4.cli
steps["nfr4.cli"] = loaded()
foreign = sorted(name for name in set(sys.modules) - before
                 if name.partition(".")[0] != "nfr4"
                 and name.partition(".")[0] not in sys.stdlib_module_names)
print(json.dumps({"steps": steps, "public": public, "foreign": foreign}))
"""


def test_import_graph_loads_only_what_each_step_needs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", STEPS], env=env,
                         capture_output=True, text=True, timeout=30)
    assert (run.returncode, run.stderr) == (0, "")
    found = json.loads(run.stdout)
    steps = found["steps"]
    assert steps["nfr4"] == ["nfr4"]
    assert found["public"] == []
    # Dependency-free: importing the CLI loads only nfr4 and the stdlib.
    assert found["foreign"] == []
    assert steps["nfr4.dsl"] == ["nfr4", "nfr4.dsl", "nfr4.model"]
    # perfbench/tracer.py looks these up in sys.modules after importing
    # the CLI.
    assert {"nfr4.analysis", "nfr4.dsl", "nfr4.model",
            "nfr4.report"} <= set(steps["nfr4.cli"])


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(Path(PACKAGE_ROOT, "nfr4").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ``import a.b`` binds ``a``; ``__future__`` imports bind nothing.
        imported = {alias.asname or alias.name.partition(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_module_but_fixtures_imports_typing_or_pathlib():
    # Neither is needed at start-up; nfr4.fixtures hands out Paths and is
    # not imported by the CLI.
    found = []
    for path in sorted(Path(PACKAGE_ROOT, "nfr4").rglob("*.py")):
        if path.parent.name == "fixtures":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {module}"
                      for module in modules
                      if module.partition(".")[0] in ("typing", "pathlib")]
    assert found == []
