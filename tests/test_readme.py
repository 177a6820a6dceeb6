"""The README's demo model, its shown CLI output and its library snippet."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from support import run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
# Fenced blocks as (language tag, body).
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
DEMO_MODEL = next(body for tag, body in BLOCKS
                  if not tag and body.startswith('system "'))
SESSION = next(body for tag, body in BLOCKS
               if not tag and body.startswith("$ nfr4 "))
SNIPPET = next(body for tag, body in BLOCKS if tag == "python")


def shown_runs():
    """(argv, stdout) for each `$ nfr4 ...` command in the session block.

    A blank line separates one command's output from the next command.
    """
    parts = re.split(r"^\$ nfr4 (.*)\n", SESSION + "\n", flags=re.M)[1:]
    return [(command.split(), output[:-1])
            for command, output in zip(parts[::2], parts[1::2])]


@pytest.fixture
def demo_dir(tmp_path, monkeypatch):
    (tmp_path / "demo.nfr4").write_text(DEMO_MODEL, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_shows_metrics_matrix_and_critical():
    assert [argv[0] for argv, _ in shown_runs()] \
        == ["metrics", "matrix", "critical"]


@pytest.mark.parametrize("argv, shown", shown_runs(),
                         ids=[argv[0] for argv, _ in shown_runs()])
def test_readme_cli_output_is_exact(demo_dir, argv, shown):
    assert run_cli(argv) == (0, shown, "")


def test_readme_library_snippet_runs(demo_dir):
    printed = io.StringIO()
    with redirect_stdout(printed):
        exec(compile(SNIPPET, "README.md", "exec"), {})
    assert printed.getvalue() == run_cli(["report", "demo.nfr4"])[1]
