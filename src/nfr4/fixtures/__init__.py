"""Shipped example models: a library system and an ATM."""

from __future__ import annotations

from pathlib import Path

from ..dsl import parse
from ..model import Model

_HERE = Path(__file__).parent

LIBRARY_PATH = _HERE / "library.nfr4"
ATM_PATH = _HERE / "atm.nfr4"


def _load(path: Path) -> Model:
    result = parse(path.read_bytes())
    if isinstance(result, list):
        raise RuntimeError(f"shipped fixture failed to parse: {path}")
    return result


def load_library() -> Model:
    return _load(LIBRARY_PATH)


def load_atm() -> Model:
    return _load(ATM_PATH)
