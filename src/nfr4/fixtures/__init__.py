"""Shipped example models: a library system and an ATM."""

from __future__ import annotations

from pathlib import Path

_HERE = Path(__file__).parent

LIBRARY_PATH = _HERE / "library.nfr4"
ATM_PATH = _HERE / "atm.nfr4"
