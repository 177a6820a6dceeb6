"""The package namespace: ``nfr4.__all__`` names only what exists."""

import nfr4


def test_all_names_resolve_once_and_star_import_runs():
    missing = [name for name in nfr4.__all__ if not hasattr(nfr4, name)]
    assert missing == []
    assert len(nfr4.__all__) == len(set(nfr4.__all__))
    namespace = {}
    exec("from nfr4 import *", namespace)
    assert set(nfr4.__all__) <= namespace.keys()
