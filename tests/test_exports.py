"""The package's public names."""

import bnras


def test_all_names_resolve_once():
    assert len(bnras.__all__) == len(set(bnras.__all__))
    assert [name for name in bnras.__all__ if not hasattr(bnras, name)] == []
    namespace = {}
    exec("from bnras import *", namespace)
    assert set(bnras.__all__) <= set(namespace)
