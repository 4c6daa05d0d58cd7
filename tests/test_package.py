"""The package's public surface."""

from __future__ import annotations

import wspsolve


def test_all_names_resolve_and_are_sorted():
    assert wspsolve.__all__ == sorted(wspsolve.__all__)
    assert len(set(wspsolve.__all__)) == len(wspsolve.__all__)
    for name in wspsolve.__all__:
        assert hasattr(wspsolve, name), name
