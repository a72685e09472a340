"""The package's public names all resolve."""

from __future__ import annotations

import erwlab


def test_every_exported_name_resolves():
    missing = [name for name in erwlab.__all__ if not hasattr(erwlab, name)]
    assert missing == []
    assert len(set(erwlab.__all__)) == len(erwlab.__all__)
