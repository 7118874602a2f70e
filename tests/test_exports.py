"""The package's export list: a stale name in ``__all__`` breaks only
``from cybermdp import *``, so nothing else would catch it."""

from __future__ import annotations

import cybermdp


def test_star_import_resolves_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from cybermdp import *", namespace)  # raises on a name that is gone
    assert len(cybermdp.__all__) == len(set(cybermdp.__all__))
    missing = [name for name in cybermdp.__all__ if name not in namespace]
    assert missing == []
