"""Description of the cache simulator, for run records.

There is one simulator: the dict-based reference loop over
:class:`~repro.cachesim.lru.LRUCache`.  :func:`get_default_options`
names it so that benchmark records can say which simulator produced
their numbers.  Nothing reads these values to choose a code path.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["get_default_options"]


_Options = NamedTuple("_Options", [("backend", str), ("batch_hierarchy", bool)])
_OPTIONS = _Options("reference", False)


def get_default_options() -> _Options:
    """The simulator every run uses: ``backend="reference"``, no batching."""
    return _OPTIONS
