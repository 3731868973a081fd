"""Set-associative LRU cache with per-line metadata flags.

Each set is a plain ``dict`` mapping line number to a flags integer.
CPython dicts preserve insertion order, so least-recently-used is always
the first key: a hit re-inserts the key (``pop`` + assign) and eviction
removes ``next(iter(set))`` — both O(1).  This keeps the simulator's hot
loop free of heap-based LRU bookkeeping.

Line flags record how a line entered the cache and what happened since:

* ``FLAG_SW_PREFETCH`` / ``FLAG_HW_PREFETCH`` — installed by a prefetch.
* ``FLAG_NTA`` — installed by ``PREFETCHNTA`` (L1-only residency).
* ``FLAG_REFERENCED`` — a demand access has touched the line since fill.
* ``FLAG_DIRTY`` — a store wrote the line (eviction causes a writeback).

Prefetch usefulness accounting (paper's accuracy argument) falls out of
these: a prefetched line evicted without ``FLAG_REFERENCED`` was a
useless fetch that cost bandwidth and cache space.
"""

from __future__ import annotations

from typing import Iterator

from repro.config import CacheConfig
from repro.errors import SimulationError

__all__ = [
    "FLAG_NTA",
    "FLAG_SW_PREFETCH",
    "FLAG_HW_PREFETCH",
    "FLAG_REFERENCED",
    "FLAG_DIRTY",
    "LRUCache",
]

FLAG_NTA = 1
FLAG_SW_PREFETCH = 2
FLAG_HW_PREFETCH = 4
FLAG_REFERENCED = 8
FLAG_DIRTY = 16


class LRUCache:
    """One level of set-associative LRU cache operating on line numbers.

    All methods take *line numbers* (byte address divided by line size);
    the hierarchy is responsible for that conversion so a single trace
    conversion is shared by all levels.
    """

    __slots__ = ("config", "ways", "_sets", "_set_mask")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.ways = config.ways
        n_sets = config.num_sets
        self._sets: list[dict[int, int]] = [dict() for _ in range(n_sets)]
        self._set_mask = n_sets - 1

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------

    def lookup(self, line: int, set_flags: int = 0) -> bool:
        """Probe for ``line``; on hit, refresh LRU and OR in ``set_flags``.

        Returns True on hit.  This is the demand-access path.
        """
        s = self._sets[line & self._set_mask]
        flags = s.pop(line, None)
        if flags is None:
            return False
        s[line] = flags | set_flags
        return True

    def access(self, line: int, set_flags: int) -> int | None:
        """Probe for ``line``; on hit, return its prior flags and refresh it.

        A hit ORs ``set_flags`` in and makes the line most-recently-used,
        like :meth:`lookup`, but hands back the flags it had before, so a
        demand access needs one call where it needed :meth:`peek_flags`
        plus :meth:`lookup`.  Returns None on a miss (nothing changes).
        """
        s = self._sets[line & self._set_mask]
        flags = s.pop(line, None)
        if flags is not None:
            s[line] = flags | set_flags
        return flags

    def touch_flags(self, line: int, set_flags: int) -> bool:
        """OR flags into a resident line *without* refreshing LRU order."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s[line] |= set_flags
            return True
        return False

    def install(self, line: int, flags: int = 0) -> tuple[int, int] | None:
        """Insert ``line`` as most-recently-used.

        If the line is already resident its flags are OR-merged and LRU is
        refreshed.  Returns the evicted ``(line, flags)`` pair if the set
        overflowed, else None.
        """
        s = self._sets[line & self._set_mask]
        old = s.pop(line, None)
        if old is not None:
            s[line] = old | flags
            return None
        victim = None
        if len(s) >= self.ways:
            victim_line = next(iter(s))
            victim = (victim_line, s.pop(victim_line))
        s[line] = flags
        return victim

    def contains(self, line: int) -> bool:
        """Non-updating residency probe."""
        return line in self._sets[line & self._set_mask]

    def peek_flags(self, line: int) -> int | None:
        """Flags of a resident line, or None (no LRU update)."""
        return self._sets[line & self._set_mask].get(line)

    def invalidate(self, line: int) -> int | None:
        """Remove ``line``; returns its flags if it was resident."""
        return self._sets[line & self._set_mask].pop(line, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> Iterator[int]:
        """Iterate all resident line numbers (LRU→MRU within each set)."""
        for s in self._sets:
            yield from s

    def occupancy(self) -> float:
        """Fraction of capacity currently filled."""
        return len(self) / self.config.num_lines

    def flush(self) -> int:
        """Empty the cache; returns the number of lines dropped."""
        dropped = len(self)
        for s in self._sets:
            s.clear()
        return dropped

    def check_invariants(self) -> None:
        """Verify structural invariants (test helper).

        Raises :class:`~repro.errors.SimulationError` if any set exceeds
        associativity or holds a line that maps to a different set.
        """
        for idx, s in enumerate(self._sets):
            if len(s) > self.ways:
                raise SimulationError(f"set {idx} exceeds associativity")
            for line in s:
                if (line & self._set_mask) != idx:
                    raise SimulationError(f"line {line} stored in wrong set {idx}")
