"""Global History Buffer prefetcher with PC-localised delta correlation.

An extension beyond the paper's two machine models: the GHB/PC-DC
prefetcher of Nesbit & Smith (HPCA'04), the classic answer to access
patterns with *repeating but non-constant* deltas (e.g. the
+8,+8,+48,+8,+8,+48… walk of an array of structs accessed field-wise).
A reference-prediction-table prefetcher sees no single dominant stride
there and stays silent; delta correlation finds the repeating delta
*sequence* and replays it.

Mechanism, per load PC:

1. keep the recent history of addresses (the per-PC slice of the GHB);
2. on each access, compute the latest pair of deltas ``(d₋₂, d₋₁)``;
3. search the history for the previous occurrence of that pair;
4. replay the deltas that followed it, issuing up to ``degree``
   prefetches along the predicted path.

Used by the prefetcher-comparison ablation
(``benchmarks/bench_prefetcher_comparison.py``) and available to any
experiment via ``CacheHierarchy(prefetcher=GHBPrefetcher(...))``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.hwpref.base import HardwarePrefetcher, PrefetchRequest

__all__ = ["GHBPrefetcher"]


class GHBPrefetcher(HardwarePrefetcher):
    """GHB PC/DC (delta-correlation) prefetcher.

    Parameters
    ----------
    line_bytes:
        Cache line size for converting predicted addresses to lines.
    history:
        Addresses of each PC's history window (GHB slice length).
    degree:
        Maximum prefetches replayed per trigger.
    table_size:
        Maximum tracked PCs (FIFO replacement).
    """

    name = "hw-ghb"

    def __init__(
        self,
        line_bytes: int = 64,
        history: int = 16,
        degree: int = 4,
        table_size: int = 256,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if history < 4:
            raise ValueError("history must be at least 4")
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.line_bytes = line_bytes
        self.history = history
        self.degree = degree
        self.table_size = table_size
        self._table: dict[int, deque[int]] = {}

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        hist = self._table.get(pc)
        if hist is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))
            hist = deque(maxlen=self.history)
            self._table[pc] = hist
        hist.append(addr)
        if len(hist) < 4:
            return []

        addrs = list(hist)
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        key = (deltas[-2], deltas[-1])
        # Find the most recent earlier occurrence of the delta pair.  The
        # newest candidate is i = len(deltas) - 2, whose pair overlaps
        # the key by one delta — exactly the match a constant stride
        # produces first, so starting any lower detects streams one
        # observation late.
        match = -1
        for i in range(len(deltas) - 2, 0, -1):
            if (deltas[i - 1], deltas[i]) == key:
                match = i
                break
        if match < 0:
            return []

        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        degree = max(1, round(self.degree * factor))
        # replay the deltas that followed the matched pair
        replay = deltas[match + 1 : match + 1 + degree]
        if not replay:
            return []
        requests: list[PrefetchRequest] = []
        seen = {line}
        predicted = addr
        for delta in replay:
            predicted += delta
            target = predicted // self.line_bytes
            if target >= 0 and target not in seen:
                seen.add(target)
                requests.append(self._request(target))
        return requests

    def reset(self) -> None:
        self._table.clear()
