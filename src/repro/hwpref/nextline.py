"""Adjacent-line (buddy) prefetcher.

On every L1 miss it fetches the other half of the aligned 128-byte pair
(line XOR 1).  Intel parts pair this "spatial" prefetcher with the
streamer; it is cheap and helps spatially-local codes, but on scattered
misses half its fetches are pure waste — the paper credits it for cigar's
speedup under Intel hardware prefetching (useful buddies) while it also
contributes to Intel's 628 % cigar traffic blow-up.
"""

from __future__ import annotations

from typing import Callable

from repro.hwpref.base import HardwarePrefetcher, PrefetchRequest

__all__ = ["AdjacentLinePrefetcher"]


class AdjacentLinePrefetcher(HardwarePrefetcher):
    """Fetch the buddy line of every L1 miss."""

    name = "hw-adjacent"

    def __init__(
        self,
        on_miss_only: bool = True,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        self.on_miss_only = on_miss_only
        self._duty = 0.0

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        if self.on_miss_only and l1_hit:
            return []
        # Duty-cycled back-off: issue buddies on a deterministic fraction
        # of eligible accesses equal to the throttle factor, so the
        # documented linear-to-25%-floor curve holds in expectation over
        # any utilisation band (no cliff, no RNG).  At factor 1.0 the
        # accumulator fires on every access.
        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        self._duty += factor
        if self._duty < 1.0 - 1e-9:
            return []
        self._duty -= 1.0
        return [self._request(line ^ 1)]

    def reset(self) -> None:
        self._duty = 0.0
