"""Per-PC stride prefetcher (reference prediction table).

Models the AMD Phenom II family's data prefetcher: a table indexed by the
program counter tracks the last address and last stride of each load.
Two consecutive matching strides train an entry; a trained entry issues
``degree`` prefetches ``distance`` strides ahead of the demand stream.

This design is fast to train and very effective on long regular streams,
but it is exactly the prefetcher that cigar's *short-lived* strided
bursts defeat: the bursts are long enough to train the table, after which
the prefetcher runs ahead of a stream that is about to end, fetching data
the program never touches (paper §VII-A reports an 11 % slowdown).
"""

from __future__ import annotations

from typing import Callable

from repro.hwpref.base import HardwarePrefetcher, PrefetchRequest

__all__ = ["PCStridePrefetcher"]


class _Entry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr: int) -> None:
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0


class PCStridePrefetcher(HardwarePrefetcher):
    """Reference-prediction-table stride prefetcher.

    Lookahead is expressed in *cache lines*: once trained, the prefetcher
    keeps a window of ``degree`` lines starting ``distance_lines`` ahead
    of the demand stream filled, with the effective distance ramping up
    with confidence (real prefetchers start conservatively and run
    further ahead as a stream proves stable).  Because already-resident
    lines are filtered by the hierarchy, the steady-state cost is about
    one new fill per demanded line — plus the overshoot past stream ends
    that makes the scheme wasteful on short streams.

    Parameters
    ----------
    line_bytes:
        Cache line size, for converting predicted addresses to lines.
    degree:
        Width of the prefetch window in lines per trained access.
    distance_lines:
        Base lookahead (in lines) of the window at minimum confidence;
        scales up to 4x with confidence.
    train_threshold:
        Consecutive matching strides required before issuing.
    table_size:
        Maximum tracked PCs (FIFO replacement beyond this).
    """

    name = "hw-stride"

    def __init__(
        self,
        line_bytes: int = 64,
        degree: int = 2,
        distance_lines: int = 3,
        train_threshold: int = 2,
        table_size: int = 256,
        max_ramp: int = 4,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if degree <= 0 or distance_lines <= 0 or train_threshold <= 0:
            raise ValueError("degree, distance_lines and train_threshold must be positive")
        if max_ramp <= 0:
            raise ValueError("max_ramp must be positive")
        self.line_bytes = line_bytes
        self.degree = degree
        self.distance_lines = distance_lines
        self.max_ramp = max_ramp
        self.train_threshold = train_threshold
        self.table_size = table_size
        self._table: dict[int, _Entry] = {}

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                # FIFO replacement: drop the oldest trained PC.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _Entry(addr)
            return []

        stride = addr - entry.last_addr
        entry.last_addr = addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 8)
        else:
            entry.stride = stride
            entry.confidence = 1
            return []

        if entry.confidence < self.train_threshold:
            return []

        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        direction = 1 if stride > 0 else -1
        # Strides below a line advance one line per several accesses;
        # larger strides skip `step` lines per access.
        step = max(1, abs(stride) // self.line_bytes)
        ramp = min(self.max_ramp, entry.confidence - self.train_threshold + 1)
        distance = max(1, round(self.distance_lines * ramp * self._tuning.distance_scale))
        degree = max(1, round(self.degree * factor))
        requests: list[PrefetchRequest] = []
        for k in range(degree):
            target = line + direction * step * (distance + k)
            if target >= 0 and target != line:
                requests.append(self._request(target))
        return requests

    def reset(self) -> None:
        self._table.clear()
