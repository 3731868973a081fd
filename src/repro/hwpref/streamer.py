"""Streamer prefetcher and composite machine prefetchers.

:class:`StreamerPrefetcher` models the Intel Sandy Bridge L2 "streamer":
it tracks access streams within 4 kB pages, detects a direction from the
first few line accesses, and then runs ahead of the stream with a degree
that grows with confidence.  Combined with the adjacent-line prefetcher
(:mod:`repro.hwpref.nextline`) this reproduces the aggressive behaviour
the paper measures on the i7-2600K: excellent single-thread speedups on
regular codes, but large speculative overshoot — every detected stream is
extended past its true end, and scattered misses drag in buddy lines.

:func:`amd_hw_prefetcher` / :func:`intel_hw_prefetcher` build the per-
machine composites used throughout the evaluation.
"""

from __future__ import annotations

from typing import Callable

from repro.hwpref.base import HardwarePrefetcher, PrefetchRequest
from repro.hwpref.nextline import AdjacentLinePrefetcher
from repro.hwpref.stride_pref import PCStridePrefetcher

__all__ = [
    "StreamerPrefetcher",
    "CompositePrefetcher",
    "amd_hw_prefetcher",
    "intel_hw_prefetcher",
]


class _Stream:
    __slots__ = ("last_line", "direction", "confidence")

    def __init__(self, line: int) -> None:
        self.last_line = line
        self.direction = 0
        self.confidence = 0


class StreamerPrefetcher(HardwarePrefetcher):
    """Page-local stream detector with confidence-scaled degree.

    Parameters
    ----------
    line_bytes:
        Cache line size in bytes.
    page_bytes:
        Tracking granularity (streams do not cross pages).
    max_degree:
        Lines fetched ahead at full confidence.
    max_streams:
        Concurrently tracked pages (FIFO replacement).
    cross_page:
        If True, a confident stream continues prefetching into the next
        page — the over-aggressive behaviour that inflates traffic.
    """

    name = "hw-streamer"

    def __init__(
        self,
        line_bytes: int = 64,
        page_bytes: int = 4096,
        max_degree: int = 4,
        max_streams: int = 32,
        cross_page: bool = True,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if max_degree <= 0:
            raise ValueError("max_degree must be positive")
        self.line_bytes = line_bytes
        self.lines_per_page = max(1, page_bytes // line_bytes)
        self.max_degree = max_degree
        self.max_streams = max_streams
        self.cross_page = cross_page
        self._streams: dict[int, _Stream] = {}

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        page = line // self.lines_per_page
        stream = self._streams.get(page)
        if stream is None:
            if len(self._streams) >= self.max_streams:
                self._streams.pop(next(iter(self._streams)))
            self._streams[page] = _Stream(line)
            return []

        delta = line - stream.last_line
        stream.last_line = line
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if direction == stream.direction:
            stream.confidence = min(stream.confidence + 1, 8)
        else:
            stream.direction = direction
            stream.confidence = 1
            return []

        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        # The run-ahead window widens with confidence: a proven stream is
        # kept `max_degree` lines ahead of demand.  Resident lines are
        # filtered by the hierarchy, so in steady state only the window's
        # leading edge causes fills.
        window = max(1, round(stream.confidence * self.max_degree / 4 * factor))
        requests: list[PrefetchRequest] = []
        for k in range(1, window + 1):
            target = line + direction * k
            if target < 0:
                break
            if not self.cross_page and target // self.lines_per_page != page:
                break
            requests.append(self._request(target))
        return requests

    def reset(self) -> None:
        self._streams.clear()


class CompositePrefetcher(HardwarePrefetcher):
    """Union of several prefetcher components (deduplicated per access)."""

    def __init__(self, components: list[HardwarePrefetcher], name: str = "hw-composite") -> None:
        super().__init__(None)
        if not components:
            raise ValueError("CompositePrefetcher needs at least one component")
        self.components = components
        self.name = name

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        seen: set[int] = set()
        out: list[PrefetchRequest] = []
        for comp in self.components:
            for req in comp.observe(pc, addr, line, l1_hit):
                if req.line not in seen:
                    seen.add(req.line)
                    out.append(req)
        return out

    def apply_tuning(self, tuning) -> None:
        super().apply_tuning(tuning)
        for comp in self.components:
            comp.apply_tuning(tuning)

    def reset(self) -> None:
        for comp in self.components:
            comp.reset()


def amd_hw_prefetcher(
    line_bytes: int = 64,
    utilisation: Callable[[], float] | None = None,
) -> HardwarePrefetcher:
    """AMD Phenom II model: per-PC stride prefetcher only.

    No adjacent-line component — which is why cigar gains nothing and
    loses cache space under AMD hardware prefetching (paper §VII-A).
    The low training threshold makes it eager: any repeated stride fires,
    so loosely-regular access (gathers, bursts) triggers speculative
    fetches that inflate traffic.
    """
    return PCStridePrefetcher(
        line_bytes=line_bytes,
        degree=2,
        distance_lines=2,
        train_threshold=1,
        max_ramp=3,
        utilisation=utilisation,
    )


def intel_hw_prefetcher(
    line_bytes: int = 64,
    utilisation: Callable[[], float] | None = None,
) -> HardwarePrefetcher:
    """Intel Sandy Bridge model: streamer + adjacent-line prefetchers."""
    return CompositePrefetcher(
        [
            StreamerPrefetcher(
                line_bytes=line_bytes,
                max_degree=8,
                cross_page=False,
                utilisation=utilisation,
            ),
            AdjacentLinePrefetcher(utilisation=utilisation),
        ],
        name="hw-intel",
    )
