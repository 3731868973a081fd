"""Hardware prefetcher interface.

A hardware prefetcher observes the demand-access stream (program counter,
byte address, line number, and whether the access hit in L1) and returns
the cache lines it wants fetched.  The cache hierarchy issues these fills
into the prefetcher's ``fill_level`` and charges their off-chip traffic —
speculative fetches are exactly how the paper's hardware baselines waste
shared resources.

Prefetchers may be *throttled*: when constructed with a ``utilisation``
callback (typically :meth:`repro.cachesim.bandwidth.BandwidthModel.utilisation`),
implementations reduce their aggressiveness as off-chip utilisation
rises, mirroring how commodity parts back off under contention (and, as
the paper observes, still emit significant useless traffic).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PrefetchRequest",
    "PrefetchTuning",
    "DEFAULT_TUNING",
    "HardwarePrefetcher",
    "NullPrefetcher",
    "throttle_factor",
]

def throttle_factor(rho: float) -> float:
    """Aggressiveness kept by a hardware prefetcher at utilisation ``rho``.

    The one canonical back-off curve: full aggressiveness below 70 %
    controller utilisation, linear back-off to a 25 % floor at
    saturation.  Both the per-access prefetcher models (via
    :meth:`HardwarePrefetcher._throttle_factor`) and the analytic
    contention model (:mod:`repro.multicore.contention`) evaluate this
    same function, so the two paths cannot drift.
    """
    if rho <= 0.70:
        return 1.0
    span = (rho - 0.70) / 0.30
    return max(0.25, 1.0 - 0.75 * min(span, 1.0))


class PrefetchRequest:
    """One line the hardware prefetcher wants brought on chip.

    A slotted class, not a frozen dataclass: the models build one per
    line of their window on every observed access, and the dataclass
    construction cost more than twice as much.
    """

    __slots__ = ("line", "fill_l2", "llc_bypass")

    def __init__(self, line: int, fill_l2: bool = True, llc_bypass: bool = False) -> None:
        if line < 0:
            raise ValueError("prefetch line must be non-negative")
        self.line = line
        self.fill_l2 = fill_l2
        #: Skip the LLC on the fill (non-temporal), leaving shared space to
        #: neighbours — set when a coordinator retargets the prefetcher.
        self.llc_bypass = llc_bypass

    def __repr__(self) -> str:
        return (
            f"PrefetchRequest(line={self.line}, fill_l2={self.fill_l2}, "
            f"llc_bypass={self.llc_bypass})"
        )


@dataclass(frozen=True)
class PrefetchTuning:
    """Dynamic reconfiguration knobs a coordinator can set per core.

    ``degree_scale`` multiplies the model's native degree/back-off
    factor, ``distance_scale`` its prefetch distance; ``nta_bypass``
    makes issued fills skip the shared LLC; ``enabled=False`` gates the
    prefetcher off entirely.  The default tuning is a no-op: every model
    behaves bit-identically to an untuned prefetcher.
    """

    degree_scale: float = 1.0
    distance_scale: float = 1.0
    nta_bypass: bool = False
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.degree_scale <= 1.0:
            raise ValueError("degree_scale must be in [0, 1]")
        if not 0.0 < self.distance_scale <= 4.0:
            raise ValueError("distance_scale must be in (0, 4]")


#: The identity tuning (see :class:`PrefetchTuning`).
DEFAULT_TUNING = PrefetchTuning()


class HardwarePrefetcher(ABC):
    """Base class for hardware prefetcher models."""

    #: name used in experiment reports
    name: str = "hw"

    def __init__(self, utilisation: Callable[[], float] | None = None) -> None:
        self._utilisation = utilisation
        self._tuning = DEFAULT_TUNING

    @property
    def tuning(self) -> PrefetchTuning:
        """The currently applied dynamic tuning."""
        return self._tuning

    def apply_tuning(self, tuning: PrefetchTuning) -> None:
        """Reconfigure aggressiveness at a control-epoch boundary.

        Takes effect on the next :meth:`observe` call; composite models
        forward it to every component.
        """
        self._tuning = tuning

    def _request(self, line: int, fill_l2: bool = True) -> PrefetchRequest:
        """Build a request that honours the current tuning's NTA bypass."""
        return PrefetchRequest(line, fill_l2, llc_bypass=self._tuning.nta_bypass)

    @abstractmethod
    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        """React to one demand access; return lines to prefetch."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all training state (between runs)."""

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Observe a run of demand accesses at once.

        Returns ``(ev, lines, fill_l2)``: for each issued request, the
        index of the triggering access within this batch (non-decreasing;
        requests for the same access appear in issue order), the target
        line, and whether it fills L2 — exactly what calling
        :meth:`observe` once per access, in order, issues.  The cache
        hierarchy calls :meth:`observe`; this array form serves callers
        that inspect a prefetcher's requests over a whole trace, such as
        the cross-core fill-attribution invariant of ``repro validate``.
        """
        ev: list[int] = []
        out_lines: list[int] = []
        fill: list[bool] = []
        observe = self.observe
        pcs_l = pcs.tolist()
        addrs_l = addrs.tolist()
        lines_l = lines.tolist()
        hits_l = l1_hits.tolist()
        for i in range(len(lines_l)):
            for req in observe(pcs_l[i], addrs_l[i], lines_l[i], hits_l[i]):
                ev.append(i)
                out_lines.append(req.line)
                fill.append(req.fill_l2)
        return (
            np.asarray(ev, dtype=np.int64),
            np.asarray(out_lines, dtype=np.int64),
            np.asarray(fill, dtype=bool),
        )

    def _throttle_factor(self) -> float:
        """Scale factor in [0, 1] applied to prefetch degree.

        Combines the shared utilisation back-off curve
        (:func:`throttle_factor`) with the coordinator's
        ``degree_scale``; ``enabled=False`` yields 0 (models must then
        issue nothing).  Without a utilisation callback or tuning it is
        always 1.
        """
        tuning = self._tuning
        if not tuning.enabled:
            return 0.0
        if self._utilisation is None:
            return tuning.degree_scale
        return tuning.degree_scale * throttle_factor(self._utilisation())


class NullPrefetcher(HardwarePrefetcher):
    """Hardware prefetching disabled (the paper's baseline)."""

    name = "none"

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[PrefetchRequest]:
        return []

    def reset(self) -> None:
        pass
