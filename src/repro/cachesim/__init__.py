"""Cache simulation substrate: LRU caches, hierarchies, bandwidth model."""

from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.functional import FunctionalCacheSim, simulate_miss_ratios
from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.lru import (
    FLAG_DIRTY,
    FLAG_HW_PREFETCH,
    FLAG_NTA,
    FLAG_REFERENCED,
    FLAG_SW_PREFETCH,
    LRUCache,
)
from repro.cachesim.stats import LevelStats, PCStats, RunStats

__all__ = [
    "BandwidthModel",
    "CacheHierarchy",
    "FunctionalCacheSim",
    "simulate_miss_ratios",
    "LRUCache",
    "LevelStats",
    "PCStats",
    "RunStats",
    "FLAG_DIRTY",
    "FLAG_HW_PREFETCH",
    "FLAG_NTA",
    "FLAG_REFERENCED",
    "FLAG_SW_PREFETCH",
]

