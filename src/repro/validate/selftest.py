"""Mutation self-test: prove each conformance engine has teeth.

A conformance harness that always passes is indistinguishable from one
that checks nothing.  Before trusting a green run, this module injects
one deliberate corruption per engine — in the style of
:mod:`repro.faults` — and asserts the matching engine *fails*:

* ``model-mrc-bump`` → **differential** engine: StatStack's whole-curve
  miss ratio is inflated by a constant; the L∞ check against the exact
  curve must flag every trace class.
* ``eviction-perturbation`` → **invariant** engine: the cache
  simulator's LRU eviction is flipped to evict the *most* recently used
  line.  MRU eviction is still a stack algorithm — pairwise inclusion
  alone would pass! — so this specifically certifies the
  simulator-vs-stack-oracle comparison inside ``lru-stack-inclusion``.
* ``codec-corruption`` → **fuzz** engine: a ``"raise"`` fault armed at
  the real ``serialization.decode`` site must surface as failing
  sampling-codec fuzz cases.
* ``xcore-unresolved`` → **invariant** engine: the cross-core LLC
  prefetcher's index resolution is broken to return the raw index-walk
  lines instead of ``A[B[i+d]]`` — traffic that still *looks* like
  prefetching but fills the wrong region.  The
  ``xcore-llc-fill-attribution`` invariant must flag every graph
  program in the corpus.

The mutations are applied via scoped monkey-patches (restored in
``finally``), so a self-test run leaves the process clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults, obs
from repro.cachesim.lru import LRUCache
from repro.statstack.model import StatStackModel
from repro.validate.corpus import CorpusTrace, build_corpus
from repro.validate.differential import DiffSettings, run_differential
from repro.validate.fuzz import run_fuzz
from repro.validate.invariants import run_invariants

__all__ = ["SelfTestOutcome", "run_selftest"]

#: One representative per class with mid-range reuse.  Pure streams are
#: useless here: every reuse has stack distance 0 and every first touch
#: is cold, so even a perverted eviction policy produces the same miss
#: vector.
_SELFTEST_CLASSES = ("strided", "sweep", "chase", "random")


@dataclass
class SelfTestOutcome:
    """Did one engine flag its injected corruption?"""

    mutation: str
    engine: str
    detected: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "mutation": self.mutation,
            "engine": self.engine,
            "detected": self.detected,
            "detail": self.detail,
        }


def _selftest_corpus(seed: int) -> list[CorpusTrace]:
    corpus = build_corpus(seed=seed, quick=True)
    picked: list[CorpusTrace] = []
    for cls in _SELFTEST_CLASSES:
        picked.append(next(e for e in corpus if e.cls == cls))
    return picked


def _mutate_model(corpus: list[CorpusTrace]) -> SelfTestOutcome:
    original = StatStackModel.miss_ratio

    def bumped(self: StatStackModel, cache_bytes: int) -> float:
        return min(1.0, original(self, cache_bytes) + 0.25)

    StatStackModel.miss_ratio = bumped  # type: ignore[method-assign]
    try:
        results = run_differential(corpus, DiffSettings())
    finally:
        StatStackModel.miss_ratio = original  # type: ignore[method-assign]
    flagged = [r for r in results if not r.passed]
    return SelfTestOutcome(
        mutation="model-mrc-bump",
        engine="differential",
        detected=len(flagged) == len(results),
        detail=f"{len(flagged)}/{len(results)} traces flagged the inflated curve",
    )


def mru_install(self: LRUCache, line: int, flags: int = 0):
    """:meth:`LRUCache.install` with the eviction flipped to MRU."""
    s = self._sets[line & self._set_mask]
    old = s.pop(line, None)
    if old is not None:
        s[line] = old | flags
        return None
    victim = None
    if len(s) >= self.ways:
        victim_line = next(reversed(s))  # evict MRU instead of LRU
        victim = (victim_line, s.pop(victim_line))
    s[line] = flags
    return victim


def _mutate_eviction(corpus: list[CorpusTrace]) -> SelfTestOutcome:
    original = LRUCache.install
    LRUCache.install = mru_install  # type: ignore[method-assign]
    try:
        results = run_invariants(corpus)
    finally:
        LRUCache.install = original  # type: ignore[method-assign]
    flagged = [
        r for r in results if r.invariant == "lru-stack-inclusion" and not r.ok
    ]
    total = sum(1 for r in results if r.invariant == "lru-stack-inclusion")
    return SelfTestOutcome(
        mutation="eviction-perturbation",
        engine="invariants",
        detected=len(flagged) == total,
        detail=f"{len(flagged)}/{total} traces flagged the MRU eviction",
    )


def _mutate_xcore(seed: int) -> SelfTestOutcome:
    from repro.hwpref.xcore import CrossCoreLLCPrefetcher

    corpus = [e for e in build_corpus(seed=seed, quick=True) if e.cls == "graph"]
    original = CrossCoreLLCPrefetcher._resolve

    def unresolved(self, region, positions):
        # Drop the B[i+d] resolution: prefetch the index walk itself
        # instead of the data it points at.
        addrs = region.index_base + (positions % region.n_indices) * region.index_elem_bytes
        return addrs // self.line_bytes

    CrossCoreLLCPrefetcher._resolve = unresolved  # type: ignore[method-assign]
    try:
        results = run_invariants(corpus)
    finally:
        CrossCoreLLCPrefetcher._resolve = original  # type: ignore[method-assign]
    flagged = [
        r
        for r in results
        if r.invariant == "xcore-llc-fill-attribution" and not r.ok
    ]
    # Only entries with resolvable pairs exercise the resolver.
    total = sum(
        1
        for r in results
        if r.invariant == "xcore-llc-fill-attribution"
        and r.detail != "no A[B[i]] pairs"
    )
    return SelfTestOutcome(
        mutation="xcore-unresolved",
        engine="invariants",
        detected=total > 0 and len(flagged) == total,
        detail=f"{len(flagged)}/{total} graph programs flagged the broken resolver",
    )


def _mutate_codec(seed: int) -> SelfTestOutcome:
    faults.arm("serialization.decode", "raise")
    try:
        result = run_fuzz(seed=seed, cases_per_target=3, targets=("sampling-codec",))
    finally:
        faults.disarm("serialization.decode")
    return SelfTestOutcome(
        mutation="codec-corruption",
        engine="fuzz",
        detected=len(result.failures) == result.cases_run and result.cases_run > 0,
        detail=(
            f"{len(result.failures)}/{result.cases_run} cases flagged the "
            "armed decode fault"
        ),
    )


def run_selftest(seed: int = 0) -> list[SelfTestOutcome]:
    """Inject one corruption per engine; all three must be detected."""
    with obs.span("validate.selftest"):
        corpus = _selftest_corpus(seed)
        outcomes = [
            _mutate_model(corpus),
            _mutate_eviction(corpus),
            _mutate_codec(seed),
            _mutate_xcore(seed),
        ]
        if obs.enabled():
            missed = sum(1 for o in outcomes if not o.detected)
            if missed:
                obs.metrics().counter("validate.selftest.missed").inc(missed)
    return outcomes
