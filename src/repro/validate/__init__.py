"""Model-vs-simulation conformance harness (``repro validate``).

The reproduction rests on a chain of trust: the StatStack model is
validated against exact cache simulation, the cache simulator against
an exact stack-distance oracle, and the rewriter against the interpreter.
This package makes that chain *executable*:

* :mod:`~repro.validate.oracle` — exact LRU stack distances (ground
  truth independent of all simulators);
* :mod:`~repro.validate.corpus` — the seeded trace corpus with
  per-class error bounds;
* :mod:`~repro.validate.differential` — StatStack vs oracle, and the
  fully- and set-associative simulator vs the (per-set) oracle;
* :mod:`~repro.validate.invariants` — metamorphic laws of the pipeline
  (stack inclusion, MRC monotonicity, rewrite semantics, bypass
  consistency, coverage accounting);
* :mod:`~repro.validate.fuzz` — seeded fuzzing of the codecs and the
  rewriter, with shrinking and fixture persistence;
* :mod:`~repro.validate.selftest` — injected corruptions proving each
  engine detects what it claims to;
* :mod:`~repro.validate.report` — the versioned JSON report.

:func:`run_validation` orchestrates all of it; the ``repro validate``
CLI and :mod:`repro.api` are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.validate.corpus import CLASS_BOUNDS, ClassBounds, CorpusTrace, build_corpus
from repro.validate.differential import DiffSettings, TraceDiffResult, run_differential
from repro.validate.fuzz import FuzzResult, persist_fixture, replay_fixture, run_fuzz
from repro.validate.invariants import InvariantResult, InvariantSettings, run_invariants
from repro.validate.oracle import stack_distances
from repro.validate.report import REPORT_FORMAT, ValidationReport
from repro.validate.selftest import SelfTestOutcome, run_selftest

__all__ = [
    "CLASS_BOUNDS",
    "ClassBounds",
    "CorpusTrace",
    "DiffSettings",
    "FuzzResult",
    "InvariantResult",
    "InvariantSettings",
    "REPORT_FORMAT",
    "SelfTestOutcome",
    "TraceDiffResult",
    "ValidationConfig",
    "ValidationReport",
    "build_corpus",
    "persist_fixture",
    "replay_fixture",
    "run_differential",
    "run_fuzz",
    "run_invariants",
    "run_selftest",
    "run_validation",
    "stack_distances",
]


@dataclass(frozen=True)
class ValidationConfig:
    """Configuration of one conformance run."""

    corpus_seed: int = 0
    quick: bool = True
    fuzz_cases: int = 25
    run_self_test: bool = True
    persist_repros: str | Path | None = None


def run_validation(
    config: ValidationConfig | None = None,
    diff_settings: DiffSettings | None = None,
    invariant_settings: InvariantSettings | None = None,
) -> ValidationReport:
    """Run the full conformance harness and return its report."""
    config = config or ValidationConfig()
    report = ValidationReport(corpus_seed=config.corpus_seed, quick=config.quick)
    with obs.span(
        "validate.run", seed=config.corpus_seed, quick=config.quick
    ) as run_span:
        corpus = build_corpus(seed=config.corpus_seed, quick=config.quick)
        report.diff = run_differential(corpus, diff_settings or DiffSettings())
        report.invariants = run_invariants(
            corpus, invariant_settings or InvariantSettings()
        )
        report.fuzz = run_fuzz(
            seed=config.corpus_seed, cases_per_target=config.fuzz_cases
        )
        if config.persist_repros is not None:
            for failure in report.fuzz.failures:
                persist_fixture(failure, config.persist_repros)
        if config.run_self_test:
            report.selftest = run_selftest(seed=config.corpus_seed)
        run_span.set(passed=report.passed)
    return report
