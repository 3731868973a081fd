"""Aggregate conformance report (the ``repro validate`` artefact).

One :class:`ValidationReport` collects the outcome of all engines —
differential, invariants, fuzz, self-test — plus the run configuration,
and serialises to a versioned JSON document (``repro-validate-v1``) for
the CI artifact.  :meth:`ValidationReport.render` produces the
human-readable summary the CLI prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.validate.differential import TraceDiffResult
from repro.validate.fuzz import FuzzResult
from repro.validate.invariants import InvariantResult
from repro.validate.selftest import SelfTestOutcome

__all__ = ["REPORT_FORMAT", "ValidationReport"]

#: v2: each differential row reports ``set_assoc_matches_oracle`` (the
#: per-set stack-oracle check) in place of v1's ``backends_identical``.
REPORT_FORMAT = "repro-validate-v2"


@dataclass
class ValidationReport:
    """Everything one conformance run established."""

    corpus_seed: int
    quick: bool
    diff: list[TraceDiffResult] = field(default_factory=list)
    invariants: list[InvariantResult] = field(default_factory=list)
    fuzz: FuzzResult | None = None
    selftest: list[SelfTestOutcome] = field(default_factory=list)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------

    @property
    def diff_passed(self) -> bool:
        return all(r.passed for r in self.diff)

    @property
    def invariants_passed(self) -> bool:
        return all(r.ok for r in self.invariants)

    @property
    def fuzz_passed(self) -> bool:
        return self.fuzz is None or self.fuzz.passed

    @property
    def selftest_passed(self) -> bool:
        return all(o.detected for o in self.selftest)

    @property
    def passed(self) -> bool:
        return (
            self.diff_passed
            and self.invariants_passed
            and self.fuzz_passed
            and self.selftest_passed
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        worst = max(self.diff, key=lambda r: r.linf, default=None)
        return {
            "format": REPORT_FORMAT,
            "corpus_seed": self.corpus_seed,
            "quick": self.quick,
            "summary": {
                "traces": len(self.diff),
                "diff_failures": sum(len(r.failures) for r in self.diff),
                "invariant_checks": len(self.invariants),
                "invariant_failures": sum(1 for r in self.invariants if not r.ok),
                "fuzz_cases": 0 if self.fuzz is None else self.fuzz.cases_run,
                "fuzz_failures": 0 if self.fuzz is None else len(self.fuzz.failures),
                "selftest_missed": sum(1 for o in self.selftest if not o.detected),
                "worst_linf": None if worst is None else worst.linf,
                "worst_linf_trace": None if worst is None else worst.name,
                "passed": self.passed,
            },
            "differential": [r.as_dict() for r in self.diff],
            "invariants": [r.as_dict() for r in self.invariants],
            "fuzz": None if self.fuzz is None else self.fuzz.as_dict(),
            "selftest": [o.as_dict() for o in self.selftest],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"conformance run  seed={self.corpus_seed}  "
            f"mode={'quick' if self.quick else 'full'}",
            "",
        ]

        ok = "ok " if self.diff_passed else "FAIL"
        lines.append(f"[{ok}] differential   {len(self.diff)} traces")
        by_cls: dict[str, list[TraceDiffResult]] = {}
        for r in self.diff:
            by_cls.setdefault(r.cls, []).append(r)
        for cls, results in sorted(by_cls.items()):
            worst = max(results, key=lambda r: r.linf)
            lines.append(
                f"       {cls:<9} n={len(results)}  worst Linf={worst.linf:.4f} "
                f"L1={worst.l1:.4f} pc={worst.pc_divergence:.4f}  ({worst.name})"
            )
        for r in self.diff:
            for failure in r.failures:
                lines.append(f"       FAIL {r.name}: {failure}")

        ok = "ok " if self.invariants_passed else "FAIL"
        lines.append(
            f"[{ok}] invariants     {len(self.invariants)} checks, "
            f"{sum(1 for r in self.invariants if not r.ok)} failed"
        )
        for r in self.invariants:
            if not r.ok:
                lines.append(f"       FAIL {r.invariant} on {r.trace}: {r.detail}")

        if self.fuzz is not None:
            ok = "ok " if self.fuzz_passed else "FAIL"
            lines.append(
                f"[{ok}] fuzz           {self.fuzz.cases_run} cases, "
                f"{len(self.fuzz.failures)} failing"
            )
            for failure in self.fuzz.failures:
                lines.append(
                    f"       FAIL {failure.target}#{failure.case_index} "
                    f"(shrunk {failure.shrink_steps} steps): {failure.error}"
                )

        if self.selftest:
            ok = "ok " if self.selftest_passed else "FAIL"
            lines.append(f"[{ok}] self-test      {len(self.selftest)} mutations")
            for o in self.selftest:
                mark = "detected" if o.detected else "MISSED"
                lines.append(f"       {o.mutation} -> {o.engine}: {mark} ({o.detail})")

        lines.append("")
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines)
