"""Shared CLI flag definitions for the engine/cache/obs option family.

Every ``repro`` subcommand that touches the experiment engine used to
re-declare the same flags (``--jobs``, ``--cache-dir``, ``--retries``,
``--trace-out`` …) through per-subcommand closures, and the flag set had
already drifted once.  This module makes :class:`EngineCLIOptions` the
single source of truth: each dataclass field carries its argparse
declaration in ``field(metadata=...)``, :func:`cli_parent` materialises
any subset of the flag groups as an argparse *parent* parser, and
:meth:`EngineCLIOptions.from_args` reads the parsed namespace back into
a typed object.  ``repro serve`` and every one-shot subcommand therefore
get identical flag names, types, defaults and help text from one
definition.

Flag groups (the ``group`` metadata key):

* ``engine`` — worker/caching/retry/strictness flags consumed by
  :meth:`EngineCLIOptions.install` (which wires them into
  :func:`repro.api.configure`);
* ``obs`` — tracing/metrics export flags consumed by ``repro.cli.main``.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field

__all__ = [
    "EngineCLIOptions",
    "cli_parent",
    "parse_size",
]


def parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix (``512M``, ``2G``)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    cleaned = text.strip().lower().removesuffix("b")
    multiplier = 1
    if cleaned and cleaned[-1] in units:
        multiplier = units[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(float(cleaned) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unreadable size {text!r} (expected e.g. 65536, 512M, 2G)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {text!r}")
    return value


def _flag(group: str, **argparse_kwargs) -> dict:
    """Field metadata carrying one flag's argparse declaration."""
    return {"group": group, "argparse": argparse_kwargs}


@dataclass(frozen=True)
class EngineCLIOptions:
    """Typed view of the shared engine/cache/obs flag family.

    Field order is flag order in ``--help``.  Fields without metadata
    would be skipped by :func:`cli_parent`; currently every field maps
    to exactly one flag except ``strict``, which materialises as the
    ``--strict``/``--best-effort`` pair.
    """

    # -- engine / cache -------------------------------------------------
    jobs: int | None = field(
        default=None,
        metadata=_flag(
            "engine",
            type=int,
            help="worker processes for grid cells (default $REPRO_JOBS or 1)",
        ),
    )
    cache_dir: str | None = field(
        default=None,
        metadata=_flag(
            "engine",
            help="persistent result cache directory "
            "(default $REPRO_CACHE_DIR or ./.repro-cache)",
        ),
    )
    no_cache: bool = field(
        default=False,
        metadata=_flag(
            "engine",
            action="store_true",
            help="disable the persistent result cache",
        ),
    )
    cache_quota: int | None = field(
        default=None,
        metadata=_flag(
            "engine",
            type=parse_size,
            metavar="SIZE",
            help="size budget for the result cache (e.g. 512M, 2G); "
            "least-recently-used entries past it are evicted",
        ),
    )
    retries: int = field(
        default=2,
        metadata=_flag(
            "engine",
            type=int,
            metavar="N",
            help="extra attempts for a failed grid cell (default 2)",
        ),
    )
    cell_timeout: float | None = field(
        default=None,
        metadata=_flag(
            "engine",
            type=float,
            metavar="SECONDS",
            help="deadline per dispatched cell group (parallel runs only; "
            "default unbounded)",
        ),
    )
    strict: bool = True  # --strict / --best-effort; declared by hand below

    # -- obs ------------------------------------------------------------
    trace_out: str | None = field(
        default=None,
        metadata=_flag(
            "obs",
            metavar="FILE",
            help="write a Chrome trace_event JSON of the run "
            "(chrome://tracing / ui.perfetto.dev)",
        ),
    )
    metrics_out: str | None = field(
        default=None,
        metadata=_flag(
            "obs",
            metavar="FILE",
            help="write a flat JSON dump of the run's metrics registry",
        ),
    )
    deterministic_trace: bool = field(
        default=False,
        metadata=_flag(
            "obs",
            action="store_true",
            help="use a virtual clock so trace output is byte-stable",
        ),
    )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "EngineCLIOptions":
        """Read the flag family back out of a parsed namespace.

        Tolerant of subcommands that only declared a subset of the
        groups: missing attributes keep their dataclass defaults.
        """
        values = {}
        for f in dataclasses.fields(cls):
            if hasattr(args, f.name):
                values[f.name] = getattr(args, f.name)
        return cls(**values)

    # -- consumption ----------------------------------------------------

    @property
    def use_cache(self) -> bool:
        return not self.no_cache

    def retry_policy(self):
        """The :class:`~repro.retry.RetryPolicy` these flags describe."""
        from repro.retry import RetryPolicy

        return RetryPolicy(
            max_attempts=max(0, self.retries) + 1, timeout=self.cell_timeout
        )

    def install(self, progress: bool = True):
        """Install the process-wide engine defaults; returns the engine.

        The one call every engine-bearing subcommand makes — keeps
        ``repro serve`` and the one-shot commands behaviourally
        identical for the whole flag family.
        """
        from repro.api import configure

        return configure(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            progress=progress,
            retry=self.retry_policy(),
            strict=self.strict,
            cache_quota=self.cache_quota,
        )


def cli_parent(groups: tuple[str, ...] = ("engine", "obs")) -> argparse.ArgumentParser:
    """An argparse *parent* declaring the requested flag groups.

    Built field-by-field from :class:`EngineCLIOptions`, so a flag's
    name, type, default and help exist exactly once in the codebase.
    Pass the result via ``add_parser(..., parents=[...])``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for group in groups:
        if group not in ("engine", "obs"):
            raise ValueError(f"unknown flag group {group!r}")
        section = parent.add_argument_group(f"{group} options")
        for f in dataclasses.fields(EngineCLIOptions):
            meta = f.metadata.get("argparse") if f.metadata else None
            if meta is None or f.metadata.get("group") != group:
                continue
            flag = "--" + f.name.replace("_", "-")
            section.add_argument(flag, default=f.default, **meta)
        if group == "engine":
            mode = section.add_mutually_exclusive_group()
            mode.add_argument(
                "--strict",
                dest="strict",
                action="store_true",
                default=True,
                help="abort on any permanently failed cell (default)",
            )
            mode.add_argument(
                "--best-effort",
                dest="strict",
                action="store_false",
                help="keep going on cell failures; report them and exit non-zero",
            )
    return parent
