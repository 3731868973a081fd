"""Load generation and latency accounting for the advisor workload.

Two lanes share one generator process, each on its own connection:

* the *warm* lane sends on a fixed schedule (open loop): request ``i``
  is due at ``start + i / rate`` whether or not earlier ones were
  answered, and its latency is timed from when it was **due**, so a
  stall anywhere (daemon or generator) raises the latency of every
  request that should have gone out during it;
* the *cold* lane sends its next request only after the previous one
  was answered (closed loop).

A request that gets no response by its deadline counts as failed; the
lane stops waiting for it instead of stalling.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable

MIN_BEYOND = 10


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q < 1``).

    Raises :class:`ValueError` unless at least ``min_beyond`` samples lie
    above the returned rank, so a reported p90 always rests on at least
    ten slower samples (100 samples or more).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return ordered[rank - 1]


def median(values) -> float:
    """Median without the ten-beyond rule (it is the central estimate)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Outcome:
    """One request's fate, in host seconds on ``time.perf_counter``."""

    request_id: str
    due: float
    sent: float
    done: float | None = None
    line: bytes | None = None

    @property
    def latency(self) -> float:
        """Seconds from due to answered (``inf`` if never answered)."""
        return math.inf if self.done is None else self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


class LineConn:
    """One protocol connection: request lines out, response lines in."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = b""

    @classmethod
    def connect(cls, unix_socket: str, timeout: float = 30.0) -> "LineConn":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(unix_socket)
        conn = cls(sock)
        if not conn.read_lines(timeout):
            sock.close()
            raise ConnectionError("daemon sent no hello line")
        return conn

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def read_lines(self, timeout: float) -> list[bytes]:
        """Complete lines available within ``timeout`` seconds (maybe none)."""
        lines = self._take_lines()
        if lines:
            return lines
        with selectors.DefaultSelector() as sel:
            sel.register(self.sock, selectors.EVENT_READ)
            if not sel.select(max(0.0, timeout)):
                return []
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buffer += chunk
        return self._take_lines()

    def _take_lines(self) -> list[bytes]:
        *lines, self._buffer = self._buffer.split(b"\n")
        return [line + b"\n" for line in lines if line.strip()]

    def close(self) -> None:
        self.sock.close()


def _request_id(line: bytes) -> str:
    return json.loads(line).get("request_id", "")


@dataclass
class OpenLoop:
    """The warm lane: request ``i`` is sent at ``start + i / rate``.

    ``make_line(i)`` returns ``(request_id, encoded request line)``.
    """

    make_line: Callable[[int], tuple[str, bytes]]
    rate: float
    deadline: float
    outcomes: list[Outcome] = field(default_factory=list)

    def run(self, conn, start: float, stop: float) -> list[Outcome]:
        """Send until ``stop``; then wait out the deadlines of stragglers."""
        pending: dict[str, Outcome] = {}
        i = 0
        while True:
            now = time.perf_counter()
            due = start + i / self.rate
            if due < stop and now >= due:
                request_id, line = self.make_line(i)
                outcome = Outcome(request_id, due, time.perf_counter())
                conn.send(line)
                pending[request_id] = outcome
                self.outcomes.append(outcome)
                i += 1
                continue
            if due >= stop:
                if not pending:
                    break
                oldest = min(o.due for o in pending.values())
                wait = oldest + self.deadline - now
                if wait <= 0:
                    break
            else:
                wait = due - now
            for line in conn.read_lines(wait):
                outcome = pending.pop(_request_id(line), None)
                if outcome is not None:
                    outcome.done = time.perf_counter()
                    outcome.line = line
            self._expire(pending, time.perf_counter())
        return self.outcomes

    def _expire(self, pending: dict[str, Outcome], now: float) -> None:
        for request_id in [r for r, o in pending.items() if now - o.due > self.deadline]:
            del pending[request_id]


def closed_loop(conn, lines, stop: float, deadline: float) -> list[Outcome]:
    """The cold lane: send ``lines`` one at a time until ``stop``.

    ``lines`` yields ``(request_id, line)``.  Stops at the first request
    that misses its deadline (its connection is then out of step).
    """
    outcomes = []
    for request_id, line in lines:
        now = time.perf_counter()
        if now >= stop:
            break
        outcome = Outcome(request_id, now, now)
        outcomes.append(outcome)
        conn.send(line)
        while outcome.done is None:
            remaining = outcome.due + deadline - time.perf_counter()
            if remaining <= 0:
                return outcomes
            for got in conn.read_lines(remaining):
                if _request_id(got) == request_id:
                    outcome.done = time.perf_counter()
                    outcome.line = got
    return outcomes
