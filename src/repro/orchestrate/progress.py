"""Campaign progress and ETA reporting.

A :class:`ProgressReporter` receives per-shard completion events from
the engine and renders a single self-overwriting status line::

    campaign: 132/288 runs (45.8%) | 12 cached | elapsed 14.2s | eta 16.9s

ETA extrapolates from *executed* runs only — store hits and runs the
batch executor *derived* without simulating (see
:meth:`ProgressReporter.runs_derived`) are excluded from the rate — so
a warm store or a wide lockstep pack does not skew the estimate for the
remaining work.  Reporting is
measurement-only; the engine works identically with ``reporter=None``.

Executors may contribute a live status segment through
:meth:`ProgressReporter.set_status` — the batch executor uses it to
show its pack accounting::

    campaign: 7/24 runs (29.2%) | elapsed 0.1s | eta 0.2s | batch: 1 pack(s) | 1 leader(s) | 6 derived | 0 retired | 0 promoted

Rendering is guarded by a lock, so a reporter shared between threads
writes whole status lines.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import IO, Optional


class ProgressReporter:
    """Streams campaign progress to a terminal-style text stream."""

    def __init__(
        self,
        total_runs: int,
        stream: Optional[IO[str]] = None,
        clock=time.monotonic,
    ) -> None:
        self.total = total_runs
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self.done = 0
        self.cached = 0
        self.derived = 0
        self.status = ""
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def shard_done(self, runs: int, cached: bool = False) -> None:
        """Record one finished shard of *runs* runs and redraw the line."""
        self.done += runs
        if cached:
            self.cached += runs
        self._render(final=False)

    def runs_derived(self, runs: int) -> None:
        """Record *runs* runs completed without simulating.

        Called by the batch executor for every lane it derives from a
        pack leader.  Derived runs still count towards ``done`` when
        their shard completes; flagging them here keeps them out of the
        runs-per-second estimate, which would otherwise project the
        near-free derivation rate onto the remaining *simulated* work
        and under-report the ETA.
        """
        self.derived += runs

    def set_status(self, status: str) -> None:
        """Set the executor-contributed trailing segment and redraw."""
        self.status = status
        self._render(final=False)

    def finish(self) -> None:
        """Draw the final state and terminate the status line."""
        self.status = ""
        self._render(final=True)
        self.stream.write("\n")
        self.stream.flush()

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to completion, or ``None`` if unknowable.

        Never negative.  ``derived`` lanes are flagged *before* their
        shard reports done, so mid-pack the executed count can dip
        below zero — that window is "no rate information yet"
        (``None``), not a negative rate; and the final projection is
        clamped so a clock hiccup can never surface as ``eta -0.3s``.
        """
        executed = self.done - self.cached - self.derived
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if executed <= 0:
            return None
        return max(0.0, self.elapsed / executed * remaining)

    def _render(self, final: bool) -> None:
        # A zero-run campaign (e.g. an empty stage filter) is vacuously
        # complete: 100%, no division by its empty total.
        percent = 100.0 * self.done / self.total if self.total else 100.0
        parts = [f"campaign: {self.done}/{self.total} runs ({percent:.1f}%)"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        parts.append(f"elapsed {self.elapsed:.1f}s")
        if not final:
            eta = self.eta_seconds()
            parts.append(f"eta {eta:.1f}s" if eta is not None else "eta --")
        if self.status:
            parts.append(self.status)
        with self._lock:
            self.stream.write("\r" + " | ".join(parts))
            self.stream.flush()
