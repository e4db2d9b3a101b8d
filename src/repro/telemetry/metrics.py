"""Campaign metrics: counters, gauges and histograms with shard merge.

A :class:`MetricsRegistry` is the orchestration layer's tally sheet:
the engine, the executors and the result cache record what they did
(shards executed, cache hits, lanes derived, seconds per shard) into
one registry, which serializes to the ``telemetry.json`` artifact next
to a campaign's JSON export and renders through
``repro report --telemetry``.

Design constraints, in order:

* **Measurement-only.**  Nothing reads a metric to make a decision;
  a campaign run with ``metrics=None`` is byte-identical to one with a
  registry attached (asserted by the integration tests).
* **Mergeable.**  Shards execute in many places — pool worker
  processes, batch packs — so registries must combine:
  counters and histograms add, gauges are last-write-wins.  The
  hypothesis property test holds ``merge`` to "splitting a stream of
  observations across registries and merging equals observing the
  stream in one registry".
* **Thread-tolerant.**  A registry may be shared by campaigns running
  on several threads of one process (the harness slot is per-thread
  for the same reason); one registry-wide lock covers every mutation
  (all of them shard-granular, so contention is irrelevant).
* **Plain JSON.**  ``to_dict``/``from_dict`` round-trip exactly; no
  dependencies beyond the standard library.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: ``telemetry.json`` envelope identity; bump on incompatible layout.
TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1

#: Default histogram bucket upper bounds (seconds): sub-millisecond
#: derived lanes through multi-minute shards.
DEFAULT_SECONDS_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)

#: Fine-grained bucket bounds (seconds) for point lookups — result-store
#: gets sit in the microsecond-to-millisecond range, far below the
#: shard-latency buckets above.
DEFAULT_LOOKUP_BOUNDS: Tuple[float, ...] = (
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 1.0
)


class Counter:
    """Monotonic count of events (hits, retirements, promotions)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock, value: int = 0) -> None:
        self.value = value
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-observed value (elapsed seconds, queue depth)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock, value: float = 0.0) -> None:
        self.value = value
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


class Histogram:
    """Bucketed distribution (shard latency, store lookup time).

    *bounds* are inclusive upper bounds of the finite buckets; one
    overflow bucket catches everything beyond the last bound, so
    ``len(counts) == len(bounds) + 1`` and no observation is ever lost.
    """

    __slots__ = ("bounds", "counts", "total", "count", "_lock")

    def __init__(
        self,
        lock: threading.Lock,
        bounds: Sequence[float] = DEFAULT_SECONDS_BOUNDS,
    ) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def nonzero(self) -> List[Tuple[str, int]]:
        """``(bucket label, count)`` pairs for the populated buckets."""
        labels = ["0"] + [repr(bound) for bound in self.bounds]
        out = []
        for i, count in enumerate(self.counts):
            if not count:
                continue
            upper = repr(self.bounds[i]) if i < len(self.bounds) else "inf"
            out.append((f"{labels[i]}-{upper}", count))
        return out


class MetricsRegistry:
    """Create-on-demand namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(self._lock)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(self._lock)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BOUNDS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    self._lock, bounds
                )
            elif instrument.bounds != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name!r} already exists with bounds "
                    f"{instrument.bounds}, requested {tuple(bounds)}"
                )
        return instrument

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry in place; returns self.

        Counters and histogram buckets add; a gauge takes the other
        registry's value (last writer wins — gauges are snapshots, not
        accumulations).  Histograms merged under one name must share
        bucket bounds.
        """
        with other._lock:
            counters = {k: v.value for k, v in other._counters.items()}
            gauges = {k: v.value for k, v in other._gauges.items()}
            histograms = {
                k: (v.bounds, list(v.counts), v.total, v.count)
                for k, v in other._histograms.items()
            }
        for name, value in counters.items():
            self.counter(name).inc(value)
        for name, value in gauges.items():
            self.gauge(name).set(value)
        for name, (bounds, counts, total, count) in histograms.items():
            histogram = self.histogram(name, bounds)
            with self._lock:
                for i, bucket in enumerate(counts):
                    histogram.counts[i] += bucket
                histogram.total += total
                histogram.count += count
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON snapshot (stable key order for diff-friendliness)."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "bounds": list(histogram.bounds),
                        "counts": list(histogram.counts),
                        "sum": histogram.total,
                        "count": histogram.count,
                    }
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).set(float(value))
        for name, payload in data.get("histograms", {}).items():
            histogram = registry.histogram(name, payload["bounds"])
            counts = [int(count) for count in payload["counts"]]
            if len(counts) != len(histogram.counts):
                raise ValueError(
                    f"histogram {name!r}: {len(counts)} buckets for "
                    f"{len(histogram.counts)} bounds"
                )
            histogram.counts = counts
            histogram.total = float(payload["sum"])
            histogram.count = int(payload["count"])
        return registry


# ----------------------------------------------------------------------
# telemetry.json artifact
# ----------------------------------------------------------------------
def write_telemetry(registry: MetricsRegistry, path: Union[str, "Path"]) -> None:
    """Serialize *registry* as a ``telemetry.json`` artifact.

    The envelope carries format/version markers so a reader (``repro
    report --telemetry``, the CI schema check) can reject foreign or
    future files instead of misrendering them.
    """
    payload = {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "metrics": registry.to_dict(),
    }
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def read_telemetry(path: Union[str, "Path"]) -> Dict[str, Any]:
    """Load a ``telemetry.json`` artifact and return its metrics dict.

    Raises ``ValueError`` on a file that is not a telemetry artifact of
    a version this code understands.
    """
    with open(path) as stream:
        payload = json.load(stream)
    if not isinstance(payload, dict) or payload.get("format") != TELEMETRY_FORMAT:
        raise ValueError(f"{path}: not a {TELEMETRY_FORMAT} file")
    if payload.get("version") != TELEMETRY_VERSION:
        raise ValueError(
            f"{path}: telemetry version {payload.get('version')!r}, "
            f"this reader understands {TELEMETRY_VERSION}"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: telemetry file carries no metrics dict")
    return metrics
