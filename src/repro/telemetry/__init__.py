"""Zero-dependency, opt-in instrumentation for the whole stack.

The paper's TMU exists because SoCs are blind to where time goes when a
transaction stalls; this package removes the same blindness about the
reproduction itself.  Two layers, both off by default and both
measurement-only (enabling either never changes a figure):

* **Kernel tracing** (:mod:`.tracer`) — a :class:`Tracer` object
  installed on a :class:`~repro.sim.kernel.Simulator` receives
  step/drive/update/wake/leap hooks.  :class:`KernelTracer` turns them
  into per-component execution counters plus a Chrome trace-event
  (Perfetto-loadable) span timeline of the schedule.
* **Campaign metrics** (:mod:`.metrics`) — a :class:`MetricsRegistry`
  of counters/gauges/histograms threaded through the orchestration
  engine, executors and cache; serialized into a ``telemetry.json``
  artifact next to campaign exports and summarized by
  ``repro report --telemetry``.

:mod:`.logs` rounds the story out with the ``repro --log-level /
--log-json`` root logger setup.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    read_telemetry,
    write_telemetry,
)
from .logs import setup_logging
from .tracer import KernelTracer, Tracer, write_chrome_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KernelTracer",
    "MetricsRegistry",
    "Tracer",
    "read_telemetry",
    "setup_logging",
    "write_chrome_trace",
    "write_telemetry",
]
