"""One campaign child: the process whose launch-to-JSON time is measured.

Run as ``python3 perfbench/child.py MODE OUT_DIR LAUNCHED JOB_JSON`` with
``PYTHONPATH`` pointing at the program's ``src``.  *LAUNCHED* is the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide), *JOB_JSON* the list of campaign steps from
``workloads.WORKLOADS``.  Each step runs one serial campaign through
``run_campaign_spec`` and exports it with ``write_campaign_json`` into
``OUT_DIR/step<i>.json``, as ``repro campaign --json`` does.

MODE is ``plain`` (end-to-end timing only), ``trace`` (spans around the
layers' entry points, see ``layers.py``) or ``profile`` (cProfile over
the campaign phase).  The last stdout line is a JSON report of
timestamps, peak RSS and, in the instrumented modes, per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


class _FirstRunClock:
    """Executor wrapper noting when the engine hands it the first run.

    Everything before that moment (imports, spec planning, store open
    and lookups) is set-up; the engine calls ``map`` once per campaign.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.started = None

    def __getattr__(self, name):
        # attach_progress / attach_metrics / workers reach the inner
        # executor, so the engine's hasattr seams behave as unwrapped.
        return getattr(self._inner, name)

    def map(self, shards):
        self.started = time.monotonic()
        yield from self._inner.map(shards)


def main(mode: str, out_dir: str, launched: float, job: list) -> dict:
    tracer = registry = profiler = None
    report: dict = {"launched": launched, "steps": []}
    if mode == "trace":
        started = time.perf_counter()
        import numpy  # noqa: F401  - timed alone, before the program pulls it in

        report["import_numpy_s"] = time.perf_counter() - started
    started = time.perf_counter()
    import repro.cli  # noqa: F401  - what every `repro` invocation pays

    report["import_s"] = time.perf_counter() - started

    from repro.analysis.export import write_campaign_json
    from repro.orchestrate import (
        BatchExecutor,
        ResultStore,
        SerialExecutor,
        run_campaign_spec,
    )

    from workloads import build_spec

    run_campaign = run_campaign_spec
    export = write_campaign_json
    if mode == "trace":
        from repro.telemetry import MetricsRegistry

        from layers import ENGINE, EXPORT, Tracer

        tracer = Tracer()
        tracer.install()
        registry = MetricsRegistry()
        run_campaign = tracer.wrap(ENGINE, run_campaign_spec)
        export = tracer.wrap(EXPORT, write_campaign_json)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    out = Path(out_dir)
    stores = []
    for index, step in enumerate(job):
        spec = build_spec(step)
        lanes = step.get("batch_lanes")
        executor = _FirstRunClock(
            BatchExecutor(lanes) if lanes is not None else SerialExecutor()
        )
        if profiler is not None:
            profiler.enable()
        store = None
        if step.get("store"):
            # One store per step, as each `repro campaign --store` opens
            # its own.  They close after the last export: closing
            # checkpoints the WAL with an fsync whose time is the disk's,
            # and the CLI pays it at exit, after its JSON is written.
            store = ResultStore.open(out / "store")
            stores.append(store)
        results = run_campaign(spec, executor=executor, store=store, metrics=registry)
        returned = time.monotonic()
        with open(out / f"step{index}.json", "w") as stream:
            export(results, stream, spec=spec)
        written = time.monotonic()
        if profiler is not None:
            profiler.disable()
        report["steps"].append(
            {
                "first_run": executor.started,
                "returned": returned,
                "written": written,
            }
        )
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for store in stores:
        store.close()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.jsonl")
        report["layers"] = tracer.metrics(registry)
    if profiler is not None:
        import pstats

        from layers import profile_shares

        report["layers"] = profile_shares(pstats.Stats(profiler).stats)
    return report


if __name__ == "__main__":
    mode, out_dir, launched, job = sys.argv[1:5]
    if mode not in ("plain", "trace", "profile"):
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(main(mode, out_dir, float(launched), json.loads(job))))
