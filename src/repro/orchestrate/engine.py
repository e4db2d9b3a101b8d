"""The campaign orchestration engine.

Glues the layers of this package together: expand a
:class:`~repro.orchestrate.spec.CampaignSpec` into its canonical run
list, plan shards, satisfy what it can from the run-granular result
store, fan the *frontier* out through an executor, and re-assemble the
result stream into the exact ordering the serial runners produce.

The engine is deliberately deterministic end to end: run enumeration is
canonical, shard planning is contiguous, and aggregation is by run
index — so ``workers=16`` and ``workers=1`` return *equal* result
lists, and a store hit returns the same objects a fresh simulation
would.  ``strategy="verify"`` campaigns (via ``harness_kwargs``) plus
the determinism tests in ``tests/orchestrate/`` are the correctness
harness for that claim.

The result store (*store*) is the only persistence.  Runs are keyed by
their campaign-independent parameter hash and committed one by one as
results stream in, so a sweep that is a superset of any earlier one
(more seeds, more stages) fetches the intersection and simulates only
the frontier.  Resuming a killed campaign is the same thing: re-run it
against the same store and only the runs it never committed execute; a
complete store executes nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import IO, Any, Dict, List, Optional, Union

from .executor import default_workers, make_executor
from .progress import ProgressReporter
from .spec import CampaignSpec, RunSpec, plan_shards


def run_campaign_spec(
    spec: CampaignSpec,
    workers: Optional[int] = None,
    shard_size: int = 1,
    progress: Optional[Union[bool, IO[str], ProgressReporter]] = None,
    executor=None,
    batch_lanes: Optional[int] = None,
    batch_verify: bool = False,
    metrics=None,
    store=None,
    collect: bool = True,
) -> Optional[List]:
    """Execute *spec* and return results in canonical run order.

    Parameters
    ----------
    workers:
        Process count; ``None`` consults ``REPRO_WORKERS`` (default 1 =
        serial, in-process).  Each worker takes its harnesses from its
        own harness slot, so no simulator state is shared.
    shard_size:
        Runs per unit of work; 1 (the default) gives the best load
        balancing.
    progress:
        ``True`` / a text stream for a live status line with ETA, or a
        pre-built :class:`ProgressReporter`.
    executor:
        A pre-built executor (anything with the ``map(shards)``
        contract, e.g. a :class:`~repro.orchestrate.batch.BatchExecutor`
        or a test double) overriding the *workers*-based choice.
        Planning, store reuse and aggregation are identical whichever
        executor runs the shards.
    batch_lanes:
        When set, runs the pending shards through the lockstep batch
        executor (:class:`~repro.orchestrate.batch.BatchExecutor`) with
        packs of at most that many lanes; *batch_verify* additionally
        replays every derived lane on the scalar verify kernel.  The
        aggregated results are byte-identical to the serial executor's.
    metrics:
        A :class:`~repro.telemetry.MetricsRegistry` collecting campaign
        accounting: run/shard counters, per-tier ``store.*``
        hit/miss/frontier counters, a ``campaign.shard_seconds``
        histogram of engine-observed shard completion spacing, and
        whatever the executor contributes through ``attach_metrics``
        (discovered by ``hasattr``, the same seam as
        ``attach_progress``).  Purely observational — results are
        identical with or without it.
    store:
        A :class:`~repro.orchestrate.store.ResultStore` (or a path to
        open one at) providing run-granular reuse: runs already present
        are fetched instead of simulated, and every executed run is
        committed as it completes, so a killed campaign re-run against
        the same store executes only what it never finished.  A store
        opened here from a path is closed before returning; a store
        object stays open for its owner.
    collect:
        ``False`` skips materializing the result list (the call returns
        ``None``); every result is still reachable through the store's
        streamed, index-ordered query
        (:meth:`~repro.orchestrate.store.ResultStore.iter_results`).
        Requires *store*.
    """
    if not collect and store is None:
        raise ValueError("collect=False requires a result store")
    if workers is None:
        workers = default_workers()
    runs = spec.runs()
    shards = plan_shards(runs, shard_size=shard_size)

    reporter: Optional[ProgressReporter] = None
    if isinstance(progress, ProgressReporter):
        reporter = progress
    elif progress:
        reporter = ProgressReporter(
            len(runs), stream=None if progress is True else progress
        )

    results_by_index: Dict[int, Any] = {}

    def keep(run: RunSpec, result) -> None:
        if collect:
            results_by_index[run.index] = result

    with _store_scope(store, metrics) as store:
        # Runs the store already holds are fetched; what remains is the
        # frontier — the only work any executor will see.
        if store is not None:
            frontier: List[RunSpec] = []
            reused = 0
            for run in runs:
                result = store.get(run)
                if result is None:
                    frontier.append(run)
                else:
                    keep(run, result)
                    reused += 1
            if reporter and reused:
                reporter.shard_done(reused, cached=True)
            if metrics is not None:
                metrics.counter("store.reused_runs").inc(reused)
                metrics.counter("store.frontier_runs").inc(len(frontier))
            exec_shards = plan_shards(frontier, shard_size=shard_size)
        else:
            exec_shards = shards

        if executor is None:
            if batch_lanes is not None:
                executor = make_executor(
                    workers, batch_lanes=batch_lanes, batch_verify=batch_verify
                )
            else:
                executor = make_executor(workers)
        if reporter is not None and hasattr(executor, "attach_progress"):
            executor.attach_progress(reporter)
        if metrics is not None:
            metrics.counter("campaign.runs").inc(len(runs))
            metrics.counter("campaign.shards").inc(len(shards))
            metrics.counter("campaign.shards_executed").inc(len(exec_shards))
            if hasattr(executor, "attach_metrics"):
                executor.attach_metrics(metrics)
        started = perf_counter()
        last = started
        # Executors report completions by the shard's own index, which
        # for frontier-planned shards indexes the frontier plan.
        exec_by_index = {shard.index: shard for shard in exec_shards}
        for index, results in executor.map(exec_shards):
            shard = exec_by_index[index]
            for run, result in zip(shard.runs, results):
                keep(run, result)
                if store is not None:
                    store.put(run, result)
            if metrics is not None:
                now = perf_counter()
                metrics.histogram("campaign.shard_seconds").observe(now - last)
                metrics.counter("campaign.runs_executed").inc(len(shard.runs))
                last = now
            if reporter:
                reporter.shard_done(len(shard.runs))
        if metrics is not None:
            metrics.gauge("campaign.elapsed_seconds").set(
                round(perf_counter() - started, 6)
            )

    if reporter:
        reporter.finish()

    if not collect:
        return None
    return [results_by_index[run.index] for run in runs]


@contextmanager
def _store_scope(store, metrics):
    """Normalize the *store* argument for the length of one campaign.

    A path is opened here and closed on the way out, so no SQLite
    connection (and no WAL checkpoint) outlives the call.  A pre-built
    store stays open for its owner and gains the campaign's metrics
    registry if it has none, so callers never have to pre-wire the two.
    """
    if not isinstance(store, (str, Path)):
        if (
            store is not None
            and metrics is not None
            and getattr(store, "metrics", None) is None
        ):
            store.metrics = metrics
        yield store
        return
    from .store import ResultStore

    with ResultStore.open(store, metrics=metrics) as opened:
        yield opened
