"""Shard executors: in-process serial and multiprocessing worker pool.

Both executors expose the same contract — ``map(shards)`` yields
``(shard_index, [result, ...])`` pairs, in *any* order — and both take
every harness from the harness slot of the process that simulates it, so no
:class:`~repro.sim.kernel.Simulator` state ever crosses a process
boundary.  Only plain :class:`~repro.orchestrate.spec.RunSpec` data
travels to workers and only result dataclasses travel back.

Worker count resolution order: explicit argument, then the
``REPRO_WORKERS`` environment variable, then 1 (serial).  The
multiprocessing start method honours ``REPRO_MP_START`` when set
(``fork``/``spawn``/``forkserver``) and otherwise uses the platform
default.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Iterable, Iterator, List, Sequence, Tuple

from .spec import RunSpec, Shard

#: Environment variable selecting the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START"

ShardResult = Tuple[int, list]


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS``, defaulting to serial."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    count = int(raw)
    if count <= 0:
        raise ValueError(f"{WORKERS_ENV} must be positive, got {raw!r}")
    return count


def execute_run(run: RunSpec, trace=None):
    """Simulate one injection described by *run*, in this process.

    The run takes its harness/SoC from this thread's harness slot
    (:mod:`repro.sim.slot`), keyed by everything the constructor depends
    on: the kind, the canonical config dict, ``harness_kwargs``,
    ``reorder_depth`` and, for system runs, the frame ``beats``.  The
    first run of a key builds the harness; later runs power-on reset it.
    The reset invariant — a reset harness equals a fresh build in every
    attribute, object identities aside — is what keeps results
    independent of execution order and of which process (serial loop,
    pool worker, batch pack leader) ran which run.
    ``tests/faults/test_harness_reuse.py`` proves it structurally after
    every stage, and differentially: random run orders on one reused
    slot give the same ``result_to_dict`` output, scheduler statistics
    included, as a fresh build per run.  A run that raises drops the
    slot.  *trace* (a simulator probe, e.g. a
    :class:`~repro.sim.batch.LeapTrace`) is registered on the run's
    simulator before it starts and removed when it ends — the lockstep
    batch executor uses it to collect inert-prefix evidence from pack
    leaders.
    """
    # Imported lazily: this module is imported by repro.faults.campaign
    # (via the orchestrate package) for its parallel path, so top-level
    # imports of the runners would cycle.
    from ..faults.types import InjectionStage
    from ..tmu.config import Variant

    stage = InjectionStage(run.stage)
    if run.kind == "ip":
        from ..faults.campaign import run_injection
        from .serialize import config_from_dict

        return run_injection(
            config_from_dict(run.config),
            stage,
            beats=run.beats,
            detect_timeout=run.detect_timeout,
            recovery_timeout=run.recovery_timeout,
            harness_kwargs=dict(run.harness_kwargs) or None,
            issue_delay=run.seed,
            trace=trace,
            size=run.size,
            outstanding=run.outstanding,
            reorder_depth=run.reorder_depth,
        )
    from ..soc.experiment import run_system_injection

    return run_system_injection(
        Variant(run.config["variant"]),
        stage,
        beats=run.beats,
        background=run.background,
        detect_timeout=run.detect_timeout,
        recovery_timeout=run.recovery_timeout,
        start_delay=run.seed,
        trace=trace,
        size=run.size,
        outstanding=run.outstanding,
        reorder_depth=run.reorder_depth,
        **dict(run.harness_kwargs),
    )


def lease_harness(run: RunSpec):
    """Lease the slot harness/SoC :func:`execute_run` simulates *run* on."""
    if run.kind == "ip":
        from ..faults.campaign import lease_ip_harness
        from .serialize import config_from_dict

        return lease_ip_harness(
            config_from_dict(run.config),
            dict(run.harness_kwargs),
            run.reorder_depth,
        )
    from ..soc.experiment import lease_soc
    from ..tmu.config import Variant

    return lease_soc(
        Variant(run.config["variant"]),
        run.beats,
        run.reorder_depth,
        **dict(run.harness_kwargs),
    )


def execute_shard(shard: Shard) -> ShardResult:
    """Worker entry point: run every injection of one shard, in order."""
    return shard.index, [execute_run(run) for run in shard.runs]


class SerialExecutor:
    """Runs shards one after another in the calling process."""

    workers = 1

    def map(self, shards: Sequence[Shard]) -> Iterator[ShardResult]:
        for shard in shards:
            yield execute_shard(shard)


class WorkerPoolExecutor:
    """Fans shards out across a ``multiprocessing`` pool.

    Completion order is arbitrary (``imap_unordered``); the engine
    re-assembles results by run index, so scheduling jitter never
    changes the aggregated output.
    """

    def __init__(self, workers: int) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers

    def map(self, shards: Sequence[Shard]) -> Iterator[ShardResult]:
        if not shards:
            return
        method = os.environ.get(START_METHOD_ENV, "").strip() or None
        context = multiprocessing.get_context(method)
        processes = min(self.workers, len(shards))
        with context.Pool(processes=processes) as pool:
            yield from pool.imap_unordered(execute_shard, shards, chunksize=1)


def make_executor(workers: int, batch_lanes=None, batch_verify=False):
    """Pick the executor: serial, process pool, or lockstep batch.

    *batch_lanes* selects the lockstep batch executor
    (:class:`~repro.orchestrate.batch.BatchExecutor`) with packs of at
    most that many lanes (*batch_verify* adds a scalar verify replay of
    every derived lane).  Otherwise *workers* picks between the
    in-process executors (1 → serial).  The two axes are exclusive:
    packs are planned over the whole pending run set in one process.
    """
    if batch_lanes is not None:
        if workers > 1:
            raise ValueError(
                f"batch_lanes requires workers=1, got workers={workers}"
            )
        from .batch import BatchExecutor

        return BatchExecutor(batch_lanes, verify=batch_verify)
    return SerialExecutor() if workers <= 1 else WorkerPoolExecutor(workers)
