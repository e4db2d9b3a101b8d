"""Campaign orchestration: shard, parallelize and store injection sweeps.

The paper's headline experiments are fault-injection *campaigns* — many
independent simulations swept over TMU configs, injection stages and
phase offsets.  This package turns any such sweep into a deterministic
shard plan, executes it serially or across a ``multiprocessing`` worker
pool, commits every run to a result store, and aggregates results back
into the exact order the serial runners produce.

Layers (one module each):

* :mod:`~repro.orchestrate.spec` — :class:`CampaignSpec` → canonical
  :class:`RunSpec` list → :class:`Shard` plan, plus the spec hash.
* :mod:`~repro.orchestrate.executor` — serial and process-pool shard
  executors; per-worker harness construction.
* :mod:`~repro.orchestrate.batch` — the lockstep batch executor
  (:class:`BatchExecutor`): packs of same-config lanes derived from one
  scalar leader run, with evidence-gated retirement to the scalar
  kernel.
* :mod:`~repro.orchestrate.store` — the run-granular result store
  (:class:`ResultStore`): hot LRU over warm SQLite; the only
  persistence, behind both superset-sweep reuse and crash-safe resume
  (re-run the campaign against the same store).
* :mod:`~repro.orchestrate.progress` — live progress/ETA reporting.
* :mod:`~repro.orchestrate.engine` — :func:`run_campaign_spec`, the
  driver tying the above together.

``repro.faults.campaign.run_campaign`` and
``repro.soc.experiment.run_fig11`` are thin wrappers over this engine;
``python -m repro campaign`` exposes it from the shell.
"""

from .batch import BatchExecutor, BatchStats
from .engine import run_campaign_spec
from .executor import (
    SerialExecutor,
    WorkerPoolExecutor,
    default_workers,
    execute_run,
    execute_shard,
    make_executor,
)
from .progress import ProgressReporter
from .serialize import (
    SpecSerializationError,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from .spec import CampaignSpec, RunSpec, Shard, plan_shards
from .store import STORE_FORMAT, ResultStore

__all__ = [
    "BatchExecutor",
    "BatchStats",
    "CampaignSpec",
    "ProgressReporter",
    "ResultStore",
    "RunSpec",
    "STORE_FORMAT",
    "SerialExecutor",
    "Shard",
    "SpecSerializationError",
    "WorkerPoolExecutor",
    "config_from_dict",
    "config_to_dict",
    "default_workers",
    "execute_run",
    "execute_shard",
    "make_executor",
    "plan_shards",
    "result_from_dict",
    "result_to_dict",
    "run_campaign_spec",
]
