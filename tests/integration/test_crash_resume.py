"""Crash/resume integration: SIGKILL a campaign, resume from the store.

Crash safety is the result store's job: every run is committed as its
shard completes, so a SIGKILLed campaign — the worst case, nothing gets
to clean up — is resumed by re-running it against the same store, and
the final campaign JSON must be byte-identical to an uninterrupted
serial run.  Both single-machine executors are covered: the serial loop
and a two-process pool.

The scenario is gated on runs, not on time: in a forked child, a
wrapped ``execute_run`` lets exactly ``RUNS_BEFORE_FREEZE`` runs
through, then signals and sleeps, so the campaign is provably
mid-flight — some runs stored, some not — when the SIGKILL lands.  The
child leads its own process group, so one ``killpg`` also takes down
its pool workers.
"""

import multiprocessing
import os
import signal
import sqlite3
import time

import pytest

from tests.conftest import fast_budgets

from repro.analysis.export import campaign_dict, to_json
from repro.faults.types import InjectionStage
from repro.orchestrate import (
    CampaignSpec,
    SerialExecutor,
    run_campaign_spec,
)
from repro.orchestrate import executor as executor_module
from repro.orchestrate.executor import START_METHOD_ENV, execute_shard
from repro.orchestrate.store import DB_NAME
from repro.tmu.config import full_config, tiny_config

#: Runs the gated campaign completes before every further run freezes.
RUNS_BEFORE_FREEZE = 4


def crash_spec() -> CampaignSpec:
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets()), tiny_config(budgets=fast_budgets())],
        (
            InjectionStage.AW_READY_MISSING,
            InjectionStage.WLAST_TO_BVALID,
            InjectionStage.R_VALID_MISSING,
        ),
        beats=4,
        seeds=(0, 1),
    )


def _campaign_victim(store_dir: str, workers: int, tickets, frozen) -> None:
    """Forked child: run the campaign with every run past the gate frozen.

    *tickets* (a shared counter) is inherited by the pool workers the
    child forks, so the gate counts runs across processes.
    """
    os.setpgid(0, 0)
    os.environ[START_METHOD_ENV] = "fork"  # pool workers inherit the gate
    real = executor_module.execute_run

    def gated(run, trace=None):
        with tickets.get_lock():
            ticket = tickets.value
            tickets.value += 1
        if ticket >= RUNS_BEFORE_FREEZE:
            frozen.set()
            time.sleep(600)  # hold the run until SIGKILLed
        return real(run, trace)

    executor_module.execute_run = gated
    run_campaign_spec(crash_spec(), store=store_dir, workers=workers)


def _stored_run_ids(store_dir) -> set:
    """Committed store rows, read without joining the victim's writes."""
    db = store_dir / DB_NAME
    if not db.exists():
        return set()
    conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True, timeout=30)
    try:
        return {row[0] for row in conn.execute("SELECT run_id FROM results")}
    except sqlite3.OperationalError:
        return set()  # schema not created yet
    finally:
        conn.close()


def _wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(message)
        time.sleep(0.05)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
def test_sigkilled_campaign_resumes_byte_identical(tmp_path, workers):
    spec = crash_spec()
    runs = spec.runs()
    assert len(runs) > RUNS_BEFORE_FREEZE + workers
    serial_json = to_json(campaign_dict(run_campaign_spec(spec), spec=spec))

    store_dir = tmp_path / "store"
    context = multiprocessing.get_context("fork")
    tickets = context.Value("i", 0)
    frozen = context.Event()
    victim = context.Process(
        target=_campaign_victim,
        args=(str(store_dir), workers, tickets, frozen),
    )
    victim.start()
    try:
        assert frozen.wait(timeout=60), "campaign never reached its freeze point"
        # The gated runs must be committed before we kill the campaign
        # mid-flight.
        _wait_for(
            lambda: len(_stored_run_ids(store_dir)) >= RUNS_BEFORE_FREEZE,
            30,
            "completed runs never reached the store",
        )
    finally:
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:  # died before leading its group
            victim.kill()
        victim.join(timeout=10)
    assert victim.exitcode == -signal.SIGKILL

    stored = _stored_run_ids(store_dir)
    assert len(stored) == RUNS_BEFORE_FREEZE
    missing = [run.run_id for run in runs if run.run_id not in stored]

    # Resume: same spec, same store, plain serial executor.  One run per
    # shard, so the executed shards name the executed runs.
    executed = []

    class Counting(SerialExecutor):
        def map(self, pending):
            for shard in pending:
                executed.extend(shard.run_ids)
                yield execute_shard(shard)

    resumed = run_campaign_spec(spec, store=store_dir, executor=Counting())
    assert to_json(campaign_dict(resumed, spec=spec)) == serial_json
    assert executed == missing

    # And a damaged row is a miss, not a crash: truncate one stored
    # payload, resume again, and exactly that run re-simulates while the
    # output stays byte-identical.
    with sqlite3.connect(store_dir / DB_NAME) as conn:
        key, run_id = conn.execute(
            "SELECT param_key, run_id FROM results ORDER BY run_id LIMIT 1"
        ).fetchone()
        conn.execute(
            "UPDATE results SET payload = ? WHERE param_key = ?",
            ('{"stage": "aw_ready_missing", "detec', key),
        )
    conn.close()
    executed.clear()
    re_resumed = run_campaign_spec(spec, store=store_dir, executor=Counting())
    assert to_json(campaign_dict(re_resumed, spec=spec)) == serial_json
    assert executed == [run_id]
