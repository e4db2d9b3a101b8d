"""Fault-injection campaigns (paper §III-A3 and Fig. 9).

:class:`IpHarness` wires the canonical IP-level test bench — traffic
manager ↔ TMU ↔ subordinate, plus the external reset unit — and the
campaign runner injects one :class:`~repro.faults.types.InjectionStage`
per run, timestamps the fault's first manifestation on the interface,
and measures when the TMU raises its interrupt.

Two latencies are reported per injection, because the paper quotes both
conventions in Fig. 11: ``latency_from_injection`` (phase-budget-shaped
for the Full-Counter) and ``latency_from_start`` (whole-budget-shaped
for the Tiny-Counter).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, List, Optional

from ..axi.interface import AxiInterface
from ..axi.manager import Manager
from ..axi.subordinate import BeatTrigger, Subordinate
from ..axi.traffic import read_spec, write_spec
from ..axi.types import AxiDir, bytes_per_beat
from ..sim.kernel import Simulator
from ..sim.slot import HARNESSES, harness_key
from ..soc.reset_unit import ResetUnit
from ..tmu.config import TmuConfig
from ..tmu.unit import TransactionMonitoringUnit
from .types import FaultSite, InjectionStage


class IpHarness:
    """Manager ↔ TMU ↔ subordinate closed loop with a reset unit."""

    def __init__(
        self,
        config: TmuConfig,
        b_latency: int = 1,
        r_latency: int = 1,
        reset_duration: int = 4,
        with_reset_unit: bool = True,
        sim_strategy: str = "dirty",
        sim_update_skipping: bool = True,
        sim_time_leaping: bool = True,
        sim_tracer=None,
        reorder_depth: int = 0,
    ) -> None:
        self.sim = Simulator(
            strategy=sim_strategy,
            update_skipping=sim_update_skipping,
            time_leaping=sim_time_leaping,
            tracer=sim_tracer,
        )
        self.host = AxiInterface("host")
        self.device = AxiInterface("device")
        self.manager = Manager("manager", self.host)
        self.tmu = TransactionMonitoringUnit(
            "tmu",
            self.host,
            self.device,
            config,
            standalone_ack_after=None if with_reset_unit else reset_duration,
        )
        self.subordinate = Subordinate(
            "subordinate",
            self.device,
            b_latency=b_latency,
            r_latency=r_latency,
            reorder_depth=reorder_depth,
        )
        self.sim.add(self.manager)
        self.sim.add(self.tmu)
        self.sim.add(self.subordinate)
        self.reset_unit: Optional[ResetUnit] = None
        if with_reset_unit:
            self.reset_unit = ResetUnit(
                "reset_unit",
                self.tmu.reset_req,
                self.tmu.reset_ack,
                self.subordinate,
                reset_duration=reset_duration,
            )
            self.sim.add(self.reset_unit)
        self._clear_observations()

    def _clear_observations(self) -> None:
        """Zero the interface-event records the stage predicates read."""
        self.aw_fired_cycle: Optional[int] = None
        self.ar_fired_cycle: Optional[int] = None
        self.wlast_cycle: Optional[int] = None
        self._w_lasts_seen = 0
        self._observed_cycle = -1

    def reset(self) -> None:
        """Power-on reset: back to the state a fresh build has."""
        self.sim.reset()
        self._clear_observations()

    def _observe(self) -> None:
        """Stamp the device-side events of this cycle (idempotent).

        ``last`` beats are read off the subordinate's beat counters and
        the first address handshakes off the wires; all of them are
        always stepped — a burst leap stops before the last beat and
        never spans an address handshake, and an idle leap fires
        nothing — so observing after each stepped cycle stamps each at
        its own cycle.  The cycle guard makes double observation (e.g. a
        pre-leap condition check) harmless.
        """
        cycle = self.sim.cycle
        if cycle == self._observed_cycle:
            return
        self._observed_cycle = cycle
        w_lasts = self.subordinate.w_lasts
        if w_lasts != self._w_lasts_seen:
            self._w_lasts_seen = w_lasts
            self.wlast_cycle = cycle
        if self.aw_fired_cycle is None and self.device.aw.fired():
            self.aw_fired_cycle = cycle
        if self.ar_fired_cycle is None and self.device.ar.fired():
            self.ar_fired_cycle = cycle

    def step(self) -> None:
        self.sim.step()
        self._observe()

    def run_until(self, condition, timeout: int) -> Optional[int]:
        """Leap-compatible loop: observe, then evaluate *condition*.

        The loop rides stream leaps when *condition* declares
        ``burst_aware = True`` (see :meth:`Simulator.run_until`); the
        observation itself is burst-safe.
        """

        def observed(_sim) -> bool:
            self._observe()
            return condition(self)

        observed.burst_aware = getattr(condition, "burst_aware", False)
        return self.sim.run_until(observed, timeout=timeout)

    @property
    def cycle(self) -> int:
        return self.sim.cycle


@dataclasses.dataclass
class InjectionResult:
    """Outcome of one fault injection.

    ``sim_leaps`` / ``sim_cycles_leaped`` record how much idle time the
    kernel fast-forwarded during the run (see PR 4's timed-wake queue).
    They are scheduler diagnostics, not measurements: ``compare=False``
    keeps result equality — and thus every leap-on ≡ leap-off
    differential — about what was *measured*, never about how fast the
    kernel got there.
    """

    stage: InjectionStage
    variant: str
    txn_start_cycle: int
    inject_cycle: Optional[int]
    detect_cycle: Optional[int]
    fault_kind: Optional[str]
    fault_phase: Optional[str]
    recovered: bool
    resets_taken: int
    sim_leaps: int = dataclasses.field(default=0, compare=False)
    sim_cycles_leaped: int = dataclasses.field(default=0, compare=False)

    def shifted(self, delta: int) -> "InjectionResult":
        """This result translated *delta* cycles later in time.

        The lockstep batch executor derives a follower lane's result
        from its pack leader's: every measured cycle stamp moves
        rigidly with the stimulus onset, latencies/flags/log counts are
        shift-invariant, and the leader's single pre-onset leap simply
        grows by *delta* (so even the scheduler diagnostics are exact).
        """
        from ..sim.batch import shift_cycles

        txn_start, inject, detect = shift_cycles(
            (self.txn_start_cycle, self.inject_cycle, self.detect_cycle),
            delta,
        )
        return dataclasses.replace(
            self,
            txn_start_cycle=txn_start,
            inject_cycle=inject,
            detect_cycle=detect,
            sim_cycles_leaped=self.sim_cycles_leaped + delta,
        )

    @property
    def detected(self) -> bool:
        return self.detect_cycle is not None

    @property
    def latency_from_injection(self) -> Optional[int]:
        if self.detect_cycle is None or self.inject_cycle is None:
            return None
        return self.detect_cycle - self.inject_cycle

    @property
    def latency_from_start(self) -> Optional[int]:
        if self.detect_cycle is None:
            return None
        return self.detect_cycle - self.txn_start_cycle


def apply_stage_fault(sub_faults, mgr_faults, corrupt_id: int, stage: InjectionStage) -> None:
    """Arm the fault switches that realize *stage* on a manager/subordinate pair."""
    if stage == InjectionStage.AW_READY_MISSING:
        sub_faults.deaf_aw = True
    elif stage == InjectionStage.W_VALID_MISSING:
        mgr_faults.freeze_w = True
    elif stage in (InjectionStage.W_READY_MISSING, InjectionStage.DATA_TRANSFER_STALL):
        sub_faults.deaf_w = True
    elif stage == InjectionStage.WLAST_TO_BVALID:
        sub_faults.mute_b = True
    elif stage == InjectionStage.B_ID_MISMATCH:
        sub_faults.corrupt_b_id = corrupt_id
    elif stage == InjectionStage.B_READY_MISSING:
        mgr_faults.deaf_b = True
    elif stage == InjectionStage.AR_READY_MISSING:
        sub_faults.deaf_ar = True
    elif stage in (InjectionStage.R_VALID_MISSING, InjectionStage.R_MID_BURST_STALL):
        sub_faults.mute_r = True
    elif stage == InjectionStage.R_ID_MISMATCH:
        sub_faults.corrupt_r_id = corrupt_id
    elif stage == InjectionStage.R_LAST_DROPPED:
        sub_faults.drop_r_last = True
    elif stage == InjectionStage.R_READY_MISSING:
        mgr_faults.deaf_r = True
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unhandled stage {stage}")


def _apply_fault(harness: IpHarness, stage: InjectionStage) -> None:
    apply_stage_fault(
        harness.subordinate.faults,
        harness.manager.faults,
        harness.tmu.config.max_uniq_ids + 1,
        stage,
    )


def _stage_trigger(stage: InjectionStage, beats: int) -> Optional[BeatTrigger]:
    """The subordinate's beat trigger for a mid-transaction stage, else None.

    The mid-burst stalls start once half the burst has moved.
    Single-beat bursts have no "middle": the mid-burst stages degenerate
    to their apply-at-start counterparts.
    """
    if beats < 2:
        return None
    if stage == InjectionStage.DATA_TRANSFER_STALL:
        return BeatTrigger("w", beats // 2, "deaf_w")
    if stage == InjectionStage.R_MID_BURST_STALL:
        return BeatTrigger("r", beats // 2, "mute_r")
    return None


def _manifest_predicate(stage: InjectionStage) -> Callable[[IpHarness], bool]:
    """When the injected fault first becomes observable on the interface."""
    device = lambda harness: harness.device  # noqa: E731 - local alias
    table = {
        InjectionStage.AW_READY_MISSING: lambda h: bool(h.device.aw.valid.value),
        InjectionStage.W_VALID_MISSING: lambda h: h.aw_fired_cycle is not None,
        InjectionStage.W_READY_MISSING: lambda h: bool(h.device.w.valid.value),
        InjectionStage.DATA_TRANSFER_STALL: lambda h: bool(
            h.subordinate.faults.deaf_w
        ),
        InjectionStage.WLAST_TO_BVALID: lambda h: h.wlast_cycle is not None,
        InjectionStage.B_ID_MISMATCH: lambda h: bool(h.device.b.valid.value),
        InjectionStage.B_READY_MISSING: lambda h: bool(h.device.b.valid.value),
        InjectionStage.AR_READY_MISSING: lambda h: bool(h.device.ar.valid.value),
        InjectionStage.R_VALID_MISSING: lambda h: h.ar_fired_cycle is not None,
        InjectionStage.R_MID_BURST_STALL: lambda h: bool(
            h.subordinate.faults.mute_r
        ),
        InjectionStage.R_ID_MISMATCH: lambda h: bool(h.device.r.valid.value),
        InjectionStage.R_LAST_DROPPED: lambda h: h.subordinate.r_beats > 0,
        InjectionStage.R_READY_MISSING: lambda h: bool(h.device.r.valid.value),
    }
    del device
    return table[stage]


def _config_key(config: TmuConfig):
    """The config's canonical dict, or the config itself if it has none."""
    # Imported here: the orchestrate package imports this module.
    from ..orchestrate.serialize import SpecSerializationError, config_to_dict

    try:
        return config_to_dict(config)
    except SpecSerializationError:
        return config


def lease_ip_harness(
    config: TmuConfig,
    harness_kwargs: Optional[dict] = None,
    reorder_depth: int = 0,
    probe=None,
):
    """Lease the slot's :class:`IpHarness` for one run (see
    :meth:`repro.sim.slot.HarnessSlot.lease`)."""
    kwargs = dict(harness_kwargs or {})
    if reorder_depth and "reorder_depth" not in kwargs:
        kwargs["reorder_depth"] = reorder_depth
    return HARNESSES.lease(
        harness_key("ip", _config_key(config), kwargs),
        lambda: IpHarness(config, **kwargs),
        probe=probe,
    )


def run_injection(
    config: TmuConfig,
    stage: InjectionStage,
    beats: int = 8,
    detect_timeout: int = 10_000,
    recovery_timeout: int = 2_000,
    harness_kwargs: Optional[dict] = None,
    issue_delay: int = 0,
    trace=None,
    size: int = 3,
    outstanding: int = 1,
    reorder_depth: int = 0,
) -> InjectionResult:
    """Inject one fault and measure detection and recovery.

    The default workload is a single transaction of *beats* beats in
    the stage's direction, issued after *issue_delay* idle cycles —
    campaign seeds map to this delay, sweeping the injection across
    prescaler phase offsets exactly like the Fig. 8 stall measurement.
    The dark-corner axes reshape it: *size* sweeps the beat width
    (narrow transfers when below the bus width), *outstanding* stacks
    that many concurrent transactions over the config's ID space (only
    the first carries the issue delay, so the stimulus onset — and the
    batch executor's onset law — is unchanged), and *reorder_depth*
    opens the subordinate's response reorder window.  After detection,
    manager-side faults are cleared (the software recovery routine the
    paper's interrupt triggers) and the run continues until the manager
    has drained, the subordinate has been reset, and the TMU is
    monitoring again.

    The run takes its :class:`IpHarness` from the harness slot
    (:mod:`repro.sim.slot`), keyed by the canonical config dict and the
    effective harness kwargs: a key hit power-on resets the previous
    run's harness — which then equals a fresh build, attribute by
    attribute (``tests/faults/test_harness_reuse.py``) — and a miss
    builds one.  A run that raises drops the slot.

    *trace* registers a probe (typically a
    :class:`~repro.sim.batch.LeapTrace`) on the harness simulator
    before anything runs, for this run only — the batch executor's pack
    leaders collect their inert-prefix evidence through it.
    """
    with lease_ip_harness(
        config, harness_kwargs, reorder_depth, probe=trace
    ) as harness:
        spec_fn = write_spec if stage.direction == AxiDir.WRITE else read_spec
        # Each transaction gets its own 4 KiB-aligned page span so INCR
        # bursts stay AXI-legal at every (beats, size) grid point.
        stride = 0x1000 * ((beats * bytes_per_beat(size) + 0xFFF) // 0x1000)
        for i in range(max(1, outstanding)):
            harness.manager.submit(
                spec_fn(
                    i % max(1, config.max_uniq_ids),
                    0x1000 + i * stride,
                    beats=beats,
                    size=size,
                    issue_delay=issue_delay if i == 0 else 0,
                )
            )

        trigger = _stage_trigger(stage, beats)
        if trigger is None:
            _apply_fault(harness, stage)
        else:
            harness.subordinate.faults.trigger = trigger
        manifest = _manifest_predicate(stage)

        txn_start: Optional[int] = None
        inject_cycle: Optional[int] = None

        # Both loop conditions only read wire levels a stream holds
        # still, the harness's counter-fed observations and the TMU's
        # interrupt, so they ride stream leaps.
        def detect_tick(h: IpHarness) -> bool:
            nonlocal txn_start, inject_cycle
            if txn_start is None and (
                h.host.aw.valid.value or h.host.ar.valid.value
            ):
                txn_start = h.cycle
            if inject_cycle is None and manifest(h):
                inject_cycle = h.cycle
            return bool(h.tmu.irq.value)

        def recovered_tick(h: IpHarness) -> bool:
            return (
                h.manager.idle
                and h.tmu.state.value == "monitor"
                and not h.tmu.irq.value
            )

        detect_tick.burst_aware = True
        recovered_tick.burst_aware = True
        detect_cycle = harness.run_until(detect_tick, timeout=detect_timeout)

        fault = harness.tmu.last_fault
        recovered = False
        if detect_cycle is not None:
            harness.manager.faults.clear()  # software recovery routine
            harness.tmu.clear_irq()
            recovered = (
                harness.run_until(recovered_tick, timeout=recovery_timeout)
                is not None
            )

        return InjectionResult(
            stage=stage,
            variant=config.variant.value,
            txn_start_cycle=txn_start if txn_start is not None else 0,
            inject_cycle=inject_cycle,
            detect_cycle=detect_cycle,
            fault_kind=fault.kind.value if fault else None,
            fault_phase=fault.phase_label if fault else None,
            recovered=recovered,
            resets_taken=harness.subordinate.resets_taken,
            **{
                f"sim_{key}": value
                for key, value in harness.sim.stats().items()
                if key in Simulator.STAT_KEYS
            },
        )


def run_campaign(
    configs: Iterable[TmuConfig],
    stages: Iterable[InjectionStage],
    beats: int = 8,
    seeds: Iterable[int] = (0,),
    detect_timeout: int = 10_000,
    recovery_timeout: int = 2_000,
    harness_kwargs: Optional[dict] = None,
    workers: Optional[int] = None,
    shard_size: int = 1,
    progress=None,
    batch_lanes: Optional[int] = None,
    batch_verify: bool = False,
    metrics=None,
    store=None,
    size: int = 3,
    outstanding: int = 1,
    reorder_depth: int = 0,
) -> List[InjectionResult]:
    """Cross-product campaign over configurations, stages and seeds.

    Runs through the orchestration engine (:mod:`repro.orchestrate`):
    *workers* > 1 shards the sweep across a process pool,
    *batch_lanes* routes same-config seed sweeps through the lockstep
    batch executor (:class:`~repro.orchestrate.batch.BatchExecutor`;
    *batch_verify* replays every derived lane on the scalar verify
    kernel), *store* (a :class:`~repro.orchestrate.store.ResultStore` or
    a path) reuses every run an earlier campaign — or a killed attempt
    at this one — already committed, and
    *progress* enables the live status line.  Result ordering is
    canonical (config-major, then stage, then seed) regardless of
    executor, so the parallel path is a drop-in replacement for the
    historical serial loop.

    Configs whose budget policy the spec serializer does not understand
    (a custom :class:`AdaptiveBudgetPolicy` subclass) fall back to the
    in-process serial loop — parallelism and the store both need the
    canonical spec.
    """
    # Imported here: the orchestrator's executor imports run_injection
    # from this module, so a top-level import would cycle.
    from ..orchestrate import CampaignSpec, SpecSerializationError, run_campaign_spec

    configs = list(configs)
    stages = list(stages)
    seeds = list(seeds)
    try:
        spec = CampaignSpec.ip(
            configs,
            stages,
            beats=beats,
            seeds=seeds,
            detect_timeout=detect_timeout,
            recovery_timeout=recovery_timeout,
            harness_kwargs=harness_kwargs,
            size=size,
            outstanding=outstanding,
            reorder_depth=reorder_depth,
        )
    except SpecSerializationError:
        if (
            (workers or 1) > 1
            or batch_lanes is not None
            or store is not None
        ):
            raise
        from ..orchestrate import ProgressReporter

        reporter = None
        if isinstance(progress, ProgressReporter):
            reporter = progress
        elif progress:
            reporter = ProgressReporter(
                len(configs) * len(stages) * len(seeds),
                stream=None if progress is True else progress,
            )
        results = []
        for config in configs:
            for stage in stages:
                for seed in seeds:
                    results.append(
                        run_injection(
                            config,
                            stage,
                            beats=beats,
                            detect_timeout=detect_timeout,
                            recovery_timeout=recovery_timeout,
                            harness_kwargs=harness_kwargs,
                            issue_delay=seed,
                            size=size,
                            outstanding=outstanding,
                            reorder_depth=reorder_depth,
                        )
                    )
                    if metrics is not None:
                        metrics.counter("campaign.runs").inc()
                        metrics.counter("campaign.runs_executed").inc()
                    if reporter:
                        reporter.shard_done(1)
        if reporter:
            reporter.finish()
        return results
    return run_campaign_spec(
        spec,
        workers=workers,
        shard_size=shard_size,
        progress=progress,
        batch_lanes=batch_lanes,
        batch_verify=batch_verify,
        metrics=metrics,
        store=store,
    )


def measure_stall_detection_latency(
    config: TmuConfig,
    offsets: Optional[Iterable[int]] = None,
    timeout: int = 100_000,
) -> int:
    """Worst-case detection latency for a total-stall fault (Fig. 8).

    Models the paper's measurement scenario: "the datapath never asserts
    a valid signal, effectively modelling a total stall".  The stall
    onset is swept across prescaler phase *offsets* and the worst
    detection latency (cycles from ``aw_valid`` assertion to the TMU
    interrupt) is returned.
    """
    if offsets is None:
        offsets = range(min(config.prescale_step, 8))
    worst = 0
    for offset in offsets:
        start: Optional[int] = None

        def stall_tick(h: IpHarness) -> bool:
            nonlocal start
            if start is None and h.host.aw.valid.value:
                start = h.cycle
            return bool(h.tmu.irq.value)

        with lease_ip_harness(config) as harness:
            harness.subordinate.faults.deaf_aw = True
            harness.manager.submit(write_spec(0, 0x1000, issue_delay=offset))
            detected = harness.run_until(stall_tick, timeout=timeout)
        if detected is None:
            raise RuntimeError(
                f"stall not detected within {timeout} cycles at offset {offset}"
            )
        assert start is not None
        worst = max(worst, detected - start)
    return worst
