"""Kernel-level tests for steady-stream leaping.

While one W burst streams back to back, or R beats stream round-robin
from a subordinate's reorder window, the kernel may cross the steady
beats in one jump: every awake updater reports a horizon, advances
that many beats at once, and the next cycle is stepped normally.  These
tests pin who may ride through such a jump (probes and ``run_until``
conditions declaring ``burst_aware``, ``LeapTrace``) and who pins the
clock (a plain probe, the VCD writer, a condition that did not opt in),
and that the jump stops at a timed wake, at the run target, at a TMU
counter expiry, before a read's first or last beat, an R beat trigger,
a read joining the window and a B response maturing — each compared
with the same run stepped cycle by cycle.
"""

from __future__ import annotations

import copy
import io

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import BeatTrigger, Subordinate
from repro.axi.traffic import read_spec, write_spec
from repro.faults.campaign import IpHarness
from repro.sim import Component, Simulator
from repro.sim.signal import Channel
from repro.sim.batch import LeapTrace
from repro.sim.vcd import VcdWriter
from repro.soc.ethernet import EthernetMac
from repro.telemetry import Tracer
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig, Variant
from tests.faults.test_harness_reuse import state_diff

BEATS = 64
ADDR = 0x1000


class StepCounter(Tracer):
    """Counts stepped cycles; a tracer never pins the clock."""

    def __init__(self) -> None:
        self.steps = 0

    def step_end(self, sim) -> None:
        self.steps += 1


class BurstProbe:
    """A probe that consents to burst leaps and records every jump."""

    leap_aware = True
    burst_aware = True

    def __init__(self) -> None:
        self.samples = 0
        self.spans = []

    def __call__(self, sim) -> None:
        self.samples += 1

    def on_leap(self, sim, start, end) -> None:
        self.spans.append((start, end))


class Alarm(Component):
    """Sleeps until a timed wake, then records the stamp it fired at."""

    demand_update = True

    def __init__(self, name: str, wake: int) -> None:
        super().__init__(name)
        self.wake = wake
        self.fired_at = []

    def quiescent(self) -> bool:
        return True

    def update(self) -> None:
        cycle = self._sim.cycle
        if cycle == 0:
            self.wake_at(self.wake)
        elif cycle == self.wake:
            self.fired_at.append(cycle)


class Passthrough(Component):
    """A drive-only AXI wire between two interfaces, with no burst hooks."""

    demand_driven = True

    def __init__(self, name: str, host: AxiInterface, device: AxiInterface) -> None:
        super().__init__(name)
        self.pairs = [
            (getattr(host, ch), getattr(device, ch)) for ch in ("aw", "w", "ar")
        ] + [(getattr(device, ch), getattr(host, ch)) for ch in ("b", "r")]

    def inputs(self):
        for src, dst in self.pairs:
            yield from (src.valid, src.payload, dst.ready)

    def outputs(self):
        for src, dst in self.pairs:
            yield from (dst.valid, dst.payload, src.ready)

    def drive(self) -> None:
        for src, dst in self.pairs:
            dst.valid.value = src.valid.value
            dst.payload.value = src.payload.value
            src.ready.value = dst.ready.value


class PayloadWatcher(Component):
    """Sleeps between beats, but every W payload change wakes it."""

    demand_update = True

    def __init__(self, name: str, channel) -> None:
        super().__init__(name)
        self.channel = channel
        self.wakes = 0

    def update_inputs(self):
        return (self.channel.payload,)

    def quiescent(self) -> bool:
        return True

    def update(self) -> None:
        self.wakes += 1


def _config(**phases) -> TmuConfig:
    return TmuConfig(
        budgets=AdaptiveBudgetPolicy(PhaseBudgets(**phases), SpanBudgets())
    )


def _harness(config=None, **kwargs) -> IpHarness:
    tracer = StepCounter()
    harness = IpHarness(config or _config(), sim_tracer=tracer, **kwargs)
    harness.manager.submit(write_spec(0, ADDR, beats=BEATS))
    return harness


def _steps(harness: IpHarness) -> int:
    return harness.sim._tracer.steps


def _observable(harness: IpHarness):
    """What a run leaves behind: memory, scoreboard, wires, clock."""
    memory = harness.subordinate.memory
    return (
        harness.sim.cycle,
        memory.read(ADDR, 8 * BEATS),
        [vars(txn) for txn in harness.manager.completed],
        [wire._value for wire in harness.sim.wires],
        harness.subordinate.w_beats,
        harness.tmu.write_guard.snapshot_state(),
    )


# ----------------------------------------------------------------------
# Riding through a burst
# ----------------------------------------------------------------------
def test_burst_is_leaped_and_matches_stepping():
    leaped = _harness()
    stepped = _harness(sim_time_leaping=False)
    leaped.sim.run(200)
    stepped.sim.run(200)
    assert _observable(leaped) == _observable(stepped)
    assert _steps(stepped) == 200
    # The burst's first and last beats and the handshakes around it are
    # stepped; the steady beats in between are not.
    assert _steps(leaped) < 20
    assert leaped.sim.cycles_leaped > BEATS


def test_leap_trace_sees_burst():
    harness = _harness()
    trace = LeapTrace(onset=0)
    harness.sim.add_probe(trace)
    harness.sim.run(60)  # ends inside the burst: no idle leap yet
    assert trace.leaps >= 1
    assert trace.cycles_leaped == harness.sim.cycles_leaped > BEATS // 2
    assert trace.stepped == []  # onset 0: nothing before it


def test_burst_aware_condition_rides_and_agrees():
    stepped = _harness(sim_time_leaping=False)
    expected = stepped.run_until(lambda h: h.manager.idle, timeout=500)

    harness = _harness()
    calls = []

    def idle(h) -> bool:
        calls.append(h.cycle)
        return h.manager.idle

    idle.burst_aware = True
    assert harness.run_until(idle, timeout=500) == expected
    assert _steps(harness) < 20
    assert len(calls) < 40  # consulted around leaps, never inside one


# ----------------------------------------------------------------------
# Pinning the clock
# ----------------------------------------------------------------------
def test_plain_probe_pins_burst():
    harness = _harness()
    seen = []
    harness.sim.add_probe(lambda sim: seen.append(sim.cycle))
    harness.sim.run(100)
    assert seen == list(range(1, 101))
    assert harness.sim.leaps == 0


def test_vcd_writer_pins_burst_but_rides_idle_leaps():
    harness = _harness()
    stream = io.StringIO()
    writer = VcdWriter(stream, [harness.host.w.valid, harness.host.w.payload])
    harness.sim.add_probe(writer.sample)
    harness.sim.run(400)
    writer.close()
    assert _steps(harness) > BEATS  # every beat stepped
    assert harness.sim.leaps >= 1  # the idle tail still leaps
    assert harness.sim.cycles_leaped > 200


def test_condition_without_consent_pins_burst():
    harness = _harness()
    cycle = harness.run_until(lambda h: h.manager.idle, timeout=500)
    assert cycle is not None
    assert _steps(harness) == cycle  # every cycle up to the answer stepped


def test_outside_reader_of_a_burst_wire_pins_burst():
    # A forwarder without burst hooks re-drives the payload every beat,
    # and a sleeper wakes on every payload change: neither belongs to
    # the burst, so the kernel must step every beat for them.
    def run(leaping: bool, watch: bool):
        tracer = StepCounter()
        sim = Simulator(time_leaping=leaping, tracer=tracer)
        host, device = AxiInterface("host"), AxiInterface("device")
        manager = Manager("manager", host)
        sim.add(manager)
        if watch:
            watcher = PayloadWatcher("watcher", host.w)
            sim.add(watcher)
            sim.add(Subordinate("subordinate", host))
        else:
            watcher = None
            sim.add(Passthrough("wire", host, device))
            sim.add(Subordinate("subordinate", device))
        manager.submit(write_spec(0, ADDR, beats=BEATS))
        sim.run(200)
        sub = sim.components[-1]
        return (
            sub.memory.read(ADDR, 8 * BEATS),
            watcher.wakes if watcher else None,
            [vars(txn) for txn in manager.completed],
        ), tracer.steps

    for watch in (False, True):
        leaped, steps = run(True, watch)
        stepped, _ = run(False, watch)
        assert leaped == stepped
        assert steps > BEATS, watch


# ----------------------------------------------------------------------
# Horizon bounds
# ----------------------------------------------------------------------
def test_horizon_bounded_by_timed_wake():
    wake = 30
    runs = {}
    for leaping in (True, False):
        harness = _harness(sim_time_leaping=leaping)
        alarm = Alarm("alarm", wake)
        harness.sim.add(alarm)
        probe = BurstProbe()
        harness.sim.add_probe(probe)
        harness.sim.run(200)
        runs[leaping] = (harness, alarm, probe)
    harness, alarm, probe = runs[True]
    assert alarm.fired_at == runs[False][1].fired_at == [wake]
    assert all(not start < wake < end for start, end in probe.spans)
    assert any(end == wake for _, end in probe.spans)  # a burst stopped there
    assert _observable(harness)[1:3] == _observable(runs[False][0])[1:3]


def test_horizon_bounded_by_run_target():
    for target in (17, 40, 63):
        leaped = _harness()
        stepped = _harness(sim_time_leaping=False)
        probe = BurstProbe()
        leaped.sim.add_probe(probe)
        leaped.sim.run(target)
        stepped.sim.run(target)
        assert probe.spans, target
        # The run's last cycle is stepped, so every wire is settled.
        assert all(end <= target - 1 for _, end in probe.spans)
        assert _observable(leaped) == _observable(stepped)


def test_horizon_bounded_by_tmu_counter_expiry():
    # A W-data budget far shorter than the burst: the TMU times out
    # mid-burst, and the leap must stop short of the expiring edge.
    config = _config(w_data_base=20, w_data_per_beat=0)
    leaped = _harness(config)
    stepped = _harness(config, sim_time_leaping=False)
    probe = BurstProbe()
    leaped.sim.add_probe(probe)

    def tripped(sim) -> bool:
        return bool(leaped.tmu.irq.value)

    tripped.burst_aware = True
    detect = leaped.sim.run_until(tripped, timeout=500)
    assert detect == stepped.sim.run_until(
        lambda sim: bool(stepped.tmu.irq.value), timeout=500
    )
    assert detect is not None and detect < BEATS  # mid-burst
    assert probe.spans and all(end < detect for _, end in probe.spans)
    assert leaped.tmu.last_fault == stepped.tmu.last_fault
    assert _observable(leaped) == _observable(stepped)


def test_no_burst_leap_outside_a_burst():
    sim = Simulator()
    sim.add(Alarm("alarm", 50))
    probe = BurstProbe()
    sim.add_probe(probe)
    sim.run(100)
    assert probe.spans == [(1, 50), (51, 100)]


# ----------------------------------------------------------------------
# R streams and parked responses
# ----------------------------------------------------------------------
READS = 4
READ_BEATS = 16

#: Paths a leaped and a stepped harness may differ in: the switch, the
#: leap statistics, the probes and tracer counting them, and lazily
#: superseded timed wakes.
_LEAP_BOOKKEEPING = tuple(
    f"harness.sim.{name}"
    for name in (
        "time_leaping:", "leaps:", "cycles_leaped:", "_probes", "_tracer", "_wake_heap",
    )
)


def _read_config(**phases) -> TmuConfig:
    # Four interleaved 16-beat reads take 64 cycles: give the R data
    # phase room for them unless a test wants it to expire.
    phases.setdefault("r_data_per_beat", 8)
    return _config(**phases)


def _read_harness(config=None, reads=READS, **kwargs) -> IpHarness:
    """Four 16-beat reads, one per ID, served round-robin (window 4)."""
    harness = IpHarness(
        config or _read_config(), sim_tracer=StepCounter(), reorder_depth=4, **kwargs
    )
    for i in range(reads):
        _submit_read(harness, i)
    return harness


def _submit_read(harness: IpHarness, i: int) -> None:
    base = ADDR * (i + 1)
    for beat in range(READ_BEATS):
        harness.subordinate.memory.write_word(base + 8 * beat, (i << 8) | beat, 8)
    harness.manager.submit(read_spec(i, base, beats=READ_BEATS))


def _r_beats(harness: IpHarness) -> list:
    """Record (step, id, first, last) of every device-side R beat; the
    probe pins the clock, so only for stepped references."""
    beats, seen = [], {}

    def probe(sim) -> None:
        if harness.device.r.fired():
            beat = harness.device.r.payload._value
            first = beat.id not in seen
            seen[beat.id] = True
            if beat.last:
                del seen[beat.id]
            beats.append((sim.cycle - 1, beat.id, first, beat.last))

    harness.sim.add_probe(probe)
    return beats


def _leaped_and_stepped(harness: IpHarness):
    """Deep copies of *harness*: one leaping under a consenting probe
    that records its spans, one stepping every cycle."""
    leaped, stepped = copy.deepcopy(harness), copy.deepcopy(harness)
    stepped.sim.time_leaping = False
    probe = BurstProbe()
    leaped.sim.add_probe(probe)
    return leaped, stepped, probe


def _same_state(leaped: IpHarness, stepped: IpHarness) -> bool:
    diff = state_diff(leaped, stepped)
    return [path for path in diff if not path.startswith(_LEAP_BOOKKEEPING)] == []


def _covered(spans, step: int) -> bool:
    """Whether a leap over (start, end) skipped the step starting at *step*."""
    return any(start <= step < end for start, end in spans)


def test_round_robin_r_stream_is_leaped_and_equals_stepping():
    leaped, stepped, probe = _leaped_and_stepped(_read_harness())
    beats = _r_beats(stepped)
    leaped.sim.run(120)
    stepped.sim.run(120)
    assert _same_state(leaped, stepped)
    completed = leaped.manager.completed
    assert [txn.data for txn in completed] == [
        [(txn.txn_id << 8) | beat for beat in range(READ_BEATS)] for txn in completed
    ]
    assert len(beats) == READS * READ_BEATS
    # One leap crosses the interleaved middle of all four reads: it
    # starts after the last first beat and ends at the first last beat.
    first_beats = [step for step, _, first, _ in beats if first]
    last_beats = [step for step, _, _, last in beats if last]
    assert (max(first_beats) + 1, min(last_beats)) in probe.spans
    assert not any(_covered(probe.spans, step) for step in first_beats + last_beats)
    assert _steps(leaped) < 20


def test_r_stream_horizon_bounded_by_beat_trigger():
    harness = _read_harness()
    harness.subordinate.faults.trigger = BeatTrigger("r", 30, "mute_r")
    leaped, stepped, probe = _leaped_and_stepped(harness)
    beats = _r_beats(stepped)
    leaped.sim.run(120)
    stepped.sim.run(120)
    assert _same_state(leaped, stepped)
    assert leaped.subordinate.faults.mute_r and leaped.subordinate.r_beats == 30
    threshold = beats[29][0]  # the beat whose update mutes R
    assert any(end == threshold for _, end in probe.spans)
    assert not _covered(probe.spans, threshold)


def test_r_stream_horizon_bounded_by_a_read_joining_the_window():
    # Three reads stream; a fourth arrives mid-stream and joins the
    # window when its latency runs out, changing the round-robin.
    harness = _read_harness(reads=3, r_latency=12)
    leaped, stepped, probe = _leaped_and_stepped(harness)
    beats = _r_beats(stepped)
    for h in (leaped, stepped):
        h.sim.run(30)
        _submit_read(h, 3)
        h.sim.run(90)
    assert _same_state(leaped, stepped)
    (joined,) = [step for step, txn, first, _ in beats if first and txn == 3]
    assert not _covered(probe.spans, joined)
    # Leaps on both sides of the join, and one ending right before it
    # (the read's first beat waits its round-robin turn).
    assert any(end <= joined for _, end in probe.spans if end > 30)
    assert any(start > joined for start, _ in probe.spans)
    assert len(leaped.manager.completed) == READS


def test_r_stream_horizon_bounded_by_read_guard_expiry():
    # The default R data budget is shorter than four interleaved
    # bursts: the read guard times out mid-stream.
    config = _read_config(r_data_per_beat=2)
    leaped, stepped, probe = _leaped_and_stepped(_read_harness(config))

    def tripped(sim) -> bool:
        return bool(leaped.tmu.irq.value)

    tripped.burst_aware = True
    detect = leaped.sim.run_until(tripped, timeout=200)
    assert detect == stepped.sim.run_until(
        lambda sim: bool(stepped.tmu.irq.value), timeout=200
    )
    assert detect is not None and leaped.subordinate.r_beats < READS * READ_BEATS
    assert leaped.tmu.last_fault.phase_label == stepped.tmu.last_fault.phase_label
    assert probe.spans and all(end < detect for _, end in probe.spans)
    assert _same_state(leaped, stepped)


def test_plain_probe_pins_r_stream():
    harness = _read_harness()
    seen = []
    harness.sim.add_probe(lambda sim: seen.append(sim.cycle))
    harness.sim.run(80)
    assert seen == list(range(1, 81))
    assert harness.sim.leaps == 0


def test_probe_without_burst_consent_pins_r_stream_but_rides_idle_leaps():
    harness = _read_harness()
    seen = []

    def probe(sim) -> None:
        seen.append(sim.cycle)

    probe.leap_aware = True
    harness.sim.add_probe(probe)
    harness.sim.run(200)
    assert harness.manager.idle
    assert seen[: READS * READ_BEATS] == list(range(1, READS * READ_BEATS + 1))
    assert harness.sim.leaps >= 1 and harness.sim.cycles_leaped > 100  # the idle tail


def _two_writes(**kwargs) -> IpHarness:
    # The B wait budget outlasts the second burst, parked B or not.
    harness = IpHarness(_config(b_wait=2 * BEATS), sim_tracer=StepCounter(), **kwargs)
    harness.manager.submit(write_spec(0, ADDR, beats=BEATS))
    harness.manager.submit(write_spec(1, 2 * ADDR, beats=BEATS))
    return harness


def test_w_stream_leaps_past_a_muted_b():
    harness = _two_writes()
    harness.subordinate.faults.mute_b = True
    leaped, stepped, probe = _leaped_and_stepped(harness)
    parked = []

    def second_burst(sim) -> None:
        if leaped.subordinate._b_queue and leaped.device.w.fired():
            parked.append(sim.cycle)

    second_burst.leap_aware = second_burst.burst_aware = True
    leaped.sim.add_probe(second_burst)
    leaped.sim.run(2 * BEATS + 20)
    stepped.sim.run(2 * BEATS + 20)
    assert _same_state(leaped, stepped)
    assert leaped.subordinate.w_lasts == 2
    # The second burst streamed with the first burst's B parked, and
    # its middle was leaped.
    assert parked and any(start >= parked[0] for start, _ in probe.spans)
    assert _steps(leaped) < 30


def test_w_stream_horizon_bounded_by_b_latency():
    # The first burst's response matures 20 cycles into the second.
    leaped, stepped, probe = _leaped_and_stepped(_two_writes(b_latency=20))
    leaped.sim.run(3 * BEATS)
    stepped.sim.run(3 * BEATS)
    assert _same_state(leaped, stepped)
    first, second = leaped.manager.completed
    assert first.last_data_cycle < first.resp_cycle < second.first_data_cycle + BEATS
    # The response's valid rose (and fired) in a stepped cycle, with
    # leaps on both sides of it.
    assert not _covered(probe.spans, first.resp_cycle - 1)
    assert any(start > first.resp_cycle for start, _ in probe.spans)
    assert any(
        end < first.resp_cycle and start > first.last_data_cycle
        for start, end in probe.spans
    )


def test_w_stream_horizon_bounded_by_an_issue_delay():
    # A read queued behind an issue delay raises its address valid
    # mid-burst.
    harness = _harness()
    harness.manager.submit(read_spec(1, 2 * ADDR, beats=4, issue_delay=30))
    leaped, stepped, probe = _leaped_and_stepped(harness)
    raised = []

    def watch(sim) -> None:
        if stepped.host.ar.valid._value and not raised:
            raised.append(sim.cycle - 1)

    stepped.sim.add_probe(watch)
    leaped.sim.run(150)
    stepped.sim.run(150)
    assert _same_state(leaped, stepped)
    (step,) = raised
    # One cycle short: the update that counts the delay out is stepped.
    assert any(end == step - 1 for _, end in probe.spans)
    assert not _covered(probe.spans, step)


def test_upstream_first_answers_from_registration():
    harness = IpHarness(_config())
    assert harness.subordinate._upstream_first(harness.device.w.payload)
    assert harness.tmu._upstream_first(harness.device.r.payload)
    assert harness.manager._upstream_first(harness.host.r.payload)
    # A writer without burst hooks cannot post a stream.
    sim = Simulator()
    host, device = AxiInterface("host"), AxiInterface("device")
    manager = sim.add(Manager("manager", host))
    sim.add(Passthrough("wire", host, device))
    subordinate = sim.add(Subordinate("subordinate", device))
    assert not subordinate._upstream_first(device.w.payload)
    assert not manager._upstream_first(host.r.payload)
    assert not manager._upstream_first(Channel("loose").payload)  # no writer


def test_unrequested_r_stream_is_sunk_and_equals_stepping():
    # Tiny-Counter: a corrupted R ID is logged once, not tripped on, and
    # the TMU sinks the stream until the span budget expires.
    harness = _read_harness(TmuConfig(variant=Variant.TINY))
    harness.subordinate.faults.corrupt_r_id = harness.tmu.config.max_uniq_ids + 1
    leaped, stepped, probe = _leaped_and_stepped(harness)
    leaped.sim.run(80)
    stepped.sim.run(80)
    assert _same_state(leaped, stepped)
    assert leaped.subordinate.r_beats > 40 and not leaped.manager.completed
    assert leaped.tmu.read_guard.violations_detected == 1
    assert any(end - start > 20 for start, end in probe.spans)


def test_r_stream_pinned_behind_a_dropped_last():
    # Tiny-Counter: each ID's first read ends without r_last, so its
    # guard entry stays and counts the ID's second read too — every one
    # of those beats logs a violation, and must be stepped.
    config = TmuConfig(
        variant=Variant.TINY,
        budgets=AdaptiveBudgetPolicy(PhaseBudgets(), SpanBudgets(base=400)),
    )
    harness = _read_harness(config)
    for i in range(READS):
        harness.manager.submit(read_spec(i, ADDR * (i + 5), beats=READ_BEATS))
    harness.subordinate.faults.drop_r_last = True
    leaped, stepped, _ = _leaped_and_stepped(harness)
    leaped.sim.run(150)
    stepped.sim.run(150)
    assert _same_state(leaped, stepped)
    assert leaped.tmu.read_guard.violations_detected > READ_BEATS


class _MacBench:
    """Manager and Ethernet MAC, no TMU: a TX frame, then four reads
    while the TX buffer drains."""

    def __init__(self) -> None:
        self.sim = Simulator()
        bus = AxiInterface("bus")
        self.manager = self.sim.add(Manager("manager", bus))
        self.mac = self.sim.add(EthernetMac("mac", bus, reorder_depth=4))
        self.manager.submit(write_spec(0, 0, beats=BEATS))
        for i in range(READS):
            self.manager.submit(
                read_spec(
                    i,
                    EthernetMac.RX_BUFFER_OFFSET + i * ADDR,
                    beats=READ_BEATS,
                    issue_delay=0 if i else BEATS + 4,
                )
            )


def test_r_stream_from_ethernet_mac_keeps_its_tx_drain():
    # Only W beats fill the TX buffer; across an R stream it drains.
    leaped, stepped, probe = _leaped_and_stepped(_MacBench())
    for cycles in (BEATS + 20, 30, 100):
        leaped.sim.run(cycles)
        stepped.sim.run(cycles)
        assert leaped.mac.tx_beats_buffered == stepped.mac.tx_beats_buffered
        assert _same_state(leaped, stepped)
    assert len(leaped.manager.completed) == 1 + READS
    # The frame's and the reads' streams leap.
    assert any(start > BEATS + 4 and end - start > READ_BEATS for start, end in probe.spans)
