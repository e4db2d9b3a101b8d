"""Kernel-level tests for steady-burst leaping.

While one W burst streams back to back, the kernel may cross its steady
beats in one jump: every awake updater reports a horizon, advances that
many beats at once, and the next cycle is stepped normally.  These tests
pin who may ride through such a jump (probes and ``run_until``
conditions declaring ``burst_aware``, ``LeapTrace``) and who pins the
clock (a plain probe, the VCD writer, a condition that did not opt in),
and that the jump stops at a timed wake, at the run target and at a TMU
counter expiry — each compared with the same run stepped cycle by cycle.
"""

from __future__ import annotations

import io

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import write_spec
from repro.faults.campaign import IpHarness
from repro.sim import Component, Simulator
from repro.sim.batch import LeapTrace
from repro.sim.vcd import VcdWriter
from repro.telemetry import Tracer
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig

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
