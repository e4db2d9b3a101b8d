"""The harness slot's reset invariant: a reused harness equals a fresh build.

Every campaign run takes its :class:`IpHarness` / :class:`CheshireSoC`
from the per-thread harness slot (:mod:`repro.sim.slot`) and power-on
resets it between runs.  Three nets hold that reuse to a fresh build
per run:

1. **Structural** — after runs of all thirteen stages, one left
   undetected and one that raised, the reset harness equals a fresh
   build in every attribute, object identities aside.
2. **Differential** — random run sequences on one reused slot give the
   same ``result_to_dict`` output, scheduler statistics included, as a
   fresh build per run.
3. **Lifecycle** — a run that raises leaves the next run on a fresh
   build, a probe leased with a run never outlives it, and each thread
   leases its own slot.
"""

from __future__ import annotations

import collections
import copy
import enum
import random
import sys
import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.traffic import write_spec
from repro.faults import campaign
from repro.faults.campaign import IpHarness, run_campaign, run_injection
from repro.faults.types import InjectionStage
from repro.orchestrate import BatchExecutor, CampaignSpec, run_campaign_spec
from repro.orchestrate.serialize import result_to_dict
from repro.sim.slot import HARNESSES
from repro.soc import experiment
from repro.soc.cheshire import CheshireSoC, system_tmu_config
from repro.soc.experiment import run_system_injection
from repro.telemetry import Tracer
from repro.tmu.config import TmuConfig, Variant

# ----------------------------------------------------------------------
# Structural comparison
# ----------------------------------------------------------------------
_VALUES = (type(None), bool, int, float, str, bytes, bytearray, enum.Enum)


def _pairing_key(obj):
    """Orders set members of two object graphs the same way."""
    if isinstance(obj, _VALUES):
        return (type(obj).__name__, "", repr(obj))
    return (type(obj).__name__, getattr(obj, "name", ""), "")


def state_diff(reused, fresh) -> list:
    """Paths where two object graphs differ, object identities aside.

    Walks both graphs in parallel.  Values compare by ``==``, containers
    element by element (sets paired by member type and name, dicts
    keyed by object id paired in insertion order), objects attribute by
    attribute; functions must share their code and closures, and the
    pairing of objects must be one-to-one — an object shared in one
    graph must be shared the same way in the other.
    """
    pairs: dict = {}
    out: list = []

    def walk(a, b, path):
        if type(a) is not type(b):
            out.append(f"{path}: {type(a).__name__} != {type(b).__name__}")
            return
        if isinstance(a, _VALUES):
            if a != b:
                out.append(f"{path}: {a!r} != {b!r}")
            return
        if id(a) in pairs:
            if pairs[id(a)] is not b:
                out.append(f"{path}: shared differently")
            return
        pairs[id(a)] = b
        if isinstance(a, type):
            if a is not b:
                out.append(f"{path}: {a!r} != {b!r}")
        elif isinstance(a, types.FunctionType):
            if a.__code__ is not b.__code__:
                out.append(f"{path}: function {a!r} != {b!r}")
                return
            for i, (x, y) in enumerate(zip(a.__closure__ or (), b.__closure__ or ())):
                walk(x.cell_contents, y.cell_contents, f"{path}<closure {i}>")
        elif isinstance(a, types.MethodType):
            if a.__func__ is not b.__func__:
                out.append(f"{path}: method {a!r} != {b!r}")
            walk(a.__self__, b.__self__, f"{path}.__self__")
        elif isinstance(a, types.BuiltinFunctionType):
            if a is not b:
                out.append(f"{path}: builtin {a!r} != {b!r}")
        elif isinstance(a, random.Random):
            if a.getstate() != b.getstate():
                out.append(f"{path}: generator state differs")
        elif isinstance(a, (list, tuple, collections.deque)):
            if len(a) != len(b):
                out.append(f"{path}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, (set, frozenset)):
            if len(a) != len(b):
                out.append(f"{path}: size {len(a)} != {len(b)}")
                return
            ordered = zip(sorted(a, key=_pairing_key), sorted(b, key=_pairing_key))
            for i, (x, y) in enumerate(ordered):
                walk(x, y, f"{path}{{{i}}}")
        elif isinstance(a, dict):
            if len(a) != len(b):
                out.append(f"{path}: {len(a)} keys != {len(b)}")
            elif list(a) == list(b):
                for key in a:
                    walk(a[key], b[key], f"{path}[{key!r}]")
            elif all(type(key) is int for key in (*a, *b)):
                # Keyed by id(): pair entries in insertion order.
                for i, (x, y) in enumerate(zip(a.values(), b.values())):
                    walk(x, y, f"{path}<entry {i}>")
            else:
                out.append(f"{path}: keys {list(a)} != {list(b)}")
        else:
            names = list(getattr(a, "__dict__", {}))
            for cls in type(a).__mro__:
                names += [n for n in getattr(cls, "__slots__", ()) if n not in names]
            if set(getattr(b, "__dict__", {})) - set(names):
                out.append(f"{path}: attributes only the fresh build has")
            for name in names:
                if not hasattr(a, name) and not hasattr(b, name):
                    continue
                if hasattr(a, name) != hasattr(b, name):
                    out.append(f"{path}.{name}: set on one side only")
                    continue
                walk(getattr(a, name), getattr(b, name), f"{path}.{name}")

    walk(reused, fresh, "harness")
    return out


class ProbeFailure(RuntimeError):
    pass


def fail_at(cycle: int):
    """A probe that raises once the clock reaches *cycle*."""

    def probe(sim):
        if sim.cycle >= cycle:
            raise ProbeFailure(f"probe failed at cycle {sim.cycle}")

    return probe


@pytest.fixture(autouse=True)
def empty_slot():
    HARNESSES.drop()
    yield
    HARNESSES.drop()


def test_state_diff_sees_leftover_state():
    harness, fresh = IpHarness(TmuConfig()), IpHarness(TmuConfig())
    assert state_diff(harness, fresh) == []
    harness.subordinate.memory.write_byte(0x1000, 7)
    harness.sim.leaps = 1
    harness.wlast_cycle = 2
    diff = state_diff(harness, fresh)
    assert len(diff) == 3
    assert any("memory._pages" in path for path in diff)
    assert any(path.endswith("sim.leaps: 1 != 0") for path in diff)
    assert any("wlast_cycle" in path for path in diff)


@pytest.mark.parametrize("variant", list(Variant))
def test_reset_ip_harness_equals_fresh_build(variant):
    config = TmuConfig(variant=variant)
    axes = dict(beats=16, size=1, outstanding=8, reorder_depth=4)
    for seed, stage in enumerate(InjectionStage):
        assert run_injection(config, stage, issue_delay=seed, **axes).detected
    # A run left undetected: the detection window closes mid-burst.
    late = run_injection(
        config, InjectionStage.W_READY_MISSING, detect_timeout=3, **axes
    )
    assert not late.detected
    harness = HARNESSES.harness
    harness.reset()
    assert state_diff(harness, IpHarness(config, reorder_depth=4)) == []

    # A run that raised mid-burst is dropped, yet reset still restores it.
    with pytest.raises(ProbeFailure):
        run_injection(
            config, InjectionStage.DATA_TRANSFER_STALL, trace=fail_at(9), **axes
        )
    assert HARNESSES.harness is None
    harness.reset()
    assert state_diff(harness, IpHarness(config, reorder_depth=4)) == []


@pytest.mark.parametrize("variant", list(Variant))
def test_reset_soc_equals_fresh_build(variant):
    axes = dict(beats=16, background=2, size=2, outstanding=3, reorder_depth=2)
    for seed, stage in enumerate(InjectionStage):
        run_system_injection(variant, stage, start_delay=seed, **axes)
    late = run_system_injection(
        variant, InjectionStage.W_READY_MISSING, detect_timeout=3, **axes
    )
    assert not late.detected
    soc = HARNESSES.harness

    def fresh():
        return CheshireSoC(system_tmu_config(variant, frame_beats=16), reorder_depth=2)

    soc.reset()
    assert state_diff(soc, fresh()) == []

    with pytest.raises(ProbeFailure):
        run_system_injection(
            variant, InjectionStage.DATA_TRANSFER_STALL, trace=fail_at(12), **axes
        )
    assert HARNESSES.harness is None
    soc.reset()
    assert state_diff(soc, fresh()) == []


# ----------------------------------------------------------------------
# A stream leap leaves the state stepping leaves
# ----------------------------------------------------------------------
class _SpanLog:
    """Burst-aware probe recording every leap's span."""

    leap_aware = True
    burst_aware = True

    def __init__(self) -> None:
        self.spans = []

    def __call__(self, sim) -> None:
        pass

    def on_leap(self, sim, start, end) -> None:
        self.spans.append((start, end))


#: The only paths a leaped and a stepped SoC may differ in: the switch
#: itself and the scheduler statistics counting the leaps.
_LEAP_BOOKKEEPING = tuple(
    f"harness.sim.{name}:" for name in ("time_leaping", "leaps", "cycles_leaped")
)


def _burst_soc(variant, deaf_aw: bool, **kwargs) -> CheshireSoC:
    soc = CheshireSoC(system_tmu_config(variant, frame_beats=64), **kwargs)
    if deaf_aw:
        soc.ethernet.faults.deaf_aw = True
    soc.send_ethernet_frame(64)
    return soc


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("deaf_aw", [False, True], ids=["monitor", "recover"])
def test_burst_leap_equals_stepping(variant, deaf_aw):
    """A deep copy of the SoC after one burst leap equals a copy stepped
    through the same cycles with leaping off — every attribute, object
    identities aside — and a SoC stepped from power-on.  ``deaf_aw``
    makes the TMU detect the stalled address and drain the frame in
    recovery mode instead."""
    soc = _burst_soc(variant, deaf_aw)
    soc.sim.run(5)  # into the frame's first beats

    scout, log = copy.deepcopy(soc), _SpanLog()
    scout.sim.add_probe(log)
    scout.sim.run(400)
    start, end = log.spans[0]
    assert start >= soc.sim.cycle and end - start >= 2
    leaped, stepped = copy.deepcopy(soc), copy.deepcopy(soc)
    stepped.sim.time_leaping = False
    # Through the leap and the stepped cycle that closes it.
    leaped.sim.run(end + 1 - soc.sim.cycle)
    stepped.sim.run(end + 1 - soc.sim.cycle)
    assert leaped.sim.leaps == soc.sim.leaps + 1
    assert leaped.sim.cycles_leaped - soc.sim.cycles_leaped == end - start

    reference = _burst_soc(variant, deaf_aw, sim_time_leaping=False)
    reference.sim.run(end + 1)
    for other in (stepped, reference):
        diff = state_diff(leaped, other)
        assert [path for path in diff if not path.startswith(_LEAP_BOOKKEEPING)] == []


# ----------------------------------------------------------------------
# Memory across the two reset paths
# ----------------------------------------------------------------------
def test_hardware_reset_keeps_memory():
    harness = IpHarness(TmuConfig())
    harness.subordinate.faults.mute_b = True
    harness.manager.submit(write_spec(0, 0x1000, beats=2, data=[0xDEAD, 0xBEEF]))
    reset_taken = harness.run_until(
        lambda h: h.subordinate.resets_taken == 1, timeout=5_000
    )
    assert reset_taken is not None
    # The ResetUnit drove hw_reset into _take_reset: the subordinate's
    # queues are flushed, but what the traffic wrote stays written.
    assert harness.subordinate.memory.read_word(0x1000, 8) == 0xDEAD
    assert harness.subordinate.memory.read_word(0x1008, 8) == 0xBEEF


def test_power_on_reset_restores_construction_memory():
    harness = IpHarness(TmuConfig())
    harness.manager.submit(write_spec(0, 0x1000, beats=2, data=[0xDEAD, 0xBEEF]))
    assert harness.run_until(lambda h: h.manager.idle, timeout=1_000) is not None
    assert harness.subordinate.memory.allocated_pages == 1
    harness.reset()
    assert harness.subordinate.memory.allocated_pages == 0
    assert harness.subordinate.memory.read_word(0x1000, 8) == 0


# ----------------------------------------------------------------------
# Differential: one reused slot against a fresh build per run
# ----------------------------------------------------------------------
ip_run = st.tuples(
    st.sampled_from(list(Variant)),
    st.sampled_from(list(InjectionStage)),
    st.integers(0, 9),  # seed (issue delay)
    st.sampled_from([1, 2, 8]),  # beats
    st.sampled_from([1, 3]),  # size
    st.sampled_from([1, 3]),  # outstanding
    st.sampled_from([0, 2]),  # reorder depth
)


def _ip_result(run) -> dict:
    variant, stage, seed, beats, size, outstanding, reorder_depth = run
    return result_to_dict(
        run_injection(
            TmuConfig(variant=variant),
            stage,
            beats=beats,
            issue_delay=seed,
            size=size,
            outstanding=outstanding,
            reorder_depth=reorder_depth,
        )
    )


def _fresh_and_reused(runs, result):
    fresh = []
    for run in runs:
        HARNESSES.drop()
        fresh.append(result(run))
    HARNESSES.drop()
    return fresh, [result(run) for run in runs]


@given(st.lists(ip_run, min_size=2, max_size=10))
@settings(max_examples=25, deadline=None)
def test_reused_ip_slot_matches_fresh_builds(runs):
    fresh, reused = _fresh_and_reused(runs, _ip_result)
    assert reused == fresh
    # The compare=False scheduler fields are part of what must match.
    assert all("sim_leaps" in r and "sim_cycles_leaped" in r for r in reused)


system_run = st.tuples(
    st.sampled_from(list(Variant)),
    st.sampled_from(list(InjectionStage)),
    st.integers(0, 6),  # seed (start delay)
    st.sampled_from([4, 16]),  # frame beats
    st.sampled_from([0, 2]),  # background
    st.sampled_from([1, 3]),  # outstanding
)


def _system_result(run) -> dict:
    variant, stage, seed, beats, background, outstanding = run
    return result_to_dict(
        run_system_injection(
            variant,
            stage,
            beats=beats,
            background=background,
            start_delay=seed,
            outstanding=outstanding,
        )
    )


@given(st.lists(system_run, min_size=2, max_size=6))
@settings(max_examples=8, deadline=None)
def test_reused_soc_slot_matches_fresh_builds(runs):
    fresh, reused = _fresh_and_reused(runs, _system_result)
    assert reused == fresh


# ----------------------------------------------------------------------
# Slot lifecycle
# ----------------------------------------------------------------------
def test_campaign_builds_one_harness_per_config(monkeypatch):
    builds = []

    class CountingHarness(IpHarness):
        def __init__(self, *args, **kwargs):
            builds.append(args[0].variant)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(campaign, "IpHarness", CountingHarness)
    results = run_campaign(
        [TmuConfig(variant=Variant.FULL), TmuConfig(variant=Variant.TINY)],
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        beats=4,
        seeds=range(5),
    )
    assert len(results) == 20
    assert builds == [Variant.FULL, Variant.TINY]


def test_batched_system_campaign_builds_one_soc_per_variant(monkeypatch):
    # The batch executor reads each group's lockstep period off the
    # slot's SoC before its leader runs: both must key the same SoC.
    builds = []

    class CountingSoC(CheshireSoC):
        def __init__(self, *args, **kwargs):
            builds.append(args[0].variant)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "CheshireSoC", CountingSoC)
    spec = CampaignSpec.system(
        list(Variant),
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        beats=16,
        seeds=range(6),
    )
    assert len(run_campaign_spec(spec, executor=BatchExecutor(4))) == 24
    assert builds == list(Variant)


def test_raising_run_leaves_the_next_run_on_a_fresh_build():
    config = TmuConfig()
    stage = InjectionStage.B_READY_MISSING
    run_injection(config, stage)
    used = HARNESSES.harness
    with pytest.raises(ProbeFailure):
        run_injection(config, stage, trace=fail_at(4))
    assert HARNESSES.harness is None
    after = run_injection(config, stage)
    assert HARNESSES.harness is not used
    HARNESSES.drop()
    assert result_to_dict(after) == result_to_dict(run_injection(config, stage))


def test_probe_does_not_outlive_its_run():
    config = TmuConfig()
    seen = []
    run_injection(config, InjectionStage.AW_READY_MISSING, trace=seen.append)
    assert seen
    count = len(seen)
    run_injection(config, InjectionStage.AW_READY_MISSING)
    assert len(seen) == count


def test_tracer_kwarg_keys_by_identity():
    config = TmuConfig()
    stage = InjectionStage.AW_READY_MISSING
    tracer = Tracer()
    run_injection(config, stage, harness_kwargs={"sim_tracer": tracer})
    first = HARNESSES.harness
    run_injection(config, stage, harness_kwargs={"sim_tracer": tracer})
    assert HARNESSES.harness is first
    run_injection(config, stage, harness_kwargs={"sim_tracer": Tracer()})
    assert HARNESSES.harness is not first


def test_threads_each_lease_their_own_slot():
    """Campaigns may share a process as threads: each needs its own
    slot, or one thread's lease would reset another's running harness."""
    config = TmuConfig()
    runs = [(stage, seed) for stage in InjectionStage for seed in (0, 3)]

    def campaign():
        return [
            result_to_dict(run_injection(config, stage, issue_delay=seed))
            for stage, seed in runs
        ]

    expected = campaign()
    results = {}

    def worker(index):
        results[index] = campaign()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: expected for i in range(4)}
