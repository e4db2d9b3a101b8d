"""Property-based equivalence of the time-leaping kernel.

Two pillars:

* the guard-level expiry prediction and O(1) catch-up must agree with
  tick-by-tick prescaled counting for any budget/step/phase alignment —
  this is what makes a leaped stall detect at the exact same cycle;
* randomized IP-level and system-level fault campaigns must produce
  identical results (detection cycle, fault classification, recovery)
  with time leaping on, off, and under ``strategy="verify"`` — the IP
  runs exercising stream leaps across W bursts and interleaved R
  streams, the system runs across the Ethernet frame.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.faults.campaign import run_injection
from repro.faults.types import InjectionStage
from repro.soc.experiment import FIG11_STAGES, run_system_injection
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig, Variant
from repro.tmu.counters import Prescaler, PrescaledCounter

budgets = st.integers(1, 300)
steps = st.sampled_from([1, 2, 3, 4, 8, 16])
phases = st.integers(0, 15)
spans = st.integers(0, 400)


@given(budgets, steps, phases, st.booleans())
@settings(max_examples=150, deadline=None)
def test_edges_to_expiry_matches_tick_by_tick(budget, step, phase, sticky):
    """The closed-form expiry cycle equals the per-cycle simulation."""
    prescaler = Prescaler(step, phase=phase % step)
    counter = PrescaledCounter(budget, step=step, sticky=sticky)
    predicted = prescaler.cycles_to_edge(counter.edges_to_expiry())
    for cycle in range(1, predicted + 1):
        expired = counter.tick(True, prescaler.advance())
        if cycle < predicted:
            assert not expired, f"expired early at {cycle} < {predicted}"
        else:
            assert expired, f"not expired at predicted cycle {predicted}"


@given(budgets, steps, phases, spans, st.booleans())
@settings(max_examples=150, deadline=None)
def test_catch_up_matches_tick_by_tick(budget, step, phase, span, sticky):
    """catch_up(edges) over a frozen span == `span` enabled ticks."""
    ticked_p = Prescaler(step, phase=phase % step)
    ticked_c = PrescaledCounter(budget, step=step, sticky=sticky)
    jumped_p = Prescaler(step, phase=phase % step)
    jumped_c = PrescaledCounter(budget, step=step, sticky=sticky)
    # Bound the span so no expiry falls inside it (the caller's — the
    # TMU's — precondition, guaranteed by its timed wake); the guard
    # never calls catch_up for an empty span.
    limit = jumped_p.cycles_to_edge(jumped_c.edges_to_expiry()) - 1
    span = min(span, max(0, limit))
    assume(span >= 1)
    for _ in range(span):
        ticked_c.tick(True, ticked_p.advance())
    edges = jumped_p.edges_in(span)
    end_on_edge = edges > 0 and (jumped_p.phase + span) % step == 0
    jumped_p.skip(span)
    jumped_c.catch_up(edges, end_on_edge)
    assert jumped_p.phase == ticked_p._phase
    assert jumped_c.count == ticked_c.count
    assert jumped_c._armed == ticked_c._armed
    assert jumped_c._accum == ticked_c._accum


def _config(variant, prescale_step):
    return TmuConfig(
        variant=variant,
        max_uniq_ids=4,
        txn_per_id=4,
        prescale_step=prescale_step,
        budgets=AdaptiveBudgetPolicy(
            PhaseBudgets(aw_handshake=24), SpanBudgets(base=48, per_beat=1)
        ),
        max_txn_cycles=96,
    )


@given(
    st.sampled_from(list(InjectionStage)),
    st.sampled_from([Variant.FULL, Variant.TINY]),
    st.sampled_from([1, 2, 4]),
    st.integers(0, 5),
    st.integers(1, 16),
    st.integers(1, 3),
    st.integers(1, 8),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_random_injection_identical_across_leap_modes(
    stage, variant, prescale_step, seed, beats, size, outstanding, reorder_depth
):
    """One random IP injection: leap on == leap off == verify == exhaustive.

    Every stage over the dark-corner axes — narrow beats, up to eight
    outstanding transactions over four IDs, a response reorder window —
    so steady W bursts behind parked or stalled B responses and
    round-robin R streams are leaped, bounded by their faults' beat
    triggers, the TMU's budget expiries and the recovery drain.
    """
    config = _config(variant, prescale_step)

    def run(**harness_kwargs):
        result = run_injection(
            config,
            stage,
            beats=beats,
            detect_timeout=3_000,
            recovery_timeout=1_500,
            harness_kwargs=harness_kwargs or None,
            issue_delay=seed,
            size=size,
            outstanding=outstanding,
            reorder_depth=reorder_depth,
        )
        payload = dataclasses.asdict(result)
        # Scheduler diagnostics, not measurements: leap counts differ
        # across kernels by construction.
        del payload["sim_leaps"], payload["sim_cycles_leaped"]
        return payload

    leap = run()
    assert leap == run(sim_time_leaping=False)
    assert leap == run(sim_strategy="verify")
    assert leap == run(sim_strategy="exhaustive")


# ----------------------------------------------------------------------
# System level: stream leaps through the Cheshire SoC
# ----------------------------------------------------------------------
system_stages = st.sampled_from(
    [
        *FIG11_STAGES,
        InjectionStage.B_ID_MISMATCH,
        InjectionStage.R_MID_BURST_STALL,
    ]
)


@given(
    st.sampled_from([Variant.FULL, Variant.TINY]),
    system_stages,
    st.integers(0, 7),
    st.integers(1, 48),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_random_system_injection_identical_across_leap_modes(
    variant, stage, seed, beats, size
):
    """One random Fig. 11-style run: leap on == leap off == verify.

    The Ethernet frame's W burst is what burst leaps cross; the random
    frame length and beat width move the stall trigger, the TMU's
    budget expiries and the recovery drain across it.
    """

    def run(**kwargs):
        result = run_system_injection(
            variant,
            stage,
            beats=beats,
            size=size,
            start_delay=seed,
            detect_timeout=2_000,
            recovery_timeout=1_000,
            **kwargs,
        )
        payload = dataclasses.asdict(result)
        del payload["sim_leaps"], payload["sim_cycles_leaped"]
        return payload

    leap = run()
    assert leap == run(sim_time_leaping=False)
    assert leap == run(sim_strategy="verify")
