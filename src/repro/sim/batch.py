"""Lockstep batch execution primitives ("campaign SIMD").

The paper's campaigns are thousands of near-identical deterministic
runs that differ only in their seed — which both runners map to a pure
*stimulus time shift* (the IP harness's ``issue_delay``, the system
experiment's ``start_delay``).  After PRs 3-4 removed per-cycle and
per-idle-span cost, the dominant remaining cost is running the whole
interpreter once per lane anyway.  This module provides the kernel-side
primitives that let the batch executor
(:class:`repro.orchestrate.batch.BatchExecutor`) collapse a *pack* of
such lanes into **one** leader simulation plus O(1) derivation per
follower lane:

Soundness argument
------------------

A follower run with seed ``s_f`` is the leader run with seed ``s_l``
whose stimulus onset is delayed by ``delta = s_f - s_l``.  The derived
result (every cycle stamp shifted by ``delta``) equals the follower's
scalar result when three conditions hold, each checked at runtime:

1. **Component contract** — every registered component declares a
   :attr:`~repro.sim.component.Component.phase_period` and ``delta`` is
   a multiple of the pack period (:func:`lockstep_period`, the lcm over
   all components).  Then the *autonomous* state the follower meets at
   its onset (the TMU's free-running prescaler phase, ``cycle %
   step``) is exactly what the leader met at its onset.
2. **Inert prefix evidence** — a :class:`LeapTrace` probe on the leader
   shows that after a contiguous startup transient of ``k`` stepped
   cycles (``0 .. k-1``) the kernel *leaped* the remaining gap up to
   the onset: nothing ran, no wire moved, no update fired.  A leaped
   span is provably inert (that is the kernel's leap precondition), so
   the pre-onset world is identical for every lane — only the armed
   stimulus wake differs, and it differs by exactly ``delta``.  Lanes
   whose onset falls inside the transient (``seed <= k``) retire to the
   scalar kernel.  Kernels that cannot leap (``verify``/``exhaustive``
   strategies, ``time_leaping=False``, ``update_skipping=False``) step
   every prefix cycle, the evidence check fails, and every lane
   gracefully retires — batch output stays byte-identical, merely
   without the speedup.
3. **Horizon containment** — derived cycle stamps must stay inside the
   run's detection window.  IP runs bound detection by an *absolute*
   horizon (``run_until(..., timeout=detect_timeout)`` from cycle 0),
   so a lane whose shifted detection cycle would cross it retires;
   system runs open their window after ``start_delay`` and shift
   cleanly.

Because the leaped gap is a single leap in leader and follower alike,
even the scheduler statistics derive exactly: ``sim_leaps`` is copied
and ``sim_cycles_leaped`` grows by ``delta`` — the batch differential
tests compare campaign JSON *including* the scheduler block.

Everything here is pure bookkeeping over plain data: a pack holds
one lane per seed, so the lane-axis math is plain list arithmetic.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .component import Component


def lockstep_period(components: Iterable[Component]) -> Optional[int]:
    """Pack period: lcm of every component's declared ``phase_period``.

    ``None`` as soon as any component makes no periodicity promise —
    the conservative answer that retires every lane to the scalar
    kernel rather than batching over an unaudited component.
    """
    period = 1
    for component in components:
        declared = component.phase_period
        if declared is None:
            return None
        if declared <= 0:
            raise ValueError(
                f"{component!r} declared non-positive phase_period {declared}"
            )
        period = math.lcm(period, declared)
    return period


def lane_classes(
    seeds: Sequence[int], period: int
) -> Dict[int, List[int]]:
    """Group lane *seeds* into congruence classes modulo *period*.

    Two lanes can share a pack leader only when their seed difference
    is a multiple of the pack period (soundness condition 1).  Returns
    ``{residue: [seed, ...]}`` with each class ascending — the batch
    executor packs each class separately.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    classes: Dict[int, List[int]] = {}
    for seed in sorted(seeds):
        classes.setdefault(seed % period, []).append(seed)
    return classes


def shift_cycles(
    values: Sequence[Optional[int]], delta: int
) -> List[Optional[int]]:
    """Shift a lane's cycle stamps by *delta*, preserving ``None`` holes.

    The core of result derivation: measured cycle fields (transaction
    start, injection, detection) translate rigidly with the stimulus
    onset.
    """
    return [None if value is None else value + delta for value in values]


class LeapTrace:
    """Leap-aware probe collecting the inert-prefix evidence of a run.

    Records every *stepped* cycle before the stimulus *onset* (leaped
    cycles, by construction, never reach a probe) plus the run's leap
    activity.  :meth:`inert_before` is soundness condition 2: the
    stepped prefix must be the contiguous startup transient ``0 ..
    k-1`` with ``k`` strictly below the onset — i.e. the kernel
    provably fast-forwarded the rest of the gap.  It reads no wire, so
    it rides steady-burst leaps too: those start only after the onset
    and count like any other leap.
    """

    leap_aware = True
    burst_aware = True

    def __init__(self, onset: int) -> None:
        if onset < 0:
            raise ValueError(f"onset must be non-negative, got {onset}")
        self.onset = onset
        self.stepped: List[int] = []
        self.leaps = 0
        self.cycles_leaped = 0

    def __call__(self, sim) -> None:
        # Probes run after the cycle counter advanced; the cycle just
        # simulated is cycle - 1.  Only the pre-onset prefix matters.
        stepped = sim.cycle - 1
        if stepped < self.onset:
            self.stepped.append(stepped)

    def on_leap(self, sim, from_cycle: int, to_cycle: int) -> None:
        self.leaps += 1
        self.cycles_leaped += to_cycle - from_cycle

    @property
    def transient_cycles(self) -> int:
        """Length of the stepped startup transient (when contiguous)."""
        return len(self.stepped)

    def inert_before(self, onset: Optional[int] = None) -> bool:
        """Whether the pre-*onset* span was provably inert.

        True iff the stepped pre-onset cycles are exactly ``0 .. k-1``
        (no mid-gap wake ever fired) *and* ``k < onset`` (a leaped gap
        exists at all).  Pass a smaller *onset* to re-check the
        evidence for a lane whose stimulus starts earlier than the
        traced leader's.
        """
        if onset is None:
            onset = self.onset
        k = len(self.stepped)
        if k >= onset:
            return False
        return all(cycle == i for i, cycle in enumerate(self.stepped))
