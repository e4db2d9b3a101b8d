"""Component base class for the two-phase synchronous simulation kernel.

Every hardware block in this reproduction — managers, subordinates, the
TMU, crossbars, reset units — subclasses :class:`Component` and follows a
strict discipline:

* :meth:`drive` is the *combinational* phase.  It may read any wire and
  any of the component's registered state, and may write only the wires
  the component sources.  It must be idempotent: given unchanged inputs
  and state, re-running it must write the same values.
* :meth:`update` is the *sequential* phase (the clock edge).  It may read
  the settled wires and mutate registered state, but must not write
  wires.

This mirrors how synthesizable RTL separates combinational logic from
flip-flops and is what makes the TMU's cycle-level detection latencies
directly comparable with the paper's RTL measurements.

Scheduling contract (dirty-set kernel)
--------------------------------------

The default kernel (``Simulator(strategy="dirty")``) re-runs a
component's ``drive()`` only when it might produce different outputs:

* **Wire sensitivity.**  If :meth:`inputs` returns ``None`` (the
  default), the kernel traces every wire the drive actually reads and
  re-runs the component whenever one of those wires changes.  A
  component may instead *declare* its input wires by overriding
  :meth:`inputs`; declared components skip the (cheap) read tracing.
  Over-declaring is harmless; under-declaring silently produces stale
  outputs — when in doubt, leave :meth:`inputs` returning ``None``.
* **State sensitivity.**  By default (``demand_driven = False``) the
  kernel conservatively re-runs ``drive()`` at the start of every
  cycle's settle, because ``update()`` may have changed registered state
  that ``drive()`` reads.  A component that sets ``demand_driven =
  True`` promises to call :meth:`schedule_drive` from every code path
  that mutates *drive-visible* state: inside ``update()``, and from any
  software-facing API (``submit()``, fault switches, register writes)
  that callers may invoke between cycles.  Missing a path is a
  correctness bug; ``Simulator(strategy="verify")`` and the
  scheduler-equivalence tests exist to catch it.

Components that never override :meth:`drive` (pure update-phase models
such as the PLIC or the recovery CPU) are excluded from the settle
worklist entirely.

Quiescence contract (update phase)
----------------------------------

Symmetric to the drive contract, a component may opt out of running
``update()`` on cycles where it is provably a no-op — no in-flight
transactions, no armed counters, no pending interrupts.  A component
that sets ``demand_update = True`` promises:

* :meth:`quiescent` returns ``True`` only when the *next* ``update()``
  would change nothing — neither registered state nor future behaviour
  — given that none of its :meth:`update_inputs` wires change and no
  one calls :meth:`schedule_update` in the meantime.  The kernel checks
  it after every ``update()`` run and removes quiescent components from
  the live updater set.
* :meth:`update_inputs` declares every wire whose *change* must re-arm
  the component (the update-phase analogue of ``inputs()``; there is no
  traced fallback — updates read wire slots directly).
* every software-facing API that re-enables update work (``submit()``,
  fault switches, register writes, ``connect``-style wiring) calls
  :meth:`schedule_update`.

State that is a pure function of the global clock — private cycle
counters used for timestamps, free-running prescaler phases, windowed
statistics over idle cycles — is exempt from the no-op requirement
*provided* the component resynchronizes it from ``self._sim.cycle`` at
the start of ``update()``; skipped spans are then reconstructed exactly
on wake.  :meth:`snapshot_state` must exclude such clock-derived state,
because ``Simulator(strategy="verify")`` replays the updates of every
skipped component each cycle and raises ``SchedulerDivergenceError``
when a replay moves the snapshot (an under-declared wake path).

Timed wakes
-----------

A component whose only pending sequential work is a *countdown* — a
watchdog deadline, a timeout budget, a ready-delay crossing — may be
quiescent through the countdown **provided** it declares the cycle the
countdown falls due with :meth:`wake_at` (alias :meth:`sleep_until`)
before sleeping, and reconstructs the elapsed span from
``self._sim.cycle`` when it next updates.  ``wake_at(c)`` guarantees
the component is back in the live updater set for the step that starts
at ``sim.cycle == c`` (whose update is stamped ``c + 1``).  The armed
wake is a single value: the latest ``wake_at`` supersedes any earlier
one, waking earlier than necessary is harmless (the update simply
re-arms), and :meth:`cancel_wake` drops it.  Waking in the past raises
``ValueError``; ``wake_at(sim.cycle)`` degenerates to
:meth:`schedule_update`.  The standard conversion keeps one
``_stamp``-style field holding the stamp of the last real update and
applies ``elapsed = now - stamp`` ticks on wake — under an always-on
update phase ``elapsed`` is 1 every cycle, so one implementation serves
both modes and ``strategy="verify"`` replays remain exact.

Steady bursts
-------------

A long W burst keeps the same few components awake for hundreds of
cycles — the manager sourcing it, the crossbar and TMU forwarding it,
the subordinate sinking it — and every one of those cycles fires one
beat and moves nothing but the W payload wires and per-beat counts.
Under time leaping the kernel crosses such a span in one jump, a
*burst leap*, through three hooks:

* :meth:`burst_horizon` — asked between cycles of every awake updater.
  It returns how many upcoming cycles, starting with the current one,
  are *steady* for this component: each fires exactly one mid-burst W
  beat on the channels it sources, forwards or sinks, no other
  handshake fires, every valid and ready level it reads or drives
  stays put, and its update does nothing :meth:`advance` cannot
  reproduce.  The horizon must stop short of anything that has to be
  stepped: the burst's last beat, a counter expiry, an armed fault
  trigger, a gap or ready-delay crossing.  ``0`` (the default) means
  "not in a steady burst"; :data:`UNBOUNDED` means "no bound of my
  own" (a crossbar forwarding mid-burst beats commits nothing).
* :meth:`burst_wires` — the wires this component drives that change
  across the span (its W payload output).  The kernel leaps only when
  every drive reader of those wires belongs to the burst (an awake
  updater or one of its children) and every update reader is awake.
* :meth:`advance` — apply *k* steady updates at once, exactly as *k*
  calls of ``update()`` would have.  Clock-derived state follows the
  timed-wake rules: a component may leave its stamp alone and let the
  next real update account for the elapsed span.  Payloads travel on
  :attr:`~repro.sim.signal.Channel.burst`: the source posts the
  ``(data, strb)`` pairs of its *k* beats, a forwarder moves them to
  its downstream channel, and the sink takes them.  The kernel calls
  ``advance`` in registration order, so a forwarder or sink must
  report horizon 0 unless the writers of its upstream payload wire are
  registered before it (:meth:`_upstream_first`).

The kernel burst-leaps only when every awake updater reports a horizon
of at least 2, every pending drive belongs to the burst, and the span
stays short of the next timed wake and of the run's last cycle; it then
jumps the clock *k* cycles, counts the span in its ``leaps`` /
``cycles_leaped`` statistics, and steps the next cycle normally, which
re-settles every wire.  A burst changes wires, so only probes declaring
``burst_aware = True`` (the batch executor's ``LeapTrace``) and
``run_until`` conditions carrying the same attribute (the campaign
observers, which read beat counters rather than per-cycle handshakes)
ride through one; the kernel tracer sees it through its ``leap`` hook.
The VCD writer, assertion probes and every other probe or condition
pin the clock to per-cycle stepping, as do ``strategy="verify"`` and
``time_leaping=False``, which serve as the reference.

Phase periodicity (lockstep batching)
-------------------------------------

The lockstep batch executor (:mod:`repro.sim.batch`) runs one *leader*
simulation per pack of same-config campaign runs and derives the other
lanes' results by shifting the leader's cycle stamps.  That is only
sound when every component's *autonomous* behaviour — what it does as a
function of absolute time, independent of stimulus — is periodic.  A
component declares this with the :attr:`Component.phase_period` class
attribute:

* ``phase_period = 1`` promises the component is *translation
  invariant*: given identical stimulus shifted by any number of cycles,
  it produces identically shifted behaviour.  Purely reactive blocks
  (managers, subordinates, crossbars, reset units) qualify — all their
  countdowns are relative (``wake_at(now + delta)``), never anchored to
  absolute cycle numbers.
* ``phase_period = p`` promises invariance under shifts that are
  multiples of ``p`` — the TMU declares its free-running prescaler
  step, whose phase is ``cycle % step``.
* ``phase_period = None`` (the default) makes no promise; a simulation
  containing such a component is never batched (every lane runs
  scalar).

The pack period is the least common multiple over all registered
components (:func:`repro.sim.batch.lockstep_period`).
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional

from .signal import Wire

#: Burst horizon of a component that puts no bound of its own on a
#: steady burst (see "Steady bursts" above).
UNBOUNDED = sys.maxsize


class DriveSensitiveState:
    """Mixin for mutable blocks (fault switches, knobs) read by a drive().

    Campaign and test code flips these attributes directly between
    cycles (``subordinate.faults.deaf_aw = True``), bypassing any
    component API that could uphold the demand-driven contract.  The
    owning component assigns itself to ``_owner`` after construction;
    every subsequent attribute write then notifies the owner's
    scheduler.
    """

    def __setattr__(self, key: str, value) -> None:
        object.__setattr__(self, key, value)
        owner = getattr(self, "_owner", None)
        if owner is not None:
            owner.schedule_drive()
            owner.schedule_update()


class Component:
    """Base class for synchronous hardware models."""

    #: When True, the kernel only re-runs ``drive()`` after an input wire
    #: change or an explicit :meth:`schedule_drive` — see the scheduling
    #: contract in the module docstring.  The default (False) re-runs
    #: every cycle, which is always safe.
    demand_driven: bool = False

    #: When True, the kernel runs ``update()`` only while the component
    #: is *awake*: it leaves the live updater set when :meth:`quiescent`
    #: returns True and re-arms on an :meth:`update_inputs` wire change
    #: or an explicit :meth:`schedule_update` — see the quiescence
    #: contract in the module docstring.  The default (False) runs
    #: ``update()`` every cycle, which is always safe.
    demand_update: bool = False

    #: Period (in cycles) of this component's autonomous, absolute-time
    #: behaviour — see "Phase periodicity" in the module docstring.
    #: ``1`` declares full translation invariance (purely reactive),
    #: ``p`` invariance under shifts by multiples of ``p``, and ``None``
    #: (the default) opts the whole simulation out of lockstep batching.
    phase_period: Optional[int] = None

    def __init__(self, name: str) -> None:
        self.name = name
        # Set by Simulator.add(): the simulator's pending worklist, the
        # live updater set, the simulator itself (for clock resync), and
        # this component's deterministic evaluation rank.
        self._scheduler: Optional[set] = None
        self._update_scheduler: Optional[set] = None
        self._sim = None
        self._order: int = 0
        # The single armed timed-wake cycle, or None.  Owned jointly
        # with the simulator's wake heap (lazy-cancellation protocol).
        self._wake_cycle: Optional[int] = None
        # The component whose children() registered this one, if any.
        self._parent: Optional["Component"] = None

    def wires(self) -> Iterable[Wire]:
        """Wires sourced or observed by this component.

        The kernel registers these for tracing, reset, and VCD dumps.
        Subclasses should yield every wire of every interface they touch;
        duplicates across components are harmless (deduplicated by
        identity).
        """
        return ()

    def children(self) -> Iterable["Component"]:
        """Sub-components registered automatically alongside this one.

        Lets a block expose finer scheduling granularity — e.g. the
        crossbar registers one drive-only child per AXI channel so a W
        beat does not re-arbitrate the address channels.  Children are
        full components: the kernel schedules their ``drive()`` and runs
        their ``update()`` like any other.
        """
        return ()

    def inputs(self) -> Optional[Iterable[Wire]]:
        """Wires whose value changes require re-running :meth:`drive`.

        Return ``None`` (the default) to let the kernel trace actual
        reads automatically.  Return an iterable (possibly empty) to
        declare the sensitivity list explicitly and skip tracing.
        """
        return None

    def outputs(self) -> Optional[Iterable[Wire]]:
        """Wires this component may write during :meth:`drive`.

        Purely declarative: the kernel records declared writers for
        debugging (see ``Simulator.wire_writers``).  ``None`` means
        undeclared.
        """
        return None

    def update_inputs(self) -> Optional[Iterable[Wire]]:
        """Wires whose value changes must re-arm :meth:`update`.

        Only consulted for ``demand_update`` components.  Return ``None``
        (the default) when no wire change can end the component's
        quiescence — it then relies solely on :meth:`schedule_update`.
        There is no traced fallback: clock-edge code reads wire slots
        directly, so the sensitivity list must be declared.
        """
        return None

    def quiescent(self) -> bool:
        """Whether the next :meth:`update` is provably a no-op.

        Called by the kernel right after this component's ``update()``
        ran, with the cycle's settled wires still in place.  Returning
        True removes the component from the live updater set until an
        :meth:`update_inputs` wire changes or :meth:`schedule_update` is
        called.  The default (False) keeps the component always on.
        """
        return False

    def snapshot_state(self):
        """Cheap, comparable snapshot of update-mutable registered state.

        ``Simulator(strategy="verify")`` replays the update of every
        skipped component and compares this snapshot before and after;
        any difference raises ``SchedulerDivergenceError``.  Must copy
        mutable containers (tuples of deque contents, not the deques)
        and must *exclude* clock-derived state the component resyncs on
        wake (cycle stamps, prescaler phases).  ``None`` (the default)
        opts out of state diffing — scheduling side effects are still
        checked.
        """
        return None

    def schedule_drive(self) -> None:
        """Mark this component's combinational outputs as possibly stale.

        Demand-driven components call this whenever registered state read
        by :meth:`drive` may have changed.  Safe to call at any time; a
        no-op until the component is registered with a simulator.
        """
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.add(self)

    def schedule_update(self) -> None:
        """Re-arm this component's :meth:`update` (end its quiescence).

        Demand-update components call this from every software-facing
        path that creates new sequential work (traffic submission, fault
        switches, register writes).  Safe to call at any time; a no-op
        until the component is registered with a simulator, and for
        components that did not opt into ``demand_update``.
        """
        scheduler = self._update_scheduler
        if scheduler is not None:
            scheduler.add(self)

    def wake_update(self) -> None:
        """Alias for :meth:`schedule_update` (respects overrides)."""
        self.schedule_update()

    def wake_at(self, cycle: int) -> None:
        """Arm a timed wake: re-enter the live updater set for the step
        that starts at ``sim.cycle == cycle``.

        The latest call wins (re-arming with an earlier or later cycle
        supersedes the previous wake).  ``cycle`` in the past raises
        ``ValueError``; the current cycle degenerates to
        :meth:`schedule_update`.  A no-op for unregistered components
        and for registrations whose update runs every cycle anyway
        (``exhaustive`` simulators, ``update_skipping=False``, or
        components that never opted into ``demand_update``).
        """
        sim = self._sim
        if sim is None or self._update_scheduler is None:
            return
        sim._register_wake(self, cycle)

    def sleep_until(self, cycle: int) -> None:
        """Alias for :meth:`wake_at`, reading better at sleep sites."""
        self.wake_at(cycle)

    def cancel_wake(self) -> None:
        """Drop the armed timed wake, if any (lazy heap cancellation)."""
        self._wake_cycle = None

    def burst_horizon(self) -> int:
        """Steady cycles ahead of a running W burst, starting now.

        See "Steady bursts" in the module docstring.  The default (0)
        never lets a burst leap cross this component while it is awake.
        """
        return 0

    def burst_wires(self) -> Iterable[Wire]:
        """Wires this component drives that change across a burst leap."""
        return ()

    def advance(self, cycles: int) -> None:
        """Apply *cycles* steady updates at once (see :meth:`burst_horizon`)."""

    def _upstream_first(self, wire: Wire) -> bool:
        """Whether every declared writer of *wire* advances before us.

        A forwarder or sink reads the burst its upstream posted during
        the same leap, so the upstream must come first in registration
        order; an undeclared writer cannot be checked and fails.
        """
        writers = self._sim.wire_writers(wire)
        return bool(writers) and all(w._order < self._order for w in writers)

    def drive(self) -> None:
        """Combinational phase: compute outputs from inputs + state."""

    def update(self) -> None:
        """Sequential phase: commit registered state at the clock edge."""

    def reset(self) -> None:
        """Synchronous reset: restore registered state to power-on values."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
