"""Wires: the atomic state elements of the two-phase simulation kernel.

A :class:`Wire` carries a value driven combinationally during the *drive*
phase of a cycle.  Wires are deliberately dumb containers; all semantics
live in components.  Two pieces of bookkeeping make the dirty-set
scheduler in :mod:`repro.sim.kernel` possible:

* **Change detection** — ``wire.value = x`` is a property assignment
  that compares against the current value and, when it differs, pushes
  the wire's *reader* components onto the owning simulator's pending
  worklist.  This replaces the kernel's former whole-simulation
  snapshot-and-compare per settle sweep.
* **Read tracing** — while the kernel runs a component's ``drive()``
  under tracing (the default for components that do not declare
  :meth:`~repro.sim.component.Component.inputs`), every ``wire.value``
  read records that component in ``wire.readers``.  Reader sets grow
  monotonically across the run, so they always over-approximate the
  wires a component's *most recent* evaluation depended on — which is
  exactly the property that makes skipping a component safe.

A wire belongs to at most one live simulator at a time: registering it
with a second :class:`~repro.sim.kernel.Simulator` repoints its dirty
sink at the new simulator's worklist.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

#: Single-element cell holding the component currently executing a
#: *traced* ``drive()``, or ``None`` outside traced drives.  A list (not
#: a bare module global) so the kernel and the property getter share one
#: mutable slot without attribute lookups on a module object per read.
_ACTIVE_READER: List[Any] = [None]


class Wire:
    """A named, typed value container driven during the combinational phase.

    Parameters
    ----------
    name:
        Hierarchical name used for tracing and VCD dumps.
    init:
        Reset value.  ``reset()`` restores it.
    width:
        Bit width hint for waveform dumps (bools are width 1).
    """

    __slots__ = (
        "name", "_value", "init", "width", "readers", "_dirty_sink",
        "update_readers", "_update_sink", "_change_log",
    )

    def __init__(self, name: str, init: Any = False, width: int = 1) -> None:
        self.name = name
        self.init = init
        self._value = init
        self.width = width
        #: Components whose ``drive()`` reads this wire (traced or declared).
        self.readers: set = set()
        #: The owning simulator's pending worklist (a set of components),
        #: or ``None`` when the wire is unregistered / exhaustively swept.
        self._dirty_sink: Optional[set] = None
        #: Components whose ``update()`` must be re-armed when this wire
        #: changes (declared via Component.update_inputs; never traced).
        self.update_readers: set = set()
        #: The owning simulator's live-updater set, or ``None`` for
        #: unregistered wires / exhaustive simulators.
        self._update_sink: Optional[set] = None
        #: The owning simulator's changed-wire set, or ``None`` when no
        #: probe asked for change tracking (see Simulator.track_changes).
        self._change_log: Optional[set] = None

    @property
    def value(self) -> Any:
        reader = _ACTIVE_READER[0]
        if reader is not None:
            self.readers.add(reader)
        return self._value

    @value.setter
    def value(self, new: Any) -> None:
        old = self._value
        # Identity first: mirrors tuple comparison semantics (and spares
        # payload dataclass __eq__ when the same object is re-driven).
        if new is not old and new != old:
            self._value = new
            sink = self._dirty_sink
            if sink is not None:
                sink.update(self.readers)
            usink = self._update_sink
            if usink is not None and self.update_readers:
                usink.update(self.update_readers)
            log = self._change_log
            if log is not None:
                log.add(self)

    def reset(self) -> None:
        self.value = self.init

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Wire({self.name!r}, value={self._value!r})"


class Channel:
    """A valid/ready-handshaked channel carrying one payload per transfer.

    The *source* drives ``valid`` and ``payload``; the *sink* drives
    ``ready``.  A transfer *fires* in a cycle where both are asserted at
    the clock edge; components observe :meth:`fired` during their
    ``update`` phase.

    AXI4 semantics encoded here:

    * the source must keep ``valid`` asserted (with stable payload) until
      the handshake completes — enforcement is the protocol checker's
      job, not the channel's;
    * ``ready`` may be asserted combinationally in response to ``valid``.

    ``burst`` carries a steady burst's payloads across a kernel burst
    leap (see "Steady bursts" in :mod:`repro.sim.component`): the
    source's ``advance(k)`` posts the *k* beats it would have driven,
    each forwarder hands them on to its downstream channel, and the
    sink takes them, leaving ``None`` behind.
    """

    __slots__ = ("name", "valid", "ready", "payload", "burst")

    def __init__(self, name: str) -> None:
        self.name = name
        self.valid = Wire(f"{name}.valid", False)
        self.ready = Wire(f"{name}.ready", False)
        self.payload = Wire(f"{name}.payload", None, width=64)
        self.burst: Optional[list] = None

    def wires(self) -> Iterator[Wire]:
        yield self.valid
        yield self.ready
        yield self.payload

    def drive(self, payload: Any) -> None:
        """Source-side helper: assert valid with *payload*."""
        self.valid.value = True
        self.payload.value = payload

    def idle(self) -> None:
        """Source-side helper: deassert valid."""
        self.valid.value = False
        self.payload.value = None

    def fired(self) -> bool:
        """True when a transfer completes this cycle (valid and ready).

        A clock-edge primitive: meant for ``update()`` / probes, so it
        reads the wire slots directly and does not participate in
        drive-phase read tracing.  A ``drive()`` must sample
        ``valid.value`` / ``ready.value`` individually instead.
        """
        return bool(self.valid._value and self.ready._value)

    def beat(self) -> Optional[Any]:
        """The payload transferred this cycle, or None if no transfer.

        Clock-edge primitive; see :meth:`fired`.
        """
        return self.payload._value if self.fired() else None

    def reset(self) -> None:
        self.valid.reset()
        self.ready.reset()
        self.payload.reset()
        self.burst = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name!r}, valid={self.valid.value}, "
            f"ready={self.ready.value})"
        )
