"""The harness slot: build a campaign test bench once, reset it between runs.

A fault campaign is thousands of short injections on identical test
benches.  Building a bench — the :class:`~repro.sim.kernel.Simulator`,
its interfaces, the TMU with both guards and their OTTs, the
subordinate and the reset unit — costs more than simulating a short
run on it.  So every campaign run takes its bench from one
:class:`HarnessSlot` per thread, keyed by everything the bench's
constructor depends on (:func:`harness_key`):

* on a key hit the slot's bench is power-on reset (its ``reset()``:
  :meth:`Simulator.reset` plus the bench's own observation counters)
  and handed out again;
* on a miss the slot is rebuilt with the caller's *build* function.

Campaign plans are config-major, so one slot takes nearly every hit and
holds one bench at a time.

The reset invariant — a power-on reset bench is indistinguishable from
a fresh build, attribute by attribute, object identities aside — is
what keeps campaign results independent of execution order.
``tests/faults/test_harness_reuse.py`` holds it to that structurally,
and differentially against a fresh build per run.

Nothing outlives a run but the reset bench: a run that raises drops
the slot (the next run builds afresh), and a probe leased with the
bench is unregistered when the run ends.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Iterator, Mapping, Optional, Tuple

#: Harness keyword values that key by value; anything else (a tracer
#: object) keys by identity.
_SCALARS = (type(None), bool, int, float, str)


class _ByIdentity:
    """Key element equal only to another wrapping the very same object."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __eq__(self, other: object) -> bool:
        return type(other) is _ByIdentity and other.obj is self.obj

    def __hash__(self) -> int:
        return id(self.obj)


def harness_key(
    kind: str,
    config: Any,
    harness_kwargs: Mapping[str, Any],
    reorder_depth: int = 0,
    beats: Optional[int] = None,
) -> Tuple:
    """Everything a campaign bench's constructor depends on.

    *config* is the canonical config dict (``RunSpec.config``); a
    config object without one keys by identity.  *harness_kwargs* are
    the constructor's keyword arguments: JSON scalars key by value,
    other objects (a ``sim_tracer``) by identity.  *beats* matters only
    for system benches, whose TMU budgets ``system_tmu_config`` sizes
    to the frame.
    """
    return (
        kind,
        config if isinstance(config, dict) else _ByIdentity(config),
        tuple(
            sorted(
                (name, value if isinstance(value, _SCALARS) else _ByIdentity(value))
                for name, value in harness_kwargs.items()
            )
        ),
        reorder_depth,
        beats,
    )


class HarnessSlot(threading.local):
    """One reusable bench per thread (see the module docstring).

    Thread-local because a process may run campaigns on several
    threads; each campaign thread gets its own slot, so one thread's
    lease never resets a bench another thread is running.
    """

    key: Optional[Tuple] = None
    harness: Any = None

    def drop(self) -> None:
        """Empty the slot; the next lease builds afresh."""
        self.key = self.harness = None

    @contextlib.contextmanager
    def lease(
        self, key: Tuple, build: Callable[[], Any], probe=None
    ) -> Iterator[Any]:
        """The bench for one run: reset on a key hit, built on a miss.

        *probe* rides on the bench's simulator for this run only.  A
        run that raises drops the slot, so a half-run bench is never
        reused.
        """
        try:
            if self.harness is not None and key == self.key:
                self.harness.reset()
            else:
                self.drop()  # a failing build leaves the slot empty
                self.harness = build()
                self.key = key
            harness = self.harness
            if probe is not None:
                harness.sim.add_probe(probe)
            try:
                yield harness
            finally:
                if probe is not None:
                    harness.sim.remove_probe(probe)
        except BaseException:
            self.drop()
            raise


#: The slot every campaign run takes its bench from.
HARNESSES = HarnessSlot()
