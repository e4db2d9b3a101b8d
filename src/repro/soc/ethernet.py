"""RGMII-Ethernet-like AXI subordinate (paper §III-B).

The system-level experiment monitors "an RGMII Ethernet peripheral"
whose AXI window receives frame data for transmission.  This model is a
memory-mapped MAC: writes land in a TX buffer and are drained to the
(virtual) line at a configurable rate; reads return RX/status data.
What matters for the TMU is the AXI-side timing — handshake delays,
a frame-sized transfer of hundreds of beats, and fault hooks — all of
which the base :class:`~repro.axi.subordinate.Subordinate` provides.
"""

from __future__ import annotations

from typing import Optional

from ..axi.interface import AxiInterface
from ..axi.memory import SparseMemory
from ..axi.subordinate import Subordinate


class EthernetMac(Subordinate):
    """Ethernet MAC endpoint with TX-drain bookkeeping.

    Parameters
    ----------
    line_rate_beats_per_cycle:
        How many buffered TX beats the (virtual) RGMII line drains per
        clock cycle; only statistics depend on it.
    """

    # AXI window layout (offsets into the peripheral's range).
    TX_BUFFER_OFFSET = 0x0000
    TX_BUFFER_SIZE = 0x4000
    RX_BUFFER_OFFSET = 0x4000
    STATUS_OFFSET = 0x8000

    def __init__(
        self,
        name: str,
        bus: AxiInterface,
        memory: Optional[SparseMemory] = None,
        line_rate_beats_per_cycle: float = 0.25,
        **kwargs,
    ) -> None:
        kwargs.setdefault("b_latency", 2)
        kwargs.setdefault("r_latency", 2)
        kwargs.setdefault("max_outstanding", 8)
        super().__init__(name, bus, memory, **kwargs)
        self.line_rate = line_rate_beats_per_cycle
        # The TX drain is a pure function of the clock between beat
        # arrivals, so it is accounted lazily against a stamp instead
        # of ticking every cycle — a draining (but AXI-idle) MAC is
        # update-quiescent and its idle span can be leaped.
        self._tx_buffered = 0.0
        self._tx_stamp = 0

    # ------------------------------------------------------------------
    # Lazy line-drain accounting
    # ------------------------------------------------------------------
    def _sync_tx(self, stamp: int) -> None:
        """Apply the per-cycle drain for every update stamped <= *stamp*.

        Idempotent reconstruction from the clock: ``k`` skipped cycles
        drain ``k * line_rate`` (clamped at zero), exactly what ``k``
        per-cycle subtractions of an always-on update would have done.
        """
        elapsed = stamp - self._tx_stamp
        if elapsed > 0 and self._tx_buffered > 0:
            self._tx_buffered = max(
                0.0, self._tx_buffered - self.line_rate * elapsed
            )
        if elapsed > 0:
            self._tx_stamp = stamp

    @property
    def beats_received(self) -> int:
        """TX beats accepted over AXI since power-on."""
        return self.w_beats

    @property
    def frames_sent(self) -> int:
        """Frames (W bursts closed by ``last``) accepted since power-on."""
        return self.w_lasts

    @property
    def tx_beats_buffered(self) -> float:
        """TX beats awaiting the line, including any quiescent tail."""
        if self._sim is not None:
            self._sync_tx(self._sim.cycle)
        return self._tx_buffered

    def _on_w_fired(self, beat) -> None:
        super()._on_w_fired(beat)
        self._tx_buffered += 1

    def advance(self, cycles: int) -> None:
        # Each steady beat buffers one TX beat and drains line_rate, in
        # that order, exactly as the per-cycle update does.
        super().advance(cycles)
        sim = self._sim
        self._sync_tx(sim.cycle)
        buffered = self._tx_buffered
        for _ in range(cycles):
            buffered = max(0.0, buffered + 1 - self.line_rate)
        self._tx_buffered = buffered
        self._tx_stamp = sim.cycle + cycles

    def update(self) -> None:
        now = self._sim.cycle + 1 if self._sim is not None else self._tx_stamp + 1
        self._sync_tx(now - 1)  # catch up any slept span first
        super().update()
        if self._tx_buffered > 0:
            self._tx_buffered = max(0.0, self._tx_buffered - self.line_rate)
        self._tx_stamp = now

    # quiescent() is inherited unchanged: the TX drain no longer needs
    # the update phase, so only the AXI-side conditions matter.  So is
    # snapshot_state(): _tx_buffered/_tx_stamp are clock-derived
    # (lazily resynced), and the beat arrivals that feed them are the
    # base subordinate's snapshotted beat counters.

    def _take_reset(self) -> None:
        super()._take_reset()
        self._tx_buffered = 0.0
        if self._sim is not None:
            self._tx_stamp = self._sim.cycle + 1

    def reset(self) -> None:
        super().reset()
        self._tx_buffered = 0.0
        self._tx_stamp = 0
