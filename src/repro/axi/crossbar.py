"""N×M AXI4 crossbar with address decode and round-robin arbitration.

Models the Cheshire platform's central interconnect (paper Fig. 10):

* address-decoded routing of AW/AR to subordinate ports, with a DECERR
  default subordinate for unmapped addresses;
* manager-index ID extension so responses route back unambiguously
  (downstream ID = ``manager_index << ID_SHIFT | original ID``);
* per-subordinate W-channel burst locking (AXI4 forbids interleaving
  write data of different bursts);
* round-robin arbitration on every contended port.

Ordering note: a manager issuing same-ID transactions to *different*
subordinates could observe reordered completions; real crossbars stall
that case.  The workloads here (like Cheshire's) give each manager
distinct ID streams per target, so the hazard is not exercised; the
protocol checker still flags it if it ever occurs.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..sim.component import UNBOUNDED, Component
from .channels import BBeat, RBeat, remap_id
from .interface import AxiInterface
from .types import Resp

#: Bits reserved for the original ID when prepending the manager index.
ID_SHIFT = 16
_ID_MASK = (1 << ID_SHIFT) - 1


def extend_id(manager_index: int, orig_id: int) -> int:
    """Downstream ID carrying the issuing manager's port index."""
    if orig_id > _ID_MASK:
        raise ValueError(f"original ID {orig_id} exceeds {ID_SHIFT} bits")
    return (manager_index << ID_SHIFT) | orig_id


def split_id(extended: int) -> Tuple[int, int]:
    """Inverse of :func:`extend_id`: (manager_index, original ID)."""
    return extended >> ID_SHIFT, extended & _ID_MASK


@dataclasses.dataclass(frozen=True)
class AddressRange:
    """One subordinate's address window."""

    base: int
    size: int

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class _XbarChannel(Component):
    """Drive-only child covering one AXI channel of the crossbar.

    The crossbar registers one of these per channel (aw/w/b/ar/r) so the
    kernel can re-arbitrate exactly the channels whose inputs moved: a W
    beat streaming through does not re-run address decode, and an idle
    response channel costs nothing.  All state lives in the parent; the
    parent's update() re-schedules every channel when it mutates
    routing/arbitration state.
    """

    demand_driven = True
    phase_period = 1

    def __init__(self, xbar: "Crossbar", channel: str) -> None:
        super().__init__(f"{xbar.name}.{channel}")
        self.xbar = xbar
        self.channel = channel

    def inputs(self):
        xbar, ch = self.xbar, self.channel
        if ch in ("aw", "ar", "w"):
            for src in xbar._mgr_ch[ch]:
                yield from (src.valid, src.payload)
            for dst in xbar._sub_ch[ch]:
                yield dst.ready
        else:
            for src in xbar._sub_ch[ch]:
                yield from (src.valid, src.payload)
            for dst in xbar._mgr_ch[ch]:
                yield dst.ready

    def outputs(self):
        xbar, ch = self.xbar, self.channel
        if ch in ("aw", "ar", "w"):
            for dst in xbar._sub_ch[ch]:
                yield from (dst.valid, dst.payload)
            for src in xbar._mgr_ch[ch]:
                yield src.ready
        else:
            for dst in xbar._mgr_ch[ch]:
                yield from (dst.valid, dst.payload)
            for src in xbar._sub_ch[ch]:
                yield src.ready

    def drive(self) -> None:
        xbar, ch = self.xbar, self.channel
        if ch in ("aw", "ar"):
            xbar._drive_addr(ch)
        elif ch == "w":
            xbar._drive_w()
        else:
            xbar._drive_resp(ch)


#: Route index used for addresses no subordinate claims.
DEFAULT_ROUTE = -1

#: The five AXI4 channels, in request-then-response order.
CHANNELS = ("aw", "ar", "w", "b", "r")


class Crossbar(Component):
    """AXI4 crossbar connecting manager ports to subordinate ports.

    Parameters
    ----------
    managers:
        Upstream interfaces (managers drive their request channels).
    subordinates:
        ``(interface, address_range)`` pairs for each downstream port.
    """

    demand_driven = True
    demand_update = True
    #: Pure arbitration over the channel wires — translation invariant.
    phase_period = 1

    def __init__(
        self,
        name: str,
        managers: Sequence[AxiInterface],
        subordinates: Sequence[Tuple[AxiInterface, AddressRange]],
        qos_arbitration: bool = False,
    ) -> None:
        super().__init__(name)
        if not managers or not subordinates:
            raise ValueError("crossbar needs at least one port per side")
        self.qos_arbitration = qos_arbitration
        self.managers = list(managers)
        self.subordinates = [bus for bus, _ in subordinates]
        self.ranges = [rng for _, rng in subordinates]
        n_mgr, n_sub = len(self.managers), len(self.subordinates)

        # Per-channel wire bundles, precomputed for the hot arbitration
        # loops and the per-channel scheduling children.
        self._mgr_ch = {
            ch: [getattr(bus, ch) for bus in self.managers] for ch in CHANNELS
        }
        self._sub_ch = {
            ch: [getattr(bus, ch) for bus in self.subordinates] for ch in CHANNELS
        }
        self._channels = [_XbarChannel(self, ch) for ch in CHANNELS]
        # update() commits state only on fired handshakes; these
        # channel pairs gate its quiescence and their valid/ready wires
        # wake it.  Watching the readys too lets the crossbar sleep
        # through a held-valid (deaf endpoint) stall — the only event
        # that can complete such a handshake is its ready rising.
        self._watch_channels = [
            ch
            for group in (self._mgr_ch, self._sub_ch)
            for channels in group.values()
            for ch in channels
        ]

        # Registered routing/arbitration state.
        self._mgr_w_route: List[Deque[int]] = [deque() for _ in range(n_mgr)]
        self._sub_w_owner: List[Deque[int]] = [deque() for _ in range(n_sub)]
        self._aw_rr = [0] * n_sub
        self._ar_rr = [0] * n_sub
        self._b_rr = [0] * n_mgr
        self._r_rr = [0] * n_mgr
        # Default-subordinate (DECERR) bookkeeping.
        self._decerr_b: Deque[int] = deque()  # extended IDs awaiting DECERR B
        self._decerr_r: Deque[int] = deque()
        self._decerr_w_drain = 0
        self.decode_errors = 0
        # Same-ID ordering: outstanding target per (manager, ID, dir).
        # AXI4 requires same-ID responses in request order; the crossbar
        # enforces it by granting a same-ID request only to the target
        # its outstanding predecessors went to.
        self._w_outstanding: Dict[Tuple[int, int], Deque[int]] = {}
        self._r_outstanding: Dict[Tuple[int, int], Deque[int]] = {}

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def route(self, addr: int) -> int:
        for index, rng in enumerate(self.ranges):
            if rng.contains(addr):
                return index
        return DEFAULT_ROUTE

    def wires(self):
        for bus in self.managers:
            yield from bus.wires()
        for bus in self.subordinates:
            yield from bus.wires()

    def children(self):
        return self._channels

    def inputs(self):
        # Wire sensitivity lives on the per-channel children; the parent
        # keeps a whole-crossbar drive() only for one-shot seeding and
        # standalone use, and must not re-trigger on every wire change.
        return ()

    def outputs(self):
        for child in self._channels:
            yield from child.outputs()

    def update_inputs(self):
        return [
            wire
            for ch in self._watch_channels
            for wire in (ch.valid, ch.ready)
        ]

    def quiescent(self):
        # Routing and arbitration state move only on fired handshakes;
        # while no channel holds valid & ready nothing can fire next
        # edge, whatever the DECERR queues or round-robin pointers
        # currently hold — and any change that could complete a
        # handshake passes through a watched wire first.
        return not any(
            ch.valid._value and ch.ready._value for ch in self._watch_channels
        )

    def _forwarded_w(self):
        """The (manager, subordinate) W channels of the one forwarded
        stream, when that is the only handshake firing; else None."""
        fired = []
        for ch in self._watch_channels:
            if ch.valid._value and ch.ready._value:
                fired.append(ch)
                if len(fired) > 2:
                    return None
        if len(fired) != 2:
            return None
        # Manager-side channels precede subordinate-side ones.
        mgr_w, sub_w = fired
        mgr_ws, sub_ws = self._mgr_ch["w"], self._sub_ch["w"]
        if mgr_w not in mgr_ws or sub_w not in sub_ws:
            return None
        m, s = mgr_ws.index(mgr_w), sub_ws.index(sub_w)
        owners, route = self._sub_w_owner[s], self._mgr_w_route[m]
        if not (owners and owners[0] == m and route and route[0] == s):
            return None
        return mgr_w, sub_w

    def burst_horizon(self) -> int:
        # Mid-burst W beats commit nothing, so the crossbar bounds no
        # burst — provided the only handshake firing is one forwarded
        # W stream (its manager side and its subordinate side).
        pair = self._forwarded_w()
        if pair is None or not self._upstream_first(pair[0].payload):
            return 0
        return UNBOUNDED

    def burst_wires(self):
        return (self._forwarded_w()[1].payload,)

    def advance(self, cycles: int) -> None:
        mgr_w, sub_w = self._forwarded_w()
        sub_w.burst, mgr_w.burst = mgr_w.burst, None

    def snapshot_state(self):
        return (
            tuple(tuple(queue) for queue in self._mgr_w_route),
            tuple(tuple(queue) for queue in self._sub_w_owner),
            tuple(self._aw_rr),
            tuple(self._ar_rr),
            tuple(self._b_rr),
            tuple(self._r_rr),
            tuple(self._decerr_b),
            tuple(self._decerr_r),
            self._decerr_w_drain,
            self.decode_errors,
            tuple(sorted(
                (key, tuple(queue)) for key, queue in self._w_outstanding.items()
            )),
            tuple(sorted(
                (key, tuple(queue)) for key, queue in self._r_outstanding.items()
            )),
        )

    def _schedule_channels(self) -> None:
        """Invalidate every per-channel drive after a routing-state change.

        Conservative on purpose: the channels share the parent's
        arbitration state (W routing follows AW grants, response
        round-robin follows completions), so any committed handshake
        re-schedules all five.  Wire-level sensitivity still keeps idle
        channels from re-running in steady state.
        """
        for child in self._channels:
            child.schedule_drive()

    # ------------------------------------------------------------------
    # Drive: pure combinational forwarding + arbitration
    # ------------------------------------------------------------------
    def _addr_winner(self, channel: str, sub_index: int, rr: int) -> Optional[int]:
        """Pick among managers requesting *sub_index*.

        Round-robin by default; with QoS arbitration the highest AxQOS
        wins and round-robin only breaks ties (AXI4 QoS semantics).
        """
        sources = self._mgr_ch[channel]
        n_mgr = len(sources)
        winner = None
        winner_qos = -1
        for offset in range(n_mgr):
            m = (rr + offset) % n_mgr
            src = sources[m]
            beat = src.payload.value
            if src.valid.value and beat is not None and self.route(beat.addr) == sub_index:
                if not self.qos_arbitration:
                    return m
                if beat.qos > winner_qos:
                    winner = m
                    winner_qos = beat.qos
        return winner

    def drive(self) -> None:
        self._drive_addr("aw")
        self._drive_addr("ar")
        self._drive_w()
        self._drive_resp("b")
        self._drive_resp("r")

    def _w_target_allowed(self, manager_index: int, target: int) -> bool:
        """Write-deadlock avoidance: one W target per manager at a time.

        Granting a manager AWs to two different subordinates while both
        subs' W channels are locked to *other* managers can form a
        circular wait (a classic AXI crossbar deadlock).  The standard
        interconnect rule breaks the cycle: a manager's new AW is only
        granted when its pending W streams all go to the same target.
        """
        route = self._mgr_w_route[manager_index]
        return all(entry == target for entry in route)

    def _same_id_allowed(
        self, channel: str, manager_index: int, txn_id: int, target: int
    ) -> bool:
        """Same-ID ordering: all outstanding same-ID requests of this
        manager must target the same port before a new one is granted."""
        table = self._w_outstanding if channel == "aw" else self._r_outstanding
        queue = table.get((manager_index, txn_id))
        return not queue or queue[0] == target

    def _grant_allowed(self, channel: str, m: int, beat, target: int) -> bool:
        if not self._same_id_allowed(channel, m, beat.id, target):
            return False
        if channel == "aw" and not self._w_target_allowed(m, target):
            return False
        return True

    def _drive_addr(self, channel: str) -> None:
        rr_state = self._aw_rr if channel == "aw" else self._ar_rr
        sources = self._mgr_ch[channel]
        granted = [False] * len(sources)
        for s, dst in enumerate(self._sub_ch[channel]):
            winner = self._addr_winner(channel, s, rr_state[s])
            if winner is not None:
                beat = sources[winner].payload.value
                if not self._grant_allowed(channel, winner, beat, s):
                    winner = None
            if winner is None:
                dst.idle()
                continue
            src = sources[winner]
            beat = src.payload.value
            dst.drive(remap_id(beat, extend_id(winner, beat.id)))
            src.ready.value = dst.ready.value
            granted[winner] = True
        # Default subordinate: accept unmapped requests (same gating).
        for m, src in enumerate(sources):
            if granted[m]:
                continue
            beat = src.payload.value
            if (
                src.valid.value
                and beat is not None
                and self.route(beat.addr) == DEFAULT_ROUTE
                and self._grant_allowed(channel, m, beat, DEFAULT_ROUTE)
            ):
                src.ready.value = True
            else:
                src.ready.value = False

    def _drive_w(self) -> None:
        # Forward each subordinate's locked W stream.
        fed_by: List[Optional[int]] = [None] * len(self.managers)
        for s, sub in enumerate(self.subordinates):
            if self._sub_w_owner[s]:
                owner = self._sub_w_owner[s][0]
                route = self._mgr_w_route[owner]
                if route and route[0] == s:
                    fed_by[owner] = s
        for m, mgr in enumerate(self.managers):
            s = fed_by[m]
            if s is not None:
                sub = self.subordinates[s]
                sub.w.valid.value = mgr.w.valid.value
                sub.w.payload.value = mgr.w.payload.value
                mgr.w.ready.value = sub.w.ready.value
            else:
                route = self._mgr_w_route[m]
                if route and route[0] == DEFAULT_ROUTE:
                    mgr.w.ready.value = True  # drain beats of unmapped writes
                else:
                    mgr.w.ready.value = False
        for s, sub in enumerate(self.subordinates):
            if not self._sub_w_owner[s] or fed_by[self._sub_w_owner[s][0]] != s:
                sub.w.idle()

    def _resp_winner(self, channel: str, mgr_index: int, rr: int) -> Optional[int]:
        sources = self._sub_ch[channel]
        n_sub = len(sources)
        for offset in range(n_sub):
            s = (rr + offset) % n_sub
            src = sources[s]
            beat = src.payload.value
            if src.valid.value and beat is not None:
                if split_id(beat.id)[0] == mgr_index:
                    return s
        return None

    def _drive_resp(self, channel: str) -> None:
        rr_state = self._b_rr if channel == "b" else self._r_rr
        sources = self._sub_ch[channel]
        used_subs: List[Optional[int]] = [None] * len(sources)
        for m, dst in enumerate(self._mgr_ch[channel]):
            winner = self._resp_winner(channel, m, rr_state[m])
            if winner is not None:
                src = sources[winner]
                beat = src.payload.value
                dst.drive(remap_id(beat, split_id(beat.id)[1]))
                src.ready.value = dst.ready.value
                used_subs[winner] = m
                continue
            # DECERR responses for unmapped requests.
            queue = self._decerr_b if channel == "b" else self._decerr_r
            pending = None
            for ext in queue:
                if split_id(ext)[0] == m:
                    pending = ext
                    break
            serviceable = (
                channel == "r" or self._decerr_w_drain_done_for(pending)
            )
            if pending is not None and pending == queue[0] and serviceable:
                orig = split_id(pending)[1]
                if channel == "b":
                    dst.drive(BBeat(id=orig, resp=Resp.DECERR))
                else:
                    dst.drive(RBeat(id=orig, data=0, resp=Resp.DECERR, last=True))
            else:
                dst.idle()
        for s, src in enumerate(sources):
            if used_subs[s] is None:
                src.ready.value = False

    def _decerr_w_drain_done_for(self, pending: Optional[int]) -> bool:
        # A DECERR B may only go out once the write's W beats are drained.
        return pending is None or self._decerr_w_drain == 0

    # ------------------------------------------------------------------
    # Update: commit arbitration and routing state on fired handshakes
    # ------------------------------------------------------------------
    def update(self) -> None:
        # Clock-edge code: wire reads go straight to the slots (no
        # drive-phase tracing needed), mirroring Channel.fired().
        n_mgr = len(self.managers)
        changed = False
        # Managers whose W beat was forwarded to a subordinate this
        # cycle must not also trigger the DECERR drain bookkeeping below
        # (the same handshake fires on both sides of the crossbar).
        w_forwarded = set()
        for s, sub in enumerate(self.subordinates):
            if (sub.aw.valid._value and sub.aw.ready._value):
                m, orig = split_id(sub.aw.payload._value.id)
                self._sub_w_owner[s].append(m)
                self._mgr_w_route[m].append(s)
                self._w_outstanding.setdefault((m, orig), deque()).append(s)
                self._aw_rr[s] = (m + 1) % n_mgr
                changed = True
            if (sub.ar.valid._value and sub.ar.ready._value):
                m, orig = split_id(sub.ar.payload._value.id)
                self._r_outstanding.setdefault((m, orig), deque()).append(s)
                self._ar_rr[s] = (m + 1) % n_mgr
                changed = True
            if (sub.w.valid._value and sub.w.ready._value):
                owner = self._sub_w_owner[s][0]
                w_forwarded.add(owner)
                if sub.w.payload._value.last:
                    # Mid-burst beats commit nothing; only the last beat
                    # moves routing state.
                    self._sub_w_owner[s].popleft()
                    self._mgr_w_route[owner].popleft()
                    changed = True
        for m, mgr in enumerate(self.managers):
            # Unmapped requests accepted this cycle.
            if (mgr.aw.valid._value and mgr.aw.ready._value):
                beat = mgr.aw.payload._value
                if self.route(beat.addr) == DEFAULT_ROUTE:
                    self._decerr_b.append(extend_id(m, beat.id))
                    self._mgr_w_route[m].append(DEFAULT_ROUTE)
                    self._w_outstanding.setdefault((m, beat.id), deque()).append(
                        DEFAULT_ROUTE
                    )
                    self._decerr_w_drain += 1
                    self.decode_errors += 1
                    changed = True
            if (mgr.ar.valid._value and mgr.ar.ready._value):
                beat = mgr.ar.payload._value
                if self.route(beat.addr) == DEFAULT_ROUTE:
                    self._decerr_r.append(extend_id(m, beat.id))
                    self._r_outstanding.setdefault((m, beat.id), deque()).append(
                        DEFAULT_ROUTE
                    )
                    self.decode_errors += 1
                    changed = True
            if (mgr.w.valid._value and mgr.w.ready._value) and m not in w_forwarded:
                route = self._mgr_w_route[m]
                if route and route[0] == DEFAULT_ROUTE and mgr.w.payload._value.last:
                    route.popleft()
                    self._decerr_w_drain -= 1
                    changed = True
            if (mgr.b.valid._value and mgr.b.ready._value):
                beat = mgr.b.payload._value
                self._pop_outstanding(self._w_outstanding, m, beat.id)
                if (
                    beat.resp == Resp.DECERR
                    and self._decerr_b
                    and split_id(self._decerr_b[0]) == (m, beat.id)
                ):
                    self._decerr_b.popleft()
                else:
                    self._b_rr[m] = (self._b_rr[m] + 1) % len(self.subordinates)
                changed = True
            if (mgr.r.valid._value and mgr.r.ready._value):
                beat = mgr.r.payload._value
                if beat.last:
                    self._pop_outstanding(self._r_outstanding, m, beat.id)
                    changed = True
                if (
                    beat.resp == Resp.DECERR
                    and self._decerr_r
                    and split_id(self._decerr_r[0]) == (m, beat.id)
                ):
                    self._decerr_r.popleft()
                    changed = True
                elif beat.last:
                    self._r_rr[m] = (self._r_rr[m] + 1) % len(self.subordinates)
        if changed:
            self._schedule_channels()

    @staticmethod
    def _pop_outstanding(table, m: int, txn_id: int) -> None:
        queue = table.get((m, txn_id))
        if queue:
            queue.popleft()
            if not queue:
                del table[(m, txn_id)]

    def reset(self) -> None:
        for queue in self._mgr_w_route + self._sub_w_owner:
            queue.clear()
        self._aw_rr = [0] * len(self.subordinates)
        self._ar_rr = [0] * len(self.subordinates)
        self._b_rr = [0] * len(self.managers)
        self._r_rr = [0] * len(self.managers)
        self._decerr_b.clear()
        self._decerr_r.clear()
        self._decerr_w_drain = 0
        self.decode_errors = 0
        self._w_outstanding.clear()
        self._r_outstanding.clear()
        self._schedule_channels()
        self.schedule_update()
