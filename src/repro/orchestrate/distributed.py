"""Distributed campaign execution: TCP coordinator + pull-based workers.

The third executor behind :func:`~repro.orchestrate.executor.make_executor`:
:class:`DistributedExecutor` exposes the same ``map(shards)`` contract as
the serial and process-pool executors, but serves the shards over a
localhost/LAN TCP socket (length-prefixed JSON frames, see
:mod:`repro.orchestrate.remote`) to any number of worker processes —
spawned locally over loopback, or joined from other machines with
``repro worker --connect HOST:PORT``.

Fault tolerance is the point:

* **Leases, not handoffs.**  :class:`ShardBoard` tracks every assigned
  shard with a deadline.  A worker that disconnects forfeits its leases
  immediately; one that goes silent past ``lease_timeout`` has its
  shard stolen by the next idle worker.
* **At-least-once, deterministically.**  A stolen shard may complete
  twice; runs are deterministic and results are deduplicated
  first-wins, so duplicates are invisible downstream.
* **The result store is the source of truth.**  The engine commits
  every run to the store as its shard streams in, so a killed
  coordinator re-run against the same store executes only the runs it
  never committed, and machines sharing one store never repeat each
  other's work.

Nothing here touches planning or aggregation — the engine hands this
executor the pending shards exactly as it would hand them to a pool,
and reorders the streamed results by run index exactly as before.
"""

from __future__ import annotations

import collections
import logging
import multiprocessing
import os
import queue
import socket
import threading
import time
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.events import EventLog
from ..telemetry.logs import worker_log_prefix
from .executor import START_METHOD_ENV, ShardResult, execute_shard
from .remote import (
    PROTOCOL_VERSION,
    ProtocolError,
    done_message,
    expect,
    hello_message,
    ping_message,
    recv_frame,
    result_message,
    send_frame,
    shard_message,
    status_message,
    status_request_message,
    welcome_message,
)
from .serialize import result_from_dict, shard_from_dict
from .spec import Shard

log = logging.getLogger(__name__)

#: Default seconds of silence after which an assigned shard is stolen.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Default seconds a connecting worker keeps retrying an unbound port.
DEFAULT_CONNECT_RETRY = 10.0


class DistributedTimeout(RuntimeError):
    """No worker produced a result within the configured window."""


class ShardBoard:
    """Thread-safe lease ledger for one campaign's pending shards.

    The board owns three disjoint populations: *pending* shards nobody
    holds, *leased* shards assigned to a worker with a deadline, and
    *completed* shard indexes.  ``claim`` blocks until it can hand out a
    pending shard, steal an expired lease, or report the campaign done.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
        event_hook: Optional[Callable[..., None]] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self._cond = threading.Condition()
        self._pending: Deque[Shard] = collections.deque(shards)
        #: shard index -> (shard, worker, lease deadline)
        self._leases: Dict[int, Tuple[Shard, str, float]] = {}
        self._completed: set = set()
        self.total = len(shards)
        self.lease_timeout = lease_timeout
        self._clock = clock
        #: Stolen-lease count (visible in progress/status lines).
        self.reassignments = 0
        #: ``event_hook(event, **fields)`` narrates the lease lifecycle
        #: (claimed/renewed/expired/completed/released) — typically an
        #: :class:`repro.telemetry.EventLog` appender.  Called with the
        #: board lock held, so the hook must not call back into the
        #: board.
        self._event_hook = event_hook

    def _event(self, event: str, **fields) -> None:
        if self._event_hook is not None:
            self._event_hook(event, **fields)

    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        with self._cond:
            return len(self._completed) >= self.total

    def claim(
        self,
        worker: str,
        should_stop: Optional[Callable[[], bool]] = None,
        poll: float = 0.05,
    ) -> Optional[Shard]:
        """Next shard for *worker*, or ``None`` when there is no more work.

        Blocks while every remaining shard is validly leased elsewhere;
        wakes on completions, releases, and lease expiry.  *should_stop*
        lets a serving thread bail out when the campaign is torn down.
        """
        with self._cond:
            while True:
                if len(self._completed) >= self.total:
                    return None
                if should_stop is not None and should_stop():
                    return None
                shard = self._claimable(worker)
                if shard is not None:
                    return shard
                self._cond.wait(timeout=poll)

    def _claimable(self, worker: str) -> Optional[Shard]:
        # Skip stale pending entries: a shard requeued by a dying thief
        # may have been completed by its original holder in the
        # meantime, and handing it out again would only burn a worker
        # on a result the dedup in complete() is guaranteed to drop.
        while self._pending and self._pending[0].index in self._completed:
            self._pending.popleft()
        if self._pending:
            shard = self._pending.popleft()
        else:
            expired = self._expired_lease()
            if expired is None:
                return None
            shard, holder = expired
            self.reassignments += 1
            log.warning(
                "lease on shard %d expired; reassigning to %s", shard.index, worker
            )
            self._event(
                "lease_expired", shard=shard.index, worker=holder
            )
            self._event(
                "lease_stolen", shard=shard.index, worker=worker, stolen_from=holder
            )
        self._leases[shard.index] = (
            shard,
            worker,
            self._clock() + self.lease_timeout,
        )
        self._event("lease_claimed", shard=shard.index, worker=worker)
        return shard

    def _expired_lease(self) -> Optional[Tuple[Shard, str]]:
        now = self._clock()
        for shard, worker, deadline in self._leases.values():
            if deadline <= now:
                return shard, worker
        return None

    def renew(self, index: int, worker: str) -> bool:
        """Extend *worker*'s lease on shard *index* (heartbeat arrival).

        A ping from a worker whose lease was already stolen or whose
        shard already completed is ignored — renewal never resurrects a
        forfeited assignment.
        """
        with self._cond:
            lease = self._leases.get(index)
            if lease is None or lease[1] != worker:
                return False
            self._leases[index] = (
                lease[0],
                worker,
                self._clock() + self.lease_timeout,
            )
            self._event("lease_renewed", shard=index, worker=worker)
            return True

    def complete(self, index: int, worker: str) -> bool:
        """Record shard *index* done; ``False`` if it already was.

        At-least-once execution funnels through here: when a stolen
        shard finishes twice, only the first result is accepted and the
        duplicate is dropped without a trace downstream.
        """
        with self._cond:
            if index in self._completed:
                log.info(
                    "dropping duplicate result for shard %d from %s", index, worker
                )
                self._event("duplicate_dropped", shard=index, worker=worker)
                return False
            self._completed.add(index)
            self._leases.pop(index, None)
            self._event("shard_completed", shard=index, worker=worker)
            self._cond.notify_all()
            return True

    def release_worker(self, worker: str) -> int:
        """Return all of *worker*'s leases to the pending queue."""
        with self._cond:
            forfeited = [
                index
                for index, (_shard, holder, _deadline) in self._leases.items()
                if holder == worker
            ]
            for index in forfeited:
                shard, _holder, _deadline = self._leases.pop(index)
                # Front of the queue: a forfeited shard is the oldest
                # outstanding work, so it should not wait behind the tail.
                self._pending.appendleft(shard)
            if forfeited:
                log.warning(
                    "worker %s gone; requeued shard(s) %s", worker, forfeited
                )
                self._event(
                    "leases_released", worker=worker, shards=sorted(forfeited)
                )
                self._cond.notify_all()
            return len(forfeited)

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time board state for the ``status`` wire frame."""
        with self._cond:
            now = self._clock()
            return {
                "total": self.total,
                "pending": len(self._pending),
                "completed": len(self._completed),
                "reassignments": self.reassignments,
                "leases": [
                    {
                        "shard": index,
                        "worker": worker,
                        "expires_in": round(deadline - now, 3),
                        "expired": deadline <= now,
                    }
                    for index, (_shard, worker, deadline) in sorted(
                        self._leases.items()
                    )
                ],
            }


class DistributedExecutor:
    """Coordinator side: serve shards over TCP, stream results back.

    Same ``map(shards)`` contract as the in-process executors.  Workers
    are pull clients: any mix of *local_workers* loopback processes
    spawned here and external ``repro worker`` processes on other
    machines.  ``bind()`` may be called ahead of ``map`` to learn the
    ephemeral port before any worker needs it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        local_workers: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        result_timeout: Optional[float] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        if local_workers < 0:
            raise ValueError("local_workers must be >= 0")
        self.host = host
        self.port = port
        self.local_workers = local_workers
        self.lease_timeout = lease_timeout
        self.result_timeout = result_timeout
        #: Result-store path handed to spawned loopback workers, so they
        #: short-circuit against the same shared store the engine uses.
        self.store_dir = store_dir
        self.workers = max(local_workers, 1)  # parity with the other executors
        self._server: Optional[socket.socket] = None
        self._board: Optional[ShardBoard] = None
        self._reporter = None
        self._metrics = None
        self._connected = 0
        self._status_lock = threading.Lock()
        #: Structured fleet history: lease lifecycle (via the board's
        #: event hook), worker connect/EOF, heartbeat observations.
        #: Served verbatim in ``status_reply`` frames.
        self.events = EventLog()
        #: worker id -> liveness/throughput bookkeeping for the status
        #: frame (guarded by ``_status_lock``).
        self._worker_info: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def bind(self) -> Tuple[str, int]:
        """Bind the listening socket now and return ``(host, port)``."""
        if self._server is None:
            server = socket.create_server((self.host, self.port), backlog=64)
            server.settimeout(0.1)
            self._server = server
            self.port = server.getsockname()[1]
        return self.host, self.port

    def attach_progress(self, reporter) -> None:
        """Let the engine's progress line show worker/reassignment state."""
        self._reporter = reporter

    def attach_metrics(self, metrics) -> None:
        """Count fleet events (``fleet.<event>``) and track connected
        workers (``fleet.workers_connected`` gauge) in *metrics*."""
        self._metrics = metrics

    def _record_event(self, event: str, **fields) -> None:
        self.events.append(event, **fields)
        if self._metrics is not None:
            self._metrics.counter(f"fleet.{event}").inc()

    # ------------------------------------------------------------------
    def map(self, shards: Sequence[Shard]) -> Iterator[ShardResult]:
        if not shards:
            # Nothing to serve (e.g. a re-run against a store that
            # already holds every run).  Close any pre-bound socket so workers waiting
            # on the announced port see EOF and exit cleanly now rather
            # than hanging until the coordinator process dies.
            if self._server is not None:
                self._server.close()
                self._server = None
            return
        board = ShardBoard(
            shards,
            lease_timeout=self.lease_timeout,
            event_hook=self._record_event,
        )
        self._board = board
        results: "queue.Queue[ShardResult]" = queue.Queue()
        stop = threading.Event()
        self.bind()
        server = self._server
        assert server is not None
        # Local loopback workers fork *before* any serving thread starts,
        # so the children never inherit a mid-transition lock.
        processes = self._spawn_local_workers()
        connections: List[socket.socket] = []
        accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(server, board, results, stop, connections),
            name="repro-coordinator-accept",
            daemon=True,
        )
        accept_thread.start()
        try:
            last_result = time.monotonic()
            for _ in range(len(shards)):
                while True:
                    try:
                        item = results.get(timeout=0.5)
                        break
                    except queue.Empty:
                        if (
                            self.result_timeout is not None
                            and time.monotonic() - last_result > self.result_timeout
                        ):
                            raise DistributedTimeout(
                                f"no shard completed within {self.result_timeout}s "
                                f"({self._connected} worker(s) connected)"
                            )
                last_result = time.monotonic()
                yield item
        finally:
            stop.set()
            self._server = None
            server.close()
            for conn in list(connections):
                _close_quietly(conn)
            accept_thread.join(timeout=2.0)
            self._reap_local_workers(processes)

    # ------------------------------------------------------------------
    def _accept_loop(self, server, board, results, stop, connections) -> None:
        while not stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            connections.append(conn)
            threading.Thread(
                target=self._serve_worker,
                args=(conn, board, results, stop),
                name="repro-coordinator-serve",
                daemon=True,
            ).start()

    def _serve_worker(self, conn, board: ShardBoard, results, stop) -> None:
        worker: Optional[str] = None
        try:
            first = recv_frame(conn)
            if first is not None and first.get("type") == "status":
                # A monitor, not a worker: one snapshot and goodbye.
                send_frame(conn, status_message(self.status_snapshot()))
                return
            hello = expect(first, "hello")
            if hello.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"worker speaks protocol {hello.get('version')}, "
                    f"coordinator speaks {PROTOCOL_VERSION}"
                )
            worker = str(hello["worker"])
            # Workers heartbeat at a third of the lease timeout, so a
            # healthy long-running shard renews its lease twice over
            # before it could be stolen.
            send_frame(
                conn, welcome_message(board.total, heartbeat=self.lease_timeout / 3)
            )
            now = time.monotonic()
            with self._status_lock:
                self._worker_info[worker] = {
                    "connected": True,
                    "connected_at": now,
                    "last_seen": now,
                    "shards_completed": 0,
                    "heartbeat_gap_seconds": None,
                }
            self._record_event("worker_connect", worker=worker)
            self._worker_event(+1)
            while not stop.is_set():
                shard = board.claim(worker, should_stop=stop.is_set)
                if shard is None:
                    send_frame(conn, done_message())
                    break
                send_frame(conn, shard_message(shard))
                while True:
                    reply = recv_frame(conn)
                    if reply is not None and reply.get("type") == "ping":
                        board.renew(shard.index, worker)
                        self._note_heartbeat(worker)
                        continue
                    reply = expect(reply, "result")
                    break
                if (
                    reply.get("shard") != shard.index
                    or reply.get("run_ids") != shard.run_ids
                ):
                    raise ProtocolError(
                        f"result for shard {reply.get('shard')!r} does not match "
                        f"assigned shard {shard.index}"
                    )
                decoded = [result_from_dict(entry) for entry in reply["results"]]
                if len(decoded) != len(shard.runs):
                    raise ProtocolError(
                        f"shard {shard.index}: {len(decoded)} results for "
                        f"{len(shard.runs)} runs"
                    )
                with self._status_lock:
                    info = self._worker_info.get(worker)
                    if info is not None:
                        info["last_seen"] = time.monotonic()
                        info["shards_completed"] += 1
                if board.complete(shard.index, worker):
                    results.put((shard.index, decoded))
                self._status()
        except (OSError, ProtocolError, KeyError, TypeError, ValueError) as exc:
            if not stop.is_set():
                log.warning("worker %s dropped: %s", worker or "<handshake>", exc)
        finally:
            if worker is not None:
                board.release_worker(worker)
                with self._status_lock:
                    info = self._worker_info.get(worker)
                    if info is not None:
                        info["connected"] = False
                self._record_event("worker_eof", worker=worker)
                self._worker_event(-1)
            _close_quietly(conn)

    # ------------------------------------------------------------------
    def _note_heartbeat(self, worker: str) -> None:
        """Record a ping arrival: liveness stamp + observed gap.

        The gap between successive frames from one worker is the
        fleet's heartbeat-latency signal — a healthy worker pings at
        the period the welcome requested, so a gap stretching toward
        the lease timeout is pre-steal evidence of distress.
        """
        now = time.monotonic()
        gap: Optional[float] = None
        with self._status_lock:
            info = self._worker_info.get(worker)
            if info is not None:
                gap = now - float(info["last_seen"])
                info["last_seen"] = now
                info["heartbeat_gap_seconds"] = round(gap, 3)
        if gap is not None and self._metrics is not None:
            self._metrics.histogram("fleet.heartbeat_seconds").observe(gap)

    def _worker_event(self, delta: int) -> None:
        with self._status_lock:
            self._connected += delta
            connected = self._connected
        if self._metrics is not None:
            self._metrics.gauge("fleet.workers_connected").set(connected)
        self._status()

    def status_snapshot(self) -> Dict[str, object]:
        """The fleet-health payload served to ``status`` connections.

        Worker timestamps are reported as *ago* seconds (relative to
        now) so the payload is meaningful off-machine, where the
        coordinator's monotonic clock is not.
        """
        board = self._board
        now = time.monotonic()
        with self._status_lock:
            connected = self._connected
            workers = {
                name: {
                    "connected": info["connected"],
                    "connected_ago_seconds": round(
                        now - float(info["connected_at"]), 3
                    ),
                    "last_seen_ago_seconds": round(
                        now - float(info["last_seen"]), 3
                    ),
                    "shards_completed": info["shards_completed"],
                    "heartbeat_gap_seconds": info["heartbeat_gap_seconds"],
                }
                for name, info in self._worker_info.items()
            }
        return {
            "connected_workers": connected,
            "workers": workers,
            "campaign": board.snapshot() if board is not None else None,
            "events": self.events.snapshot(),
        }

    def _status(self) -> None:
        reporter = self._reporter
        if reporter is None or not hasattr(reporter, "set_status"):
            return
        parts = [f"{self._connected} worker(s)"]
        board = self._board
        if board is not None and board.reassignments:
            parts.append(f"{board.reassignments} reassigned")
        reporter.set_status(" | ".join(parts))

    def _spawn_local_workers(self) -> List:
        if not self.local_workers:
            return []
        method = os.environ.get(START_METHOD_ENV, "").strip() or None
        context = multiprocessing.get_context(method)
        processes = []
        for index in range(self.local_workers):
            process = context.Process(
                target=worker_loop,
                args=(self.host, self.port),
                kwargs={
                    "worker_id": f"local-{index}-{os.getpid()}",
                    "store": self.store_dir,
                },
                name=f"repro-worker-{index}",
                daemon=True,
            )
            process.start()
            processes.append(process)
        return processes

    @staticmethod
    def _reap_local_workers(processes) -> None:
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=1.0)


# ----------------------------------------------------------------------
# Monitor side
# ----------------------------------------------------------------------
def request_status(host: str, port: int, timeout: float = 5.0) -> Dict:
    """Poll a live coordinator for its fleet-health snapshot.

    Opens a one-shot connection, sends the ``status`` frame and returns
    the decoded snapshot dict (see
    :meth:`DistributedExecutor.status_snapshot`).  This is what
    ``repro status --connect HOST:PORT`` runs.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        send_frame(sock, status_request_message())
        reply = expect(recv_frame(sock), "status_reply")
        status = reply.get("status")
        if not isinstance(status, dict):
            raise ProtocolError(f"status_reply carries no snapshot: {reply!r:.80}")
        return status
    finally:
        _close_quietly(sock)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def connect_with_retry(
    host: str, port: int, retry_seconds: float = DEFAULT_CONNECT_RETRY
) -> socket.socket:
    """Dial the coordinator, retrying refused connections for a while.

    Lets workers start before (or race) the coordinator's bind — the CI
    smoke job and ``repro serve`` both lean on this.
    """
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            return socket.create_connection((host, port))
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def worker_loop(
    host: str,
    port: int,
    worker_id: Optional[str] = None,
    retry_seconds: float = DEFAULT_CONNECT_RETRY,
    store=None,
) -> int:
    """Pull-execute-reply until the coordinator says ``done``.

    Every shard is executed with the exact same
    :func:`~repro.orchestrate.executor.execute_shard` the in-process
    executors use — each run on a harness that equals a fresh build,
    nothing shared across processes — so where a shard runs can never
    change what it computes.  While a shard
    executes, a heartbeat thread pings at the period the coordinator
    requested in its welcome, renewing the lease so a slow-but-healthy
    shard is never stolen.  Returns the number of shards executed.

    *store* (a :class:`~repro.orchestrate.store.ResultStore`, or a path
    to open one at) makes the worker consult the shared result store
    before simulating each run of a shard and write every simulated run
    back — so a shard stolen from a dead-but-productive worker, or one
    whose runs an earlier campaign already computed, costs only the
    missing simulations.  ``repro worker --store DIR`` is this knob.

    A coordinator that disappears during the handshake (finished its
    campaign from the store, or died) is a clean zero-shard exit, not an
    error: the worker joined a queue that simply had nothing for it.
    """
    worker_id = worker_id or default_worker_id()
    # Tag this process's log records so interleaved multi-worker output
    # on a shared terminal stays attributable.
    worker_log_prefix(worker_id)
    sock = connect_with_retry(host, port, retry_seconds=retry_seconds)
    # A store opened here from a path is closed with the connection; a
    # store object stays open for its owner.
    owned_store = store is not None and not hasattr(store, "get")
    if owned_store:
        from .store import ResultStore

        store = ResultStore.open(store)
    send_lock = threading.Lock()

    def send(payload) -> None:
        # Heartbeats and results share the socket; frames must not
        # interleave mid-write.
        with send_lock:
            send_frame(sock, payload)

    executed = 0
    try:
        send(hello_message(worker_id))
        try:
            welcome = recv_frame(sock)
        except (OSError, ProtocolError):
            return executed  # coordinator gone before offering work
        if welcome is None:
            return executed
        heartbeat = float(expect(welcome, "welcome").get("heartbeat") or 0.0)
        while True:
            message = recv_frame(sock)
            if message is None or message["type"] == "done":
                break
            if message["type"] != "shard":
                raise ProtocolError(f"unexpected message {message['type']!r}")
            shard = shard_from_dict(message["shard"])
            stop_ping = threading.Event()
            pinger: Optional[threading.Thread] = None
            if heartbeat > 0:
                pinger = threading.Thread(
                    target=_ping_until, args=(send, heartbeat, stop_ping),
                    daemon=True,
                )
                pinger.start()
            try:
                # Positional call when storeless: tests (and embedders)
                # substitute plain ``f(shard)`` executors.
                if store is None:
                    index, shard_results = execute_shard(shard)
                else:
                    index, shard_results = execute_shard(shard, store=store)
            finally:
                stop_ping.set()
                if pinger is not None:
                    pinger.join(timeout=5.0)
            send(result_message(index, shard.run_ids, shard_results))
            executed += 1
    finally:
        _close_quietly(sock)
        if owned_store:
            store.close()
    return executed


def _ping_until(send, period: float, stop: threading.Event) -> None:
    while not stop.wait(period):
        try:
            send(ping_message())
        except OSError:
            return  # coordinator gone; the main loop will notice too


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - best-effort cleanup
        pass
