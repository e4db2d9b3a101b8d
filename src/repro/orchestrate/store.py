"""Run-granular result store: the campaign engine's only persistence.

Results are keyed by :meth:`~repro.orchestrate.spec.RunSpec.param_key` —
a content hash of the simulation-determining parameters, independent of
the enclosing campaign — so the engine can compute the *frontier* of
any sweep: fetch the intersection from the store, simulate only what is
genuinely new.  The same property makes the store the crash-safe resume
substrate: every run is committed as its result streams in, so a killed
campaign re-run against the same store executes exactly the runs it
never committed, and a complete store executes nothing.

Two tiers, consulted in order:

* **Hot** — a bounded in-memory LRU of decoded result objects.  Free
  repeats within one process (aggregation queries, streamed exports).
* **Warm** — an append-only SQLite table in WAL mode.  WAL plus
  ``INSERT OR IGNORE`` makes the file safe for concurrent writers
  sharing a directory (two campaigns run against one store): the
  first result for a key wins and later duplicates are dropped.
  Defects are demoted to logged misses *per row* — a truncated payload,
  a foreign or future format marker, or a result that fails to
  deserialize costs one re-simulated run, never the store.

Everything returned is a full-fidelity result object (the
:mod:`~repro.orchestrate.serialize` round-trip codec), so a store hit is
byte-identical to a fresh simulation all the way into campaign JSON
exports — scheduler statistics included.
"""

from __future__ import annotations

import collections
import json
import logging
import sqlite3
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, Sequence, Union

from .serialize import result_from_dict, result_to_dict
from .spec import RunSpec

log = logging.getLogger(__name__)

#: Row-payload format marker.  Format 2 added the per-run scheduler
#: statistics (``sim_leaps``/``sim_cycles_leaped``) to every result.
STORE_FORMAT = 2

#: SQLite schema version (``PRAGMA user_version``).
SCHEMA_VERSION = 1

#: Default hot-tier capacity (decoded result objects).
DEFAULT_HOT_CAPACITY = 4096

#: Warm-tier database filename inside the store root.
DB_NAME = "store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    param_key TEXT PRIMARY KEY,
    run_id    TEXT NOT NULL,
    format    INTEGER NOT NULL,
    payload   TEXT NOT NULL
) WITHOUT ROWID
"""


class ResultStore:
    """Tiered, append-only store of injection results keyed per run.

    Open one with :meth:`open`; ``get``/``put`` take the campaign's own
    :class:`~repro.orchestrate.spec.RunSpec` objects, so callers never
    handle keys or payload dicts.  *metrics* (a
    :class:`~repro.telemetry.MetricsRegistry`) receives per-tier
    ``store.hot_hit`` / ``store.warm_hit`` / ``store.miss`` /
    ``store.corrupt`` / ``store.put`` / ``store.duplicate`` counters plus a ``store.lookup_seconds``
    histogram — purely observational, like every other instrument here.
    """

    def __init__(
        self,
        root: Union[str, Path],
        hot_capacity: int = DEFAULT_HOT_CAPACITY,
        metrics=None,
    ) -> None:
        if hot_capacity < 0:
            raise ValueError("hot_capacity must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self.hot_capacity = hot_capacity
        self._hot: "collections.OrderedDict[str, Any]" = collections.OrderedDict()
        self._lock = threading.Lock()
        self._db = self._connect()

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        hot_capacity: int = DEFAULT_HOT_CAPACITY,
        metrics=None,
    ) -> "ResultStore":
        """Open (creating if needed) the store rooted at *root*."""
        return cls(root, hot_capacity=hot_capacity, metrics=metrics)

    # ------------------------------------------------------------------
    # Warm tier (SQLite, WAL)
    # ------------------------------------------------------------------
    @property
    def db_path(self) -> Path:
        return self.root / DB_NAME

    def _connect(self) -> sqlite3.Connection:
        try:
            return self._open_db()
        except sqlite3.DatabaseError as exc:
            # The whole file is unreadable (not SQLite, hopeless
            # corruption).  Losing cached results costs re-simulation
            # only, so move the wreck aside and start fresh rather than
            # wedging every campaign that names this store.
            wreck = self.db_path.with_suffix(".sqlite.corrupt")
            log.warning(
                "store database %s is unusable (%s); moving it to %s and "
                "starting empty", self.db_path, exc, wreck.name,
            )
            self.db_path.replace(wreck)
            return self._open_db()

    def _open_db(self) -> sqlite3.Connection:
        db = sqlite3.connect(
            self.db_path, timeout=30.0, check_same_thread=False
        )
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute("PRAGMA busy_timeout=30000")
        version = db.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            raise sqlite3.DatabaseError(
                f"store schema version {version}, this code speaks "
                f"{SCHEMA_VERSION}"
            )
        with db:
            db.execute(_SCHEMA)
            db.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        return db

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, run: RunSpec):
        """The stored result for *run*, or ``None`` on miss.

        Hot, then warm; a warm hit is promoted to the hot tier so the
        next fetch of the same run is cheaper.  A defective row is a
        logged miss for that run alone.
        """
        started = perf_counter()
        try:
            return self._get(run)
        finally:
            if self.metrics is not None:
                from ..telemetry.metrics import DEFAULT_LOOKUP_BOUNDS

                self.metrics.histogram(
                    "store.lookup_seconds", DEFAULT_LOOKUP_BOUNDS
                ).observe(perf_counter() - started)

    def _get(self, run: RunSpec):
        key = run.param_key()
        with self._lock:
            if key in self._hot:
                self._hot.move_to_end(key)
                self._count("store.hot_hit")
                return self._hot[key]
            row = self._db.execute(
                "SELECT format, payload FROM results WHERE param_key=?",
                (key,),
            ).fetchone()
        if row is not None:
            result = self._decode_row(run, key, *row)
            if result is not None:
                self._count("store.warm_hit")
                self._remember(key, result)
                return result
            # Defective row: evict it so the re-simulated result can
            # repair the store.
            self._evict_row(key)
        self._count("store.miss")
        return None

    def put(self, run: RunSpec, result) -> bool:
        """Record *result* for *run*; ``False`` if the key already had one.

        First-result-wins: ``INSERT OR IGNORE`` under WAL means two
        processes (two overlapping campaigns on one store, say) can
        race a put and the store keeps exactly one row — whichever
        committed first — without either writer failing.
        """
        key = run.param_key()
        payload = json.dumps(result_to_dict(result), sort_keys=True)
        with self._lock:
            with self._db:
                cursor = self._db.execute(
                    "INSERT OR IGNORE INTO results "
                    "(param_key, run_id, format, payload) VALUES (?, ?, ?, ?)",
                    (key, run.run_id, STORE_FORMAT, payload),
                )
            inserted = cursor.rowcount > 0
        self._remember(key, result)
        self._count("store.put" if inserted else "store.duplicate")
        return inserted

    def iter_results(self, runs: Sequence[RunSpec]) -> Iterator[Any]:
        """Yield every run's stored result, in the order given.

        The streamed, index-ordered aggregation query: nothing beyond
        the hot LRU is held in memory, so a million-run campaign export
        walks the store instead of materializing a result list.  Raises
        ``KeyError`` on the first run the store cannot satisfy — callers
        stream this only after the frontier has executed.
        """
        for run in runs:
            result = self.get(run)
            if result is None:
                raise KeyError(
                    f"store {self.root} has no result for {run.run_id}"
                )
            yield result

    def _evict_row(self, key: str) -> None:
        """Drop one defective warm row (put can then repair the key)."""
        with self._lock:
            with self._db:
                self._db.execute(
                    "DELETE FROM results WHERE param_key=?", (key,)
                )

    def _remember(self, key: str, result) -> None:
        if self.hot_capacity <= 0:
            return
        with self._lock:
            self._hot[key] = result
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_capacity:
                self._hot.popitem(last=False)

    def _decode_row(self, run: RunSpec, key: str, fmt, payload):
        """Row -> result object, or ``None`` (logged) on any defect."""
        if fmt != STORE_FORMAT:
            log.warning(
                "store row %s (run %s) has format %r, want %d; ignoring",
                key, run.run_id, fmt, STORE_FORMAT,
            )
            self._count("store.corrupt")
            return None
        try:
            return result_from_dict(json.loads(payload))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            log.warning(
                "store row %s (run %s) is malformed (%s); re-simulating",
                key, run.run_id, exc,
            )
            self._count("store.corrupt")
            return None

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Point-in-time store accounting (``repro store stats``)."""
        with self._lock:
            rows = self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            hot = len(self._hot)
        try:
            db_bytes = self.db_path.stat().st_size
        except OSError:
            db_bytes = 0
        return {
            "root": str(self.root),
            "format": STORE_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "warm_rows": rows,
            "warm_bytes": db_bytes,
            "hot_entries": hot,
            "hot_capacity": self.hot_capacity,
        }
