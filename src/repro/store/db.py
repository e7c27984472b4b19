"""The persistent measurement store (SQLite, WAL mode).

One store file durably records every workflow measurement and every
per-component solo measurement a session pays for, with full provenance
(seed, repeat, session id, code version, wall seconds) — the corpus of
prior measurements the paper's bootstrapping premise, and the
transfer-learning follow-ups in PAPERS.md, presume to exist.

Concurrency
-----------
The store is safe under concurrent writers (forked trial workers,
benchmark shards sharing one file):

* WAL journaling lets readers proceed while a writer commits;
* every connection sets a bounded busy timeout, and write/read calls
  additionally retry with exponential backoff, so a transient
  ``database is locked`` never surfaces to callers;
* each batch of rows is written in a single transaction — the same
  atomic-merge discipline as the telemetry worker-snapshot merge: a
  reader observes a batch entirely or not at all;
* connections are opened lazily *per thread and per process*: a store
  object inherited through ``fork`` transparently re-opens in the
  child instead of sharing the parent's connection (which SQLite
  forbids), and each thread of a threaded server gets its own
  connection so writers contend only inside SQLite's WAL (bounded by
  the busy timeout), never on a process-wide Python lock.

Deduplication
-------------
Every measurement row carries a ``row_key`` content hash of (context,
config, seed, repeat) with a UNIQUE constraint and ``INSERT OR
IGNORE`` semantics: re-recording the same logical measurement — a
resumed session, a retried batch — is a no-op, never a duplicate row.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
import uuid
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from repro import telemetry
from repro._version import __version__
from repro.insitu.measurement import objective_field
from repro.store.signatures import (
    config_from_json,
    config_to_json,
    encoding_signature,
    machine_signature,
    signature,
    space_signature,
)

__all__ = [
    "SCHEMA_VERSION",
    "MeasurementRecord",
    "MeasurementSet",
    "MeasurementStore",
    "StoreBinding",
    "StoreContext",
    "StoreError",
]

#: Bump on any schema change; a store created by a different schema
#: version is refused instead of silently misread.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS metadata (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL,
    updated_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS contexts (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    workflow TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    space_sig TEXT NOT NULL,
    encoding_sig TEXT NOT NULL DEFAULT '',
    machine_sig TEXT NOT NULL,
    objective TEXT NOT NULL,
    key_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS measurements (
    id INTEGER PRIMARY KEY,
    context_id INTEGER NOT NULL REFERENCES contexts(id),
    row_key TEXT NOT NULL UNIQUE,
    config TEXT NOT NULL,
    value REAL NOT NULL,
    execution_seconds REAL NOT NULL,
    computer_core_hours REAL NOT NULL,
    seed INTEGER NOT NULL,
    repeat INTEGER NOT NULL DEFAULT 0,
    session TEXT NOT NULL,
    code_version TEXT NOT NULL,
    wall_seconds REAL NOT NULL DEFAULT 0.0,
    created_at TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS ix_measurements_context
    ON measurements(context_id, id);
CREATE TABLE IF NOT EXISTS models (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload BLOB NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS telemetry_runs (
    id INTEGER PRIMARY KEY,
    run_key TEXT NOT NULL UNIQUE,
    label TEXT NOT NULL DEFAULT '',
    session TEXT NOT NULL DEFAULT '',
    suite TEXT NOT NULL DEFAULT '',
    git_rev TEXT NOT NULL DEFAULT '',
    machine TEXT NOT NULL DEFAULT '',
    code_version TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS telemetry_spans (
    id INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES telemetry_runs(id),
    name TEXT NOT NULL,
    count INTEGER NOT NULL,
    total_s REAL NOT NULL,
    self_s REAL NOT NULL,
    self_p50_s REAL NOT NULL,
    self_p90_s REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS ix_telemetry_spans_run
    ON telemetry_spans(run_id, self_s DESC);
CREATE TABLE IF NOT EXISTS telemetry_metrics (
    id INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES telemetry_runs(id),
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL,
    payload TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS ix_telemetry_metrics_run
    ON telemetry_metrics(run_id, name);
"""


class StoreError(RuntimeError):
    """The store file is unusable (wrong schema, persistent lock, ...)."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class StoreContext:
    """The identity one batch of measurements is recorded under.

    ``key_hash`` is the content hash of every field — the store's
    primary guard against mixing measurements across spaces, machines,
    encodings or objectives.
    """

    kind: str  # "workflow" | "component"
    workflow: str
    label: str
    space_sig: str
    machine_sig: str
    objective: str
    encoding_sig: str = ""

    @property
    def key_hash(self) -> str:
        return signature(
            "context",
            self.kind,
            self.workflow,
            self.label,
            self.space_sig,
            self.encoding_sig,
            self.machine_sig,
            self.objective,
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """One stored measurement with its provenance."""

    config: tuple
    value: float
    execution_seconds: float
    computer_core_hours: float
    workflow: str
    label: str
    objective: str
    seed: int
    repeat: int
    session: str
    code_version: str
    wall_seconds: float
    created_at: str


@dataclass(frozen=True)
class MeasurementSet:
    """An ordered, immutable query result.

    Iteration order is the store's insertion order (``measurements.id``)
    and therefore stable across repeated reads of the same store.
    """

    records: tuple[MeasurementRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def configs(self) -> tuple[tuple, ...]:
        return tuple(r.config for r in self.records)

    def values(self, objective: str | None = None) -> np.ndarray:
        """Objective values aligned with :attr:`configs`.

        ``None`` returns the value recorded under the context's own
        objective; naming an objective re-derives it from the stored
        execution/computer metrics.
        """
        name = "value" if objective is None else objective_field(objective)
        return np.array([getattr(r, name) for r in self.records], dtype=np.float64)


class MeasurementStore:
    """SQLite-backed store of measurements, models and metadata rows.

    Parameters
    ----------
    path:
        Database file (created on first open). ``":memory:"`` works for
        tests but is per-process only.
    busy_timeout:
        Seconds SQLite itself waits on a locked database before the
        store's own bounded retry loop takes over.
    retries:
        Retry attempts (exponential backoff) before a persistent lock
        surfaces as :class:`StoreError`.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        busy_timeout: float = 5.0,
        retries: int = 6,
    ) -> None:
        self.path = str(path)
        self.busy_timeout = float(busy_timeout)
        self.retries = int(retries)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[sqlite3.Connection] = []
        self._pid: int | None = None
        self._generation = 0
        self._context_ids: dict[str, int] = {}
        self._conn()  # validate schema eagerly

    # -- connection management ------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """The calling thread's connection (re-opened after ``fork``).

        One connection per (process, thread, close-generation): a store
        inherited through ``fork`` re-opens in the child, a store shared
        across server threads gives each thread its own connection (so
        concurrent writers serialize inside SQLite, not on a Python
        lock), and :meth:`close` invalidates every thread's cached
        connection at once by bumping the generation.
        """
        pid = os.getpid()
        local = self._local
        conn = getattr(local, "conn", None)
        if (
            conn is not None
            and local.pid == pid
            and local.generation == self._generation
        ):
            return conn
        with telemetry.get().span(
            "store.open", category="store", path=self.path
        ):
            conn = self._open()
        with self._lock:
            if self._pid != pid:
                # Forked child: the parent's connections are unusable
                # here, and its context-id cache may not match what the
                # child will observe after its own writes.
                self._conns = []
                self._context_ids = {}
                self._pid = pid
            self._conns.append(conn)
            generation = self._generation
        local.conn = conn
        local.pid = pid
        local.generation = generation
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=self.busy_timeout, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
        conn.execute("PRAGMA synchronous=NORMAL")

        def initialise():
            with conn:
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT OR IGNORE INTO meta(key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                conn.execute(
                    "INSERT OR IGNORE INTO meta(key, value) VALUES (?, ?)",
                    ("created_at", _utcnow()),
                )
                conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES (?, ?)",
                    ("code_version", __version__),
                )

        self._retry(initialise)
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        if row is None or int(row[0]) != SCHEMA_VERSION:
            found = None if row is None else row[0]
            conn.close()
            raise StoreError(
                f"{self.path} has store schema {found!r}; this code "
                f"expects schema {SCHEMA_VERSION}"
            )
        return conn

    def _retry(self, fn):
        """Run ``fn``, retrying bounded times on transient lock errors."""
        delay = 0.05
        for attempt in range(self.retries):
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == self.retries - 1:
                    raise StoreError(
                        f"store {self.path} stayed locked through "
                        f"{self.retries} attempts"
                    ) from exc
                time.sleep(delay)
                delay *= 2

    def close(self) -> None:
        """Close this process's connections (the file remains valid).

        Safe to call from any thread: every thread's cached connection
        is invalidated (the next use transparently re-opens), and the
        connections themselves are closed here — SQLite allows that
        because they are opened with ``check_same_thread=False``.
        """
        with self._lock:
            conns = []
            if self._pid == os.getpid():
                conns = self._conns
                self._conns = []
            self._generation += 1
            self._context_ids = {}
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    # -- contexts -------------------------------------------------------------

    def _context_id(self, context: StoreContext) -> int:
        key = context.key_hash
        cached = self._context_ids.get(key)
        if cached is not None:
            return cached
        conn = self._conn()

        def upsert():
            with conn:
                conn.execute(
                    "INSERT OR IGNORE INTO contexts"
                    " (kind, workflow, label, space_sig, encoding_sig,"
                    "  machine_sig, objective, key_hash)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        context.kind,
                        context.workflow,
                        context.label,
                        context.space_sig,
                        context.encoding_sig,
                        context.machine_sig,
                        context.objective,
                        key,
                    ),
                )
            row = conn.execute(
                "SELECT id FROM contexts WHERE key_hash=?", (key,)
            ).fetchone()
            return int(row[0])

        context_id = self._retry(upsert)
        self._context_ids[key] = context_id
        return context_id

    # -- measurements ---------------------------------------------------------

    def record(
        self,
        context: StoreContext,
        rows: Sequence[dict],
    ) -> int:
        """Durably record measurement ``rows`` under ``context``.

        Each row is a mapping with keys ``config`` (tuple), ``value``,
        ``execution_seconds``, ``computer_core_hours``, ``seed``, and
        optionally ``repeat``, ``session``, ``wall_seconds``.  The whole
        batch commits in one transaction; rows whose content key already
        exists are ignored.  Returns the number of rows actually
        inserted.
        """
        if not rows:
            return 0
        context_id = self._context_id(context)
        context_key = context.key_hash
        now = _utcnow()
        payload = []
        for row in rows:
            config = tuple(row["config"])
            seed = int(row["seed"])
            repeat = int(row.get("repeat", 0))
            payload.append(
                (
                    context_id,
                    signature("row", context_key, config, seed, repeat),
                    config_to_json(config),
                    float(row["value"]),
                    float(row["execution_seconds"]),
                    float(row["computer_core_hours"]),
                    seed,
                    repeat,
                    str(row.get("session", "")),
                    __version__,
                    float(row.get("wall_seconds", 0.0)),
                    now,
                )
            )
        conn = self._conn()

        def write():
            with conn:
                before = conn.total_changes
                conn.executemany(
                    "INSERT OR IGNORE INTO measurements"
                    " (context_id, row_key, config, value,"
                    "  execution_seconds, computer_core_hours, seed,"
                    "  repeat, session, code_version, wall_seconds,"
                    "  created_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    payload,
                )
                return conn.total_changes - before

        tel = telemetry.get()
        with tel.span(
            "store.write", category="store", kind=context.kind,
            rows=len(payload),
        ) as span:
            inserted = self._retry(write)
            span.set(inserted=inserted)
        return inserted

    def query(
        self,
        *,
        space_sig: str,
        kind: str = "workflow",
        workflow: str | None = None,
        label: str | None = None,
        objective: str | None = None,
        machine_sig: str | None = None,
        limit: int | None = None,
    ) -> MeasurementSet:
        """Measurements matching the given context filters.

        ``space_sig`` is mandatory — there is no meaningful read across
        parameter spaces.  ``workflow=None`` matches any workflow, which
        is how component solo runs recorded under one workflow warm-start
        the same component in another.  Results are ordered by insertion
        (stable across reads).
        """
        where = ["c.kind = ?", "c.space_sig = ?"]
        args: list = [kind, space_sig]
        for column, value in (
            ("workflow", workflow),
            ("label", label),
            ("objective", objective),
            ("machine_sig", machine_sig),
        ):
            if value is not None:
                where.append(f"c.{column} = ?")
                args.append(value)
        sql = (
            "SELECT m.config, m.value, m.execution_seconds,"
            " m.computer_core_hours, c.workflow, c.label, c.objective,"
            " m.seed, m.repeat, m.session, m.code_version,"
            " m.wall_seconds, m.created_at"
            " FROM measurements m JOIN contexts c ON m.context_id = c.id"
            f" WHERE {' AND '.join(where)} ORDER BY m.id"
        )
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        conn = self._conn()
        tel = telemetry.get()
        with tel.span(
            "store.query", category="store", kind=kind
        ) as span:
            rows = self._retry(lambda: conn.execute(sql, args).fetchall())
            span.set(rows=len(rows))
        return MeasurementSet(
            records=tuple(
                MeasurementRecord(
                    config=config_from_json(r[0]),
                    value=r[1],
                    execution_seconds=r[2],
                    computer_core_hours=r[3],
                    workflow=r[4],
                    label=r[5],
                    objective=r[6],
                    seed=r[7],
                    repeat=r[8],
                    session=r[9],
                    code_version=r[10],
                    wall_seconds=r[11],
                    created_at=r[12],
                )
                for r in rows
            )
        )

    # -- model registry backend ----------------------------------------------

    def put_model(self, key: str, model, kind: str = "model") -> None:
        """Persist a fitted model under ``key`` (first writer wins)."""
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        conn = self._conn()

        def write():
            with conn:
                conn.execute(
                    "INSERT OR IGNORE INTO models"
                    " (key, kind, payload, created_at) VALUES (?, ?, ?, ?)",
                    (key, kind, payload, _utcnow()),
                )

        with telemetry.get().span(
            "store.write", category="store", kind="model", rows=1
        ):
            self._retry(write)

    def get_model(self, key: str):
        """Load a persisted model, or ``None`` on miss/unreadable blob.

        An unreadable blob (pickled by an incompatible code version) is
        deleted so the caller's deterministic refit replaces it.
        """
        conn = self._conn()
        with telemetry.get().span(
            "store.query", category="store", kind="model"
        ) as span:
            row = self._retry(
                lambda: conn.execute(
                    "SELECT payload FROM models WHERE key=?", (key,)
                ).fetchone()
            )
            span.set(rows=0 if row is None else 1)
        if row is None:
            return None
        try:
            return pickle.loads(row[0])
        except Exception:
            def drop():
                with conn:
                    conn.execute("DELETE FROM models WHERE key=?", (key,))

            self._retry(drop)
            return None

    # -- metadata -------------------------------------------------------------

    def set_metadata(self, key: str, value: dict) -> None:
        """Upsert one JSON metadata row (suite cells)."""
        conn = self._conn()
        text = json.dumps(value, sort_keys=True)

        def write():
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO metadata(key, value, updated_at)"
                    " VALUES (?, ?, ?)",
                    (key, text, _utcnow()),
                )

        self._retry(write)

    def get_metadata(self, key: str) -> dict | None:
        conn = self._conn()
        row = self._retry(
            lambda: conn.execute(
                "SELECT value FROM metadata WHERE key=?", (key,)
            ).fetchone()
        )
        return None if row is None else json.loads(row[0])

    def metadata(self) -> dict[str, dict]:
        """All metadata rows, keyed by metadata key."""
        conn = self._conn()
        rows = self._retry(
            lambda: conn.execute(
                "SELECT key, value FROM metadata ORDER BY key"
            ).fetchall()
        )
        return {key: json.loads(value) for key, value in rows}

    # -- telemetry history ----------------------------------------------------

    def record_telemetry_run(
        self, run: dict, spans: Sequence[dict], metrics: Sequence[dict]
    ) -> int:
        """Durably record one run's aggregated telemetry snapshot.

        ``run`` carries the run-level provenance (``run_key``, ``label``,
        ``session``, ``suite``, ``git_rev``, ``machine``,
        ``schema_version``); ``spans`` the per-span-name self-time
        aggregates and ``metrics`` the counter/gauge/histogram totals
        (see :mod:`repro.telemetry.persist`).  The whole snapshot
        commits in one transaction.  The telemetry tables are an
        *additive* migration: they are created on open of any
        schema-1 store file, and every run row carries its own
        ``schema_version`` so future readers can skip payloads they do
        not understand instead of misreading them.
        """
        conn = self._conn()

        def write():
            with conn:
                cur = conn.execute(
                    "INSERT INTO telemetry_runs"
                    " (run_key, label, session, suite, git_rev, machine,"
                    "  code_version, schema_version, created_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        str(run["run_key"]),
                        str(run.get("label", "")),
                        str(run.get("session", "")),
                        str(run.get("suite", "")),
                        str(run.get("git_rev", "")),
                        str(run.get("machine", "")),
                        __version__,
                        int(run["schema_version"]),
                        _utcnow(),
                    ),
                )
                run_id = int(cur.lastrowid)
                conn.executemany(
                    "INSERT INTO telemetry_spans"
                    " (run_id, name, count, total_s, self_s,"
                    "  self_p50_s, self_p90_s)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            run_id,
                            str(s["name"]),
                            int(s["count"]),
                            float(s["total_s"]),
                            float(s["self_s"]),
                            float(s["self_p50_s"]),
                            float(s["self_p90_s"]),
                        )
                        for s in spans
                    ],
                )
                conn.executemany(
                    "INSERT INTO telemetry_metrics"
                    " (run_id, kind, name, value, payload)"
                    " VALUES (?, ?, ?, ?, ?)",
                    [
                        (
                            run_id,
                            str(m["kind"]),
                            str(m["name"]),
                            None if m.get("value") is None
                            else float(m["value"]),
                            json.dumps(
                                m.get("payload") or {}, sort_keys=True
                            ),
                        )
                        for m in metrics
                    ],
                )
                return run_id

        with telemetry.get().span(
            "store.write", category="store", kind="telemetry",
            rows=len(spans) + len(metrics),
        ):
            return self._retry(write)

    _TELEMETRY_RUN_COLUMNS = (
        "id", "run_key", "label", "session", "suite", "git_rev",
        "machine", "code_version", "schema_version", "created_at",
    )

    def telemetry_runs(self) -> list[dict]:
        """Every recorded telemetry run, oldest first."""
        conn = self._conn()
        rows = self._retry(
            lambda: conn.execute(
                "SELECT id, run_key, label, session, suite, git_rev,"
                " machine, code_version, schema_version, created_at"
                " FROM telemetry_runs ORDER BY id"
            ).fetchall()
        )
        return [dict(zip(self._TELEMETRY_RUN_COLUMNS, r)) for r in rows]

    def find_telemetry_run(self, ref: str | int | None = None) -> dict | None:
        """Resolve one telemetry run row by reference.

        ``None`` returns the newest run; otherwise ``ref`` matches — in
        order — an exact ``run_key``, an exact ``label`` (newest wins),
        or a numeric row id.  Returns ``None`` when nothing matches.
        """
        conn = self._conn()
        base = (
            "SELECT id, run_key, label, session, suite, git_rev,"
            " machine, code_version, schema_version, created_at"
            " FROM telemetry_runs"
        )

        def lookup():
            if ref is None:
                return conn.execute(
                    base + " ORDER BY id DESC LIMIT 1"
                ).fetchone()
            row = conn.execute(
                base + " WHERE run_key=? ORDER BY id DESC LIMIT 1", (str(ref),)
            ).fetchone()
            if row is None:
                row = conn.execute(
                    base + " WHERE label=? ORDER BY id DESC LIMIT 1",
                    (str(ref),),
                ).fetchone()
            if row is None and str(ref).isdigit():
                row = conn.execute(
                    base + " WHERE id=?", (int(ref),)
                ).fetchone()
            return row

        row = self._retry(lookup)
        if row is None:
            return None
        return dict(zip(self._TELEMETRY_RUN_COLUMNS, row))

    def telemetry_spans(self, run_id: int) -> list[dict]:
        """One run's per-span-name aggregates, by self-time descending."""
        conn = self._conn()
        rows = self._retry(
            lambda: conn.execute(
                "SELECT name, count, total_s, self_s, self_p50_s,"
                " self_p90_s FROM telemetry_spans WHERE run_id=?"
                " ORDER BY self_s DESC, name",
                (int(run_id),),
            ).fetchall()
        )
        return [
            dict(
                zip(
                    ("name", "count", "total_s", "self_s", "self_p50_s",
                     "self_p90_s"),
                    r,
                )
            )
            for r in rows
        ]

    def telemetry_metrics(self, run_id: int) -> list[dict]:
        """One run's metric totals, sorted by name."""
        conn = self._conn()
        rows = self._retry(
            lambda: conn.execute(
                "SELECT kind, name, value, payload FROM telemetry_metrics"
                " WHERE run_id=? ORDER BY name",
                (int(run_id),),
            ).fetchall()
        )
        return [
            {
                "kind": r[0],
                "name": r[1],
                "value": r[2],
                "payload": json.loads(r[3]),
            }
            for r in rows
        ]

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> dict:
        """Row counts and per-context breakdown of the store."""
        conn = self._conn()

        def one(sql: str, *args) -> int:
            return int(conn.execute(sql, args).fetchone()[0])

        by_context = [
            {
                "kind": r[0],
                "workflow": r[1],
                "label": r[2],
                "objective": r[3],
                "space_sig": r[4],
                "rows": int(r[5]),
            }
            for r in conn.execute(
                "SELECT c.kind, c.workflow, c.label, c.objective,"
                " c.space_sig, COUNT(m.id)"
                " FROM contexts c LEFT JOIN measurements m"
                " ON m.context_id = c.id"
                " GROUP BY c.id ORDER BY c.id"
            ).fetchall()
        ]
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "workflow_measurements": one(
                "SELECT COUNT(*) FROM measurements m JOIN contexts c"
                " ON m.context_id = c.id WHERE c.kind='workflow'"
            ),
            "component_measurements": one(
                "SELECT COUNT(*) FROM measurements m JOIN contexts c"
                " ON m.context_id = c.id WHERE c.kind='component'"
            ),
            "contexts": one("SELECT COUNT(*) FROM contexts"),
            "sessions": one(
                "SELECT COUNT(DISTINCT session) FROM measurements"
            ),
            "models": one("SELECT COUNT(*) FROM models"),
            "metadata": one("SELECT COUNT(*) FROM metadata"),
            "telemetry_runs": one("SELECT COUNT(*) FROM telemetry_runs"),
            "by_context": by_context,
        }

    def gc(self, keep_sessions: int | None = None) -> dict:
        """Prune the store; returns deletion counts.

        ``keep_sessions`` keeps only the N most recently started
        sessions' measurements (``None`` keeps all).  Always drops
        cached models (they refit deterministically on the next miss)
        and contexts left without measurements, then compacts the file.
        """
        conn = self._conn()
        deleted = {"measurements": 0, "contexts": 0, "models": 0}

        def run():
            with conn:
                if keep_sessions is not None:
                    keep = [
                        r[0]
                        for r in conn.execute(
                            "SELECT session FROM measurements"
                            " GROUP BY session ORDER BY MIN(id) DESC"
                            " LIMIT ?",
                            (int(keep_sessions),),
                        ).fetchall()
                    ]
                    marks = ",".join("?" for _ in keep) or "''"
                    cur = conn.execute(
                        f"DELETE FROM measurements WHERE session NOT IN ({marks})",
                        keep,
                    )
                    deleted["measurements"] = cur.rowcount
                cur = conn.execute(
                    "DELETE FROM contexts WHERE id NOT IN"
                    " (SELECT DISTINCT context_id FROM measurements)"
                )
                deleted["contexts"] = cur.rowcount
                cur = conn.execute("DELETE FROM models")
                deleted["models"] = cur.rowcount

        self._retry(run)
        self._retry(lambda: conn.execute("VACUUM"))
        self._context_ids = {}
        return deleted

    def export(self) -> dict:
        """JSON-ready dump of the store (model blobs as counts only)."""
        conn = self._conn()
        contexts = [
            dict(
                zip(
                    (
                        "id", "kind", "workflow", "label", "space_sig",
                        "encoding_sig", "machine_sig", "objective",
                        "key_hash",
                    ),
                    row,
                )
            )
            for row in conn.execute(
                "SELECT id, kind, workflow, label, space_sig, encoding_sig,"
                " machine_sig, objective, key_hash FROM contexts ORDER BY id"
            ).fetchall()
        ]
        measurements = [
            dict(
                zip(
                    (
                        "id", "context_id", "config", "value",
                        "execution_seconds", "computer_core_hours", "seed",
                        "repeat", "session", "code_version", "wall_seconds",
                        "created_at",
                    ),
                    (row[0], row[1], json.loads(row[2])) + row[3:],
                )
            )
            for row in conn.execute(
                "SELECT id, context_id, config, value, execution_seconds,"
                " computer_core_hours, seed, repeat, session, code_version,"
                " wall_seconds, created_at FROM measurements ORDER BY id"
            ).fetchall()
        ]
        meta = dict(conn.execute("SELECT key, value FROM meta").fetchall())
        return {
            "meta": meta,
            "contexts": contexts,
            "measurements": measurements,
            "metadata": self.metadata(),
            "models": int(
                conn.execute("SELECT COUNT(*) FROM models").fetchone()[0]
            ),
        }


# -- collector binding --------------------------------------------------------


class StoreBinding:
    """Write-through hookup between one collector and a store.

    Owns the session's provenance (session id, seed, repeat) and the
    lazily computed context signatures, so the collector itself stays
    ignorant of hashing.  The binding is created per tuning problem;
    checkpoint/resume round-trips the session id through
    :meth:`~repro.core.collector.Collector.state_dict` so a resumed run
    keeps recording under the session it started as (row-key dedupe
    makes accidental re-records no-ops either way).
    """

    def __init__(
        self,
        store: MeasurementStore,
        workflow,
        objective_name: str,
        seed: int,
        session: str | None = None,
        repeat: int = 0,
    ) -> None:
        self.store = store
        self.workflow = workflow
        self.objective_name = objective_name
        self.seed = int(seed)
        self.repeat = int(repeat)
        self.session = session or uuid.uuid4().hex[:12]
        self._started = time.perf_counter()
        self._machine_sig = machine_signature(workflow.machine)
        self._workflow_context: StoreContext | None = None
        self._component_contexts: dict[str, StoreContext] = {}

    # -- contexts -------------------------------------------------------------

    @property
    def machine_sig(self) -> str:
        return self._machine_sig

    def workflow_context(self) -> StoreContext:
        if self._workflow_context is None:
            self._workflow_context = StoreContext(
                kind="workflow",
                workflow=self.workflow.name,
                label="",
                space_sig=space_signature(self.workflow.space),
                machine_sig=self._machine_sig,
                objective=self.objective_name,
                encoding_sig=encoding_signature(self.workflow.encoder()),
            )
        return self._workflow_context

    def component_context(self, label: str) -> StoreContext:
        context = self._component_contexts.get(label)
        if context is None:
            context = StoreContext(
                kind="component",
                workflow=self.workflow.name,
                label=label,
                space_sig=space_signature(self.workflow.app(label).space),
                machine_sig=self._machine_sig,
                objective=self.objective_name,
            )
            self._component_contexts[label] = context
        return context

    def _provenance(self) -> dict:
        return {
            "seed": self.seed,
            "repeat": self.repeat,
            "session": self.session,
            "wall_seconds": time.perf_counter() - self._started,
        }

    # -- recording ------------------------------------------------------------

    def record_workflow(self, pairs) -> int:
        """Record ``(config, WorkflowMeasurement)`` pairs in one batch."""
        if not pairs:
            return 0
        base = self._provenance()
        rows = [
            {
                "config": config,
                "value": measurement.objective(self.objective_name),
                "execution_seconds": measurement.execution_seconds,
                "computer_core_hours": measurement.computer_core_hours,
                **base,
            }
            for config, measurement in pairs
        ]
        return self.store.record(self.workflow_context(), rows)

    def record_components(
        self, label: str, configs, execution_seconds, computer_core_hours
    ) -> int:
        """Record one component's solo measurements in one batch."""
        if not len(configs):
            return 0
        base = self._provenance()
        values = {
            "execution_seconds": execution_seconds,
            "computer_core_hours": computer_core_hours,
        }[objective_field(self.objective_name)]
        rows = [
            {
                "config": config,
                "value": float(value),
                "execution_seconds": float(exec_s),
                "computer_core_hours": float(hours),
                **base,
            }
            for config, value, exec_s, hours in zip(
                configs, values, execution_seconds, computer_core_hours
            )
        ]
        return self.store.record(self.component_context(label), rows)
