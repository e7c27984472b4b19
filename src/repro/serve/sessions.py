"""Multi-session tuning service core: session runners and their manager.

This is the long-lived composition layer of the service: many
concurrent tuning sessions — any algorithm named in
:data:`repro.core.autotuner.ALGORITHMS`, optional warm-start — sharing
one process, one :class:`~repro.store.db.MeasurementStore`, and one
telemetry hub.

Two classes split the work:

* :class:`SessionRunner` drives one session through the
  :class:`~repro.core.driver.TuningDriver`'s own steps — ``prepare`` on
  create, ``ask`` and ``tell`` one request each, ``finalize`` when the
  strategy stops proposing — so a remote client can sit in the middle
  of the cycle.  The cycle is the driver's code, not a copy of it, so a
  session driven through a runner finishes bit-identical to an offline
  ``algorithm.tune(problem)`` run and emits the same ``driver.*``
  telemetry.  The runner adds only ask-id bookkeeping and the
  serve-specific errors.
* :class:`SessionManager` owns named runners: creation, LRU
  eviction to checkpoint files, transparent rehydration on next touch,
  crash recovery (re-listing checkpointed sessions at startup), and
  per-session locking so concurrent requests on one session serialize
  while different sessions proceed in parallel.

A session's one file is its checkpoint, ``<name>.ckpt``: the driver's
``recipe`` slot holds the session's :class:`SessionSpec`, so the
runner is rebuilt from the checkpoint alone and a checkpoint cannot be
paired with another session's spec.

Eviction discipline
-------------------
Checkpoints are written only at *cycle boundaries* (after ``prepare``
and after every ``tell``), by the driver's steps themselves.  Between
an ``ask`` and its ``tell`` the session's RNG has advanced, so
re-saving there would fork the random stream; instead eviction simply
drops the in-memory runner and keeps the last boundary checkpoint.  A pending
(un-told) ask is *re-derivable*: rehydration restores the pre-ask RNG
state, so re-running ``ask`` regenerates the identical batch under the
identical deterministic ask id (``a<cycle>``), and a ``tell`` that
arrives for that id after eviction — or after a daemon restart — is
served transparently.  Anything else is a ``stale_ask`` error.
"""

from __future__ import annotations

import math
import re
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

from repro import telemetry
from repro.core.driver import (
    CheckpointError,
    TuningDriver,
    TuningSession,
    load_checkpoint,
)
from repro.core.problem import AutotuneResult
from repro.serve.artifacts import ArtifactCache
from repro.serve.protocol import ServeError
from repro.serve.specs import SessionSpec, build_algorithm, build_problem
from repro.store.registry import ModelRegistry

__all__ = ["SessionManager", "SessionRunner"]

#: Session names are path components of the state directory: keep them
#: boring (no separators, no dotfiles) so they can never escape it.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ServeError(
            "bad_request",
            "session name must be 1-64 characters of [A-Za-z0-9._-] "
            "starting with an alphanumeric",
        )
    return name


class SessionRunner:
    """One live tuning session, driven stepwise by ask/tell requests.

    The tuning cycle itself is the driver's: each request runs one
    :class:`~repro.core.driver.TuningDriver` step.  The runner adds only
    what serving needs — deterministic ask ids, the ``stale_ask`` /
    ``session_completed`` errors, and the read-only views; see the
    module docstring for why checkpoints land only on cycle boundaries.
    """

    def __init__(
        self,
        name: str,
        spec: SessionSpec,
        checkpoint_path,
        cache: ArtifactCache,
        store=None,
    ):
        self.name = name
        self.spec = spec
        self.strategy = build_algorithm(spec).make_strategy()
        self.problem = build_problem(
            spec, store=store, artifacts=cache.problem_artifacts(spec)
        )
        # Every deterministic fit of this session goes through the
        # manager-wide model tier first; the store, when bound, stays
        # underneath as the persistent layer.
        binding = self.problem.store
        self.problem.model_registry = ModelRegistry(
            None if binding is None else binding.store, memo=cache.models
        )
        self.session = TuningSession.start(self.problem)
        self.driver = TuningDriver(
            checkpoint_path=Path(checkpoint_path), recipe=spec.as_dict()
        )
        self.result: AutotuneResult | None = None
        self._pending: tuple[str, tuple] | None = None

    @property
    def completed(self) -> bool:
        return self.driver.completed

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Cold-start: the driver's prepare step plus first checkpoint."""
        self.driver.prepare(self.strategy, self.session)

    @classmethod
    def rehydrate(
        cls,
        name: str,
        checkpoint_path,
        cache: ArtifactCache,
        store=None,
        snapshot: dict | None = None,
    ) -> "SessionRunner":
        """Rebuild a runner from its checkpoint.

        The problem is reconstructed deterministically from the spec in
        the checkpoint's recipe, then the checkpointed logical state is
        validated and restored — the same
        :meth:`~repro.core.driver.TuningDriver.restore` step as
        ``TuningDriver.run(resume=True)``, so the session continues
        bit-identically.  A checkpoint whose recipe is not a spec (an
        offline checkpoint, say) raises :class:`CheckpointError`.

        ``snapshot`` is a still-warm checkpoint payload from the
        manager's snapshot tier: it is the payload the evicted runner's
        driver last wrote, equal to what the disk checkpoint unpickles
        to, so restoring from it skips the disk read and unpickle while
        remaining subject to the same validation.
        """
        with telemetry.get().span("serve.session.rehydrate", category="serve") as span:
            payload = snapshot if snapshot is not None else load_checkpoint(checkpoint_path)
            try:
                spec = SessionSpec.from_dict(payload.get("recipe"))
            except ServeError as exc:
                raise CheckpointError(
                    f"checkpoint holds no session spec: {exc.message}"
                ) from exc
            runner = cls(name, spec, checkpoint_path, cache, store=store)
            span.set(algorithm=runner.strategy.name)
            runner.driver.restore(payload, runner.strategy, runner.session)
        return runner

    def snapshot_payload(self) -> dict | None:
        """The last boundary checkpoint payload (for the snapshot tier)."""
        return self.driver.payload

    # -- the stepwise measurement loop ----------------------------------------

    def ask(self) -> dict:
        """Propose (or repeat) the pending measurement batch.

        Idempotent: repeated asks return the same pending batch until
        it is told.  An empty proposal finishes the session, exactly as
        it ends the driver's loop.
        """
        if self.completed:
            return self._done_payload()
        if self._pending is None:
            batch = self.driver.ask(self.strategy, self.session)
            if not batch:
                self.result = self.driver.finalize(self.strategy, self.session)
                return self._done_payload()
            self._pending = (f"a{self.session.iteration + 1}", tuple(batch))
        ask_id, batch = self._pending
        collector = self.session.collector
        return {
            "done": False,
            "ask_id": ask_id,
            "iteration": self.session.iteration + 1,
            "configs": [list(c) for c in batch],
            "runs_used": collector.runs_used,
            "budget": collector.budget_runs,
        }

    def tell(self, ask_id) -> dict:
        """Measure and digest the pending batch identified by ``ask_id``.

        The server owns the measurement (the collector's simulated
        in-situ runs), so ``tell`` carries only the ask id.  A tell for
        an id that was never issued — or that was already told — is a
        ``stale_ask`` error.  A tell for the *next* deterministic id of
        a freshly rehydrated session transparently regenerates the ask
        first (see the module docstring).
        """
        if self.completed:
            raise ServeError(
                "session_completed",
                f"session {self.name!r} already finished; nothing to tell",
            )
        if not isinstance(ask_id, str) or not ask_id:
            raise ServeError("bad_request", "tell requires a string ask_id")
        if self._pending is None:
            # Evicted or restarted between ask and tell: re-asking from
            # the restored cycle boundary regenerates the identical
            # batch under the identical id.
            self.ask()
            if self.completed or self._pending is None:
                raise ServeError(
                    "stale_ask",
                    f"ask id {ask_id!r} was never issued for session "
                    f"{self.name!r} (session is finishing)",
                )
        pending_id, batch = self._pending
        if ask_id != pending_id:
            raise ServeError(
                "stale_ask",
                f"ask id {ask_id!r} is not pending for session "
                f"{self.name!r} (expected {pending_id!r})",
            )
        event = self.driver.tell(self.strategy, self.session, list(batch))
        self._pending = None
        best = self._best_measured()
        return {
            "done": False,
            "ask_id": ask_id,
            "iteration": event.iteration,
            "measured": len(event.results),
            "failures": event.failures,
            "runs_used": event.runs_used,
            "samples": event.samples,
            "best_value": None if best is None else best[1],
        }

    def _ensure_result(self) -> AutotuneResult:
        """The session's result, refinalizing after a completed restore.

        Refitting on restore is deterministic (same training data, same
        seeds), so a rehydrated completed session recommends exactly
        what it did before eviction; the driver emits no second final
        event for an already-completed session.
        """
        if self.result is None:
            if not self.completed:
                raise ServeError(
                    "bad_request",
                    f"session {self.name!r} has not finished",
                )
            self.result = self.driver.finalize(self.strategy, self.session)
        return self.result

    # -- read-only views ------------------------------------------------------

    def _best_measured(self):
        """(config, value) of the best paid measurement, or ``None``.

        First-seen wins ties, making the report deterministic and
        independent of dict ordering accidents.
        """
        best = None
        for config, value in self.session.collector.measured.items():
            if best is None or value < best[1]:
                best = (config, value)
        return best

    def best(self) -> dict:
        """Best-so-far (always) plus the final recommendation (when done)."""
        collector = self.session.collector
        best = self._best_measured()
        payload = {
            "session": self.name,
            "completed": self.completed,
            "samples": collector.n_measured,
            "runs_used": collector.runs_used,
            "best_config": None if best is None else list(best[0]),
            "best_value": None if best is None else float(best[1]),
        }
        if self.completed:
            result = self._ensure_result()
            pool = self.problem.pool
            recommended = result.best_config(pool)
            payload["recommended_config"] = list(recommended)
            payload["recommended_value"] = float(
                pool.lookup(recommended).objective(result.objective.name)
            )
            payload["cost"] = float(result.cost())
        return payload

    def status(self) -> dict:
        collector = self.session.collector
        return {
            "session": self.name,
            "state": "completed" if self.completed else "active",
            "algorithm": self.strategy.name,
            "workflow": self.spec.workflow,
            "objective": self.spec.objective,
            "iteration": self.session.iteration,
            "runs_used": collector.runs_used,
            "budget": collector.budget_runs,
            "samples": collector.n_measured,
            "pending_ask": None if self._pending is None else self._pending[0],
            "spec": self.spec.as_dict(),
        }

    def _done_payload(self) -> dict:
        return {"done": True, "completed": True, "best": self.best()}


def _latency_digest(values) -> dict:
    """Nearest-rank digest of a latency series: count, mean, p50/p95/p99, max.

    Every value is rounded to 3 decimals; an empty series is
    ``{"count": 0}``.
    """
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}

    def pct(q: float) -> float:
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return round(ordered[index], 3)

    return {
        "count": len(ordered),
        "mean": round(sum(ordered) / len(ordered), 3),
        "p50": pct(0.50),
        "p95": pct(0.95),
        "p99": pct(0.99),
        "max": round(ordered[-1], 3),
    }


class SessionManager:
    """Named tuning sessions with LRU eviction and crash recovery.

    Parameters
    ----------
    directory:
        State directory: one file per session, ``<name>.ckpt``, the
        cycle-boundary checkpoint, which carries the session's spec.
        On construction the directory is scanned and every checkpointed
        session is registered as evicted — a daemon restarted after a
        crash serves them as if it never stopped.
    store:
        Optional shared :class:`~repro.store.db.MeasurementStore` (or
        path): every session's paid measurements are recorded through
        it and ``warm_start`` specs draw on it.
    max_active:
        Resident-session budget.  Exceeding it evicts the least
        recently touched idle session (its checkpoint is already
        durable); the next touch rehydrates transparently.
    cache:
        Shared :class:`~repro.serve.artifacts.ArtifactCache` for the
        rehydration hot path; built fresh with default capacities when
        not supplied.
    """

    #: How many recent rehydration wall-times ``stats`` summarises.
    _REHYDRATE_WINDOW = 512

    def __init__(self, directory, store=None, max_active: int = 64, cache=None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if store is not None:
            from repro.store.db import MeasurementStore

            if not isinstance(store, MeasurementStore):
                store = MeasurementStore(store)
        self.store = store
        self.max_active = max(1, int(max_active))
        self.cache = ArtifactCache() if cache is None else cache
        self._mutex = threading.Lock()
        self._active: OrderedDict[str, SessionRunner] = OrderedDict()
        self._locks: dict[str, threading.RLock] = {}
        self._known: set[str] = set()
        self._rehydrate_ms: list[float] = []
        self.recovered = self._recover()

    # -- paths ----------------------------------------------------------------

    def _checkpoint_path(self, name: str) -> Path:
        return self.directory / f"{name}.ckpt"

    def _recover(self) -> list[str]:
        """Register every checkpointed session found on disk.

        A file whose stem is not a valid session name is left where it
        is: no request could ever address it.
        """
        names = sorted(
            p.stem for p in self.directory.glob("*.ckpt") if _NAME_RE.match(p.stem)
        )
        self._known.update(names)
        if names:
            telemetry.get().counter("serve.sessions.recovered").inc(len(names))
        return names

    # -- locking --------------------------------------------------------------

    def _lock_for(self, name: str) -> threading.RLock:
        with self._mutex:
            lock = self._locks.get(name)
            if lock is None:
                lock = self._locks[name] = threading.RLock()
            return lock

    @contextmanager
    def session(self, name: str):
        """Touch a session: lock it, rehydrate if evicted, yield it."""
        _check_name(name)
        lock = self._lock_for(name)
        with lock:
            yield self._runner_locked(name)
        self._evict_overflow()

    def _runner_locked(self, name: str) -> SessionRunner:
        with self._mutex:
            runner = self._active.get(name)
            if runner is not None:
                self._active.move_to_end(name)
                return runner
            known = name in self._known
        if not known:
            raise ServeError("unknown_session", f"no session named {name!r}")
        started = time.perf_counter()
        snapshot = self.cache.take_snapshot(name)
        try:
            runner = SessionRunner.rehydrate(
                name,
                self._checkpoint_path(name),
                self.cache,
                store=self.store,
                snapshot=snapshot,
            )
        except CheckpointError as exc:
            raise ServeError(
                "internal", f"session {name!r} checkpoint unusable: {exc}"
            ) from exc
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        tel = telemetry.get()
        tel.counter("serve.sessions.rehydrated").inc()
        with self._mutex:
            self._active[name] = runner
            self._active.move_to_end(name)
            tel.gauge("serve.sessions.active_peak").set_max(
                len(self._active)
            )
            self._rehydrate_ms.append(elapsed_ms)
            del self._rehydrate_ms[: -self._REHYDRATE_WINDOW]
        return runner

    # -- lifecycle ------------------------------------------------------------

    def create(self, spec, name: str | None = None) -> dict:
        """Create (and prepare) a new named session; returns its status."""
        if not isinstance(spec, SessionSpec):
            spec = SessionSpec.from_dict(spec)
        if name is None:
            name = f"s-{uuid.uuid4().hex[:10]}"
        _check_name(name)
        if spec.warm_start != "off" and self.store is None:
            raise ServeError(
                "bad_request",
                "warm_start requires the daemon to be bound to a store "
                "(start it with --store)",
            )
        lock = self._lock_for(name)
        with lock:
            with self._mutex:
                if name in self._known or name in self._active:
                    raise ServeError(
                        "conflict", f"session {name!r} already exists"
                    )
            # A freshly created name must never restore someone else's
            # leftover snapshot (e.g. delete + recreate under one name).
            self.cache.invalidate_session(name)
            checkpoint_path = self._checkpoint_path(name)
            try:
                runner = SessionRunner(
                    name, spec, checkpoint_path, self.cache, store=self.store
                )
                runner.start()
            except Exception as exc:
                # A session that cannot be prepared must not be
                # recovered later: take back whatever was written.
                checkpoint_path.unlink(missing_ok=True)
                if isinstance(exc, ValueError):
                    raise ServeError("bad_request", str(exc)) from exc
                raise
            tel = telemetry.get()
            tel.counter("serve.sessions.created").inc()
            with self._mutex:
                self._known.add(name)
                self._active[name] = runner
                self._active.move_to_end(name)
                tel.gauge("serve.sessions.active_peak").set_max(
                    len(self._active)
                )
            status = runner.status()
        self._evict_overflow()
        return status

    def close(self, name: str, delete: bool = False) -> dict:
        """Detach a session from memory; optionally delete its file.

        Without ``delete`` the checkpoint stays — the session can be
        touched again later (it rehydrates).  With ``delete`` the
        session is gone for good.  A checkpoint that cannot be removed
        answers ``internal``, and the session stays known.
        """
        _check_name(name)
        lock = self._lock_for(name)
        with lock:
            self.cache.invalidate_session(name)
            with self._mutex:
                known = name in self._known or name in self._active
                self._active.pop(name, None)
            if not known:
                raise ServeError(
                    "unknown_session", f"no session named {name!r}"
                )
            if delete:
                path = self._checkpoint_path(name)
                try:
                    path.unlink(missing_ok=True)
                except OSError as exc:
                    raise ServeError(
                        "internal",
                        f"session {name!r}: cannot delete {path.name}: {exc}",
                    ) from exc
                with self._mutex:
                    self._known.discard(name)
            telemetry.get().counter("serve.sessions.closed").inc()
        return {"session": name, "closed": True, "deleted": bool(delete)}

    # -- eviction -------------------------------------------------------------

    def evict(self, name: str) -> bool:
        """Explicitly evict one session (blocks until it is idle)."""
        _check_name(name)
        lock = self._lock_for(name)
        with lock:
            with self._mutex:
                runner = self._active.pop(name, None)
            if runner is not None:
                self._stash_snapshot(runner)
        if runner is not None:
            telemetry.get().counter("serve.sessions.evicted").inc()
        return runner is not None

    def _stash_snapshot(self, runner: SessionRunner) -> None:
        """Keep the evicted runner's boundary payload warm.

        Called with the session lock held (the runner is idle), so the
        payload is exactly what the last boundary checkpoint persisted.
        """
        payload = runner.snapshot_payload()
        if payload is not None:
            self.cache.stash_snapshot(runner.name, payload)

    def evict_all(self) -> int:
        """Evict every idle session (tests, drain)."""
        with self._mutex:
            names = list(self._active.keys())
        return sum(self.evict(name) for name in names)

    def _evict_overflow(self) -> None:
        """Drop least-recently-touched sessions beyond ``max_active``.

        Only idle sessions (lock not held) are eligible; a session
        mid-request is never evicted out from under its thread.  When
        every resident session is busy the overflow rides until the
        next touch — the pool is bounded by in-flight requests anyway.
        """
        tel = telemetry.get()
        while True:
            with self._mutex:
                if len(self._active) <= self.max_active:
                    return
                candidates = list(self._active.keys())
            evicted = None
            for name in candidates:
                lock = self._lock_for(name)
                if not lock.acquire(blocking=False):
                    continue
                try:
                    runner = None
                    with self._mutex:
                        if len(self._active) > self.max_active:
                            runner = self._active.pop(name, None)
                    if runner is not None:
                        self._stash_snapshot(runner)
                        evicted = name
                finally:
                    lock.release()
                if evicted:
                    tel.counter("serve.sessions.evicted").inc()
                    break
            if not evicted:
                return

    # -- views ----------------------------------------------------------------

    def ask(self, name: str) -> dict:
        with self.session(name) as runner:
            return runner.ask()

    def tell(self, name: str, ask_id) -> dict:
        with self.session(name) as runner:
            return runner.tell(ask_id)

    def best(self, name: str) -> dict:
        with self.session(name) as runner:
            return runner.best()

    def status(self, name: str) -> dict:
        with self.session(name) as runner:
            return runner.status()

    def result(self, name: str) -> AutotuneResult:
        """The finished session's :class:`AutotuneResult` (in-process use)."""
        with self.session(name) as runner:
            return runner._ensure_result()

    def list_sessions(self) -> list[dict]:
        """Light listing: resident sessions report live state, evicted
        ones only their existence (touching them would rehydrate)."""
        with self._mutex:
            active = dict(self._active)
            known = set(self._known)
        rows = []
        for name in sorted(known | set(active)):
            runner = active.get(name)
            if runner is not None:
                row = {
                    "session": name,
                    "state": "completed" if runner.completed else "active",
                    "algorithm": runner.strategy.name,
                }
            else:
                row = {"session": name, "state": "evicted", "algorithm": None}
            rows.append(row)
        return rows

    def stats(self) -> dict:
        with self._mutex:
            active = len(self._active)
            known = len(self._known)
            rehydrate_ms = list(self._rehydrate_ms)
        return {
            "active": active,
            "evicted": max(0, known - active),
            "known": known,
            "max_active": self.max_active,
            "directory": str(self.directory),
            "store": None if self.store is None else self.store.path,
            "cache": self.cache.stats(),
            "rehydrate_ms": _latency_digest(rehydrate_ms),
        }

    def shutdown(self) -> None:
        """Drain-and-checkpoint: drop every resident session.

        Checkpoints are already durable at the last cycle boundary and
        pending asks are re-derivable, so dropping the runners *is* the
        checkpoint step; the daemon calls this after in-flight requests
        have drained.
        """
        self.evict_all()
