"""Hot-path rehydration caches for the serve layer (three tiers).

PR 9's load benchmark showed the daemon spending most of its latency
budget rebuilding state it had already computed: every eviction/touch
cycle re-derived the session's pool, component histories, and fitted
component models from the spec's seeds, even though all of them are
*pure functions* of `(spec fields, store contents)`.  This module
amortizes that work across sessions — the same bootstrap-reuse insight
the paper applies to component models, applied to the service itself:

* **Problem-artifact cache** — the deterministic, immutable part of a
  :class:`~repro.core.problem.TuningProblem`, the
  :class:`~repro.core.autotuner.ProblemArtifacts` bundle (built
  workflow, measured pool, component histories, feature encoder),
  keyed by exactly the spec fields that determine it: ``(workflow,
  pool_size, seed, noise_sigma, history_size)``.  Sessions whose keys
  hash equal share the artifacts *by reference*; the mutable problem
  state (collector, RNG, tracker) is still built fresh per session,
  which is why sharing preserves bit-identity.
* **Fitted-model cache** — an in-process front for
  :class:`~repro.store.registry.ModelRegistry` keyed by the same
  training-set content hash.  Every fit in this codebase is a
  deterministic function of its inputs, so a rehydrated session can be
  handed the previously fitted (and already packed) ensemble instead
  of refitting: same model, no wall-clock.  Works with or without a
  backing store; when a store registry is present it is consulted (and
  fed) on in-process misses.
* **Warm-snapshot cache** — a second-chance buffer holding the parsed
  checkpoint payloads of the most recently evicted sessions.  A
  re-touch within the window restores straight from the in-memory
  payload, skipping disk load and validation entirely.  Snapshots are
  consumed on hit and invalidated on create/close, so a stale payload
  can never resurrect a deleted or replaced session.

Every tier is LRU-bounded, thread-safe, and instrumented: hit/miss/
eviction counters and byte gauges flow through the telemetry hub under
``serve.cache.<tier>.*``, and :meth:`ArtifactCache.stats` feeds the
daemon's ``/v1/healthz`` stats payload.

``REPRO_NO_SERVE_CACHE=1`` is the kill switch: a disabled cache never
stores and never returns entries, reproducing PR 9's rebuild-everything
behaviour byte for byte (proven by the kill-switch tests).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict

import numpy as np

from repro import telemetry
from repro.core.autotuner import ProblemArtifacts, build_problem_artifacts

__all__ = [
    "ArtifactCache",
    "CachingModelRegistry",
    "LruCache",
    "cache_enabled",
    "spec_key",
]


def cache_enabled() -> bool:
    """Whether the serve caches are on (``REPRO_NO_SERVE_CACHE`` kills them)."""
    return os.environ.get("REPRO_NO_SERVE_CACHE", "") not in ("1", "true", "yes")


def spec_key(spec) -> tuple:
    """The deterministic-artifact key of a session spec.

    Exactly the arguments of
    :func:`repro.core.autotuner.build_problem_artifacts`, in order: two
    specs that agree here rebuild bit-identical pools, histories,
    workflows and encoders, so their sessions may share one artifact
    bundle by reference.  (``budget``, ``algorithm``, ``objective`` etc.
    shape the *mutable* problem state, which is always built fresh.)
    """
    return (
        spec.workflow,
        int(spec.pool_size),
        int(spec.seed),
        float(spec.noise_sigma),
        int(spec.history_size),
    )


def _approx_nbytes(obj, depth: int = 3) -> int:
    """Cheap, bounded-depth size estimate for cache accounting.

    Exact numpy ``nbytes`` where available (arrays dominate every
    artifact), shallow container recursion elsewhere.  This feeds
    byte *gauges*, not eviction decisions — eviction is entry-count
    LRU — so an estimate is all that is needed.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if depth <= 0:
        return sys.getsizeof(obj, 64)
    if isinstance(obj, dict):
        return sys.getsizeof(obj) + sum(
            _approx_nbytes(v, depth - 1) for v in obj.values()
        )
    if isinstance(obj, (list, tuple)):
        total = sys.getsizeof(obj)
        for item in obj[:256]:
            total += _approx_nbytes(item, depth - 1)
        return total
    fields = getattr(obj, "__dict__", None)
    if isinstance(fields, dict):
        return sys.getsizeof(obj, 64) + _approx_nbytes(fields, depth - 1)
    return sys.getsizeof(obj, 64)


class LruCache:
    """Thread-safe, capacity-bounded LRU mapping with telemetry.

    ``name`` scopes the counters: ``serve.cache.<name>.hits`` /
    ``.misses`` / ``.evictions`` and the ``serve.cache.<name>.bytes``
    max-gauge.  ``enabled=False`` turns every operation into a no-op
    miss — the kill-switch path — so callers never branch.
    """

    def __init__(self, name: str, capacity: int, enabled: bool = True):
        self.name = name
        self.capacity = max(1, int(capacity))
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    _MISSING = object()

    def get(self, key, default=None):
        if not self.enabled:
            self.misses += 1
            telemetry.get().counter(f"serve.cache.{self.name}.misses").inc()
            return default
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                self.misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
        tel = telemetry.get()
        if hit:
            tel.counter(f"serve.cache.{self.name}.hits").inc()
            return value
        tel.counter(f"serve.cache.{self.name}.misses").inc()
        return default

    def put(self, key, value) -> None:
        if not self.enabled:
            return
        size = _approx_nbytes(value)
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._bytes[key] = size
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._bytes.pop(old_key, None)
                evicted += 1
            self.evictions += evicted
            total = sum(self._bytes.values())
        tel = telemetry.get()
        if evicted:
            tel.counter(f"serve.cache.{self.name}.evictions").inc(evicted)
        tel.gauge(f"serve.cache.{self.name}.bytes").set_max(total)

    def pop(self, key, default=None):
        """Remove and return ``key`` (no hit/miss accounting)."""
        with self._lock:
            self._bytes.pop(key, None)
            return self._entries.pop(key, default)

    def take(self, key, default=None):
        """Consume ``key``: a counted get that removes the entry on hit."""
        if not self.enabled:
            self.misses += 1
            telemetry.get().counter(f"serve.cache.{self.name}.misses").inc()
            return default
        with self._lock:
            value = self._entries.pop(key, self._MISSING)
            self._bytes.pop(key, None)
            if value is self._MISSING:
                self.misses += 1
                hit = False
            else:
                self.hits += 1
                hit = True
        tel = telemetry.get()
        if hit:
            tel.counter(f"serve.cache.{self.name}.hits").inc()
            return value
        tel.counter(f"serve.cache.{self.name}.misses").inc()
        return default

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._entries)
            total = sum(self._bytes.values())
        lookups = self.hits + self.misses
        return {
            "enabled": self.enabled,
            "entries": entries,
            "capacity": self.capacity,
            "bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hits / lookups, 4) if lookups else 0.0,
        }


class CachingModelRegistry:
    """In-process fitted-model front with the ModelRegistry contract.

    ``fit_or_load`` resolution order: shared in-process LRU → backing
    store registry (when the session has one) → run the deterministic
    ``fit``.  Whatever a lower layer produces is promoted upward, so a
    model is fitted (or unpickled) at most once per process and every
    later rehydration gets the already-packed ensemble by reference.
    Fitted ensembles are treated as immutable everywhere (refits clone
    before fitting), which is what makes reference sharing safe.
    """

    def __init__(self, cache: LruCache, inner=None):
        self._cache = cache
        self._inner = inner
        self.hits = 0
        self.misses = 0

    def fit_or_load(self, key: str, fit, kind: str = "model"):
        model = self._cache.get(key)
        if model is not None:
            self.hits += 1
            return model
        self.misses += 1
        if self._inner is not None:
            model = self._inner.fit_or_load(key, fit, kind=kind)
        else:
            model = fit()
        self._cache.put(key, model)
        return model


class ArtifactCache:
    """The serve layer's shared rehydration caches, one per manager.

    Parameters bound each tier's entry count; ``enabled=None`` follows
    the ``REPRO_NO_SERVE_CACHE`` kill switch.  Tests force thrash by
    passing capacity 1 everywhere.
    """

    def __init__(
        self,
        problems: int = 128,
        models: int = 1024,
        snapshots: int = 32,
        enabled: bool | None = None,
    ):
        if enabled is None:
            enabled = cache_enabled()
        self.enabled = bool(enabled)
        self.problems = LruCache("problem", problems, enabled=self.enabled)
        self.models = LruCache("model", models, enabled=self.enabled)
        self.snapshots = LruCache("snapshot", snapshots, enabled=self.enabled)

    # -- tier 1: problem artifacts -------------------------------------------

    def problem_artifacts(self, spec) -> ProblemArtifacts:
        """The shared artifact bundle for ``spec`` (built on miss).

        Misses pay the full rebuild once; every later session or
        rehydration with an equal :func:`spec_key` is a dictionary hit
        returning the same immutable bundle.
        """
        key = spec_key(spec)
        artifacts = self.problems.get(key)
        if artifacts is None:
            artifacts = build_problem_artifacts(*key)
            self.problems.put(key, artifacts)
        return artifacts

    # -- tier 2: fitted models ------------------------------------------------

    def registry(self, inner=None) -> CachingModelRegistry:
        """A fitted-model front over the shared model tier.

        ``inner`` is the problem's store-backed registry when the
        daemon is bound to a store (consulted and fed on in-process
        misses), or ``None`` for storeless sessions — the in-process
        tier alone still turns deterministic rehydration refits into
        reference handouts.
        """
        return CachingModelRegistry(self.models, inner=inner)

    # -- tier 3: warm snapshots ----------------------------------------------

    def stash_snapshot(self, name: str, payload: dict) -> None:
        """Keep an evicted session's parsed checkpoint payload warm."""
        self.snapshots.put(name, payload)

    def take_snapshot(self, name: str):
        """Consume the warm payload for ``name`` (``None`` on miss).

        Consumed on hit — the rehydrated runner will stash a fresh
        payload when it is next evicted — so one payload is never
        restored twice.
        """
        return self.snapshots.take(name)

    def invalidate_session(self, name: str) -> None:
        """Drop any warm snapshot for ``name`` (create/close/delete)."""
        self.snapshots.pop(name)

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "problem": self.problems.stats(),
            "model": self.models.stats(),
            "snapshot": self.snapshots.stats(),
        }

    def clear(self) -> None:
        self.problems.clear()
        self.models.clear()
        self.snapshots.clear()
