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
* **Fitted-model cache** — the ``memo`` of every session's
  :class:`~repro.store.registry.ModelRegistry`, keyed by the
  training-set content hash.  Every fit in this codebase is a
  deterministic function of its inputs, so a rehydrated session can be
  handed the previously fitted (and already packed) ensemble instead
  of refitting: same model, no wall-clock.  Works with or without a
  backing store; when the daemon has one, the registry consults (and
  feeds) it on memo misses.
* **Warm-snapshot cache** — a second-chance buffer holding the parsed
  checkpoint payloads of the most recently evicted sessions.  A
  re-touch within the window restores straight from the in-memory
  payload, skipping disk load and validation entirely.  Snapshots are
  consumed on hit and invalidated on create/close, so a stale payload
  can never resurrect a deleted or replaced session.

Every tier is a :class:`repro.lru.LruCache` (LRU-bounded, thread-safe,
instrumented): hit/miss/eviction counters and byte gauges flow through
the telemetry hub under ``serve.cache.<tier>.*``, and
:meth:`ArtifactCache.stats` feeds the daemon's ``/v1/healthz`` stats
payload.  The offline run is the reference every served session is
compared against byte for byte; capacity-1 tiers keep every miss path
exercised.
"""

from __future__ import annotations

from repro.core.autotuner import ProblemArtifacts, build_problem_artifacts
from repro.lru import LruCache

__all__ = ["ArtifactCache", "spec_key"]


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


class ArtifactCache:
    """The serve layer's shared rehydration caches, one per manager.

    Tier 2, ``models``, has no methods of its own: it is the ``memo``
    every session's :class:`~repro.store.registry.ModelRegistry` reads
    and fills.  Parameters bound each tier's entry count.  Tests force
    thrash by passing capacity 1 everywhere.
    """

    def __init__(
        self,
        problems: int = 128,
        models: int = 1024,
        snapshots: int = 32,
    ):
        self.problems = LruCache("serve.cache.problem", problems)
        self.models = LruCache("serve.cache.model", models)
        self.snapshots = LruCache("serve.cache.snapshot", snapshots)

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

    # -- tier 3: warm snapshots ----------------------------------------------

    def stash_snapshot(
        self, name: str, payload: dict, nbytes: int | None = None
    ) -> None:
        """Keep an evicted session's parsed checkpoint payload warm.

        ``nbytes`` sizes the entry for the byte gauge: the length of the
        payload's checkpoint file, so the payload is never walked.
        """
        self.snapshots.put(name, payload, nbytes=nbytes)

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
            "problem": self.problems.stats(),
            "model": self.models.stats(),
            "snapshot": self.snapshots.stats(),
        }

    def clear(self) -> None:
        self.problems.clear()
        self.models.clear()
        self.snapshots.clear()
