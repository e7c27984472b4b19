"""The serve rehydration caches: bounds and concurrency.

Covers the three cache tiers of :mod:`repro.serve.artifacts` directly
(LRU order, capacity bounds, consume-on-hit, telemetry counters,
multi-threaded stress) and through the session manager (shared
problem artifacts by reference, snapshot invalidation on create/close,
cross-session isolation under concurrent churn).
"""

from __future__ import annotations

import threading

from conftest import comparable, drive, offline_result
from repro.lru import LruCache
from repro.serve.artifacts import ArtifactCache, spec_key
from repro.serve.sessions import SessionManager
from repro.serve.specs import SessionSpec
from repro.store.db import MeasurementStore
from repro.store.registry import ModelRegistry

SMALL = dict(budget=6, pool_size=50, history_size=30, seed=3)


class TestLruCache:
    def test_lru_order_capacity_and_counters(self):
        cache = LruCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 1
        assert stats["hit_ratio"] == 0.75

    def test_take_consumes_and_pop_is_uncounted(self):
        cache = LruCache("t", capacity=4)
        cache.put("a", "x")
        assert cache.take("a") == "x"
        assert cache.take("a") is None  # consumed: second take misses
        cache.put("b", "y")
        assert cache.pop("b") == "y"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1  # pop uncounted

    def test_counters_flow_through_telemetry_hub(self):
        from repro import telemetry
        from repro.telemetry import Telemetry

        hub = Telemetry()
        with telemetry.use(hub):
            cache = LruCache("serve.cache.unittier", capacity=1)
            cache.put("a", 1)
            cache.get("a")
            cache.get("ghost")
            cache.put("b", 2)  # evicts a
        metrics = {m["name"]: m["value"] for m in hub.metrics_snapshot()}
        assert metrics["serve.cache.unittier.hits"] == 1
        assert metrics["serve.cache.unittier.misses"] == 1
        assert metrics["serve.cache.unittier.evictions"] == 1
        assert metrics["serve.cache.unittier.bytes"] > 0

    def test_multithreaded_stress_stays_bounded_and_consistent(self):
        """Hammer one cache from many threads: the capacity bound, the
        per-key values, and the counter bookkeeping all survive."""
        cache = LruCache("stress", capacity=8)
        errors: list = []

        def worker(tid: int) -> None:
            try:
                for i in range(400):
                    key = (tid, i % 12)
                    value = cache.get(key)
                    if value is not None:
                        # A hit must return this thread's own value —
                        # keys are thread-scoped, so any bleed-through
                        # would surface as a foreign tuple here.
                        assert value == (tid, i % 12, "v"), value
                    cache.put(key, (tid, i % 12, "v"))
                    if i % 50 == 0:
                        cache.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 400
        assert stats["evictions"] > 0


class TestArtifactTiers:
    def test_problem_artifacts_shared_by_reference(self):
        cache = ArtifactCache()
        a = cache.problem_artifacts(SessionSpec(algorithm="rs", **SMALL))
        b = cache.problem_artifacts(SessionSpec(algorithm="ceal", **SMALL))
        # Same deterministic key (algorithm is not part of it): the
        # exact same bundle object, not an equal copy.
        assert a is b
        other = cache.problem_artifacts(
            SessionSpec(algorithm="rs", **{**SMALL, "seed": 4})
        )
        assert other is not a
        assert cache.problems.stats()["hits"] == 1
        assert cache.problems.stats()["misses"] == 2

    def test_spec_key_covers_only_artifact_fields(self):
        base = SessionSpec(algorithm="rs", **SMALL)
        same = SessionSpec(algorithm="ceal", budget=9, **{
            k: v for k, v in SMALL.items() if k != "budget"
        })
        assert spec_key(base) == spec_key(same)
        assert spec_key(base) != spec_key(
            SessionSpec(algorithm="rs", **{**SMALL, "noise_sigma": 0.2})
        )

    def test_all_three_tiers_evict_at_capacity_one(self):
        cache = ArtifactCache(problems=1, models=1, snapshots=1)
        s1 = SessionSpec(algorithm="rs", **SMALL)
        s2 = SessionSpec(algorithm="rs", **{**SMALL, "seed": 4})
        a1 = cache.problem_artifacts(s1)
        cache.problem_artifacts(s2)  # evicts s1's bundle
        assert len(cache.problems) == 1
        assert cache.problem_artifacts(s1) is not a1  # rebuilt, not cached

        registry = ModelRegistry(memo=cache.models)
        registry.fit_or_load("k1", lambda: "m1")
        registry.fit_or_load("k2", lambda: "m2")  # evicts k1
        assert len(cache.models) == 1
        assert cache.models.get("k1") is None
        assert cache.models.get("k2") == "m2"

        cache.stash_snapshot("s1", {"iteration": 1})
        cache.stash_snapshot("s2", {"iteration": 2})  # evicts s1
        assert cache.take_snapshot("s1") is None
        assert cache.take_snapshot("s2") == {"iteration": 2}
        for tier in (cache.problems, cache.models, cache.snapshots):
            assert tier.stats()["evictions"] >= 1

    def test_model_registry_promotes_to_shared_tier(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import Telemetry

        cache = ArtifactCache()
        first = ModelRegistry(memo=cache.models)
        fits = []

        def fit():
            fits.append(1)
            return {"weights": [1, 2, 3]}

        model = first.fit_or_load("key", fit)
        # A different registry (a different session) over the same
        # memo gets the same object without refitting.
        second = ModelRegistry(memo=cache.models)
        assert second.fit_or_load("key", fit) is model
        assert len(fits) == 1
        assert first.misses == 1 and second.hits == 1

        # Store-backed: a registry over a fresh memo loads the stored
        # model without fitting and fills the memo, so a second
        # registry over that memo never reads the store.
        store = MeasurementStore(tmp_path / "models.db")
        store.put_model("key", model)
        memo = ArtifactCache().models
        hub = Telemetry()
        with telemetry.use(hub):
            loaded = ModelRegistry(store, memo=memo).fit_or_load("key", fit)
            assert memo.get("key") is loaded
            again = ModelRegistry(store, memo=memo).fit_or_load("key", fit)
        assert again is loaded and loaded == model
        assert len(fits) == 1
        metrics = {m["name"]: m["value"] for m in hub.metrics_snapshot()}
        assert metrics["store.registry.hits"] == 1
        assert "store.registry.misses" not in metrics
        store.close()

    def test_snapshot_invalidated_on_create_and_close(self, tmp_path):
        manager = SessionManager(tmp_path / "state", max_active=1)
        spec = dict(algorithm="rs", **SMALL)
        manager.create(dict(spec), name="a")
        manager.create(dict(spec, seed=4), name="b")  # evicts + stashes a
        assert len(manager.cache.snapshots) == 1
        manager.close("a", delete=True)
        assert manager.cache.take_snapshot("a") is None

    def test_concurrent_sessions_no_cross_session_bleed(self, tmp_path):
        """Six sessions with six distinct seeds driven from six threads
        over a two-resident manager (constant churn, one shared cache):
        every session must finish byte-identical to its own offline
        run — any artifact/model/snapshot bleed between sessions would
        change some session's trajectory."""
        manager = SessionManager(tmp_path / "state", max_active=2)
        specs = {
            f"s{i}": SessionSpec(
                algorithm=("rs", "lowfid", "ceal")[i % 3],
                use_history=True,
                **{**SMALL, "seed": 50 + i},
            )
            for i in range(6)
        }
        for name, spec in specs.items():
            manager.create(spec, name=name)
        errors: list = []

        def run(name: str) -> None:
            try:
                drive(manager, name)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run, args=(name,)) for name in specs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for name, spec in specs.items():
            assert comparable(manager.result(name)) == comparable(
                offline_result(spec)
            ), name

