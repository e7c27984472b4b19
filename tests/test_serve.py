"""The serve session layer: bit-identity, eviction, crash recovery.

The central contract under test: a session driven stepwise through
:class:`~repro.serve.sessions.SessionManager` — with eviction forced
between every request, or the whole manager discarded and rebuilt from
its state directory mid-run — finishes **bit-identical** to an
uninterrupted offline ``algorithm.tune(problem)`` run: same measured
configurations in the same order, same costs, same event log (timing
excluded), same recommendation.  This extends the
``tests/test_checkpoint_resume.py`` determinism guarantee across the
service's eviction/rehydration and restart paths.
"""

from __future__ import annotations

import pytest

from conftest import comparable, drive, offline_result
from repro.serve.artifacts import ArtifactCache
from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionManager, _latency_digest
from repro.serve.specs import ALGORITHMS, SessionSpec, build_problem

SMALL = dict(budget=8, pool_size=60, history_size=40, seed=3)

#: Cache regimes the bit-identity contract must hold under: the shared
#: rehydration caches at their defaults, and thrashing (capacity 1
#: everywhere, so nearly every lookup misses and entries are evicted
#: constantly).
CACHE_MODES = ("on", "thrash")


def make_cache(mode: str) -> ArtifactCache | None:
    """An :class:`ArtifactCache` for one of :data:`CACHE_MODES`."""
    if mode == "thrash":
        return ArtifactCache(problems=1, models=1, snapshots=1)
    return None  # manager builds its own default-capacity cache


#: Every algorithm with free histories (ceal and rs under both cache
#: regimes), plus the two that pay for Phase 1 without them.
EVICTION_CASES = [
    pytest.param(algorithm, cache_mode, True, id=f"{algorithm}-{cache_mode}")
    for algorithm in ALGORITHMS
    for cache_mode in (CACHE_MODES if algorithm in ("ceal", "rs") else ("on",))
] + [
    pytest.param(algorithm, "on", False, id=f"{algorithm}-on-no-history")
    for algorithm in ("ceal", "alph")
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "algorithm,cache_mode,use_history", EVICTION_CASES
    )
    def test_eviction_every_step_matches_offline(
        self, tmp_path, algorithm, cache_mode, use_history
    ):
        """Eviction forced between every single request: byte-equal."""
        spec = SessionSpec(
            algorithm=algorithm, use_history=use_history, **SMALL
        )
        straight = offline_result(spec)
        manager = SessionManager(
            tmp_path / "state", max_active=4, cache=make_cache(cache_mode)
        )
        manager.create(spec, name="s")
        done = drive(manager, "s", evict_every_step=True)
        assert comparable(manager.result("s")) == comparable(straight)
        pool = build_problem(spec).pool
        assert done["best"]["recommended_config"] == list(
            straight.best_config(pool)
        )
        assert done["best"]["recommended_value"] == straight.best_actual_value(
            pool
        )

    @pytest.mark.parametrize("cache_mode", CACHE_MODES, ids=str)
    def test_crash_recovery_restart_matches_offline(self, tmp_path, cache_mode):
        """Drop the whole manager mid-run; a new one recovers and
        finishes identically — the daemon-restart scenario.  The
        replacement manager starts with cold caches in every mode, so
        recovery must never depend on warm in-process state."""
        spec = SessionSpec(algorithm="ceal", use_history=True, **SMALL)
        straight = offline_result(spec)
        first = SessionManager(tmp_path / "state", cache=make_cache(cache_mode))
        first.create(spec, name="s")
        for _ in range(2):  # a couple of cycles, then "crash"
            proposal = first.ask("s")
            assert not proposal.get("done")
            first.tell("s", proposal["ask_id"])
        del first  # no shutdown, no checkpoint call: simulated crash

        second = SessionManager(tmp_path / "state", cache=make_cache(cache_mode))
        assert second.recovered == ["s"]
        drive(second, "s")
        assert comparable(second.result("s")) == comparable(straight)

    def test_a_session_is_one_file(self, tmp_path):
        """Create, ask, tell, evict and shut down: the state directory
        holds only the session's checkpoint, a new manager recovers the
        session from it alone and finishes it identically, and a delete
        leaves nothing behind."""
        spec = SessionSpec(algorithm="ceal", use_history=True, **SMALL)
        state = tmp_path / "state"
        first = SessionManager(state)
        first.create(spec, name="s")
        first.tell("s", first.ask("s")["ask_id"])
        assert first.evict("s")
        first.shutdown()
        assert [p.name for p in state.iterdir()] == ["s.ckpt"]
        second = SessionManager(state)
        drive(second, "s")
        assert comparable(second.result("s")) == comparable(offline_result(spec))
        second.close("s", delete=True)
        assert list(state.iterdir()) == []

    def test_tell_after_eviction_of_pending_ask(self, tmp_path):
        """An un-told ask survives eviction: the rehydrated session
        regenerates the identical batch under the identical id."""
        spec = SessionSpec(algorithm="rs", **SMALL)
        manager = SessionManager(tmp_path / "state")
        manager.create(spec, name="s")
        proposal = manager.ask("s")
        assert manager.evict("s")
        again = manager.ask("s")
        assert again["ask_id"] == proposal["ask_id"]
        assert again["configs"] == proposal["configs"]
        assert manager.evict("s")
        told = manager.tell("s", proposal["ask_id"])  # never re-asked
        assert told["measured"] == len(proposal["configs"])

    def test_completed_session_rehydrates_same_recommendation(self, tmp_path):
        spec = SessionSpec(algorithm="rs", **SMALL)
        manager = SessionManager(tmp_path / "state")
        manager.create(spec, name="s")
        best = drive(manager, "s")["best"]
        manager.evict_all()
        rehydrated = manager.best("s")
        assert rehydrated["completed"] is True
        assert rehydrated["recommended_config"] == best["recommended_config"]
        assert rehydrated["recommended_value"] == best["recommended_value"]


#: Spec fields of the wrong type, each of which a coercing spec would
#: have accepted.
MISTYPED = [
    ("budget", 8.7),
    ("pool_size", "60"),
    ("seed", 3.9),
    ("seed", True),
    ("history_size", 40.0),
    ("use_history", "false"),
    ("use_history", 1),
    ("noise_sigma", "0.05"),
    ("workflow", ["LV"]),
    ("objective", {"name": "computer_time"}),
]


class TestLifecycleAndErrors:
    def test_lru_eviction_respects_max_active(self, tmp_path):
        manager = SessionManager(tmp_path / "state", max_active=2)
        spec = dict(algorithm="rs", **SMALL)
        for name in ("a", "b", "c"):
            manager.create(dict(spec), name=name)
        stats = manager.stats()
        assert stats["active"] == 2
        assert stats["known"] == 3
        # "a" was touched least recently: it is the evicted one.
        states = {r["session"]: r["state"] for r in manager.list_sessions()}
        assert states == {"a": "evicted", "b": "active", "c": "active"}
        # Touching "a" rehydrates it and evicts the next-coldest.
        assert manager.status("a")["state"] == "active"
        states = {r["session"]: r["state"] for r in manager.list_sessions()}
        assert states["a"] == "active"
        assert sum(s == "evicted" for s in states.values()) == 1

    def test_unknown_session(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        with pytest.raises(ServeError) as err:
            manager.ask("ghost")
        assert err.value.code == "unknown_session"

    def test_duplicate_name_conflicts(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        with pytest.raises(ServeError) as err:
            manager.create(dict(algorithm="rs", **SMALL), name="s")
        assert err.value.code == "conflict"

    def test_stale_ask_id(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        proposal = manager.ask("s")
        with pytest.raises(ServeError) as err:
            manager.tell("s", "a999")
        assert err.value.code == "stale_ask"
        manager.tell("s", proposal["ask_id"])  # the real one still lands
        with pytest.raises(ServeError) as err:
            manager.tell("s", proposal["ask_id"])  # already told
        assert err.value.code == "stale_ask"

    def test_tell_after_completion(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        drive(manager, "s")
        with pytest.raises(ServeError) as err:
            manager.tell("s", "a1")
        assert err.value.code == "session_completed"
        # ask after completion is benign: it reports done + best.
        assert manager.ask("s")["done"] is True

    def test_close_keeps_then_delete_forgets(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        manager.close("s")
        assert manager.status("s")["state"] == "active"  # rehydrated
        manager.close("s", delete=True)
        with pytest.raises(ServeError) as err:
            manager.status("s")
        assert err.value.code == "unknown_session"
        assert not list((tmp_path / "state").glob("s.*"))

    def test_failed_delete_keeps_the_session(self, tmp_path, monkeypatch):
        """A checkpoint that cannot be unlinked is an ``internal`` error,
        not ``deleted: true``: the session stays listed and a restarted
        manager still recovers it."""
        import os

        state = tmp_path / "state"
        manager = SessionManager(state)
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        unlink = os.unlink

        def refuse_checkpoint(path, *args, **kwargs):
            if str(path).endswith(".ckpt"):
                raise PermissionError(13, "Permission denied", str(path))
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", refuse_checkpoint)
        with pytest.raises(ServeError) as err:
            manager.close("s", delete=True)
        assert err.value.code == "internal"
        assert "s.ckpt" in err.value.message
        assert [row["session"] for row in manager.list_sessions()] == ["s"]
        monkeypatch.undo()
        assert SessionManager(state).recovered == ["s"]
        assert manager.status("s")["state"] == "active"  # rehydrates
        manager.close("s", delete=True)
        assert not list(state.glob("s.*"))

    @pytest.mark.parametrize(
        "bad",
        [
            {"algorithm": "nope"},
            {"workflow": "XX"},
            {"objective": "speed"},
            {"budget": 1},
            {"warm_start": "maybe"},
            {"frobnicate": True},
            {"history_size": -5},
            {"history_size": 1},
            {"noise_sigma": -0.1},
            {"noise_sigma": float("inf")},
            {"noise_sigma": float("nan")},
        ],
        ids=lambda b: next(iter(b)),
    )
    def test_bad_spec_fields(self, tmp_path, bad):
        manager = SessionManager(tmp_path / "state")
        spec = dict(algorithm="rs", **SMALL)
        spec.update(bad)
        with pytest.raises(ServeError) as err:
            manager.create(spec, name="s")
        assert err.value.code == "bad_request"

    def test_huge_noise_sigma_is_bad_request(self):
        """An integer too large for a float is a bad spec, not an
        ``OverflowError`` out of ``math.isfinite``."""
        with pytest.raises(ServeError) as err:
            SessionSpec.from_dict({**SMALL, "noise_sigma": 10**400})
        assert err.value.code == "bad_request"
        assert "noise_sigma" in err.value.message

    @pytest.mark.parametrize(
        "field,value",
        MISTYPED,
        ids=[f"{field}-{type(value).__name__}" for field, value in MISTYPED],
    )
    def test_mistyped_spec_fields(self, field, value):
        """Fields are type-checked, never coerced: ``"false"`` is not
        false, and a fractional budget is not silently truncated."""
        with pytest.raises(ServeError) as err:
            SessionSpec.from_dict({**SMALL, "algorithm": "ceal", field: value})
        assert err.value.code == "bad_request"
        assert field in err.value.message

    def test_failed_prepare_leaves_nothing_behind(self, tmp_path):
        """A spec that validates but cannot be prepared (CEAL needs a
        budget of at least 4) is a bad request, not an orphan session."""
        manager = SessionManager(tmp_path / "state")
        with pytest.raises(ServeError) as err:
            manager.create(dict(SMALL, algorithm="ceal", budget=3), name="s")
        assert err.value.code == "bad_request"
        assert "budget" in err.value.message
        assert not list((tmp_path / "state").glob("s.*"))
        assert manager.list_sessions() == []
        # Nothing to recover, and the name is free again.
        restarted = SessionManager(tmp_path / "state")
        assert restarted.recovered == []
        status = restarted.create(dict(SMALL, algorithm="ceal"), name="s")
        assert status["session"] == "s"

    def test_recovery_skips_invalid_names(self, tmp_path):
        """A checkpoint under a name no request can address is left on
        disk, not listed as a session that answers ``bad_request``."""
        state = tmp_path / "state"
        SessionManager(state).create(dict(algorithm="rs", **SMALL), name="s")
        stray = state / "bad name.ckpt"
        stray.write_bytes((state / "s.ckpt").read_bytes())
        restarted = SessionManager(state)
        assert restarted.recovered == ["s"]
        assert [row["session"] for row in restarted.list_sessions()] == ["s"]
        assert stray.exists()

    @pytest.mark.parametrize("name", ["", ".hidden", "a/b", "x" * 65, "a b"])
    def test_bad_session_names(self, tmp_path, name):
        manager = SessionManager(tmp_path / "state")
        with pytest.raises(ServeError) as err:
            manager.create(dict(algorithm="rs", **SMALL), name=name)
        assert err.value.code == "bad_request"

    def test_warm_start_requires_store(self, tmp_path):
        manager = SessionManager(tmp_path / "state")  # no store bound
        with pytest.raises(ServeError) as err:
            manager.create(
                dict(algorithm="rs", warm_start="full", **SMALL), name="s"
            )
        assert err.value.code == "bad_request"


class TestSharedStore:
    def test_sessions_record_into_shared_store(self, tmp_path):
        from repro.store import MeasurementStore

        manager = SessionManager(
            tmp_path / "state", store=tmp_path / "shared.db"
        )
        manager.create(dict(algorithm="rs", **SMALL), name="a")
        manager.create(
            dict(algorithm="rs", **{**SMALL, "seed": 4}), name="b"
        )
        drive(manager, "a", evict_every_step=True)
        drive(manager, "b")
        manager.store.close()
        store = MeasurementStore(tmp_path / "shared.db")
        rows = store.export()["measurements"]
        # Both sessions' paid runs landed, each recorded exactly once
        # despite the eviction churn (row-key dedupe + session ids
        # round-tripping through checkpoints).
        assert len(rows) == 2 * SMALL["budget"]
        assert len({r["session"] for r in rows}) == 2
        store.close()

    def test_warm_start_full_adopts_from_store(self, tmp_path):
        manager = SessionManager(
            tmp_path / "state", store=tmp_path / "shared.db"
        )
        cold = dict(algorithm="rs", **SMALL)
        manager.create(cold, name="cold")
        drive(manager, "cold")
        warm = dict(algorithm="rs", warm_start="full", **SMALL)
        manager.create(warm, name="warm")
        status = manager.status("warm")
        # Adopted measurements are free samples: the warm session
        # starts with the cold run's coverage before spending budget.
        assert status["samples"] > 0
        assert status["runs_used"] == 0
        drive(manager, "warm", evict_every_step=True)
        assert manager.best("warm")["completed"] is True
        manager.store.close()


class TestTelemetry:
    def test_session_counters_flow_through_hub(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import Telemetry

        hub = Telemetry()
        with telemetry.use(hub):
            manager = SessionManager(tmp_path / "state", max_active=1)
            manager.create(dict(algorithm="rs", **SMALL), name="a")
            manager.create(dict(algorithm="rs", **SMALL), name="b")
            manager.status("a")  # rehydrates a, evicts b
        metrics = {m["name"]: m["value"] for m in hub.metrics_snapshot()}
        assert metrics["serve.sessions.created"] == 2
        assert metrics["serve.sessions.evicted"] >= 1
        assert metrics["serve.sessions.rehydrated"] >= 1
        # The peak is sampled before overflow eviction trims back to
        # max_active, so it may briefly exceed it — but never the
        # number of sessions ever resident.
        assert 1 <= metrics["serve.sessions.active_peak"] <= 2

    def test_served_session_emits_the_offline_driver_telemetry(self, tmp_path):
        """Served and offline runs share one tuning cycle, so they emit
        the same ``driver.*`` spans and cycle metrics — even with the
        session evicted and rehydrated between every request."""
        from repro import telemetry
        from repro.telemetry import Telemetry

        spec = SessionSpec(algorithm="ceal", use_history=True, **SMALL)
        offline_hub, served_hub = Telemetry(), Telemetry()
        with telemetry.use(offline_hub):
            straight = offline_result(spec)
            straight.best_config(build_problem(spec).pool)
        with telemetry.use(served_hub):
            manager = SessionManager(tmp_path / "state", max_active=4)
            manager.create(spec, name="s")
            drive(manager, "s", evict_every_step=True)

        def driver_spans(hub):
            return {
                r.name for r in hub.spans
                if r.name.startswith("driver.") and r.name != "driver.run"
            }

        def metrics(hub):
            return {m["name"]: m for m in hub.metrics_snapshot()}

        assert driver_spans(served_hub) == driver_spans(offline_hub)
        assert {"driver.prepare", "driver.ask", "driver.cycle",
                "driver.tell", "driver.finalize"} <= driver_spans(served_hub)
        offline, served = metrics(offline_hub), metrics(served_hub)
        assert served["driver.cycles"]["value"] == (
            offline["driver.cycles"]["value"]
        )
        assert served["fit_seconds"]["count"] == offline["fit_seconds"]["count"]
        assert not {
            f"serve.session.{step}"
            for step in ("prepare", "ask", "tell", "finalize")
        } & {r.name for r in served_hub.spans}


class TestLatencyDigest:
    def test_known_series(self):
        values = [i + 0.12345 for i in range(1, 21)]
        digest = _latency_digest(values[::-1])  # order does not matter
        assert digest == {
            "count": 20,
            "mean": 10.623,
            "p50": 10.123,
            "p95": 19.123,
            "p99": 20.123,
            "max": 20.123,
        }

    def test_empty_series(self, tmp_path):
        assert _latency_digest([]) == {"count": 0}
        manager = SessionManager(tmp_path / "state")
        assert manager.stats()["rehydrate_ms"] == {"count": 0}
