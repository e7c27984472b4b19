"""Kill-and-resume determinism: resumed sessions finish bit-identically.

A session interrupted after any number of measurement cycles
(``max_cycles``) and resumed from its checkpoint must produce the same
:class:`~repro.core.problem.AutotuneResult` as an uninterrupted run —
same measured configurations in the same order, same recommendation,
same event log in every deterministic field (``fit_seconds`` is
wall-clock and excluded from the comparison).
"""

import pytest

from conftest import comparable
from repro.core.algorithms import ActiveLearning, RandomSampling
from repro.core.autotuner import AutoTuner
from repro.core.ceal import Ceal, CealSettings
from repro.core.driver import load_checkpoint
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem


def make_problem(lv, lv_pool, lv_histories, budget=20, **kwargs):
    return TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=lv_pool,
        budget_runs=budget,
        seed=3,
        histories=lv_histories,
        **kwargs,
    )


def run_interrupted(algorithm_factory, problem_factory, path, interrupt_after):
    """Run to ``interrupt_after`` cycles, drop everything, resume fresh."""
    paused = algorithm_factory().tune(
        problem_factory(), checkpoint_path=path, max_cycles=interrupt_after
    )
    assert paused is None, "session should have been interrupted mid-run"
    # Fresh algorithm + fresh problem: nothing survives but the file.
    return algorithm_factory().tune(
        problem_factory(), checkpoint_path=path, resume=True
    )


class TestResumeDeterminism:
    @pytest.mark.parametrize("interrupt_after", [1, 3])
    def test_ceal_with_history(
        self, lv, lv_pool, lv_histories, tmp_path, interrupt_after
    ):
        algo = lambda: Ceal(CealSettings(use_history=True))
        prob = lambda: make_problem(lv, lv_pool, lv_histories, budget=20)
        straight = algo().tune(prob())
        resumed = run_interrupted(
            algo, prob, tmp_path / "ceal.ckpt", interrupt_after
        )
        assert comparable(resumed) == comparable(straight)
        assert resumed.best_config(lv_pool) == straight.best_config(lv_pool)

    def test_ceal_paid_components(self, lv, lv_pool, lv_histories, tmp_path):
        algo = lambda: Ceal(CealSettings(use_history=False))
        prob = lambda: make_problem(lv, lv_pool, lv_histories, budget=20)
        straight = algo().tune(prob())
        resumed = run_interrupted(algo, prob, tmp_path / "ceal.ckpt", 2)
        assert comparable(resumed) == comparable(straight)
        assert resumed.best_config(lv_pool) == straight.best_config(lv_pool)

    def test_ceal_under_fault_injection(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        algo = lambda: Ceal(CealSettings(use_history=True))
        prob = lambda: make_problem(
            lv, lv_pool, lv_histories, budget=24, failure_rate=0.3
        )
        straight = algo().tune(prob())
        resumed = run_interrupted(algo, prob, tmp_path / "ceal.ckpt", 2)
        assert comparable(resumed) == comparable(straight)
        assert resumed.best_config(lv_pool) == straight.best_config(lv_pool)

    def test_active_learning_baseline(self, lv, lv_pool, lv_histories, tmp_path):
        algo = lambda: ActiveLearning(iterations=3)
        prob = lambda: make_problem(lv, lv_pool, lv_histories, budget=16)
        straight = algo().tune(prob())
        resumed = run_interrupted(algo, prob, tmp_path / "al.ckpt", 2)
        assert comparable(resumed) == comparable(straight)
        assert resumed.best_config(lv_pool) == straight.best_config(lv_pool)

    def test_random_sampling_baseline(self, lv, lv_pool, lv_histories, tmp_path):
        algo = lambda: RandomSampling()
        prob = lambda: make_problem(lv, lv_pool, lv_histories, budget=16)
        straight = algo().tune(prob())
        resumed = run_interrupted(algo, prob, tmp_path / "rs.ckpt", 1)
        assert comparable(resumed) == comparable(straight)
        assert resumed.best_config(lv_pool) == straight.best_config(lv_pool)

    def test_completed_flag_set_after_finish(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        path = tmp_path / "done.ckpt"
        Ceal(CealSettings(use_history=True)).tune(
            make_problem(lv, lv_pool, lv_histories), checkpoint_path=path
        )
        assert load_checkpoint(path)["completed"] is True

    def test_resume_across_multiple_interruptions(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        """Pause after every single cycle until the session finishes."""
        path = tmp_path / "stepwise.ckpt"
        algo = lambda: Ceal(CealSettings(use_history=True))
        prob = lambda: make_problem(lv, lv_pool, lv_histories, budget=20)
        straight = algo().tune(prob())
        result = algo().tune(prob(), checkpoint_path=path, max_cycles=1)
        hops = 0
        while result is None:
            hops += 1
            assert hops < 50, "resume loop did not converge"
            result = algo().tune(
                prob(), checkpoint_path=path, resume=True, max_cycles=1
            )
        assert hops > 1
        assert comparable(result) == comparable(straight)
        assert result.best_config(lv_pool) == straight.best_config(lv_pool)


def _recorded_sessions():
    """``tests/data/make_resume_checkpoints.py``, which wrote the files."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent / "data" / "make_resume_checkpoints.py"
    spec = importlib.util.spec_from_file_location("make_resume_checkpoints", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["ceal_history", "alph", "al"])
def test_recorded_checkpoint_resumes(name, tmp_path):
    """A mid-session checkpoint written before pools became row views of
    a value matrix resumes to the recommendation and event log of an
    uninterrupted run."""
    import shutil

    recorded = _recorded_sessions()
    path = tmp_path / "session.ckpt"
    shutil.copyfile(recorded.path_of(name), path)
    assert load_checkpoint(path)["completed"] is False
    factory = recorded.CASES[name]
    straight = factory().tune(recorded.make_problem())
    problem = recorded.make_problem()
    resumed = factory().tune(problem, checkpoint_path=path, resume=True)
    assert comparable(resumed) == comparable(straight)
    assert resumed.best_config(problem.pool) == straight.best_config(problem.pool)


class TestCheckpointWithStore:
    """``--resume`` + ``--store`` never double-records (DESIGN §10)."""

    def test_interrupted_and_resumed_run_records_once(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        from repro.store import MeasurementStore

        algo = lambda: Ceal(CealSettings(use_history=False))
        straight_db = tmp_path / "straight.db"
        resumed_db = tmp_path / "resumed.db"
        straight = algo().tune(
            make_problem(lv, lv_pool, lv_histories, store=straight_db)
        )
        resumed = run_interrupted(
            algo,
            lambda: make_problem(lv, lv_pool, lv_histories, store=resumed_db),
            tmp_path / "store.ckpt",
            2,
        )
        assert comparable(resumed) == comparable(straight)

        with_straight = MeasurementStore(straight_db)
        with_resumed = MeasurementStore(resumed_db)
        a, b = with_straight.export(), with_resumed.export()
        # Same measurement rows, once each — the interruption did not
        # drop or duplicate anything (row-key dedupe + per-batch
        # transactions).
        strip = lambda rows: [
            {
                k: r[k]
                for k in ("context_id", "config", "value", "seed", "repeat")
            }
            for r in rows
        ]
        assert strip(a["measurements"]) == strip(b["measurements"])
        # The resumed run kept recording under the session it started
        # as: the collector round-trips the store session id.
        sessions = {r["session"] for r in b["measurements"]}
        assert len(sessions) == 1
        with_straight.close()
        with_resumed.close()

    def test_collector_state_dict_round_trips_store_session(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        problem = make_problem(
            lv, lv_pool, lv_histories, store=tmp_path / "s.db"
        )
        state = problem.collector.state_dict()
        assert state["store_session"] == problem.store.session
        fresh = make_problem(
            lv, lv_pool, lv_histories, store=tmp_path / "s.db"
        )
        assert fresh.store.session != problem.store.session
        fresh.collector.restore_state(state)
        assert fresh.store.session == problem.store.session

    def test_storeless_checkpoint_still_restores(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        # A checkpoint written without a store binds cleanly into a
        # storeless problem (store_session is None) — and vice versa a
        # store-bound collector tolerates a legacy state dict.
        problem = make_problem(lv, lv_pool, lv_histories)
        state = problem.collector.state_dict()
        assert state["store_session"] is None
        bound = make_problem(
            lv, lv_pool, lv_histories, store=tmp_path / "s.db"
        )
        session = bound.store.session
        bound.collector.restore_state(state)
        assert bound.store.session == session  # unchanged


class TestAtomicCheckpoint:
    """A crash mid-save must never corrupt the previous checkpoint.

    ``save_checkpoint_payload`` stages into a unique temp file and
    publishes with ``os.replace``; a failure at either step (the write
    dies before it is durable, or the rename itself) leaves the previous
    checkpoint byte-identical, loadable, and the directory free of temp
    litter.
    """

    def _checkpointed(self, lv, lv_pool, lv_histories, tmp_path):
        path = tmp_path / "atomic.ckpt"
        Ceal(CealSettings(use_history=True)).tune(
            make_problem(lv, lv_pool, lv_histories, budget=20),
            checkpoint_path=path,
            max_cycles=1,
        )
        problem = make_problem(lv, lv_pool, lv_histories, budget=20)
        strategy = Ceal(CealSettings(use_history=True)).make_strategy()
        from repro.core.driver import TuningSession

        session = TuningSession.start(problem)
        strategy.prepare(session)  # a saveable state, as in the driver
        return path, session, strategy

    def test_torn_serialisation_keeps_previous_checkpoint(
        self, lv, lv_pool, lv_histories, tmp_path, monkeypatch
    ):
        from repro.core.driver import checkpoint_payload, save_checkpoint_payload

        path, session, strategy = self._checkpointed(
            lv, lv_pool, lv_histories, tmp_path
        )
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")  # the bytes never became durable

        monkeypatch.setattr("repro.core.driver.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            save_checkpoint_payload(path, checkpoint_payload(session, strategy))
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_checkpoint(path)["version"] >= 1

    def test_failed_publish_keeps_previous_checkpoint(
        self, lv, lv_pool, lv_histories, tmp_path, monkeypatch
    ):
        from repro.core.driver import checkpoint_payload, save_checkpoint_payload

        path, session, strategy = self._checkpointed(
            lv, lv_pool, lv_histories, tmp_path
        )
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename interrupted")

        monkeypatch.setattr("repro.core.driver.os.replace", failing_replace)
        with pytest.raises(OSError):
            save_checkpoint_payload(path, checkpoint_payload(session, strategy))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        # The surviving checkpoint still resumes to the straight result.
        algo = lambda: Ceal(CealSettings(use_history=True))
        prob = lambda: make_problem(lv, lv_pool, lv_histories, budget=20)
        straight = algo().tune(prob())
        resumed = algo().tune(prob(), checkpoint_path=path, resume=True)
        assert comparable(resumed) == comparable(straight)


class TestAutoTunerCheckpoint:
    def test_facade_passthrough(self, lv, tmp_path):
        path = tmp_path / "facade.ckpt"
        kwargs = dict(
            workflow=lv,
            objective="execution_time",
            budget=16,
            pool_size=80,
            use_history=True,
            seed=5,
        )
        straight = AutoTuner(**kwargs).tune()
        checkpointed = AutoTuner(**kwargs, checkpoint_path=str(path)).tune()
        assert checkpointed.best_config == straight.best_config
        assert load_checkpoint(path)["completed"] is True
