"""Unusable restart files end in structured errors, never in another exception.

A served session's one file is its checkpoint, and a checkpoint that
cannot be used ends in :class:`~repro.core.driver.CheckpointError`
offline, in the ``internal`` error code from the session manager, and in
exit status 2 with one ``repro:`` line from ``repro tune --resume``.
Every checkpoint carries a digest of its bytes, so the generated leg
refuses every truncation and every flipped byte of a real CEAL
checkpoint.  ``data/ceal_history_v1.ckpt`` is a CEAL-with-history
checkpoint of checkpoint version 1 (the served spec :data:`SPEC`, one
cycle in), written before checkpoints carried a digest.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.driver import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint_payload,
)
from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionManager
from repro.serve.specs import SessionSpec, build_algorithm, build_problem

SPEC = SessionSpec(
    algorithm="ceal", use_history=True, budget=8, pool_size=60,
    history_size=40, seed=3,
)
V1_CHECKPOINT = Path(__file__).parent / "data" / "ceal_history_v1.ckpt"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A served CEAL session one cycle in, evicted to its checkpoint."""
    state = tmp_path_factory.mktemp("pristine")
    manager = SessionManager(state)
    manager.create(SPEC, name="s")
    manager.tell("s", manager.ask("s")["ask_id"])
    manager.evict_all()
    return state


def _restart_is_internal(state) -> ServeError:
    """Touch session ``s`` in a fresh manager; it must answer ``internal``."""
    with pytest.raises(ServeError) as err:
        SessionManager(state).status("s")
    assert err.value.code == "internal", err.value.as_dict()
    return err.value


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_corrupted_checkpoint_is_refused(pristine, data):
    original = (pristine / "s.ckpt").read_bytes()
    if data.draw(st.booleans()):
        corrupt = original[: data.draw(st.integers(0, len(original) - 1))]
    else:
        flipped = bytearray(original)
        # Distinct positions: two flips of one byte could cancel out.
        positions = st.lists(
            st.integers(0, len(original) - 1), min_size=1, max_size=3, unique=True
        )
        for at in data.draw(positions):
            flipped[at] ^= data.draw(st.integers(1, 255))
        corrupt = bytes(flipped)
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp)
        (state / "s.ckpt").write_bytes(corrupt)
        with pytest.raises(CheckpointError):
            load_checkpoint(state / "s.ckpt")
        _restart_is_internal(state)


def test_spec_that_is_not_an_object_is_internal(pristine, tmp_path):
    """A checkpoint whose recipe is not a spec object is unusable."""
    state = tmp_path / "state"
    state.mkdir()
    payload = load_checkpoint(pristine / "s.ckpt")
    save_checkpoint_payload(state / "s.ckpt", {**payload, "recipe": []})
    assert "spec must be a JSON object" in _restart_is_internal(state).message


def test_offline_checkpoint_in_the_state_directory_is_internal(tmp_path):
    """An offline run's checkpoint carries no spec: recovery lists it,
    and touching it answers ``internal``."""
    state = tmp_path / "state"
    state.mkdir()
    problem = build_problem(SPEC)
    build_algorithm(SPEC).tune(
        problem, checkpoint_path=state / "s.ckpt", max_cycles=1
    )
    assert SessionManager(state).recovered == ["s"]
    assert "no session spec" in _restart_is_internal(state).message


class TestVersionOneCheckpoint:
    def test_offline_load_refused(self):
        with pytest.raises(CheckpointError, match="do not match their digest"):
            load_checkpoint(V1_CHECKPOINT)

    def test_served_session_answers_internal(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        shutil.copyfile(V1_CHECKPOINT, state / "s.ckpt")
        assert "checkpoint unusable" in _restart_is_internal(state).message

    def test_cli_resume_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "ceal.ckpt"
        shutil.copyfile(V1_CHECKPOINT, path)
        code = main([
            "tune", "--workflow", "LV", "--budget", "8", "--pool-size", "60",
            "--algorithm", "ceal", "--use-history", "--seed", "3",
            "--checkpoint", str(path), "--resume",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: cannot read checkpoint")


def test_cli_resume_with_another_pool_size_exits_2_naming_it(tmp_path, capsys):
    """A checkpoint records the flags its session was built from: resuming
    it with another ``--pool-size`` would finish a session on another
    pool, so it is refused."""
    path = tmp_path / "rs.ckpt"
    argv = [
        "tune", "--workflow", "LV", "--budget", "8", "--seed", "3",
        "--algorithm", "rs", "--checkpoint", str(path),
    ]
    assert main([*argv, "--pool-size", "60"]) == 0
    capsys.readouterr()
    code = main([*argv, "--pool-size", "80", "--resume"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == (
        "repro: checkpoint pool_size mismatch: checkpoint has 60, "
        "the session was built with 80"
    )
