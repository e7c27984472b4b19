"""Unusable restart files end in structured errors, never in another exception.

A checkpoint or served spec file that cannot be used ends in
:class:`~repro.core.driver.CheckpointError` offline, in the ``internal``
error code from the session manager, and in exit status 2 with one
``repro:`` line from ``repro tune --resume``.  The generated leg
truncates and flips bytes of a real CEAL checkpoint and of its spec
file.  ``data/ceal_history_v1.ckpt`` is a CEAL-with-history checkpoint
of checkpoint version 1 (the served spec :data:`SPEC`, one cycle in),
written by the code before Phase-1 data became ``ComponentHistory``
objects: it names a class that no longer exists.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.driver import CheckpointError, load_checkpoint
from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionManager
from repro.serve.specs import SessionSpec

SPEC = SessionSpec(
    algorithm="ceal", use_history=True, budget=8, pool_size=60,
    history_size=40, seed=3,
)
V1_CHECKPOINT = Path(__file__).parent / "data" / "ceal_history_v1.ckpt"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A served CEAL session one cycle in, evicted to its two files."""
    state = tmp_path_factory.mktemp("pristine")
    manager = SessionManager(state)
    manager.create(SPEC, name="s")
    manager.tell("s", manager.ask("s")["ask_id"])
    manager.evict_all()
    return state


def _restart(state) -> None:
    """Rehydrate session ``s`` from disk; only ``internal`` may fail it."""
    try:
        SessionManager(state).status("s")
    except ServeError as exc:
        assert exc.code == "internal", exc.as_dict()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_corrupt_files_end_in_structured_errors(pristine, data):
    target = data.draw(st.sampled_from(["s.ckpt", "s.spec.json"]))
    original = (pristine / target).read_bytes()
    if data.draw(st.booleans()):
        corrupt = original[: data.draw(st.integers(0, len(original) - 1))]
    else:
        flipped = bytearray(original)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(original) - 1))
            flipped[at] ^= data.draw(st.integers(1, 255))
        corrupt = bytes(flipped)
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp)
        shutil.copytree(pristine, state, dirs_exist_ok=True)
        (state / target).write_bytes(corrupt)
        if target == "s.ckpt":
            try:
                assert isinstance(load_checkpoint(state / target), dict)
            except CheckpointError:
                pass
        _restart(state)


def test_spec_that_is_not_an_object_is_internal(pristine, tmp_path):
    state = tmp_path / "state"
    shutil.copytree(pristine, state)
    (state / "s.spec.json").write_text("[]")
    with pytest.raises(ServeError) as err:
        SessionManager(state).status("s")
    assert err.value.code == "internal"


class TestVersionOneCheckpoint:
    def test_offline_load_refused(self):
        with pytest.raises(CheckpointError, match="ComponentBatchData"):
            load_checkpoint(V1_CHECKPOINT)

    def test_served_session_answers_internal(self, pristine, tmp_path):
        state = tmp_path / "state"
        shutil.copytree(pristine, state)
        shutil.copyfile(V1_CHECKPOINT, state / "s.ckpt")
        with pytest.raises(ServeError) as err:
            SessionManager(state).status("s")
        assert err.value.code == "internal"
        assert "checkpoint unusable" in err.value.message

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
