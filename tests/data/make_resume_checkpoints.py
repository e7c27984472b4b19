"""Write the mid-session checkpoints that ``tests/test_checkpoint_resume.py``
resumes (``tests/data/resume_v3_*.ckpt``).

They were written by the code before candidate pools became row views of
a value matrix (commit adce288, checkpoint version 3), so the test holds
that checkpoints written before that change still resume to the result
of an uninterrupted run.  Each session is LV, pool 60, budget 8,
interrupted after two measurement cycles::

    PYTHONPATH=src python tests/data/make_resume_checkpoints.py

Run it only to record checkpoints of a new version, and say so in the
commit message.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.algorithms import ActiveLearning, Alph
from repro.core.ceal import Ceal, CealSettings
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem
from repro.workflows.catalog import make_lv
from repro.workflows.pools import generate_component_history, generate_pool

POOL_SIZE = 60
POOL_SEED = 7
HISTORY_SIZE = 40
BUDGET = 8
SEED = 5
CYCLES = 2

#: name -> algorithm factory.
CASES = {
    "ceal_history": lambda: Ceal(CealSettings(use_history=True)),
    "alph": lambda: Alph(use_history=True),
    "al": lambda: ActiveLearning(),
}


def make_problem() -> TuningProblem:
    lv = make_lv()
    return TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=generate_pool(lv, POOL_SIZE, seed=POOL_SEED),
        budget_runs=BUDGET,
        seed=SEED,
        histories={
            label: generate_component_history(
                lv, label, size=HISTORY_SIZE, seed=POOL_SEED
            )
            for label in lv.labels
        },
    )


def path_of(name: str) -> Path:
    return Path(__file__).with_name(f"resume_v3_{name}.ckpt")


def main() -> None:
    for name, factory in CASES.items():
        paused = factory().tune(
            make_problem(), checkpoint_path=path_of(name), max_cycles=CYCLES
        )
        assert paused is None, f"{name} finished within {CYCLES} cycles"
        print("wrote", path_of(name))


if __name__ == "__main__":
    main()
