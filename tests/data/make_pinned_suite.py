"""Regenerate ``pinned_suite.json`` — legacy figure outputs at test scale.

The suite-engine refactor routes every figure driver through
``repro.experiments.suite``; these pins capture the *pre-refactor*
outputs (direct ``run_trials`` / ``sweep_ceal`` execution) of the
cheap drivers at test scale, so ``tests/test_suite.py`` can assert the
rebased drivers reproduce them bit-identically.

Regenerate with ``PYTHONPATH=src python tests/data/make_pinned_suite.py``
only for an *intentional* behaviour change.
"""

import json
from pathlib import Path

from repro.core.ceal import CealSettings
from repro.experiments.figures import fig08_practicality
from repro.experiments.headline import headline_claims
from repro.experiments.presets import AlgorithmFactor
from repro.experiments.runner import run_trials
from repro.experiments.sensitivity import sweep_ceal

OUT = Path(__file__).parent / "pinned_suite.json"

REPEATS = 2
POOL = 150
SEED = 7


def trial_rows():
    """Deterministic fields of a small generic ``run_trials`` batch."""
    factors = (
        AlgorithmFactor.make("RS", "rs"),
        AlgorithmFactor.make("CEAL", "ceal", use_history=True),
    )
    trials = run_trials(
        "LV", "execution_time", factors, budget=8, repeats=REPEATS,
        pool_size=POOL, pool_seed=SEED,
    )
    return [
        {
            "algorithm": t.algorithm,
            "workflow": t.workflow,
            "objective": t.objective,
            "budget": t.budget,
            "seed": t.seed,
            "repeat": t.repeat,
            "best_value": t.best_value,
            "normalized": t.normalized,
            "recall": [float(x) for x in t.recall],
            "mdape_all": t.mdape_all,
            "mdape_top2": t.mdape_top2,
            "cost": t.cost,
            "runs_used": t.runs_used,
        }
        for t in trials
    ]


def sweep_rows():
    settings = [
        ("I=2", CealSettings(use_history=False, iterations=2)),
        ("I=4 (hist)", CealSettings(use_history=True, iterations=4)),
    ]
    return sweep_ceal(
        settings, workflow_name="LV", objective_name="computer_time",
        budget=10, repeats=REPEATS, pool_size=POOL, seed=SEED,
    )


def main() -> None:
    payload = {
        "repeats": REPEATS,
        "pool_size": POOL,
        "seed": SEED,
        "run_trials": trial_rows(),
        "headline": headline_claims(
            repeats=REPEATS, pool_size=POOL, seed=SEED
        ).rows,
        "fig08": fig08_practicality(
            repeats=REPEATS, pool_size=POOL, seed=SEED
        ).rows,
        "sweep": sweep_rows(),
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
