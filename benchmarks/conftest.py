"""Shared configuration of the figure/table benchmarks.

Each benchmark regenerates one table or figure of the paper's
evaluation and prints the reproduced rows.  Scale knobs (the paper uses
100 repeats on 2000-configuration pools; defaults here are bench-sized):

``REPRO_BENCH_REPEATS``
    Trials per algorithm per cell (default 4).
``REPRO_BENCH_POOL``
    Measured-pool size (default 600).
``REPRO_BENCH_SEED``
    Base seed (default 2021).
``REPRO_BENCH_JOBS``
    Worker processes per trial fan-out (default "auto" = one per CPU;
    results are bit-identical to serial, so parallelism only changes
    wall-clock).  Workers inherit the parent's in-process pool and
    history memo.
"""

from __future__ import annotations

import os

import pytest

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "4"))
POOL = int(os.environ.get("REPRO_BENCH_POOL", "1000"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2021"))
JOBS = os.environ.get("REPRO_BENCH_JOBS", "auto")


@pytest.fixture(scope="session")
def scale():
    """Bench scale knobs."""
    return {"repeats": REPEATS, "pool_size": POOL, "seed": SEED, "jobs": JOBS}


def emit(result) -> None:
    """Print a reproduced figure/table under the benchmark output."""
    print()
    print(result.to_text())


def mean_by(rows, key_fields, value_field):
    """Group rows and average one field (for qualitative assertions).

    Single-field groupings use the bare value as key (``means["CEAL"]``);
    multi-field groupings use tuples.
    """
    import numpy as np

    groups: dict = {}
    for row in rows:
        if len(key_fields) == 1:
            key = row[key_fields[0]]
        else:
            key = tuple(row[f] for f in key_fields)
        groups.setdefault(key, []).append(row[value_field])
    return {k: float(np.mean(v)) for k, v in groups.items()}
