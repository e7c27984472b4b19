"""Perf smoke test for the batched DES measurement path (BENCH_des.json).

Times :func:`repro.insitu.fast.run_coupled_batch` against a per-config
:func:`repro.insitu.coupled.run_coupled` loop on a representative pool
build (LV and the fan-out GP workflow) and asserts the PR's acceptance
floor: **≥3×** on batched measurement.  The comparison is
apples-to-apples — the fast path is asserted bit-identical to the
oracle on every configuration before any ratio is reported.

Results land in ``BENCH_des.json`` at the repo root (committed, and
uploaded as a CI artifact by the perf-smoke job)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_des.py -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.insitu.coupled import run_coupled
from repro.insitu.fast import fast_path_reason, run_coupled_batch
from repro.insitu.measurement import stable_seed
from repro.workflows.catalog import make_gp, make_lv

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_des.json"

#: Pool-build shape: a few hundred feasible configurations per workflow
#: — the per-``ask()`` measurement batches of a tuning session are
#: smaller, full pool builds (p = 2000) larger; both are dominated by
#: the same per-configuration cost this benchmark measures.
BATCH = 400

SWEEP_FLOOR = 3.0


def _sample(workflow, n):
    rng = np.random.default_rng(stable_seed("bench-des", workflow.name, n))
    return workflow.space.sample(
        rng, n, constraint=workflow.constraint, unique=True
    )


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_des_batch_speedup():
    result = {"workload": {"batch": BATCH}, "floor": SWEEP_FLOOR}
    print()
    for workflow in (make_lv(), make_gp()):
        assert fast_path_reason(workflow) is None, fast_path_reason(workflow)
        configs = _sample(workflow, BATCH)

        batched = run_coupled_batch(workflow, configs)  # warm-up + identity
        oracle = [run_coupled(workflow, c) for c in configs]
        assert batched == oracle, "fast path diverged from the DES oracle"

        fast_s = _best_of(lambda: run_coupled_batch(workflow, configs), 3)
        oracle_s = _best_of(
            lambda: [run_coupled(workflow, c) for c in configs], 1
        )
        speedup = oracle_s / fast_s
        result[workflow.name] = {
            "oracle_s": round(oracle_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(speedup, 2),
        }
        print(
            f"{workflow.name:3s} batch x{BATCH}: {oracle_s * 1e3:8.1f}ms -> "
            f"{fast_s * 1e3:7.1f}ms ({speedup:.2f}x, floor {SWEEP_FLOOR}x)"
        )
        assert speedup >= SWEEP_FLOOR, result

    BENCH_PATH.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
