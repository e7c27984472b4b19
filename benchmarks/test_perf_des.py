"""Perf smoke test for the batched DES measurement path (BENCH_des.json).

Times :func:`repro.insitu.fast.run_coupled_batch` against a per-config
:func:`repro.insitu.coupled.run_coupled` loop on a representative pool
build (LV and the fan-out GP workflow) and asserts a floor of **≥3×**
on batched measurement.  It also times the noise pass of a
2000-configuration pool per workflow,
:func:`repro.insitu.measurement.noise_factors` (one seed-hash pass and
one compiled call for every normal draw), against the
per-configuration ``default_rng`` loop it replaced (kept here as the
oracle), and asserts a floor of **≥5×**.  Each comparison is
apples-to-apples: the fast path is asserted bit-identical to its oracle
on every configuration (``float.hex`` for the noise) before any ratio
is reported.

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
from repro.insitu.measurement import noise_factors, stable_seed
from repro.workflows.catalog import make_gp, make_hs, make_lv

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_des.json"

#: Pool-build shape: a few hundred feasible configurations per workflow
#: — the per-``ask()`` measurement batches of a tuning session are
#: smaller, full pool builds (p = 2000) larger; both are dominated by
#: the same per-configuration cost this benchmark measures.
BATCH = 400

SWEEP_FLOOR = 3.0

#: A paper-sized pool (§7.1) and its noise.
NOISE_POOL = 2000
NOISE_SIGMA = 0.05
NOISE_SEED = 2021

#: About half the 8.9-9.8x measured on a 2-core container with the
#: compiled normal draws, and above the 3.4-4.1x of the numpy ``PCG64``
#: per-configuration draws they replaced.
NOISE_FLOOR = 5.0


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


def _best_alternating(fast, oracle, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` seconds of two functions timed in turn, so a
    slow spell of a shared machine slows both sides alike."""
    best = [np.inf, np.inf]
    for _ in range(repeats):
        for side, fn in enumerate((fast, oracle)):
            t0 = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def _record(result: dict) -> None:
    """Merge ``result`` into BENCH_des.json (each test owns its keys)."""
    bench = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    bench.update(result)
    BENCH_PATH.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")


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

    _record(result)


def _noise_loop(workflow, configs) -> list:
    """The per-configuration noise draw: one ``default_rng`` per config."""
    return [
        float(
            np.exp(
                np.random.default_rng(
                    stable_seed(workflow.name, tuple(c), NOISE_SEED)
                ).normal(0.0, NOISE_SIGMA)
            )
        )
        for c in configs
    ]


def test_noise_pass_speedup():
    result = {"pool": NOISE_POOL, "floor": NOISE_FLOOR}
    print()
    for workflow in (make_lv(), make_hs(), make_gp()):
        configs = _sample(workflow, NOISE_POOL)

        def batch():
            return noise_factors(workflow.name, configs, NOISE_SIGMA, NOISE_SEED)

        assert [f.hex() for f in batch().tolist()] == [
            f.hex() for f in _noise_loop(workflow, configs)
        ], "batched noise diverged from the per-configuration draws"

        fast_s, oracle_s = _best_alternating(
            batch, lambda: _noise_loop(workflow, configs), 7
        )
        speedup = oracle_s / fast_s
        result[workflow.name] = {
            "oracle_s": round(oracle_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(speedup, 2),
        }
        print(
            f"{workflow.name:3s} noise x{NOISE_POOL}: {oracle_s * 1e3:7.1f}ms -> "
            f"{fast_s * 1e3:6.1f}ms ({speedup:.2f}x, floor {NOISE_FLOOR}x)"
        )
        assert speedup >= NOISE_FLOOR, result

    _record({"noise": result})
