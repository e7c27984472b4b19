"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import use_checkout_sources  # noqa: E402

use_checkout_sources()

import offline  # noqa: E402
from tracer import Tracer, overhead_share, unattributed_share  # noqa: E402


@pytest.fixture
def cold_memos():
    """Empty pool/history memos, so every session generates its own."""
    from repro.workflows import pools

    pools._POOL_MEMO.clear()
    pools._HISTORY_MEMO.clear()
    yield
    pools._POOL_MEMO.clear()
    pools._HISTORY_MEMO.clear()


def _events(outcome) -> bytes:
    return pickle.dumps(
        [event.as_dict(include_timing=False) for event in outcome.result.trace]
    )


def test_wrapped_session_is_bit_identical(cold_memos):
    from repro.workflows import pools

    original = pools.generate_pool
    plain = offline.run_session("ceal", "LV", offline.COLD_SEED0)
    pools._POOL_MEMO.clear()
    pools._HISTORY_MEMO.clear()
    tracer = Tracer().install()
    try:
        traced = offline.run_session("ceal", "LV", offline.COLD_SEED0)
    finally:
        tracer.uninstall()

    totals = tracer.totals()
    assert totals["ml.fit"]["calls"] > 0
    assert totals["workflows.generate_pool"]["calls"] == 1
    assert totals["insitu.measure_batch"]["rows"] == offline.POOL_SIZE
    assert pickle.dumps((plain.best_config, plain.best_value)) == pickle.dumps(
        (traced.best_config, traced.best_value)
    )
    assert _events(plain) == _events(traced)
    # Uninstall restores the original objects everywhere it rebound them.
    from repro.core import autotuner

    assert pools.generate_pool is original
    assert autotuner.generate_pool is original


def test_self_times_sum_to_root_wall_time():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: next(ticks))

    leaf = tracer.wrap("c.leaf", lambda: None)
    inner = tracer.wrap("b.inner", lambda: [leaf(), leaf()])
    root = tracer.wrap("a.root", lambda: [inner(), leaf(), inner()])
    root()

    totals = tracer.totals()
    root_wall = totals["a.root"]["total_s"]
    assert root_wall > 0
    assert sum(entry["self_s"] for entry in totals.values()) == root_wall
    assert unattributed_share(root_wall, totals) == 0
    assert totals["c.leaf"]["calls"] == 5
    assert totals["a.root"]["with_child"] == {"b.inner": 1, "c.leaf": 1}


def test_overhead_share_is_traced_over_untraced_wall(cold_memos):
    untraced, traced, totals, shares = offline.traced_replay(
        [("rs", "LV", offline.COLD_SEED0 + 1)], None, seconds=0
    )
    assert [i for i, _w, _s in untraced] == [i for i, _w, _s in traced]
    assert [s["digest"] for *_, s in untraced] == [s["digest"] for *_, s in traced]
    traced_wall = sum(w for _i, w, _s in traced)
    untraced_wall = sum(w for _i, w, _s in untraced)
    assert shares["trace.overhead_share"] == traced_wall / untraced_wall - 1
    assert shares["trace.overhead_share"] == overhead_share(
        traced_wall, untraced_wall
    )
    assert 0 <= shares["trace.unattributed_share"] <= 0.05
    # The replay paid for its pool again.
    assert totals["workflows.generate_pool"]["with_child"]["config.sample"] == 1


def test_benchmark_json_names_every_reported_metric():
    import json

    import run
    from common import ROOT
    from tracer import PER_LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = run.end_to_end(
        setup_s=[1.0], sessions=1, session_s=[1.0], busy_s=1.0,
        requests=1, ask_s=[1.0], tell_s=[1.0], create_s=[1.0],
        peak_rss_mb=1.0, normalized=1.0, success_rate=1.0,
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in reported.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_METRICS


def test_off_default_environment_is_refused():
    from common import refused_environment

    environ = {
        "REPRO_JOBS": "2",
        "REPRO_POOL_MEMO_CAPACITY": "4",
        "REPRO_NO_NATIVE": "",
        "REPRO_BENCH_JOBS": "2",
    }
    assert refused_environment(environ) == ["REPRO_JOBS", "REPRO_POOL_MEMO_CAPACITY"]
