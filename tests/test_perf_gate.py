"""The pull-request perf gate (``benchmarks/perf_gate.py``).

The comparison is checked on synthetic perfbench outputs; the command
line on two stand-in checkouts whose ``perfbench/run.py`` prints a
fixed result and logs how it was called.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUNDS = {spec["name"]: spec["bound"] for spec in END_TO_END}


def run(correct=True, attempted=1000, failed=0, **values):
    """A perfbench ``--trace 0`` output line with every end-to-end metric."""
    metrics = {spec["name"]: {"value": 10.0, "unit": spec["unit"]}
               for spec in END_TO_END}
    metrics["success_rate"]["value"] = 1 - failed / attempted
    for name, value in values.items():
        metrics[name]["value"] = value
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def verdict(base_runs, head_runs):
    ok, lines = perf_gate.compare(base_runs, head_runs, END_TO_END)
    return ok, "\n".join(lines)


def test_identical_sides_pass():
    runs = [run() for _ in range(perf_gate.PAIRS)]
    ok, report = verdict(runs, runs)
    assert ok, report
    assert report.endswith("PASS")


def test_doubled_tell_latency_fails_and_is_named():
    base = [run() for _ in range(perf_gate.PAIRS)]
    head = [run(tell_ms_p50=20.0) for _ in range(perf_gate.PAIRS)]
    ok, report = verdict(base, head)
    assert not ok
    rows = {ln.split()[0]: ln.split()[-1] for ln in report.splitlines()[1:13]}
    assert rows == {name: "ok" for name in BOUNDS} | {"tell_ms_p50": "WORSE"}


@pytest.mark.parametrize("margin, passes", [(-0.02, True), (0.02, False)])
def test_throughput_drop_fails_only_beyond_its_bound(margin, passes):
    dropped = 10.0 * (1 - BOUNDS["sessions_per_s"] - margin)
    base = [run() for _ in range(perf_gate.PAIRS)]
    head = [run(sessions_per_s=dropped) for _ in range(perf_gate.PAIRS)]
    ok, report = verdict(base, head)
    assert ok is passes, report


@pytest.mark.parametrize("slower, word, passes", [
    (1.0, "unresolved", True), (1.3, "unresolved", True), (1.6, "WORSE", False),
])
def test_a_move_within_a_wide_base_spread_is_unresolved(slower, word, passes):
    # The base's IQR is 45 % of its median, wider than the 25 % bound.
    spread = (0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4)
    base = [run(setup_s=10.0 * f) for f in spread]
    head = [run(setup_s=10.0 * slower) for _ in spread]
    ok, report = verdict(base, head)
    assert ok is passes, report
    row = next(ln for ln in report.splitlines() if ln.startswith("setup_s"))
    assert row.split()[-1] == word


def test_a_run_that_is_not_correct_fails():
    base = [run() for _ in range(perf_gate.PAIRS)]
    head = [run() for _ in range(perf_gate.PAIRS - 1)] + [run(correct=False)]
    ok, report = verdict(base, head)
    assert not ok
    assert "head run seed 10 is not correct" in report


def test_a_higher_failed_share_fails():
    base = [run(failed=1) for _ in range(perf_gate.PAIRS)]
    head = [run(failed=2) for _ in range(perf_gate.PAIRS)]
    ok, report = verdict(base, head)
    assert not ok
    assert "failed operations: base 10/10000, head 20/10000: FAIL" in report
    assert verdict(head, base)[0]


STUB = '''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
with open(here.parent / "calls.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
print("perfbench: {}")
print((here / "result.json").read_text().strip())
'''


def checkout(root: Path, name: str, result: dict, run_seconds, bound) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "result.json").write_text(json.dumps(result))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench["run_seconds"] = run_seconds
    for entry in bench["end_to_end"]:
        entry["bound"] = entry["bound"] if bound is None else bound
    (path / "BENCHMARK.json").write_text(json.dumps(bench))
    return path


def test_command_line_alternates_sides_with_the_base_settings(tmp_path, capsys):
    base = checkout(tmp_path, "base", run(), run_seconds=3, bound=None)
    # The head's own file, which would let anything through, is not read.
    head = checkout(tmp_path, "head", run(ask_ms_p50=40.0), run_seconds=99, bound=9)
    assert perf_gate.main([str(base), str(head), "served_churn"]) == 1
    out = capsys.readouterr().out
    assert "ask_ms_p50" in out and "WORSE" in out
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert len(calls) == 2 * perf_gate.PAIRS
    for seed in range(1, perf_gate.PAIRS + 1):
        first, second = calls[2 * seed - 2], calls[2 * seed - 1]
        assert {first.split()[0], second.split()[0]} == {"base", "head"}
        assert first.split()[0] == ("base" if seed % 2 else "head")
        for call in (first, second):
            assert call.split()[1:] == [
                "--workload", "served_churn", "--seed", str(seed),
                "--seconds", "3", "--trace", "0",
            ]
    assert perf_gate.main([str(base), str(head), "nope"]) == 2
