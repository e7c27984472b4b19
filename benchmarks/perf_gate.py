"""Pull-request performance gate: perfbench on the merge base against the head.

    python benchmarks/perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT WORKLOAD

Runs ``perfbench/run.py --workload WORKLOAD --trace 0`` :data:`PAIRS`
times in each checkout, with seeds ``1..PAIRS`` and the base's
``run_seconds``, alternating which side runs first.  The gate fails
(exit status 1) when

* any run is not ``correct``;
* the head fails a larger share of its operations than the base;
* the head's median of any end-to-end metric is worse than the base's
  by more than that metric's bound, and by more than the base's own
  spread (its interquartile range relative to its median).

A metric whose base spread is wider than its bound is reported
``unresolved`` unless it moved past that spread: ten runs cannot tell a
move inside the spread from noise, so it neither passes as unchanged
nor fails the gate.

Bounds, directions and the run length come from the base's
``BENCHMARK.json``, so a change cannot loosen its own gate.  The report
prints each metric's medians, the base's interquartile range, the
relative change and the verdict.  Standard library only.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: Runs per side.
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; a crash is a run that is not correct."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, check=False
    )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {
            "correct": False,
            "attempted": 0,
            "failed": 0,
            "metrics": {},
            "error": f"exit {done.returncode}: {done.stderr[-2000:]}",
        }


def collect(base: Path, head: Path, workload: str, seconds: float):
    """:data:`PAIRS` runs per side, alternating which side goes first."""
    runs = {"base": [], "head": []}
    for seed in range(1, PAIRS + 1):
        order = ("base", "head") if seed % 2 else ("head", "base")
        for side in order:
            out = run_once(base if side == "base" else head, workload, seed, seconds)
            runs[side].append(out)
            print(
                f"{side} seed {seed}: correct={out['correct']} "
                f"failed {out['failed']}/{out['attempted']}",
                file=sys.stderr,
                flush=True,
            )
    return runs["base"], runs["head"]


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, relative to ``base``."""
    delta = head - base if better == "lower" else base - head
    if base == 0:
        return 0.0 if delta <= 0 else math.inf
    return delta / abs(base)


def _failed_share(runs) -> tuple[int, int, float]:
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return failed, attempted, failed / attempted if attempted else 0.0


def compare(base_runs, head_runs, end_to_end) -> tuple[bool, list[str]]:
    """The gate's verdict and its report lines.

    ``end_to_end`` is the base's ``BENCHMARK.json`` list of
    ``{"name", "unit", "better", "bound"}`` entries.
    """
    ok = True
    lines = [
        f"{'metric':<22} {'unit':<6} {'base p50':>10} {'base IQR':>10} "
        f"{'head p50':>10} {'change':>8} {'bound':>6}  verdict"
    ]
    for spec in end_to_end:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r in base_runs if name in r["metrics"]]
        head = [r["metrics"][name]["value"] for r in head_runs if name in r["metrics"]]
        if not base:
            lines.append(f"{name:<22} not reported by the base")
            continue
        if not head:
            ok = False
            lines.append(f"{name:<22} missing from the head: FAIL")
            continue
        base_p50 = statistics.median(base)
        head_p50 = statistics.median(head)
        worse = _worsening(base_p50, head_p50, spec["better"])
        spread = _iqr(base) / abs(base_p50) if base_p50 else 0.0
        if worse > max(spec["bound"], spread):
            verdict = "WORSE"
        elif spread > spec["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        ok = ok and verdict != "WORSE"
        change = head_p50 / base_p50 - 1 if base_p50 else 0.0
        lines.append(
            f"{name:<22} {spec['unit']:<6} {base_p50:>10.4g} {_iqr(base):>10.4g} "
            f"{head_p50:>10.4g} {change:>+8.1%} {spec['bound']:>6.0%}  {verdict}"
        )
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for seed, run in enumerate(runs, start=1):
            if not run["correct"]:
                ok = False
                lines.append(
                    f"{side} run seed {seed} is not correct: FAIL"
                    + (f" ({run['error']})" if run.get("error") else "")
                )
    base_f, base_a, base_share = _failed_share(base_runs)
    head_f, head_a, head_share = _failed_share(head_runs)
    share_ok = head_share <= base_share
    ok = ok and share_ok
    lines.append(
        f"failed operations: base {base_f}/{base_a}, head {head_f}/{head_a}: "
        + ("ok" if share_ok else "FAIL")
    )
    lines.append("PASS" if ok else "FAIL")
    return ok, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        print(
            "usage: perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT WORKLOAD",
            file=sys.stderr,
        )
        return 2
    base, head = Path(args[0]).resolve(), Path(args[1]).resolve()
    workload = args[2]
    bench = json.loads((base / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perf gate: unknown workload {workload!r}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    base_runs, head_runs = collect(base, head, workload, seconds)
    ok, lines = compare(base_runs, head_runs, bench["end_to_end"])
    print(
        f"perf gate: {workload}, {PAIRS} runs of {seconds} s per side, "
        f"bounds from {base / 'BENCHMARK.json'}"
    )
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
