"""Rewrite ``expected.json``: the recommendation of every offline session.

    python3 perfbench/record.py

Runs every session ``cold_tune`` can time, and every warm re-tune
``warm_retune`` can time (against the set-up store built as in a run),
and records each session's digest and normalized best value.
Re-record only when a change is meant to alter tuning results; the
benchmark counts every other difference as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, ROOT, use_checkout_sources, use_tmpdir  # noqa: E402


def main() -> int:
    use_checkout_sources()
    import offline

    work = ROOT / ".perfbench-work" / "record"
    work.mkdir(parents=True)
    try:
        use_tmpdir(work / "tmp")
        cold = {}
        for item in offline.cold_plan(0):
            summary = offline.tune(*item)
            cold[summary.pop("key")] = summary
        warm = {}
        source = work / "setup.db"
        offline.build_warm_store(source, offline.WARM_CONTEXTS)
        copies = offline.StoreCopies(source, work)
        for item, _wall, summary in offline.timed_sessions(
            offline.warm_plan(), copies
        ):
            if "error" in summary:
                raise RuntimeError(f"{item}: {summary['error']}")
            warm[summary.pop("key")] = summary
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = HERE / "expected.json"
    path.write_text(
        json.dumps({"cold_tune": cold, "warm_retune": warm}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(cold)} cold and {len(warm)} warm sessions to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
