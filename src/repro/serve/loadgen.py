"""Load generator for the tuning service (the BENCH_serve workload).

Drives many concurrent sessions against a running daemon through
:class:`~repro.serve.client.ServeClient` — one client per worker
thread, each thread interleaving its share of sessions round-robin so
*all* sessions are open at once (which is what exercises the manager's
LRU eviction/rehydration churn when ``max_active`` is smaller than the
session count).

:func:`run_load` returns a plain JSON-able report: request counts,
throughput, per-endpoint latency percentiles, plus the server's own
view (cache tier hit ratios and the rehydration latency series from
``/v1/healthz``) so the committed benchmark records whether the
rehydration caches actually carried the workload.  :func:`apply_floors`
then stamps ``*_gate`` entries in the exact shape
``repro telemetry diff --floors`` gates (``floor``/``speedup`` pairs at
the document top level), expressing each floor as a margin ratio:
throughput measured/required, latency budget/measured — so ``>= 1.0``
means the floor holds.

Used by ``examples/serve_loadgen.py`` (CLI knobs), by
``benchmarks/test_perf_serve.py`` (writes ``BENCH_serve.json``), and by
the CI serve-smoke job.
"""

from __future__ import annotations

import math
import threading
import time

from repro.serve.client import ServeClient
from repro.serve.protocol import ServeError, latency_digest

__all__ = ["apply_floors", "run_load"]

#: Session recipe the load generator defaults to: small enough that a
#: hundred sessions finish in seconds, real enough to exercise the full
#: ask/measure/tell/checkpoint cycle.
DEFAULT_SPEC = {
    "workflow": "LV",
    "objective": "computer_time",
    "budget": 6,
    "pool_size": 80,
    "history_size": 40,
}


class _RateLimiter:
    """Global token pacing shared by every worker thread."""

    def __init__(self, rate: float):
        self.interval = 1.0 / rate if rate and rate > 0 else 0.0
        self._lock = threading.Lock()
        self._next = time.monotonic()

    def wait(self) -> None:
        if not self.interval:
            return
        with self._lock:
            now = time.monotonic()
            slot = max(self._next, now)
            self._next = slot + self.interval
        if slot > now:
            time.sleep(slot - now)


class _Recorder:
    """Per-thread latency/outcome tally, merged after join."""

    def __init__(self):
        self.latencies_ms: dict[str, list[float]] = {}
        self.errors = 0
        self.created = 0
        self.completed = 0

    def observe(self, endpoint: str, seconds: float) -> None:
        self.latencies_ms.setdefault(endpoint, []).append(seconds * 1e3)


def _worker(
    assigned: list[tuple[str, dict]],
    client: ServeClient,
    limiter: _RateLimiter,
    deadline: float | None,
    recorder: _Recorder,
) -> None:
    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    active = []
    with client:
        for name, spec in assigned:
            if expired():
                break
            limiter.wait()
            started = time.perf_counter()
            try:
                client.create_session(spec, name=name)
            except (ServeError, OSError):
                recorder.errors += 1
                continue
            recorder.observe("create", time.perf_counter() - started)
            recorder.created += 1
            active.append(name)
        while active and not expired():
            for name in list(active):
                if expired():
                    break
                limiter.wait()
                started = time.perf_counter()
                try:
                    proposal = client.ask(name)
                except (ServeError, OSError):
                    recorder.errors += 1
                    active.remove(name)
                    continue
                recorder.observe("ask", time.perf_counter() - started)
                if proposal.get("done"):
                    recorder.completed += 1
                    active.remove(name)
                    continue
                limiter.wait()
                started = time.perf_counter()
                try:
                    client.tell(name, proposal["ask_id"])
                except (ServeError, OSError):
                    recorder.errors += 1
                    active.remove(name)
                    continue
                recorder.observe("tell", time.perf_counter() - started)


def run_load(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    sessions: int = 8,
    threads: int = 4,
    rate: float = 0.0,
    duration: float = 0.0,
    spec: dict | None = None,
    algorithms=("rs", "lowfid", "ceal"),
    name_prefix: str = "load",
    timeout: float = 60.0,
) -> dict:
    """Drive ``sessions`` concurrent sessions to completion; report.

    ``rate`` (requests/second, 0 = unlimited) is enforced globally
    across threads; ``duration`` (seconds, 0 = until done) stops the
    generator early, leaving stragglers incomplete.  ``algorithms``
    are cycled across sessions, and each session gets a distinct seed,
    so no two sessions share a measurement trajectory.  The default mix
    includes the model-fitting strategies (``lowfid``, ``ceal``) whose
    rehydration refits are exactly what the serve caches amortize — a
    pure-``rs`` load would leave the fitted-model tier idle.
    """
    sessions = max(1, int(sessions))
    threads = max(1, min(int(threads), sessions))
    base_spec = dict(DEFAULT_SPEC)
    base_spec.update(spec or {})
    plan = []
    for index in range(sessions):
        session_spec = dict(base_spec)
        session_spec["algorithm"] = algorithms[index % len(algorithms)]
        session_spec.setdefault("seed", 0)
        session_spec["seed"] = int(session_spec["seed"]) + index
        plan.append((f"{name_prefix}-{index:04d}", session_spec))

    limiter = _RateLimiter(rate)
    deadline = time.monotonic() + duration if duration and duration > 0 else None
    recorders = [_Recorder() for _ in range(threads)]
    workers = [
        threading.Thread(
            target=_worker,
            args=(
                plan[index::threads],
                ServeClient(host, port, timeout=timeout),
                limiter,
                deadline,
                recorders[index],
            ),
            name=f"loadgen-{index}",
        )
        for index in range(threads)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started

    latencies: dict[str, list[float]] = {}
    errors = created = completed = 0
    for recorder in recorders:
        for endpoint, values in recorder.latencies_ms.items():
            latencies.setdefault(endpoint, []).extend(values)
        errors += recorder.errors
        created += recorder.created
        completed += recorder.completed
    requests = sum(len(v) for v in latencies.values())

    # The server's own view of the run: cache tier hit ratios and the
    # manager-side rehydration latency series (wall time of evicted →
    # resident transitions, which client-side endpoint timings blend
    # into ask/tell/status and cannot isolate).
    server_stats = None
    try:
        with ServeClient(host, port, timeout=timeout) as probe:
            server_stats = probe.health().get("stats") or None
    except (ServeError, OSError):
        server_stats = None

    latency_summaries = {
        endpoint: latency_digest(values)
        for endpoint, values in sorted(latencies.items())
    }
    if server_stats is not None:
        rehydrate = server_stats.get("rehydrate_ms") or {}
        if rehydrate.get("count"):
            latency_summaries["rehydrate"] = rehydrate
    report = {
        "benchmark": "serve_load",
        "config": {
            "sessions": sessions,
            "threads": threads,
            "rate": rate,
            "duration": duration,
            "algorithms": list(algorithms),
            "spec": base_spec,
        },
        "requests": requests,
        "errors": errors,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(requests / elapsed, 2) if elapsed > 0 else 0.0,
        "sessions_created": created,
        "sessions_completed": completed,
        "latency_ms": latency_summaries,
    }
    if server_stats is not None:
        report["server"] = {
            "cache": server_stats.get("cache"),
            "sessions_rehydrated": (server_stats.get("rehydrate_ms") or {}).get(
                "count", 0
            ),
            "active": server_stats.get("active"),
            "max_active": server_stats.get("max_active"),
        }
    return report


def apply_floors(
    report: dict,
    *,
    required_rps: float,
    ask_p95_budget_ms: float,
    tell_p95_budget_ms: float,
    create_p95_budget_ms: float | None = None,
    rehydrate_p95_budget_ms: float | None = None,
) -> dict:
    """Stamp ``floor``/``speedup`` gates onto a :func:`run_load` report.

    Each gate's ``speedup`` is a margin ratio (>= 1.0 means the floor
    holds): measured/required for throughput and completion,
    budget/measured for latencies.  The gates sit at the document top
    level, which is where ``repro telemetry diff --floors`` looks.

    ``create_p95_budget_ms`` and ``rehydrate_p95_budget_ms`` gate the
    cache-accelerated paths (optional so short runs that never evict —
    hence never rehydrate — can skip them).  The rehydrate gate is only
    stamped when the report carries a server-side rehydrate series.
    """
    throughput = float(report["throughput_rps"])
    sessions = int(report["config"]["sessions"])
    completed = int(report["sessions_completed"])
    ask_p95 = float(report["latency_ms"].get("ask", {}).get("p95", math.inf))
    tell_p95 = float(report["latency_ms"].get("tell", {}).get("p95", math.inf))
    report["throughput_gate"] = {
        "floor": 1.0,
        "speedup": round(throughput / required_rps, 3),
        "measured_rps": throughput,
        "required_rps": required_rps,
    }
    report["completion_gate"] = {
        "floor": 1.0,
        "speedup": round(completed / sessions, 3) if sessions else 0.0,
        "sessions_completed": completed,
        "sessions": sessions,
    }
    report["ask_p95_gate"] = {
        "floor": 1.0,
        "speedup": round(ask_p95_budget_ms / ask_p95, 3) if ask_p95 else 0.0,
        "p95_ms": ask_p95,
        "budget_ms": ask_p95_budget_ms,
    }
    report["tell_p95_gate"] = {
        "floor": 1.0,
        "speedup": round(tell_p95_budget_ms / tell_p95, 3) if tell_p95 else 0.0,
        "p95_ms": tell_p95,
        "budget_ms": tell_p95_budget_ms,
    }
    if create_p95_budget_ms is not None:
        create_p95 = float(
            report["latency_ms"].get("create", {}).get("p95", math.inf)
        )
        report["create_p95_gate"] = {
            "floor": 1.0,
            "speedup": (
                round(create_p95_budget_ms / create_p95, 3) if create_p95 else 0.0
            ),
            "p95_ms": create_p95,
            "budget_ms": create_p95_budget_ms,
        }
    if rehydrate_p95_budget_ms is not None:
        rehydrate = report["latency_ms"].get("rehydrate") or {}
        if rehydrate.get("count"):
            rehydrate_p95 = float(rehydrate.get("p95", math.inf))
            report["rehydrate_p95_gate"] = {
                "floor": 1.0,
                "speedup": (
                    round(rehydrate_p95_budget_ms / rehydrate_p95, 3)
                    if rehydrate_p95
                    else 0.0
                ),
                "p95_ms": rehydrate_p95,
                "budget_ms": rehydrate_p95_budget_ms,
            }
    return report
