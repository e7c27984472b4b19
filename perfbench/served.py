"""Served workload: ``served_churn`` against a ``repro serve`` subprocess.

A closed loop: each of :data:`CLIENTS` threads owns one ``ServeClient``
and keeps :data:`OPEN_PER_CLIENT` sessions open, sending one request at
a time round-robin over them (create, then ask/tell until the ask says
done) and opening the next planned session when one finishes.  With
many more open sessions than ``--max-active`` residents, the daemon
evicts and rehydrates continuously.  At the deadline the loop stops
creating and drains the open sessions, so every created session ends.

The loop is the benchmark's own (it does not use
``repro.serve.loadgen.run_load``), so later edits to the load generator
cannot change the measurement.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import HERE, child_env

#: The load generator's small recipe (``repro.serve.loadgen.DEFAULT_SPEC``),
#: copied so the benchmark's input cannot drift with it.
SPEC = {
    "workflow": "LV",
    "objective": "computer_time",
    "budget": 6,
    "pool_size": 80,
    "history_size": 40,
}
ALGORITHMS = ("rs", "lowfid", "ceal")
CLIENTS = 2
OPEN_PER_CLIENT = 6
MAX_ACTIVE = 4
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Sessions per algorithm re-run offline to check the served answers.
CHECKS_PER_ALGORITHM = 2
WARMUP_SPEC = dict(SPEC, algorithm="ceal", seed=0)
FIRST_SEED = 10_000
_READY = re.compile(r"listening on http://[^:]+:(\d+)")


def plan(run_seed: int):
    """The run's session recipes, in creation order (unbounded).

    Session ``i`` runs ``ALGORITHMS[i % 3]`` with seed ``FIRST_SEED + i``
    in every run; ``run_seed`` shuffles the creation order within each
    triple, so runs differ in interleaving, not in their sessions.
    """
    rng = random.Random(run_seed)
    for start in itertools.count(0, len(ALGORITHMS)):
        order = list(range(start, start + len(ALGORITHMS)))
        rng.shuffle(order)
        for index in order:
            spec = dict(SPEC, algorithm=ALGORITHMS[index % 3], seed=FIRST_SEED + index)
            yield f"s{index:05d}", spec


class Daemon:
    """One ``repro serve`` subprocess with its own state, store and temp dir."""

    def __init__(self, work: Path, label: str, traced: bool):
        self.dir = work / label
        self.dir.mkdir(parents=True)
        self.totals_path = self.dir / "totals.json" if traced else None
        self.port = None
        self.proc = None
        self._lines: queue.Queue = queue.Queue()

    def start(self, timeout: float = 120.0) -> "Daemon":
        cmd = [sys.executable, str(HERE / "daemon.py")]
        if self.totals_path is not None:
            cmd += ["--totals", str(self.totals_path)]
        cmd += [
            "--",
            "serve",
            "--state-dir", str(self.dir / "state"),
            "--store", str(self.dir / "store.db"),
            "--port", "0",
            "--workers", str(WORKERS),
            "--max-active", str(MAX_ACTIVE),
            "--request-timeout", "120",
        ]
        self._log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(self.dir / "tmp"),
        )
        reader = threading.Thread(target=self._read, daemon=True)
        reader.start()
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(f"daemon did not start: {self.log_tail()}")
            match = _READY.search(line)
            if match:
                self.port = int(match.group(1))
                return self

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def log_tail(self) -> str:
        try:
            return (self.dir / "daemon.log").read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> dict | None:
        """SIGTERM, wait for the drain; returns the layer totals if traced."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=90)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self._log.close()
        if proc.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {proc.returncode}: {self.log_tail()}"
            )
        if self.totals_path is None:
            return None
        return json.loads(self.totals_path.read_text())

    def kill(self) -> None:
        """Stop without checks (error paths)."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self._log.close()
            self.proc = None


def warm_up(port: int) -> None:
    """One full session: the daemon's lazy imports and native kernel build."""
    from repro.serve.client import ServeClient

    with ServeClient(port=port, timeout=120) as client:
        client.create_session(WARMUP_SPEC, name="warmup")
        client.run("warmup")


def start_daemon(work: Path, label: str, traced: bool) -> tuple[Daemon, float]:
    """A daemon that has served its warm-up session; and how long that took."""
    started = time.perf_counter()
    daemon = Daemon(work, label, traced)
    try:
        daemon.start()
        warm_up(daemon.port)
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - started


class ClosedLoop:
    """The closed-loop client (see the module docstring)."""

    def __init__(self, port: int, sessions, *, deadline=None, limit=None):
        self.port = port
        self._sessions = iter(sessions)
        self._deadline = deadline
        self._limit = limit
        self._issued = 0
        self._lock = threading.Lock()
        self.latency_s = {"create": [], "ask": [], "tell": []}
        self.failed = 0
        self.completed: list[dict] = []
        self.thread_s: list[float] = []
        self.wall_s = 0.0

    def _next(self):
        with self._lock:
            if self._limit is not None and self._issued >= self._limit:
                return None
            if self._deadline is not None and time.perf_counter() >= self._deadline:
                return None
            self._issued += 1
            return next(self._sessions)

    def _client(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.protocol import ServeError

        latency = {"create": [], "ask": [], "tell": []}
        failed = 0
        completed = []
        started = time.perf_counter()
        open_sessions: list[tuple[str, dict, float]] = []
        exhausted = False
        with ServeClient(port=self.port, timeout=120) as client:
            while True:
                while not exhausted and len(open_sessions) < OPEN_PER_CLIENT:
                    item = self._next()
                    if item is None:
                        exhausted = True
                        break
                    name, spec = item
                    t0 = time.perf_counter()
                    try:
                        client.create_session(spec, name=name)
                    except (ServeError, OSError):
                        failed += 1
                        continue
                    latency["create"].append(time.perf_counter() - t0)
                    open_sessions.append((name, spec, t0))
                if not open_sessions:
                    break
                for entry in list(open_sessions):
                    name, spec, opened = entry
                    t0 = time.perf_counter()
                    try:
                        proposal = client.ask(name)
                    except (ServeError, OSError):
                        failed += 1
                        open_sessions.remove(entry)
                        continue
                    t1 = time.perf_counter()
                    latency["ask"].append(t1 - t0)
                    if proposal.get("done"):
                        completed.append(
                            {
                                "name": name,
                                "spec": spec,
                                "session_s": t1 - opened,
                                "best": proposal["best"],
                            }
                        )
                        open_sessions.remove(entry)
                        continue
                    try:
                        client.tell(name, proposal["ask_id"])
                    except (ServeError, OSError):
                        failed += 1
                        open_sessions.remove(entry)
                        continue
                    latency["tell"].append(time.perf_counter() - t1)
        active = time.perf_counter() - started
        with self._lock:
            for key, values in latency.items():
                self.latency_s[key].extend(values)
            self.failed += failed
            self.completed.extend(completed)
            self.thread_s.append(active)

    def run(self) -> "ClosedLoop":
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, name=f"perfbench-client-{i}")
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - started
        return self

    @property
    def requests(self) -> int:
        return sum(len(v) for v in self.latency_s.values())

    @property
    def issued(self) -> int:
        """Planned sessions handed to clients (created or failed)."""
        return self._issued


def cache_counts(port: int) -> dict:
    """``{tier: (hits, misses)}`` of the daemon's serve cache tiers."""
    from repro.serve.client import ServeClient

    with ServeClient(port=port, timeout=120) as client:
        cache = client.health()["stats"]["cache"]
    return {
        tier: (cache[tier]["hits"], cache[tier]["misses"])
        for tier in ("problem", "model", "snapshot")
    }


def hit_ratios(before: dict, after: dict) -> dict:
    out = {}
    for tier in ("problem", "model", "snapshot"):
        hits = after[tier][0] - before[tier][0]
        misses = after[tier][1] - before[tier][1]
        lookups = hits + misses
        out[f"serve.cache.{tier}.hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def check_sessions(completed: list[dict]) -> tuple[int, int]:
    """Re-run a sample of served sessions offline; (checked, mismatched).

    A served session must recommend exactly what
    ``build_algorithm(spec).tune(build_problem(spec))`` does.
    """
    from repro.serve.specs import SessionSpec, build_algorithm, build_problem

    chosen = []
    for algo in ALGORITHMS:
        chosen += [c for c in completed if c["spec"]["algorithm"] == algo][
            :CHECKS_PER_ALGORITHM
        ]
    mismatched = 0
    for entry in chosen:
        spec = SessionSpec.from_dict(entry["spec"])
        problem = build_problem(spec)
        result = build_algorithm(spec).tune(problem)
        config = list(result.best_config(problem.pool))
        value = float(result.best_actual_value(problem.pool))
        best = entry["best"]
        if best.get("recommended_config") != config or best.get(
            "recommended_value"
        ) != value:
            mismatched += 1
    return len(chosen), mismatched


def normalized_values(completed: list[dict]) -> list[float]:
    """Recommended value ÷ pool best of every completed session."""
    from repro.workflows import generate_pool, make_workflow

    workflow = make_workflow(SPEC["workflow"])
    out = []
    for entry in completed:
        spec = entry["spec"]
        pool = generate_pool(
            workflow, spec["pool_size"], seed=spec["seed"], noise_sigma=0.05
        )
        out.append(
            entry["best"]["recommended_value"] / pool.best_value(spec["objective"])
        )
    return out
