"""Offline workloads: ``cold_tune`` and ``warm_retune``.

Both drive :class:`repro.core.AutoTuner` in the paper's shape (pool 2000,
budget 50, objective ``computer_time``) from this one process.

* ``cold_tune`` rotates algorithm {ceal, al, rs} × workflow {LV, HS, GP};
  every session has its own pool seed and there is no store, so pools,
  histories and DES sweeps are paid each time.
* ``warm_retune`` builds a measurement store in set-up (ceal, alph and al
  tuned cold on one (workflow, seed) context per workflow) and times
  warm re-tunes (``warm_start="full"``) of the same contexts.  Each
  timed session gets its own copy of the set-up store, so what a session
  adopts does not depend on how many sessions ran before it.

Every run times the same sessions; ``--seed`` shuffles their order within
each block of nine.  Fixed inputs keep input-to-input cost differences
out of the run-to-run spread, and let ``expected.json`` record the
recommendation of every session a run can time (``python3
perfbench/record.py`` rewrites it); it is checked after timing.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from pathlib import Path

POOL_SIZE = 2000
BUDGET = 50
OBJECTIVE = "computer_time"
WORKFLOWS = ("LV", "HS", "GP")
COLD_ALGORITHMS = ("ceal", "al", "rs")
WARM_ALGORITHMS = ("ceal", "alph", "al")
#: Blocks of nine in ``cold_tune``'s plan; a run times as many as fit.
COLD_BLOCKS = 4
#: First pool seed of ``cold_tune``: session j of block b uses seed
#: ``COLD_SEED0 + 9 * b + j``, so no pool seed repeats in a run.
COLD_SEED0 = 1000
#: The fixed (workflow, seed) contexts of ``warm_retune``.
WARM_CONTEXTS = (("LV", 2000), ("HS", 2001), ("GP", 2002))
#: Seed of the set-up session of ``cold_tune`` (never timed).
WARMUP_SEED = 999


def _shuffled(block, rng):
    block = list(block)
    rng.shuffle(block)
    return block


def cold_plan(run_seed: int) -> list[tuple[str, str, int]]:
    """Every (algorithm, workflow, seed) a cold run may time, in order.

    Each block of nine covers all algorithm × workflow pairs.
    """
    rng = random.Random(run_seed)
    pairs = [(algo, wf) for algo in COLD_ALGORITHMS for wf in WORKFLOWS]
    plan = []
    for b in range(COLD_BLOCKS):
        block = [
            (algo, wf, COLD_SEED0 + 9 * b + j) for j, (algo, wf) in enumerate(pairs)
        ]
        plan += _shuffled(block, rng)
    return plan


def warm_plan(contexts=WARM_CONTEXTS) -> list[tuple[str, str, int]]:
    """Every warm algorithm on every context (the set-up order).

    Stored workflow measurements are matched by workflow, and component
    ones by component, so contexts of distinct workflows keep each
    session's adoptions independent of the other contexts.
    """
    return [(algo, wf, seed) for wf, seed in contexts for algo in WARM_ALGORITHMS]


def warm_cycle(run_seed: int):
    """The timed re-tunes: the warm plan, reshuffled block after block."""
    rng = random.Random(run_seed)
    while True:
        yield from _shuffled(warm_plan(), rng)


class PhaseClock:
    """Times a session's create / ask / tell phases from outside.

    The served workload's create, ask and tell requests map onto the
    offline tuning loop as: create = problem build + strategy prepare;
    ask = the strategy's ``ask``; tell = budget clip, measurement and the
    strategy's ``tell``; the final ask (no proposal) runs to the end of
    the session, covering finalize and the recommendation, as the
    served ask that returns ``done`` does.

    One sample per session and phase: the session's mean ask and tell
    time.  A session's calls follow one deterministic script (a cheap
    seed batch, then fits), so pooling them per call would put a run's
    median on whichever script step happens to sit in the middle.
    """

    def __init__(self):
        self.create_s: list[float] = []
        self.ask_s: list[float] = []
        self.tell_s: list[float] = []
        self.requests = 0
        self._asks: list[float] = []
        self._tells: list[float] = []
        self._started = 0.0
        self._ask_started = 0.0
        self._ask_ended = 0.0

    def instrument(self, algorithm) -> None:
        make_strategy = algorithm.make_strategy

        def make():
            strategy = make_strategy()
            prepare, ask, tell = strategy.prepare, strategy.ask, strategy.tell

            def timed_prepare(session):
                prepare(session)
                self.create_s.append(time.perf_counter() - self._started)

            def timed_ask(session):
                self._ask_started = time.perf_counter()
                batch = ask(session)
                self._ask_ended = time.perf_counter()
                if len(batch):
                    self._asks.append(self._ask_ended - self._ask_started)
                return batch

            def timed_tell(session, batch, results):
                tell(session, batch, results)
                self._tells.append(time.perf_counter() - self._ask_ended)

            strategy.prepare = timed_prepare
            strategy.ask = timed_ask
            strategy.tell = timed_tell
            return strategy

        algorithm.make_strategy = make

    def start(self) -> None:
        self._asks, self._tells = [], []
        self._started = time.perf_counter()

    def finish(self) -> None:
        self._asks.append(time.perf_counter() - self._ask_started)
        self.ask_s.append(sum(self._asks) / len(self._asks))
        self.tell_s.append(sum(self._tells) / max(len(self._tells), 1))
        self.requests += 1 + len(self._asks) + len(self._tells)


def run_session(algo, wf, seed, *, store=None, warm_start="off", phases=None):
    """One paper-shaped session through the public API; its outcome."""
    from repro.core import AutoTuner
    from repro.serve.specs import SessionSpec, build_algorithm
    from repro.workflows import make_workflow

    algorithm = build_algorithm(SessionSpec(algorithm=algo))
    if phases is not None:
        phases.instrument(algorithm)
        phases.start()
    outcome = AutoTuner(
        make_workflow(wf),
        OBJECTIVE,
        budget=BUDGET,
        algorithm=algorithm,
        pool_size=POOL_SIZE,
        seed=seed,
        store=store,
        warm_start=warm_start,
    ).tune()
    if phases is not None:
        phases.finish()
    return outcome


def tune(algo, wf, seed, *, store=None, warm_start="off", phases=None) -> dict:
    """One session's checked summary: key, recommendation digest, normalized."""
    outcome = run_session(
        algo, wf, seed, store=store, warm_start=warm_start, phases=phases
    )
    digest = hashlib.sha256(
        repr(
            (
                algo,
                wf,
                seed,
                warm_start,
                tuple(outcome.best_config),
                float(outcome.best_value).hex(),
                float(outcome.pool_best_value).hex(),
                outcome.runs_used,
            )
        ).encode()
    ).hexdigest()[:16]
    return {
        "key": f"{algo}/{wf}/{seed}",
        "digest": digest,
        "normalized": outcome.best_value / outcome.pool_best_value,
    }


# -- warm store ---------------------------------------------------------------


def build_warm_store(path: Path, contexts) -> None:
    """The set-up store: ceal, alph and al tuned cold on each context."""
    from repro.store.db import MeasurementStore

    store = MeasurementStore(path)
    try:
        for algo, wf, seed in warm_plan(contexts):
            tune(algo, wf, seed, store=store)
    finally:
        store.close()
    # Copies take the main file only: closing must have merged the log.
    if Path(f"{path}-wal").exists():
        raise RuntimeError(f"{path} kept its write-ahead log after close")


class StoreCopies:
    """Hands out fresh copies of the closed set-up store, one per session."""

    def __init__(self, source: Path, directory: Path):
        self.source = Path(source)
        self.directory = Path(directory)
        self._count = 0

    def open(self):
        from repro.store.db import MeasurementStore

        self._count += 1
        target = self.directory / f"retune-{self._count}.db"
        shutil.copyfile(self.source, target)
        return MeasurementStore(target)

    @staticmethod
    def discard(store) -> None:
        store.close()
        for suffix in ("", "-wal", "-shm"):
            Path(store.path + suffix).unlink(missing_ok=True)



# -- the timed loop -----------------------------------------------------------


def set_up(workload: str, run_seed: int, work: Path):
    """Everything before the timed window; returns the session runner."""
    if workload == "cold_tune":
        # The first session pays imports, the native kernel build and
        # lazy initialisation; it is set-up, never timed.
        tune(COLD_ALGORITHMS[0], WORKFLOWS[0], WARMUP_SEED)
        return cold_plan(run_seed), None
    source = work / "setup.db"
    build_warm_store(source, WARM_CONTEXTS)
    return warm_cycle(run_seed), StoreCopies(source, work)


#: Sessions per block: every algorithm on every workflow once.  Runs
#: stop only at block ends, so every run times the same mix of sessions
#: and percentiles over that mix land on the same kind of call.
BLOCK = 9


def timed_sessions(items, copies, *, deadline=None, phases=None, between=None):
    """Run whole blocks of sessions until ``deadline`` (or all ``items``).

    Returns ``[(item, wall_s, summary)]``; a session that raises has an
    ``error`` summary.  Store copies are made and discarded, and
    ``between()`` is called after each session, outside the timed span.
    """
    records = []
    for item in items:
        if (
            deadline is not None
            and records
            and len(records) % BLOCK == 0
            and time.perf_counter() >= deadline
        ):
            break
        store = copies.open() if copies is not None else None
        started = time.perf_counter()
        try:
            summary = tune(
                *item,
                store=store,
                warm_start="off" if store is None else "full",
                phases=phases,
            )
        except Exception as exc:  # counted as a failed operation
            summary = {"key": "/".join(map(str, item)), "error": repr(exc)}
        wall = time.perf_counter() - started
        if store is not None:
            StoreCopies.discard(store)
        records.append((item, wall, summary))
        if between is not None:
            between()
    return records


def traced_replay(items, copies, *, seconds: float):
    """Untraced sessions for ``seconds``, then the same sessions traced.

    Returns ``(untraced, traced, totals, shares)``: both record lists,
    the tracer's layer totals of the traced pass, and its
    ``trace.unattributed_share`` / ``trace.overhead_share``.
    """
    from tracer import Tracer, overhead_share, unattributed_share

    untraced = timed_sessions(items, copies, deadline=time.perf_counter() + seconds)
    if copies is None:
        # The replay must pay for pools and histories again, as the
        # untraced pass did; the program offers no public way to drop
        # its in-process memos.
        from repro.workflows import pools

        pools._POOL_MEMO.clear()
        pools._HISTORY_MEMO.clear()
    tracer = Tracer().install()
    try:
        traced = timed_sessions([item for item, _w, _s in untraced], copies)
    finally:
        tracer.uninstall()
    traced_wall = sum(w for _i, w, _s in traced)
    untraced_wall = sum(w for _i, w, _s in untraced)
    totals = tracer.totals()
    shares = {
        "trace.unattributed_share": unattributed_share(traced_wall, totals),
        "trace.overhead_share": overhead_share(traced_wall, untraced_wall),
    }
    return untraced, traced, totals, shares


def check(records, expected: dict) -> int:
    """Failed sessions: errors, or digests that differ from the record."""
    failed = 0
    for _item, _wall, summary in records:
        want = expected.get(summary["key"])
        if "error" in summary or want is None or want["digest"] != summary["digest"]:
            failed += 1
    return failed


def normalized_mean(records, expected: dict) -> tuple[float, bool]:
    """Mean normalized best value, and whether it equals the recorded one."""
    got = [s["normalized"] for _i, _w, s in records if "normalized" in s]
    want = [
        expected[s["key"]]["normalized"]
        for _i, _w, s in records
        if s["key"] in expected
    ]
    mean = sum(got) / len(got) if got else float("nan")
    return mean, len(got) == len(want) == len(records) and got == want
