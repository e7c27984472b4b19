"""Layer tracer: wraps the public entry points of each layer from outside.

The program under test is not modified.  :class:`Tracer` replaces each
entry point listed in :data:`LAYER_TARGETS` by a timing wrapper (on its
defining module or class, and on every ``repro`` module that imported it
by name), records per-thread inclusive and self time, and restores the
originals on :meth:`Tracer.uninstall`.

Self time is a wrapped call's duration minus the durations of the
wrapped calls nested directly in it on the same thread, so the self
times of one call tree sum to its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time

__all__ = [
    "LAYER_TARGETS",
    "PER_LAYER_METRICS",
    "Tracer",
    "layer_metrics",
    "overhead_share",
    "unattributed_share",
]


def _arg(index, name):
    """Row counter: ``len`` of a positional-or-keyword argument."""

    def rows(args, kwargs, result):
        value = kwargs[name] if name in kwargs else args[index]
        return len(value)

    return rows


def _result_len(args, kwargs, result):
    return len(result)


def _one(args, kwargs, result):
    return 1


def _found(args, kwargs, result):
    return 0 if result is None else 1


def _count(args, kwargs, result):
    return int(result)


#: (span name, module, attribute path, row counter) of every wrapped
#: public entry point.  The span name's first component is its layer.
LAYER_TARGETS = (
    ("workflows.generate_pool", "repro.workflows.pools", "generate_pool", None),
    (
        "workflows.generate_history",
        "repro.workflows.pools",
        "generate_component_history",
        None,
    ),
    ("config.sample", "repro.config.space", "ParameterSpace.sample", _result_len),
    ("insitu.measure_batch", "repro.insitu.fast", "measure_batch", _result_len),
    ("ml.fit", "repro.ml.boosting", "GradientBoostedTrees.fit", _arg(1, "X")),
    ("ml.fit", "repro.ml.forest", "RandomForestRegressor.fit", _arg(1, "X")),
    ("ml.predict", "repro.ml.boosting", "GradientBoostedTrees.predict", _arg(1, "X")),
    ("ml.predict", "repro.ml.forest", "RandomForestRegressor.predict", _arg(1, "X")),
    ("core.driver", "repro.core.driver", "TuningDriver.run", None),
    ("core.rank", "repro.core.driver", "TuningSession.rank_candidates", None),
    ("core.rank", "repro.core.problem", "AutotuneResult.predict_pool", None),
    (
        "core.collector",
        "repro.core.collector",
        "Collector.measure_batch",
        _arg(1, "configs"),
    ),
    (
        "core.checkpoint.save",
        "repro.core.driver",
        "save_checkpoint_payload",
        None,
    ),
    ("core.checkpoint.load", "repro.core.driver", "load_checkpoint", None),
    (
        "store.write",
        "repro.store.db",
        "StoreBinding.record_workflow",
        _arg(1, "pairs"),
    ),
    (
        "store.write",
        "repro.store.db",
        "StoreBinding.record_components",
        _arg(2, "configs"),
    ),
    ("store.write", "repro.store.db", "MeasurementStore.put_model", _one),
    ("store.query", "repro.store.db", "MeasurementStore.query", _result_len),
    ("store.query", "repro.store.db", "MeasurementStore.get_model", _found),
    (
        "store.warm",
        "repro.store.warmstart",
        "adopt_stored_measurements",
        _count,
    ),
    ("store.warm", "repro.store.warmstart", "component_warm_data", None),
    ("serve.create", "repro.serve.sessions", "SessionManager.create", None),
    ("serve.ask", "repro.serve.sessions", "SessionManager.ask", None),
    ("serve.tell", "repro.serve.sessions", "SessionManager.tell", None),
    ("serve.best", "repro.serve.sessions", "SessionManager.best", None),
    ("serve.stats", "repro.serve.sessions", "SessionManager.stats", None),
    (
        "serve.rehydrate",
        "repro.serve.sessions",
        "SessionRunner.rehydrate",
        None,
    ),
)

#: Span names whose per-call durations are kept (for percentiles).
_KEEP_DURATIONS = frozenset({"ml.fit", "serve.rehydrate"})


class _Totals:
    """Per-name aggregates of one thread (merged by :meth:`Tracer.totals`)."""

    __slots__ = ("calls", "total", "self_time", "rows", "durations", "with_child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0
        self.durations = []
        #: child span name -> number of this name's calls that had it as
        #: a direct child.
        self.with_child = {}


class Tracer:
    """Wraps layer entry points and aggregates their self time.

    ``clock`` is injectable so tests can drive the arithmetic with
    exact integer ticks.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.totals = {}
            with self._lock:
                self._per_thread.append(local.totals)
        return stack, local.totals

    def wrap(self, name: str, fn, rows=None):
        """``fn`` wrapped as one span named ``name``."""
        clock = self.clock
        keep = name in _KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, totals = self._thread_state()
            # frame: [child time, direct child names]
            frame = [0, set()]
            stack.append(frame)
            started = clock()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1].add(name)
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = _Totals()
                entry.calls += 1
                entry.total += elapsed
                entry.self_time += elapsed - frame[0]
                if keep:
                    entry.durations.append(elapsed)
                for child in frame[1]:
                    entry.with_child[child] = entry.with_child.get(child, 0) + 1
                if rows is not None and ok:
                    entry.rows += rows(args, kwargs, result)

        return traced

    def totals(self) -> dict:
        """``{name: {calls, total_s, self_s, rows, durations, with_child}}``."""
        with self._lock:
            threads = list(self._per_thread)
        out: dict = {}
        for per_thread in threads:
            for name, entry in list(per_thread.items()):
                merged = out.setdefault(
                    name,
                    {
                        "calls": 0,
                        "total_s": 0.0,
                        "self_s": 0.0,
                        "rows": 0,
                        "durations": [],
                        "with_child": {},
                    },
                )
                merged["calls"] += entry.calls
                merged["total_s"] += entry.total
                merged["self_s"] += entry.self_time
                merged["rows"] += entry.rows
                merged["durations"].extend(entry.durations)
                for child, count in entry.with_child.items():
                    merged["with_child"][child] = (
                        merged["with_child"].get(child, 0) + count
                    )
        return out

    # -- patching -------------------------------------------------------------

    def install(self, targets=LAYER_TARGETS) -> "Tracer":
        """Wrap every target (call once per tracer)."""
        for name, module_name, path, rows in targets:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if isinstance(owner, type):
                self._patch_method(owner, attr, name, rows)
            else:
                self._patch_function(owner, attr, name, rows)
        return self

    def _patch_method(self, cls, attr, name, rows) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, rows))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, rows))
        else:
            wrapped = self.wrap(name, raw, rows)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def _patch_function(self, module, attr, name, rows) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, rows)
        # Rebind every ``from module import attr`` alias in the program,
        # including module-level dict memos of imported callables.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapped
                            self._undo.append((value, dkey, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)


# -- derived metrics -----------------------------------------------------------


def unattributed_share(wall_s: float, totals: dict) -> float:
    """Share of ``wall_s`` that no wrapped layer's self time covers."""
    attributed = sum(entry["self_s"] for entry in totals.values())
    return (wall_s - attributed) / wall_s if wall_s > 0 else 0.0


def overhead_share(traced_wall_s: float, untraced_wall_s: float) -> float:
    """Tracing overhead: traced wall ÷ untraced wall − 1 (same work)."""
    return traced_wall_s / untraced_wall_s - 1.0


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = {
    "workflows.generate_pool.calls": "count",
    "workflows.generate_pool.self_s": "s",
    "workflows.generate_history.calls": "count",
    "workflows.generate_history.self_s": "s",
    "workflows.pool.miss_ratio": "ratio",
    "config.sample.calls": "count",
    "config.sample.self_s": "s",
    "insitu.measure_batch.calls": "count",
    "insitu.measure_batch.configs": "count",
    "insitu.measure_batch.self_s": "s",
    "insitu.configs_per_s": "1/s",
    "ml.fit.calls": "count",
    "ml.fit.rows": "count",
    "ml.fit.self_s": "s",
    "ml.fit.ms_p50": "ms",
    "ml.predict.calls": "count",
    "ml.predict.rows": "count",
    "ml.predict.self_s": "s",
    "ml.predict.rows_per_s": "1/s",
    "ml.native": "bool",
    "core.driver.self_s": "s",
    "core.rank.calls": "count",
    "core.rank.self_s": "s",
    "core.collector.calls": "count",
    "core.collector.self_s": "s",
    "core.checkpoint.save.calls": "count",
    "core.checkpoint.save.self_s": "s",
    "core.checkpoint.load.calls": "count",
    "core.checkpoint.load.self_s": "s",
    "store.write.calls": "count",
    "store.write.rows": "count",
    "store.write.self_s": "s",
    "store.query.calls": "count",
    "store.query.rows": "count",
    "store.query.self_s": "s",
    "store.warm.adopted": "count",
    "serve.create.self_s": "s",
    "serve.ask.self_s": "s",
    "serve.tell.self_s": "s",
    "serve.rehydrate.count": "count",
    "serve.rehydrate.ms_p50": "ms",
    "serve.cache.problem.hit_ratio": "ratio",
    "serve.cache.model.hit_ratio": "ratio",
    "serve.cache.snapshot.hit_ratio": "ratio",
    "serve.http.wait_ms_mean": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict, *, native: bool, extra: dict) -> dict:
    """The per-layer metric values from merged tracer ``totals``.

    ``extra`` supplies what the tracer cannot see from inside one
    process: the serve cache hit ratios, the HTTP wait, and the two
    ``trace.*`` shares.  Metrics of a layer the workload never reached
    read 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0,
             "durations": [], "with_child": {}}

    def get(name):
        return totals.get(name, empty)

    pool = get("workflows.generate_pool")
    measure = get("insitu.measure_batch")
    fit = get("ml.fit")
    predict = get("ml.predict")
    rehydrate = get("serve.rehydrate")
    warm = get("store.warm")
    values = {
        "workflows.generate_pool.calls": pool["calls"],
        "workflows.generate_pool.self_s": pool["self_s"],
        "workflows.generate_history.calls": get("workflows.generate_history")["calls"],
        "workflows.generate_history.self_s": get("workflows.generate_history")["self_s"],
        # A memo or disk-cache hit returns without sampling a pool.
        "workflows.pool.miss_ratio": _ratio(
            pool["with_child"].get("config.sample", 0), pool["calls"]
        ),
        "config.sample.calls": get("config.sample")["calls"],
        "config.sample.self_s": get("config.sample")["self_s"],
        "insitu.measure_batch.calls": measure["calls"],
        "insitu.measure_batch.configs": measure["rows"],
        "insitu.measure_batch.self_s": measure["self_s"],
        "insitu.configs_per_s": _ratio(measure["rows"], measure["total_s"]),
        "ml.fit.calls": fit["calls"],
        "ml.fit.rows": fit["rows"],
        "ml.fit.self_s": fit["self_s"],
        "ml.fit.ms_p50": (
            statistics.median(fit["durations"]) * 1e3 if fit["durations"] else 0.0
        ),
        "ml.predict.calls": predict["calls"],
        "ml.predict.rows": predict["rows"],
        "ml.predict.self_s": predict["self_s"],
        "ml.predict.rows_per_s": _ratio(predict["rows"], predict["total_s"]),
        "ml.native": 1 if native else 0,
        "core.driver.self_s": get("core.driver")["self_s"],
        "core.rank.calls": get("core.rank")["calls"],
        "core.rank.self_s": get("core.rank")["self_s"],
        "core.collector.calls": get("core.collector")["calls"],
        "core.collector.self_s": get("core.collector")["self_s"],
        "core.checkpoint.save.calls": get("core.checkpoint.save")["calls"],
        "core.checkpoint.save.self_s": get("core.checkpoint.save")["self_s"],
        "core.checkpoint.load.calls": get("core.checkpoint.load")["calls"],
        "core.checkpoint.load.self_s": get("core.checkpoint.load")["self_s"],
        "store.write.calls": get("store.write")["calls"],
        "store.write.rows": get("store.write")["rows"],
        "store.write.self_s": get("store.write")["self_s"],
        "store.query.calls": get("store.query")["calls"],
        "store.query.rows": get("store.query")["rows"],
        "store.query.self_s": get("store.query")["self_s"],
        "store.warm.adopted": warm["rows"],
        "serve.create.self_s": get("serve.create")["self_s"],
        "serve.ask.self_s": get("serve.ask")["self_s"],
        "serve.tell.self_s": get("serve.tell")["self_s"],
        "serve.rehydrate.count": rehydrate["calls"],
        "serve.rehydrate.ms_p50": (
            statistics.median(rehydrate["durations"]) * 1e3
            if rehydrate["durations"]
            else 0.0
        ),
        "serve.cache.problem.hit_ratio": 0.0,
        "serve.cache.model.hit_ratio": 0.0,
        "serve.cache.snapshot.hit_ratio": 0.0,
        "serve.http.wait_ms_mean": 0.0,
        "trace.unattributed_share": 0.0,
        "trace.overhead_share": 0.0,
    }
    values.update(extra)
    missing = set(PER_LAYER_METRICS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_METRICS.items()
    }
