"""The one in-process LRU cache.

Every in-process memo in the package is an :class:`LruCache`: the pool
and component-history memos of :mod:`repro.workflows.pools` and the
three rehydration tiers of :mod:`repro.serve.artifacts`.  It lives at
the package root because ``workflows`` may not import ``serve``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np

from repro import telemetry

__all__ = ["LruCache"]


def _approx_nbytes(obj, depth: int = 3) -> int:
    """Cheap, bounded-depth size estimate for cache accounting.

    Exact numpy ``nbytes`` where available (arrays dominate every
    artifact), shallow container recursion elsewhere.  This feeds
    byte *gauges*, not eviction decisions — eviction is entry-count
    LRU — so an estimate is all that is needed.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if depth <= 0:
        return sys.getsizeof(obj, 64)
    if isinstance(obj, dict):
        return sys.getsizeof(obj) + sum(
            _approx_nbytes(v, depth - 1) for v in obj.values()
        )
    if isinstance(obj, (list, tuple)):
        total = sys.getsizeof(obj)
        for item in obj[:256]:
            total += _approx_nbytes(item, depth - 1)
        return total
    fields = getattr(obj, "__dict__", None)
    if isinstance(fields, dict):
        return sys.getsizeof(obj, 64) + _approx_nbytes(fields, depth - 1)
    return sys.getsizeof(obj, 64)


class LruCache:
    """Thread-safe, capacity-bounded LRU mapping with telemetry.

    ``name`` is the full counter prefix: ``<name>.hits`` / ``.misses``
    / ``.evictions`` counters and the ``<name>.bytes`` max-gauge flow
    through the telemetry hub, and :meth:`stats` reports the same
    numbers for this instance.  Capacity counts entries, not bytes.
    """

    _MISSING = object()

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _count(self, hit: bool) -> None:
        outcome = "hits" if hit else "misses"
        telemetry.get().counter(f"{self.name}.{outcome}").inc()

    def get(self, key, default=None):
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            hit = value is not self._MISSING
            if hit:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        self._count(hit)
        return value if hit else default

    def put(self, key, value, nbytes: int | None = None) -> None:
        """Insert ``value``; ``nbytes`` is its size for the byte gauge
        when the caller knows it (else :func:`_approx_nbytes` estimates)."""
        size = _approx_nbytes(value) if nbytes is None else int(nbytes)
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._bytes[key] = size
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._bytes.pop(old_key, None)
                evicted += 1
            self.evictions += evicted
            total = sum(self._bytes.values())
        tel = telemetry.get()
        if evicted:
            tel.counter(f"{self.name}.evictions").inc(evicted)
        tel.gauge(f"{self.name}.bytes").set_max(total)

    def pop(self, key, default=None):
        """Remove and return ``key`` (no hit/miss accounting)."""
        with self._lock:
            self._bytes.pop(key, None)
            return self._entries.pop(key, default)

    def take(self, key, default=None):
        """Consume ``key``: a counted get that removes the entry on hit."""
        with self._lock:
            value = self._entries.pop(key, self._MISSING)
            self._bytes.pop(key, None)
            hit = value is not self._MISSING
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        self._count(hit)
        return value if hit else default

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._entries)
            total = sum(self._bytes.values())
        lookups = self.hits + self.misses
        return {
            "entries": entries,
            "capacity": self.capacity,
            "bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hits / lookups, 4) if lookups else 0.0,
        }
