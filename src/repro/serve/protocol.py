"""Wire contract of the tuning service: versioning and typed errors.

The serve subsystem speaks a minimal JSON-over-HTTP protocol (no new
dependencies; see :mod:`repro.serve.http`).  This module pins the two
things every participant — daemon, client, load generator, CI smoke
scripts — must agree on:

* :data:`PROTOCOL_VERSION`: bumped on any breaking change to request
  or response shapes.  Every response carries it; a client advertising
  a different version (``X-Repro-Protocol`` header or a ``protocol``
  body field) is refused with a structured ``protocol_mismatch`` error
  instead of silently misinterpreting payloads.
* :class:`ServeError`: the one exception type session and HTTP layers
  raise for *expected* failures.  Each carries a stable machine-readable
  ``code`` (see :data:`ERROR_CODES`) and maps to a deterministic HTTP
  status, so clients can branch on codes instead of scraping messages.
* :func:`latency_digest`: the shape of every latency series in a
  payload — the daemon's ``rehydrate_ms`` stat and the load
  generator's per-endpoint report — so readers such as
  :func:`~repro.serve.loadgen.apply_floors` find ``p95`` in both.
"""

from __future__ import annotations

import math

__all__ = [
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ServeError",
    "latency_digest",
]

#: Version of the JSON-over-HTTP protocol (request/response shapes).
PROTOCOL_VERSION = 1

#: Stable error codes and the HTTP status each maps to.
ERROR_CODES = {
    "bad_request": 400,        # malformed JSON, bad name, bad spec field
    "protocol_mismatch": 400,  # client speaks a different PROTOCOL_VERSION
    "unknown_session": 404,    # no such session (active or checkpointed)
    "not_found": 404,          # no such route
    "conflict": 409,           # create with a name that already exists
    "stale_ask": 409,          # tell for an ask id that is not pending
    "session_completed": 409,  # ask/tell after the session finished
    "timeout": 503,            # request exceeded the per-request timeout
    "overloaded": 503,         # worker pool saturated / server draining
    "internal": 500,           # unexpected exception (bug)
}


class ServeError(RuntimeError):
    """An expected service failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        return ERROR_CODES[self.code]

    def as_dict(self) -> dict:
        """The structured error body every endpoint returns on failure."""
        return {
            "error": {"code": self.code, "message": self.message},
            "protocol": PROTOCOL_VERSION,
        }


def latency_digest(values) -> dict:
    """Nearest-rank digest of a latency series: count, mean, p50/p95/p99, max.

    Every value is rounded to 3 decimals; an empty series is
    ``{"count": 0}``.
    """
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}

    def pct(q: float) -> float:
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return round(ordered[index], 3)

    return {
        "count": len(ordered),
        "mean": round(sum(ordered) / len(ordered), 3),
        "p50": pct(0.50),
        "p95": pct(0.95),
        "p99": pct(0.99),
        "max": round(ordered[-1], 3),
    }
