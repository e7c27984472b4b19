"""Tuning as a service: many concurrent sessions behind one daemon.

ROADMAP item 1.  The package splits into orthogonal layers:

* :mod:`repro.serve.protocol` — wire contract: protocol version,
  structured error codes.
* :mod:`repro.serve.specs` — :class:`SessionSpec`, the JSON recipe a
  session is deterministically rebuilt from, through the same problem
  recipe and algorithm registry as offline tuning
  (:mod:`repro.core.autotuner`).
* :mod:`repro.serve.sessions` — :class:`SessionRunner` (ask-id
  bookkeeping around the :class:`~repro.core.driver.TuningDriver`'s
  own prepare/ask/tell/finalize steps, one request per step) and
  :class:`SessionManager` (named sessions, LRU eviction to
  checkpoints, crash recovery).
* :mod:`repro.serve.artifacts` — the rehydration cache tiers.
* :mod:`repro.serve.http` — stdlib asyncio JSON-over-HTTP daemon with
  a bounded worker pool and graceful SIGTERM drain.
* :mod:`repro.serve.client` — blocking keep-alive client.

Start a daemon with ``repro serve --state-dir .serve`` and talk to it
with :class:`ServeClient`; see README's "Tuning as a service" section.
"""

from repro.serve.client import ServeClient
from repro.serve.http import BackgroundServer, TuningServer, run_daemon
from repro.serve.protocol import ERROR_CODES, PROTOCOL_VERSION, ServeError
from repro.serve.sessions import SessionManager, SessionRunner
from repro.serve.specs import ALGORITHMS, SessionSpec

__all__ = [
    "ALGORITHMS",
    "BackgroundServer",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeError",
    "SessionManager",
    "SessionRunner",
    "SessionSpec",
    "TuningServer",
    "run_daemon",
]
