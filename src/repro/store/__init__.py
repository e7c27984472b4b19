"""repro.store — persistent measurement store + model registry.

A SQLite-backed (stdlib ``sqlite3``, WAL mode), concurrency-safe store
of workflow measurements and per-component solo measurements, keyed by
content signatures of (workflow, config space, config encoding,
machine, objective) so stale or mismatched history can never silently
corrupt a run; plus a fitted-model registry and the warm-start layer
that lets a new session bootstrap from everything previous sessions
paid for (see DESIGN §10).  There is no process-wide default store:
every caller that records or reads passes its store explicitly
(``store=`` in the library, ``--store`` on the CLI).
"""

from repro.store.db import (
    SCHEMA_VERSION,
    MeasurementRecord,
    MeasurementSet,
    MeasurementStore,
    StoreBinding,
    StoreContext,
    StoreError,
)
from repro.store.registry import ModelRegistry, training_key
from repro.store.signatures import (
    encoding_signature,
    machine_signature,
    signature,
    space_signature,
)
from repro.store.warmstart import (
    MIN_WARM_SAMPLES,
    WARM_START_MODES,
    adopt_stored_measurements,
    component_warm_data,
)

__all__ = [
    "MIN_WARM_SAMPLES",
    "SCHEMA_VERSION",
    "WARM_START_MODES",
    "MeasurementRecord",
    "MeasurementSet",
    "MeasurementStore",
    "ModelRegistry",
    "StoreBinding",
    "StoreContext",
    "StoreError",
    "adopt_stored_measurements",
    "component_warm_data",
    "encoding_signature",
    "machine_signature",
    "signature",
    "space_signature",
    "training_key",
]
