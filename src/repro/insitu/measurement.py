"""Workflow measurements: the paper's two observables plus noise.

The paper measures, per configuration, the end-to-end wall-clock of each
component launched together; the configuration's *execution time* is the
longest component time and its *computer time* is
``execution_time × nodes × cores_per_node`` (§7.1).

Real measurements are noisy; here noise is a deterministic multiplicative
log-normal factor per configuration: ``exp`` of the first
``normal(0.0, sigma)`` of ``np.random.default_rng(stable_seed(workflow,
tuple(config), seed))``.  So a fixed pool is exactly reproducible (the
paper likewise measures its 2000-configuration pool once and reuses it).
:func:`noise_factors` is the one place the factors are drawn, a batch
at a time: it hashes every configuration's ``SeedSequence`` state in one
array pass, and one compiled call draws every normal from those states
with PCG64 and numpy's ``random_normal`` in the kernel, checked against
``Generator.normal`` at first use (numpy's own ``PCG64`` and
``Generator.normal`` are the fallback), so every factor equals the
per-configuration ``default_rng`` draw.

A batch's observables are columns (:class:`MeasuredBatch`); a
:class:`WorkflowMeasurement` is one configuration's row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.config.space import Configuration
from repro.insitu.coupled import run_coupled
from repro.insitu.workflow import WorkflowDefinition

__all__ = [
    "MeasuredBatch",
    "WorkflowMeasurement",
    "measure_workflow",
    "noise_factors",
    "objective_field",
    "stable_seed",
]


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary hashable parts.

    ``hash()`` is process-salted for strings, so reproducible experiments
    hash the repr through blake2b instead.
    """
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hashmix(words: np.ndarray, const: int, mult: int):
    """numpy's ``hashmix`` on every lane; returns the words and next constant."""
    words = words ^ np.uint32(const)
    const = (const * mult) & _MASK32
    words = words * np.uint32(const)
    return words ^ (words >> _XSHIFT), const


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every seed ``s``.

    numpy's documented uint32 hash, one array operation per step over
    the whole batch: ``mix_entropy`` of the seed's two 32-bit words into
    the four-word pool, then ``generate_state``.  A seed below 2**32 is
    one entropy word to numpy, which pads the pool with hashed zeros, so
    hashing its zero high word lands on the same pool.  The hash
    constants evolve identically on every lane, so they stay masked
    Python ints.  Returns a C-contiguous ``(n, 4)`` uint64 array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = (
        (seeds & np.uint64(_MASK32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        zero,
        zero,
    )
    const = _INIT_A
    pool = []
    for word in entropy:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                word = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * word
                pool[dst] = word ^ (word >> _XSHIFT)
    const = _INIT_B
    state = []
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(word.astype(np.uint64))
    return np.stack(
        [state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)],
        axis=1,
    )


def noise_factors(
    workflow_name: str, configs, noise_sigma: float, noise_seed
) -> np.ndarray:
    """The log-normal noise factor of every configuration of a batch.

    Row ``i`` is ``exp`` of the first ``normal(0.0, noise_sigma)`` of
    ``np.random.default_rng(stable_seed(workflow_name,
    tuple(configs[i]), noise_seed))``, float for float.  Seeding from
    ``tuple(config)`` makes the factor independent of the caller's
    sequence type.  The ``SeedSequence`` hash runs for the whole batch
    at once, and one compiled call draws every normal
    (:func:`repro.ml._native.normal_draws`); without it numpy's
    ``PCG64`` and ``Generator.normal`` draw each.  ``np.exp`` rounds
    each element as it rounds a scalar.  A non-positive ``noise_sigma``
    turns noise off (every factor 1.0).
    """
    from repro.ml import _native

    n = len(configs)
    if not noise_sigma > 0:
        return np.ones(n)
    # stable_seed of every config: repr((name, config, seed)) is
    # head + repr(config) + tail.
    head, tail = f"({workflow_name!r}, ", f", {noise_seed!r})"
    digests = b"".join(
        hashlib.blake2b(
            (head + repr(tuple(c)) + tail).encode(), digest_size=8
        ).digest()
        for c in configs
    )
    states = _seed_states(np.frombuffer(digests, dtype="<u8"))
    draws = _native.normal_draws(states, noise_sigma)
    if draws is None:
        draws = np.array(
            [
                np.random.Generator(
                    np.random.PCG64(_native.SeedState(state))
                ).normal(0.0, noise_sigma)
                for state in states
            ],
            dtype=np.float64,
        )
    return np.exp(draws)


def objective_field(name: str) -> str:
    """The observable that objective ``name`` reads."""
    if name == "execution_time":
        return "execution_seconds"
    if name == "computer_time":
        return "computer_core_hours"
    raise ValueError(f"unknown objective {name!r}")


@dataclass(frozen=True)
class WorkflowMeasurement:
    """One measured workflow run.

    ``execution_seconds`` and ``computer_core_hours`` are the two
    optimisation objectives; ``component_seconds`` keeps the per-component
    wall-clocks for diagnostics and the ACM accuracy studies.

    ``config`` is always the *canonical* configuration form — a plain
    tuple (``Configuration = tuple``), regardless of the sequence type
    the caller measured.  Constructors normalise with ``tuple(config)``
    so the stored value hashes, compares, and round-trips through the
    measurement store unchanged.
    """

    config: Configuration
    execution_seconds: float
    computer_core_hours: float
    component_seconds: dict
    nodes: int
    steps: int

    def objective(self, name: str) -> float:
        """Value of objective ``"execution_time"`` or ``"computer_time"``."""
        return getattr(self, objective_field(name))


@dataclass(frozen=True, eq=False)
class MeasuredBatch:
    """The measured observables of a batch of configurations, as columns.

    Row ``i`` of every array belongs to ``configs[i]`` (canonical
    tuples); ``component_seconds`` maps each component label to its
    column.  ``values`` is the configurations' float64 value matrix
    (``np.array(configs, dtype=np.float64)``), or ``None`` when a value
    is not numeric.  The arrays are read-only, since a measured pool
    shares its batch with every session that tunes on it.
    :meth:`measurement` builds one row's :class:`WorkflowMeasurement`.
    """

    configs: tuple
    execution_seconds: np.ndarray
    computer_core_hours: np.ndarray
    component_seconds: dict
    nodes: np.ndarray
    steps: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        for column in self.columns():
            column.flags.writeable = False
        if self.values is not None:
            self.values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.configs)

    def columns(self) -> tuple:
        """Every array of the batch."""
        return (
            self.execution_seconds,
            self.computer_core_hours,
            *self.component_seconds.values(),
            self.nodes,
            self.steps,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (what a memo's byte gauge counts)."""
        return sum(column.nbytes for column in self.columns())

    def objective_values(self, name: str) -> np.ndarray:
        """The column of objective ``"execution_time"`` or ``"computer_time"``."""
        return getattr(self, objective_field(name))

    def measurement(self, row: int) -> WorkflowMeasurement:
        """Row ``row`` as a :class:`WorkflowMeasurement` of Python scalars."""
        return WorkflowMeasurement(
            config=self.configs[row],
            execution_seconds=float(self.execution_seconds[row]),
            computer_core_hours=float(self.computer_core_hours[row]),
            component_seconds={
                label: float(column[row])
                for label, column in self.component_seconds.items()
            },
            nodes=int(self.nodes[row]),
            steps=int(self.steps[row]),
        )


def measure_workflow(
    workflow: WorkflowDefinition,
    config: Configuration,
    noise_sigma: float = 0.05,
    noise_seed: int = 0,
) -> WorkflowMeasurement:
    """Run ``workflow`` in-situ through the DES and return the observables.

    The per-configuration oracle of
    :func:`~repro.insitu.fast.measure_batch`: one :func:`run_coupled`
    run, every time scaled by the :func:`noise_factors` factor of a
    batch of one.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the log-normal measurement noise; 0 turns
        noise off.
    noise_seed:
        Salt for the deterministic noise (varies across experiment
        repetitions, fixed within one pool).

    The returned measurement's ``config`` is the canonical tuple form of
    ``config`` (see :class:`WorkflowMeasurement`).
    """
    result = run_coupled(workflow, config)
    (factor,) = noise_factors(workflow.name, [config], noise_sigma, noise_seed)
    factor = float(factor)
    exec_seconds = result.execution_seconds * factor
    return WorkflowMeasurement(
        config=tuple(config),
        execution_seconds=exec_seconds,
        computer_core_hours=workflow.machine.core_hours(
            exec_seconds, result.nodes
        ),
        component_seconds={
            label: seconds * factor
            for label, seconds in result.component_seconds.items()
        },
        nodes=result.nodes,
        steps=result.steps,
    )
