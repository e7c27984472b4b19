"""Per-experiment algorithm hyper-parameters and declarative algorithm factors.

The paper adjusts the hyper-parameters of GEIST, AL, ALpH and CEAL per
setting "and select[s] the best settings for each algorithm" (§7.3).
This module records the settings our own tuning pass selected, so every
figure driver uses the same ones and the choices are documented in one
place.

It also owns the *declarative* algorithm layer of the experiment engine
(:mod:`repro.experiments.runner`, :mod:`repro.experiments.suite`): an
:class:`AlgorithmFactor` names an algorithm by its
:data:`~repro.core.autotuner.ALGORITHMS` name (``kind``) plus that
algorithm's keyword parameters as plain data — hashable into a suite
cell's content key and loadable from a TOML/JSON suite spec — and
:func:`resolve_algorithm` builds a fresh instance from it through that
same table.  The comparison sets the figure drivers share
(:func:`no_history_factors` / :func:`history_factors`) live here too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.algorithms import TuningAlgorithm
from repro.core.autotuner import ALGORITHMS
from repro.core.ceal import Ceal, CealSettings

__all__ = [
    "AlgorithmFactor",
    "ceal_factor",
    "ceal_settings_for",
    "factor_from_ceal_settings",
    "history_factors",
    "no_history_factors",
    "resolve_algorithm",
]

#: Tuned CEAL settings without historical measurements, keyed by
#: (workflow, small-budget?).  ``None`` entries fall back to the global
#: default (m_R = 0.5 m, m_0 = 0.10 m, I = 8).
_NO_HISTORY_PRESETS: dict = {
    # GP's computer-time landscape is learned quickly from diverse
    # samples; small budgets favour a larger random share.
    ("GP", True): dict(component_runs_fraction=0.3, random_fraction=0.3, iterations=6),
    ("HS", True): dict(component_runs_fraction=0.4, random_fraction=0.2, iterations=8),
}

#: Budgets at or below this are "small" (the paper's m = 25 column).
SMALL_BUDGET = 30


def ceal_settings_for(
    workflow_name: str, budget: int, use_history: bool
) -> CealSettings:
    """The tuned CEAL settings for one experimental cell."""
    if use_history:
        return CealSettings(use_history=True)
    preset = _NO_HISTORY_PRESETS.get((workflow_name, budget <= SMALL_BUDGET))
    if preset is None:
        return CealSettings(use_history=False)
    return CealSettings(use_history=False, **preset)


# -- declarative algorithm factors ---------------------------------------------------


@dataclass(frozen=True)
class AlgorithmFactor:
    """One algorithm of an experiment, as plain data.

    ``kind`` is the algorithm's :data:`~repro.core.autotuner.ALGORITHMS`
    name and ``params`` its keyword parameters, a sorted tuple of
    ``(key, value)`` pairs of JSON-representable values — making the
    factor hashable, comparable, and serialisable into a suite cell's
    content key.  ``name`` is the display name; it also feeds
    :func:`~repro.experiments.runner.trial_seed`, so two factors with
    the same name draw the same per-repeat random streams.
    """

    name: str
    kind: str
    params: tuple = ()

    @classmethod
    def make(cls, name: str, kind: str, **params) -> "AlgorithmFactor":
        if kind not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm kind {kind!r}; expected one of "
                f"{sorted(ALGORITHMS)}"
            )
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict:
        return dict(self.params)

    def identity(self) -> dict:
        """JSON-stable identity for content hashing."""
        return {"name": self.name, "kind": self.kind,
                "params": [list(p) for p in self.params]}


def resolve_algorithm(
    factor: AlgorithmFactor,
    workflow_name: str | None = None,
    budget: int | None = None,
) -> TuningAlgorithm:
    """A fresh instance of the algorithm ``factor`` describes.

    The factor's params go to its :data:`~repro.core.autotuner.ALGORITHMS`
    entry as keyword arguments — except for a CEAL factor with
    ``preset=True``, which selects the tuned :func:`ceal_settings_for`
    its cell and so needs the ``workflow_name`` and ``budget``
    resolution context.
    """
    try:
        build = ALGORITHMS[factor.kind]
    except KeyError:
        raise ValueError(
            f"unknown algorithm kind {factor.kind!r}; expected one of "
            f"{sorted(ALGORITHMS)}"
        ) from None
    params = factor.param_dict()
    if factor.kind == "ceal" and params.pop("preset", False):
        use_history = bool(params.pop("use_history", False))
        if params:
            raise ValueError(
                f"CEAL factor {factor.name!r}: preset=True does not combine "
                f"with explicit settings {sorted(params)}"
            )
        if workflow_name is None or budget is None:
            raise ValueError(
                f"CEAL factor {factor.name!r} uses preset=True, which needs "
                "a (workflow, budget) resolution context"
            )
        return Ceal(ceal_settings_for(workflow_name, budget, use_history))
    return build(**params)


def ceal_factor(
    name: str = "CEAL", *, preset: bool = False, **settings
) -> AlgorithmFactor:
    """A CEAL factor from explicit settings or the per-cell preset."""
    if preset:
        return AlgorithmFactor.make(
            name, "ceal", preset=True,
            use_history=bool(settings.pop("use_history", False)),
        )
    return AlgorithmFactor.make(name, "ceal", **settings)


def factor_from_ceal_settings(
    name: str, settings: CealSettings
) -> AlgorithmFactor:
    """Lift a concrete :class:`CealSettings` into a declarative factor.

    Every field is carried (including defaults), so resolving the
    factor reconstructs ``settings`` exactly — the sensitivity sweeps
    rely on this to route arbitrary settings through the suite engine.
    """
    return AlgorithmFactor.make(name, "ceal", **asdict(settings))


# -- the figure drivers' shared comparison sets --------------------------------------


def no_history_factors() -> tuple[AlgorithmFactor, ...]:
    """§7.4 comparison set without histories: RS, GEIST, AL, CEAL.

    The CEAL member uses ``preset=True``: its tuned settings are
    selected per cell from :func:`ceal_settings_for` at resolution
    time, exactly as the legacy per-figure helpers did.
    """
    return (
        AlgorithmFactor.make("RS", "rs"),
        AlgorithmFactor.make("GEIST", "geist"),
        AlgorithmFactor.make("AL", "al"),
        ceal_factor("CEAL", preset=True, use_history=False),
    )


def history_factors() -> tuple[AlgorithmFactor, ...]:
    """§7.5 comparison set with histories: CEAL vs ALpH."""
    return (
        AlgorithmFactor.make("CEAL", "ceal", use_history=True),
        AlgorithmFactor.make("ALpH", "alph", use_history=True),
    )
