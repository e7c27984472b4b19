"""Discrete configuration spaces and feature encodings.

Every tunable entity in the reproduction — a component application or a
whole in-situ workflow — exposes a :class:`~repro.config.space.ParameterSpace`
describing the discrete options of each of its parameters (paper Table 1).
Workflow spaces are built by joining component spaces with name prefixes
(:func:`~repro.config.space.join_spaces`), mirroring the multiplicative
configuration-space blow-up the paper highlights in §2.3.

Feasibility (e.g. the 32-node allocation cap of the paper's runs) is
not part of a space: it comes from the components' own placements and
is applied at sampling time (:class:`~repro.insitu.workflow.PlacementRule`).
ML feature vectors are produced by :mod:`~repro.config.encoding`; a
candidate pool's configurations and their value matrix form a
:class:`~repro.config.table.ConfigTable`, which models read through row
views (:class:`~repro.config.table.ConfigRows`).
"""

from repro.config.encoding import (
    ConfigEncoder,
    DerivedFeature,
    component_footprint_features,
)
from repro.config.space import (
    Configuration,
    Parameter,
    ParameterSpace,
    choice,
    geometric_range,
    int_range,
    join_spaces,
)
from repro.config.table import ConfigRows, ConfigTable

__all__ = [
    "ConfigEncoder",
    "ConfigRows",
    "ConfigTable",
    "Configuration",
    "DerivedFeature",
    "Parameter",
    "ParameterSpace",
    "choice",
    "component_footprint_features",
    "geometric_range",
    "int_range",
    "join_spaces",
]
