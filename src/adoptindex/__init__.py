"""Composite technology adoption index from ordinal survey data.

Scores estimated from staged survey responses are normalized into
sub-indices (linearly or through a two-parameter inverse-logit family),
averaged into a global index in [0, 1], and equipped with delta-method
sampling variances, leave-one-out and two-industry t-tests, and a Monte
Carlo engine that validates the asymptotic claims end to end.
"""

from . import errors
from .domain import (
    AdoptionDataset,
    ModelSpec,
    PmfSpec,
    StudySpec,
    validate_dataset,
)
from .estimation import (
    MomentEstimate,
    ScoreEstimate,
    estimate_moments,
)
from .index import (
    SHAPE_PRESETS,
    IndexValue,
    delta_derivative,
    delta_gradient,
    global_index,
    subindex,
    surface_grid,
)
from .inference import (
    ConfidenceInterval,
    TestOutcome,
    VarianceEstimate,
    confidence_interval,
    index_variance,
    one_sample_test,
    two_sample_test,
)
from .simulation import (
    SimulationPlan,
    SimulationReport,
    TruePopulation,
    latent_cross_covariance,
    population_asymptotic_variance,
    run_study,
    sample_dataset,
    true_index,
)
from .tdist import student_t_cdf, student_t_pvalue, student_t_quantile

__version__ = "0.1.0"

__all__ = [
    "AdoptionDataset",
    "ConfidenceInterval",
    "IndexValue",
    "ModelSpec",
    "MomentEstimate",
    "PmfSpec",
    "SHAPE_PRESETS",
    "ScoreEstimate",
    "SimulationPlan",
    "SimulationReport",
    "StudySpec",
    "TestOutcome",
    "TruePopulation",
    "VarianceEstimate",
    "confidence_interval",
    "delta_derivative",
    "delta_gradient",
    "errors",
    "estimate_moments",
    "global_index",
    "index_variance",
    "latent_cross_covariance",
    "one_sample_test",
    "population_asymptotic_variance",
    "run_study",
    "sample_dataset",
    "student_t_cdf",
    "student_t_pvalue",
    "student_t_quantile",
    "subindex",
    "surface_grid",
    "true_index",
    "two_sample_test",
    "validate_dataset",
]
