"""Variance propagation for the global index and the two t-tests.

The sampling variance of the estimated index is the delta-method
quadratic form

    V[I_hat] = sum_j w_j^2 sigma_j^2 D_j^2 / n
             + 2 * sum_{j<l} w_j w_l rho_jl sigma_j sigma_l D_j D_l / n

with D_j the sub-index derivative at the estimated score (1/m_j for a
linear model, so the linear case is the exact special case of the same
formula). Tests:

* one-sample: a row is excluded, the remaining rows give the index and
  its variance, and the excluded row's own index I_0 is the null value;
  T is t-distributed with (n-1) - k - 1 degrees of freedom (the sample
  actually used has n-1 rows). The null value always comes from the
  excluded row; there is no variant against a fixed constant.
* two-sample: unequal variances, Welch-Satterthwaite degrees of freedom.

Both tests share one tail from statistic to p-value to outcome. The
two-sample test works on moment estimates, so the Monte Carlo size study
runs it on sampled stage matrices without building datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import AdoptionDataset, StudySpec
from .errors import (
    BothVariancesZero,
    DegenerateVariance,
    InputError,
    InsufficientDf,
    InsufficientSample,
    InvalidDf,
    InvalidLevel,
    RowNotFound,
    SpecMismatch,
)
from .estimation import MomentEstimate, estimate_moments
from .index import IndexValue, delta_gradient, global_index, subindex
from .tdist import Sidedness, student_t_pvalue, student_t_quantile

VARIANCE_EXPANSION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class VarianceEstimate:
    """V[I_hat] with its per-model and cross-term decomposition.

    ``contributions[j, l]`` is the (j, l) term of the quadratic form, so
    the value is the plain sum over the matrix (off-diagonal terms appear
    twice, once per orientation).
    """

    value: float
    contributions: np.ndarray
    gradients: tuple[float, ...]
    n_used: int


@dataclass(frozen=True)
class TestOutcome:
    """A test statistic with everything needed to audit the decision."""

    statistic: float
    df: float
    p_value: float
    sidedness: Sidedness
    significance: float
    reject: bool
    indices: tuple[float, ...]
    variances: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    note: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.statistic):
            raise ValueError(f"statistic must be finite, got {self.statistic}")
        if not self.df > 0:
            raise ValueError(f"df must be positive, got {self.df}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {self.p_value}")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    df: float
    clamped: bool


def _require_significance(significance: float) -> float:
    significance = float(significance)
    if not (math.isfinite(significance) and 0.0 < significance < 1.0):
        raise InvalidLevel(f"significance must lie in (0, 1), got {significance!r}")
    return significance


def _structure_match(a: StudySpec, b: StudySpec) -> bool:
    return a.structure() == b.structure()


def index_variance(
    moments: MomentEstimate,
    spec: StudySpec,
    correlation: np.ndarray | None = None,
) -> VarianceEstimate:
    """Delta-method variance of the estimated global index.

    ``correlation`` optionally replaces the sample correlation matrix
    (for example to force independence); variances always come from the
    sample. Refuses zero-variance models, since every model carries
    positive weight.
    """
    if moments.scores.k != spec.k:
        raise SpecMismatch(f"{moments.scores.k} moment columns for a {spec.k}-model spec")
    for flag, model in zip(moments.degenerate, spec.models):
        if flag:
            raise DegenerateVariance(
                f"model {model.name!r} has zero sample variance; "
                "the index variance is undefined"
            )
    n = moments.n
    variances = np.asarray(moments.variances)
    sd = np.sqrt(variances)
    if correlation is None:
        sigma = np.asarray(moments.cov, dtype=float)
    else:
        corr = np.asarray(correlation, dtype=float)
        if corr.shape != (spec.k, spec.k):
            raise InputError(f"correlation override must be {spec.k}x{spec.k}")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise InputError("correlation override must be symmetric")
        if np.any(np.abs(corr) > 1 + 1e-12):
            raise InputError("correlation override entries must lie in [-1, 1]")
        sigma = corr * np.outer(sd, sd)
        np.fill_diagonal(sigma, variances)
    gradients = delta_gradient(moments.scores, spec)
    g = np.asarray(spec.weights) * np.asarray(gradients)
    contributions = np.outer(g, g) * sigma / n
    value = float(contributions.sum())
    if value < 0:
        # the quadratic form is PSD; anything below zero is rounding noise
        if value < -VARIANCE_EXPANSION_TOL:
            raise ValueError(f"negative variance {value} from a PSD form")
        contributions = np.zeros_like(contributions)
        value = 0.0
    contributions.setflags(write=False)
    return VarianceEstimate(
        value=value, contributions=contributions, gradients=gradients, n_used=n
    )


def welch_df(v_a: float, v_b: float, n_a: int, n_b: int, k: int) -> float:
    """Welch-Satterthwaite degrees of freedom for unequal variances.

    nu = (vA + vB)^2 / (vA^2/(nA - k) + vB^2/(nB - k))
    """
    if v_a < 0 or v_b < 0:
        raise InputError(f"variances must be non-negative, got {v_a}, {v_b}")
    if v_a == 0 and v_b == 0:
        raise BothVariancesZero("Welch df undefined when both variances are zero")
    if n_a <= k or n_b <= k:
        raise InsufficientSample(
            f"need more rows than models in both samples, got n={n_a}, {n_b} with k={k}"
        )
    return (v_a + v_b) ** 2 / (v_a**2 / (n_a - k) + v_b**2 / (n_b - k))


def row_index(dataset: AdoptionDataset, row_id: str) -> float:
    """A single corporation's own index: the sub-index transform applied
    componentwise to its observed stages, then weighted."""
    position = dataset.row_position(row_id)
    if position is None:
        raise RowNotFound(f"row {row_id!r} not found in dataset")
    stages = dataset.values[position, :]
    return math.fsum(
        w * subindex(float(x), model)
        for w, x, model in zip(dataset.spec.weights, stages, dataset.spec.models)
    )


def one_sample_test(
    dataset: AdoptionDataset,
    spec: StudySpec | None = None,
    row_id: str = "",
    sidedness: Sidedness = "two",
    significance: float = 0.05,
) -> TestOutcome:
    """Leave-one-out comparison of a corporation against its industry.

    The tested row is excluded; the index estimated from the remaining
    n-1 rows is compared against the excluded row's own index I_0 with

        T = (I_hat - I_0) / sqrt(V[I_hat]),   df = (n-1) - k - 1.
    """
    spec = dataset.spec if spec is None else spec
    if not _structure_match(spec, dataset.spec):
        raise SpecMismatch("dataset was validated against a different study spec")
    significance = _require_significance(significance)
    position = dataset.row_position(row_id)
    if position is None:
        raise RowNotFound(f"row {row_id!r} not found in dataset")
    k = spec.k
    df = (dataset.n - 1) - k - 1
    if df < 1:
        raise InsufficientDf(
            f"excluding row {row_id!r} leaves df={df}; need at least 1"
        )
    null_value = row_index(dataset, row_id)
    reduced = dataset.without_row(position)
    moments = estimate_moments(reduced)
    variance = index_variance(moments, spec)
    if variance.value == 0:
        raise DegenerateVariance(
            "the weighted stage combination is constant across the remaining rows"
        )
    return _outcome(
        (global_index(moments.scores, spec).value, null_value),
        (variance.value,),
        (reduced.n,),
        df,
        sidedness,
        significance,
        note=(
            "degrees of freedom use the reduced sample of "
            f"{reduced.n} rows left after excluding row {row_id!r}"
        ),
    )


def two_sample_test(
    dataset_a: AdoptionDataset,
    dataset_b: AdoptionDataset,
    spec: StudySpec | None = None,
    sidedness: Sidedness = "two",
    significance: float = 0.05,
) -> TestOutcome:
    """Compare two industries measured under the same study spec.

    Variance heterogeneity is assumed:

        T = (I_a - I_b) / sqrt(V_a + V_b)

    with Welch-Satterthwaite degrees of freedom.
    """
    spec = dataset_a.spec if spec is None else spec
    if not (
        _structure_match(spec, dataset_a.spec)
        and _structure_match(spec, dataset_b.spec)
    ):
        raise SpecMismatch("the two datasets do not share the same study spec")
    return _two_sample(
        estimate_moments(dataset_a), estimate_moments(dataset_b), spec, sidedness, significance
    )


def _two_sample(
    moments_a: MomentEstimate,
    moments_b: MomentEstimate,
    spec: StudySpec,
    sidedness: Sidedness,
    significance: float,
) -> TestOutcome:
    """Welch comparison of two samples given their moments."""
    significance = _require_significance(significance)
    var_a = index_variance(moments_a, spec)
    var_b = index_variance(moments_b, spec)
    if var_a.value + var_b.value == 0:
        raise DegenerateVariance(
            "both weighted stage combinations are constant; no variance to test against"
        )
    df = welch_df(var_a.value, var_b.value, moments_a.n, moments_b.n, spec.k)
    return _outcome(
        (global_index(moments_a.scores, spec).value, global_index(moments_b.scores, spec).value),
        (var_a.value, var_b.value),
        (moments_a.n, moments_b.n),
        df,
        sidedness,
        significance,
    )


def _outcome(
    indices: tuple[float, float],
    variances: tuple[float, ...],
    sample_sizes: tuple[int, ...],
    df: float,
    sidedness: Sidedness,
    significance: float,
    note: str = "",
) -> TestOutcome:
    """T = (indices[0] - indices[1]) / sqrt(sum of variances), its p-value and decision."""
    statistic = (indices[0] - indices[1]) / math.sqrt(sum(variances))
    p_value = student_t_pvalue(statistic, df, sidedness)
    return TestOutcome(
        statistic=statistic,
        df=float(df),
        p_value=p_value,
        sidedness=sidedness,
        significance=significance,
        reject=p_value < significance,
        indices=indices,
        variances=variances,
        sample_sizes=sample_sizes,
        note=note,
    )


def confidence_interval(
    index: IndexValue,
    variance: VarianceEstimate,
    level: float,
    df: float,
) -> ConfidenceInterval:
    """Two-sided t interval for the index, clamped to its [0, 1] codomain."""
    level = float(level)
    if not (math.isfinite(level) and 0.0 < level < 1.0):
        raise InvalidLevel(f"confidence level must lie in (0, 1), got {level!r}")
    df = float(df)
    if not (math.isfinite(df) and df > 0):
        raise InvalidDf(f"degrees of freedom must be positive, got {df!r}")
    if variance.value == 0:
        return ConfidenceInterval(
            lower=index.value, upper=index.value, level=level, df=df, clamped=False
        )
    half_width = student_t_quantile(0.5 * (1.0 + level), df) * math.sqrt(variance.value)
    lower = index.value - half_width
    upper = index.value + half_width
    clamped = lower < 0.0 or upper > 1.0
    return ConfidenceInterval(
        lower=max(0.0, lower),
        upper=min(1.0, upper),
        level=level,
        df=float(df),
        clamped=clamped,
    )
