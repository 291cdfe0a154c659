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
  excluded row; there is no variant against a fixed constant. No
  reduced dataset is built: the remaining rows' sums and cross-products
  are the industry's minus the excluded row (``without_row``). Rows with
  one stage tuple leave the same sums, so a dataset keeps these sums, both
  indices and the remaining rows' moments, which keep their index
  variance, once per distinct row (see ``one_sample_test``).
* two-sample: unequal variances, Welch-Satterthwaite degrees of freedom.

Both tests share one tail from statistic to p-value to outcome. The
two-sample test's Welch statistic and degrees of freedom, ``_welch``, take
indices and index variances, so the Monte Carlo size study computes them
without building datasets or outcomes; it alone computes the Welch degrees
of freedom.

One kernel, ``_delta_form``, forms and sums the delta-method terms of one sample for
``index_variance`` and of a Monte Carlo chunk for ``simulation._chunk_arguments``, so a
chunk's variances are the scalar chain's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import AdoptionDataset, StudySpec, correlation_matrix
from .errors import DegenerateVariance, InsufficientDf, SpecMismatch
from .estimation import MomentEstimate, ScoreEstimate, _from_sums, estimate_moments
from .index import IndexValue, delta_gradient, global_index
from .tdist import Sidedness, _require_level, _require_sidedness, student_t_pvalue, student_t_quantile

# A PSD form's float sum errs by at most about (N - 1) u sum|terms| for N terms, u = 2^-53
# (Higham 2002, ch. 4), and each term by a few u more from its products: 1e-12 is about 9,000 u,
# room for thousands of terms. So a sum of at most VARIANCE_EXPANSION_TOL * sum|terms|, of
# either sign, is rounding of a zero variance and reads as 0.0; one below -VARIANCE_EXPANSION_TOL
# * max(1, sum|terms|), or not finite, is refused. The floor of 1 keeps every sum of at least
# -1e-12 rounding, whatever its terms; the zero bound has none, as a small sum of small terms is real.
VARIANCE_EXPANSION_TOL = 1e-12


def _psd_sum(total: float, scale: float, what: str) -> float:
    """``total``, a PSD form's float sum of terms whose magnitudes sum to ``scale``, judged as the variance
    ``what``: the one rule for the sample, the population and (vectorised) the Monte Carlo block forms."""
    if not math.isfinite(total):  # a finite derivative's square, say, may overflow
        raise DegenerateVariance(f"the {what} is not finite in floating point, got {total}")
    bound = -VARIANCE_EXPANSION_TOL * max(1.0, scale)
    if total < bound:
        raise DegenerateVariance(f"the {what} is {total}, below zero beyond rounding (bound {bound})")
    return 0.0 if total <= VARIANCE_EXPANSION_TOL * scale else total


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


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    df: float
    clamped: bool


def _delta_form(gradients, weights, cov: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only delta-method terms g_j g_l cov_jl / n, g = weights * gradients, over any
    leading batch axes of ``gradients`` [..., k] and ``cov`` [..., k, k], each sample's sum and its terms'
    summed magnitudes, ``_psd_sum``'s scale. As in Python floats, overflow gives inf and inf - inf gives
    NaN silently: callers need no errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.multiply(gradients, weights)
        terms = g[..., :, None] * g[..., None, :] * cov / n
        terms.setflags(write=False)
        return terms, terms.sum(axis=(-2, -1)), np.abs(terms).sum(axis=(-2, -1))


def index_variance(
    moments: MomentEstimate,
    spec: StudySpec,
    correlation: np.ndarray | None = None,
) -> VarianceEstimate:
    """Delta-method variance of the estimated global index, the sum of ``_delta_form``'s terms.

    ``correlation`` optionally replaces the sample correlation matrix (for example to force
    independence) and is checked like a latent correlation; variances always come from the
    sample. Refuses zero-variance models, since every model carries positive weight, and a sum
    that ``_psd_sum`` refuses; a nonzero sum that it reads as 0.0 zeroes ``contributions`` too.

    Without ``correlation``, the estimate is kept per spec in ``moments``, as a dataset keeps
    its ``sufficient_stats``, and a repeat returns the same object. Only a read-only ``cov``
    that owns its memory is trusted not to change (every ``MomentEstimate`` the package
    builds has one); refusals are never kept, so they recur.
    """
    cov = moments.cov
    fixed = isinstance(cov, np.ndarray) and not cov.flags.writeable and cov.flags.owndata
    memo = moments.__dict__.setdefault("_index_variances", {}) if correlation is None and fixed else {}
    variance = memo.get(spec)
    if variance is not None:
        return variance
    if moments.scores.k != spec.k:
        raise SpecMismatch(f"{moments.scores.k} moment columns for a {spec.k}-model spec")
    for flag, model in zip(moments.degenerate, spec.models):
        if flag:
            raise DegenerateVariance(
                f"model {model.name!r} has zero sample variance; "
                "the index variance is undefined"
            )
    sigma = np.asarray(cov, dtype=float)
    if correlation is not None:
        corr = correlation_matrix(correlation, spec.k, "correlation override")
        variances = sigma.diagonal()
        sd = np.sqrt(variances)
        sigma = corr * np.outer(sd, sd)
        np.fill_diagonal(sigma, variances)
    gradients = delta_gradient(moments.scores, spec)
    contributions, raw, scale = _delta_form(gradients, spec.weights, sigma, moments.n)
    value = _psd_sum(float(raw), float(scale), "index variance")  # NaN from inf - inf: not finite
    if value != raw:
        contributions = np.zeros_like(contributions)
        contributions.setflags(write=False)
    memo[spec] = variance = VarianceEstimate(value, contributions, gradients, moments.n)
    return variance


def one_sample_test(
    dataset: AdoptionDataset,
    row_id: str,
    sidedness: Sidedness = "two",
    significance: float = 0.05,
) -> TestOutcome:
    """Leave-one-out comparison of a corporation against its industry.

    The tested row is excluded; the index estimated from the remaining
    n-1 rows is compared against the excluded row's own index I_0 with

        T = (I_hat - I_0) / sqrt(V[I_hat]),   df = (n-1) - k - 1.

    The remaining rows' moments and index, and I_0, depend only on the dataset
    and the row's stages, so the dataset keeps them with ``without_row``'s sums,
    for up to 1,024 distinct stage tuples (``AdoptionDataset._left_out``), and
    ``index_variance`` keeps the variance on those moments. Every test still
    calls ``without_row``, ``index_variance`` and ``student_t_pvalue``, so a
    replaced binding sees it, and refusals, which are never kept, recur.
    """
    spec = dataset.spec
    significance = _require_level(significance, "significance")
    _require_sidedness(sidedness)
    position = dataset.row_position(row_id)
    df = (dataset.n - 1) - spec.k - 1
    if df < 1:
        raise InsufficientDf(f"excluding row {row_id!r} leaves df={df}; need at least 1")
    rest = dataset.without_row(position)
    row, kept = dataset._left_out(position)
    if "test" not in kept:
        moments = _from_sums(*rest)
        own = ScoreEstimate(tuple(map(float, row)), n=1)
        kept["test"] = moments, global_index(moments.scores, spec).value, global_index(own, spec).value
    moments, index, null_value = kept["test"]
    variance = index_variance(moments, spec)
    if variance.value == 0:
        raise DegenerateVariance(
            "the weighted stage combination is constant across the remaining rows"
        )
    return _outcome((index, null_value), (variance.value,), (moments.n,), df, sidedness, significance,
                    "degrees of freedom use the reduced sample of "
                    f"{moments.n} rows left after excluding row {row_id!r}")


def two_sample_test(
    dataset_a: AdoptionDataset,
    dataset_b: AdoptionDataset,
    sidedness: Sidedness = "two",
    significance: float = 0.05,
) -> TestOutcome:
    """Compare two industries measured under the same study spec.

    Variance heterogeneity is assumed:

        T = (I_a - I_b) / sqrt(V_a + V_b)

    with Welch-Satterthwaite degrees of freedom.
    """
    if dataset_a.spec.structure() != dataset_b.spec.structure():
        raise SpecMismatch("the two datasets do not share the same study spec")
    spec = dataset_a.spec
    moments = estimate_moments(dataset_a), estimate_moments(dataset_b)
    significance = _require_level(significance, "significance")
    _require_sidedness(sidedness)
    variances = tuple(index_variance(m, spec).value for m in moments)
    indices = tuple(global_index(m.scores, spec).value for m in moments)
    sizes = tuple(m.n for m in moments)
    df = _welch(indices, variances, sizes, spec.k)[1]
    return _outcome(indices, variances, sizes, df, sidedness, significance)


def _welch(indices: tuple[float, float], variances: tuple[float, float], sizes: tuple[int, int],
           k: int) -> tuple[float, float]:
    """The Welch statistic of two samples given their indices, index variances and sizes, as
    ``_outcome`` forms it, and its degrees of freedom, for ``two_sample_test`` and each
    replication of the size study. The degrees of freedom are Welch-Satterthwaite's

        nu = (vA + vB)^2 / (vA^2/(nA - k) + vB^2/(nB - k)),

    for variances that ``_psd_sum`` judged finite and non-negative, and sizes above k."""
    v_a, v_b = variances
    if v_a + v_b == 0:
        raise DegenerateVariance(
            "both weighted stage combinations are constant; no variance to test against"
        )
    statistic = (indices[0] - indices[1]) / math.sqrt(v_a + v_b)
    top = max(v_a, v_b)
    if not 2.0**-500 <= top <= 2.0**500:
        # nu is scale-free: a common power of two keeps the squares from underflow and overflow
        shift = -math.frexp(top)[1]
        v_a, v_b = math.ldexp(v_a, shift), math.ldexp(v_b, shift)
    n_a, n_b = sizes
    return statistic, (v_a + v_b) ** 2 / (v_a**2 / (n_a - k) + v_b**2 / (n_b - k))


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


def _interval_df(n: int, k: int) -> int:
    """The n - k - 1 degrees of freedom of the index's confidence interval."""
    if n - k - 1 < 1:
        raise InsufficientDf(f"confidence interval needs n - k - 1 >= 1, got n={n}, k={k}")
    return n - k - 1


def confidence_interval(
    index: IndexValue,
    variance: VarianceEstimate,
    level: float,
    df: float,
) -> ConfidenceInterval:
    """Two-sided t interval for the index, clamped to its [0, 1] codomain."""
    level = _require_level(level, "confidence level")
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
