"""Synthetic ordinal data and Monte Carlo checks of the asymptotics.

Random generation uses numpy's PCG64 through ``default_rng``. Streams
are split with ``SeedSequence.spawn``: replication r always owns child r
of the plan's seed (and grandchildren when it needs two samples), so
replications are reproducible independently of execution order and the
aggregates are order-independent sums.

Studies draw each replication through the same sampler as
``sample_dataset`` and estimate straight from the integer stage matrix;
only ``sample_dataset`` wraps the draw in row ids and a validated
dataset.

Cross-model dependence is induced by a latent normal copula: correlated
standard normals are pushed through each model's stage quantile
function. The ordinal correlation this induces is not the latent value;
population cross-moments are therefore computed from the copula itself
(a one-dimensional angular integral for the bivariate normal orthant
probability) rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import AdoptionDataset, PmfSpec, StudySpec
from .errors import DegenerateVariance, InputError, SpecMismatch
from .estimation import ScoreEstimate, _moments
from .index import delta_gradient, global_index
from .inference import _two_sample, confidence_interval, index_variance

STUDY_KINDS = ("normality", "coverage", "size", "variance-ratio")


@dataclass(frozen=True)
class StudyTolerances:
    """Acceptance bands for the Monte Carlo checks.

    The defaults are calibrated to R = 10,000 replications: the binomial
    Monte Carlo standard error of a 5% rate is about 0.22%, so the bands
    sit 4 to 5 standard errors out. They are configuration, not constants;
    shrink R and you should widen them.
    """

    ci_level: float = 0.95
    significance: float = 0.05
    variance_ratio_band: tuple[float, float] = (0.95, 1.05)
    coverage_band: tuple[float, float] = (0.94, 0.96)
    size_band: tuple[float, float] = (0.04, 0.06)
    power_floor: float = 0.95
    normality_se_multiplier: float = 4.0


@dataclass(frozen=True)
class SimulationPlan:
    """One reproducible Monte Carlo study."""

    pmf: PmfSpec
    spec: StudySpec
    n: int
    replications: int
    seed: int
    study: str
    pmf_alternative: PmfSpec | None = None
    tolerances: StudyTolerances = field(default_factory=StudyTolerances)

    def __post_init__(self) -> None:
        if self.study not in STUDY_KINDS:
            raise InputError(f"study must be one of {STUDY_KINDS}, got {self.study!r}")
        if self.n <= self.spec.k:
            raise InputError(f"need n > k, got n={self.n} with k={self.spec.k}")
        if self.replications < 1:
            raise InputError(f"replications must be >= 1, got {self.replications}")
        _check_pmf_alignment(self.pmf, self.spec)
        if self.pmf_alternative is not None:
            _check_pmf_alignment(self.pmf_alternative, self.spec)


@dataclass(frozen=True)
class SimulationReport:
    """Observed statistics, their Monte Carlo errors, and pass flags.

    Fully reproducible from the plan: same plan, same report.
    """

    study: str
    n: int
    replications: int
    seed: int
    metrics: dict[str, float]
    checks: dict[str, bool]
    passed: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TruePopulation:
    """Exact population quantities implied by a pmf under a study spec."""

    scores: tuple[float, ...]
    variances: tuple[float, ...]
    sub_indices: tuple[float, ...]
    index: float


def _check_pmf_alignment(pmf: PmfSpec, spec: StudySpec) -> None:
    if pmf.k != spec.k or pmf.stage_maxima != spec.stage_maxima:
        raise SpecMismatch(
            f"pmf stages {pmf.stage_maxima} do not match spec stages {spec.stage_maxima}"
        )


# --- scalar normal helpers (thresholds only, never bulk data) ---------------


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_PPF_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_PPF_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_PPF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_PPF_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e00, 3.754408661907416e00,
)


def _norm_ppf(p: float) -> float:
    """Acklam's rational approximation polished with one Newton step."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (
            ((((_PPF_C[0] * q + _PPF_C[1]) * q + _PPF_C[2]) * q + _PPF_C[3]) * q + _PPF_C[4]) * q
            + _PPF_C[5]
        ) / ((((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q + _PPF_D[3]) * q + 1)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (
            (((((_PPF_A[0] * r + _PPF_A[1]) * r + _PPF_A[2]) * r + _PPF_A[3]) * r + _PPF_A[4]) * r + _PPF_A[5])
            * q
            / (((((_PPF_B[0] * r + _PPF_B[1]) * r + _PPF_B[2]) * r + _PPF_B[3]) * r + _PPF_B[4]) * r + 1)
        )
    else:
        q = math.sqrt(-2 * math.log1p(-p))
        x = -(
            ((((_PPF_C[0] * q + _PPF_C[1]) * q + _PPF_C[2]) * q + _PPF_C[3]) * q + _PPF_C[4]) * q
            + _PPF_C[5]
        ) / ((((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q + _PPF_D[3]) * q + 1)
    if abs(x) < 37.0:  # keep exp(x^2/2) finite; beyond this Acklam is ample
        err = _norm_cdf(x) - p
        x -= err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x


def _bvn_lower(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard bivariate normal, correlation rho.

    Evaluated with the angular form of Plackett's identity,

        Phi2(h, k; rho) = Phi(h) Phi(k)
            + (1/2pi) * Integral_0^{asin rho} exp(-(h^2 + k^2 - 2 h k sin t)
                                                   / (2 cos^2 t)) dt

    whose integrand is smooth and bounded on the whole range, so a fixed
    Simpson rule is accurate to ~1e-12 for |rho| < 1.
    """
    if math.isinf(h) or math.isinf(k):
        if h == -math.inf or k == -math.inf:
            return 0.0
        if h == math.inf:
            return 1.0 if k == math.inf else _norm_cdf(k)
        return _norm_cdf(h)
    if rho == 0.0:
        return _norm_cdf(h) * _norm_cdf(k)
    if rho >= 1.0:
        return _norm_cdf(min(h, k))
    if rho <= -1.0:
        return max(0.0, _norm_cdf(h) - _norm_cdf(-k))

    def integrand(theta: float) -> float:
        sin_t = math.sin(theta)
        cos2_t = 1.0 - sin_t * sin_t
        return math.exp(-(h * h + k * k - 2.0 * h * k * sin_t) / (2.0 * cos2_t))

    upper = math.asin(rho)
    steps = 256  # even; Simpson error ~ (range/steps)^4, far below 1e-12 here
    width = upper / steps
    acc = integrand(0.0) + integrand(upper)
    for i in range(1, steps):
        acc += (4.0 if i % 2 else 2.0) * integrand(i * width)
    integral = acc * width / 3.0
    return _norm_cdf(h) * _norm_cdf(k) + integral / (2.0 * math.pi)


def _cumulative(pmf: tuple[float, ...]) -> np.ndarray:
    cum = np.cumsum(np.asarray(pmf, dtype=float))
    cum[-1] = 1.0
    return cum


def true_index(pmf: PmfSpec, spec: StudySpec) -> TruePopulation:
    """Exact population scores, variances, sub-indices, and global index."""
    _check_pmf_alignment(pmf, spec)
    scores = []
    variances = []
    for probs in pmf.pmfs:
        stages = np.arange(len(probs), dtype=float)
        p = np.asarray(probs, dtype=float)
        mean = float(stages @ p)
        scores.append(mean)
        variances.append(float((stages**2) @ p) - mean**2)
    idx = global_index(ScoreEstimate(scores=tuple(scores), n=0), spec)
    return TruePopulation(
        scores=tuple(scores),
        variances=tuple(max(0.0, v) for v in variances),
        sub_indices=idx.sub_indices,
        index=idx.value,
    )


def latent_cross_covariance(pmf: PmfSpec, spec: StudySpec, j: int, l: int) -> float:
    """Population covariance of stage columns j and l under the copula.

    Uses X = sum_{a>=1} 1[X >= a] so E[X_j X_l] is a sum of bivariate
    normal orthant probabilities over the latent thresholds.
    """
    _check_pmf_alignment(pmf, spec)
    if pmf.latent_correlation is None:
        return 0.0
    rho = float(pmf.latent_correlation[j, l])
    if rho == 0.0:
        return 0.0
    taus_j = [_norm_ppf(c) for c in _cumulative(pmf.pmfs[j])[:-1]]
    taus_l = [_norm_ppf(c) for c in _cumulative(pmf.pmfs[l])[:-1]]
    cross_moment = 0.0
    for tau_a in taus_j:
        for tau_b in taus_l:
            # P(Z_j > tau_a, Z_l > tau_b) = Phi2(-tau_a, -tau_b; rho)
            cross_moment += _bvn_lower(-tau_a, -tau_b, rho)
    truth = true_index(pmf, spec)
    return cross_moment - truth.scores[j] * truth.scores[l]


def population_asymptotic_variance(pmf: PmfSpec, spec: StudySpec) -> float:
    """Asymptotic variance of sqrt(n) * (I_hat - I) under the pmf.

    Needs every model non-degenerate (else the delta-method gradient or
    the variance itself is zero and the studies refuse to run).
    """
    truth = true_index(pmf, spec)
    for v, model in zip(truth.variances, spec.models):
        if v == 0.0:
            raise DegenerateVariance(
                f"pmf for model {model.name!r} is degenerate; inference is impossible"
            )
    gradients = delta_gradient(ScoreEstimate(scores=truth.scores, n=0), spec)
    g = np.asarray(spec.weights) * np.asarray(gradients)
    total = float(np.sum(g**2 * np.asarray(truth.variances)))
    for j in range(spec.k):
        for l in range(j + 1, spec.k):
            total += 2.0 * float(g[j]) * float(g[l]) * latent_cross_covariance(pmf, spec, j, l)
    return float(total)


def _psd_transform(corr: np.ndarray) -> np.ndarray:
    """Matrix L with L L^T = corr, tolerating semi-definite inputs."""
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return eigenvectors * np.sqrt(eigenvalues)


def sample_dataset(pmf: PmfSpec, spec: StudySpec, n: int, seed) -> AdoptionDataset:
    """Draw n iid stage rows from the pmf, deterministically in the seed.

    ``seed`` may be an integer, a SeedSequence, or a Generator. Without a
    latent correlation matrix the columns are sampled independently from
    uniform variates; with one, correlated normals go through each
    model's quantile thresholds.
    """
    _check_pmf_alignment(pmf, spec)
    if n <= spec.k:
        raise InputError(f"need n > k, got n={n} with k={spec.k}")
    row_ids = tuple(f"r{i + 1}" for i in range(n))
    return AdoptionDataset(row_ids=row_ids, values=_draw(pmf, n, seed), spec=spec)


def _draw(pmf: PmfSpec, n: int, seed) -> np.ndarray:
    """n x k int64 stage matrix drawn from the pmf, deterministically in the seed."""
    rng = np.random.default_rng(seed)
    k = pmf.k
    values = np.empty((n, k), dtype=np.int64)
    if pmf.latent_correlation is None:
        u = rng.random((n, k))
        for j in range(k):
            values[:, j] = np.searchsorted(_cumulative(pmf.pmfs[j]), u[:, j], side="left")
    else:
        z = rng.standard_normal((n, k)) @ _psd_transform(pmf.latent_correlation).T
        for j in range(k):
            taus = np.array([_norm_ppf(c) for c in _cumulative(pmf.pmfs[j])])
            values[:, j] = np.searchsorted(taus, z[:, j], side="left")
    return values


# --- studies -----------------------------------------------------------------


def _sample_variance(x: np.ndarray) -> float:
    return float(x.var(ddof=1)) if x.size >= 2 else math.nan


def _moments_of(z: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(z.mean())
    centered = z - mean
    m2 = float((centered**2).mean())
    if m2 == 0.0:
        return mean, _sample_variance(z), math.nan, math.nan
    m3 = float((centered**3).mean())
    m4 = float((centered**4).mean())
    skewness = m3 / m2**1.5
    excess_kurtosis = m4 / m2**2 - 3.0
    return mean, _sample_variance(z), skewness, excess_kurtosis


def run_study(plan: SimulationPlan) -> SimulationReport:
    """Execute one Monte Carlo study and grade it against its tolerances."""
    truth = true_index(plan.pmf, plan.spec)
    for v, model in zip(truth.variances, plan.spec.models):
        if v == 0.0:
            raise DegenerateVariance(
                f"pmf for model {model.name!r} is degenerate; the study cannot run"
            )
    children = np.random.SeedSequence(plan.seed).spawn(plan.replications)
    tol = plan.tolerances
    notes = (
        "observations are treated as iid within each sample; clustered or "
        "stratified sampling is out of scope",
    )

    if plan.study == "normality":
        avar = population_asymptotic_variance(plan.pmf, plan.spec)
        scale = math.sqrt(avar)
        z = np.empty(plan.replications)
        for r, child in enumerate(children):
            idx = global_index(_moments(_draw(plan.pmf, plan.n, child)).scores, plan.spec)
            z[r] = math.sqrt(plan.n) * (idx.value - truth.index) / scale
        mean, variance, skewness, kurtosis = _moments_of(z)
        se_mean = math.sqrt(_sample_variance(z) / plan.replications)
        se_skew = math.sqrt(6.0 / plan.replications)
        se_kurt = math.sqrt(24.0 / plan.replications)
        mult = tol.normality_se_multiplier
        metrics = {
            "mean": mean,
            "variance": variance,
            "skewness": skewness,
            "excess_kurtosis": kurtosis,
            "se_mean": se_mean,
            "se_skewness": se_skew,
            "se_excess_kurtosis": se_kurt,
            "population_asymptotic_variance": avar,
        }
        checks = {
            "mean_within_se": abs(mean) <= mult * se_mean,
            "skewness_within_se": abs(skewness) <= mult * se_skew,
            "excess_kurtosis_within_se": abs(kurtosis) <= mult * se_kurt,
        }

    elif plan.study == "coverage":
        df = plan.n - plan.spec.k - 1
        covered = 0
        for child in children:
            moments = _moments(_draw(plan.pmf, plan.n, child))
            idx = global_index(moments.scores, plan.spec)
            var = index_variance(moments, plan.spec)
            ci = confidence_interval(idx, var, tol.ci_level, df)
            covered += int(ci.lower <= truth.index <= ci.upper)
        rate = covered / plan.replications
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / plan.replications)
        lo, hi = tol.coverage_band
        metrics = {
            "coverage_rate": rate,
            "se_coverage_rate": se,
            "nominal_level": tol.ci_level,
            "true_index": truth.index,
        }
        checks = {"coverage_in_band": lo <= rate <= hi}

    elif plan.study == "size":
        pmf_b = plan.pmf_alternative if plan.pmf_alternative is not None else plan.pmf
        under_null = plan.pmf_alternative is None
        rejections = 0
        for child in children:
            seq_a, seq_b = child.spawn(2)
            outcome = _two_sample(
                _moments(_draw(plan.pmf, plan.n, seq_a)),
                _moments(_draw(pmf_b, plan.n, seq_b)),
                plan.spec,
                "two",
                tol.significance,
            )
            rejections += int(outcome.reject)
        rate = rejections / plan.replications
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / plan.replications)
        metrics = {
            "rejection_rate": rate,
            "se_rejection_rate": se,
            "significance": tol.significance,
        }
        if under_null:
            lo, hi = tol.size_band
            checks = {"size_in_band": lo <= rate <= hi}
        else:
            checks = {"power_above_floor": rate >= tol.power_floor}

    elif plan.study == "variance-ratio":
        avar = population_asymptotic_variance(plan.pmf, plan.spec)
        v_hat = np.empty(plan.replications)
        i_hat = np.empty(plan.replications)
        for r, child in enumerate(children):
            moments = _moments(_draw(plan.pmf, plan.n, child))
            i_hat[r] = global_index(moments.scores, plan.spec).value
            v_hat[r] = index_variance(moments, plan.spec).value
        empirical_variance = _sample_variance(i_hat)
        ratio_empirical = float(v_hat.mean()) / empirical_variance
        ratio_population = float(v_hat.mean()) * plan.n / avar
        lo, hi = tol.variance_ratio_band
        metrics = {
            "ratio_vs_empirical": ratio_empirical,
            "ratio_vs_population": ratio_population,
            "mean_estimated_variance": float(v_hat.mean()),
            "empirical_index_variance": empirical_variance,
            "population_asymptotic_variance": avar,
        }
        checks = {
            "empirical_ratio_in_band": lo <= ratio_empirical <= hi,
            "population_ratio_in_band": lo <= ratio_population <= hi,
        }

    else:  # pragma: no cover - plan validation makes this unreachable
        raise InputError(f"unknown study {plan.study!r}")

    return SimulationReport(
        study=plan.study,
        n=plan.n,
        replications=plan.replications,
        seed=plan.seed,
        metrics=metrics,
        checks=checks,
        passed=all(checks.values()),
        notes=notes,
    )
