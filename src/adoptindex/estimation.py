"""Score, pmf, and second-moment estimation from integer stage matrices.

Every moment comes from the same three sufficient statistics of the n x k
stage matrix X: n, the integer column sums s = X^T 1, and the integer
cross-product matrix C = X^T X. Scores are s / n, one division per
column, so the column mean and the pmf-weighted stage sum agree bitwise.
The unbiased covariance is

    cov = (n C - s s^T) / (n (n - 1))

with the numerator formed exactly in Python integers, so no intermediate
can wrap or cancel, and one correctly rounded division per entry. The
result is exactly symmetric with a non-negative diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AdoptionDataset
from .errors import IndexOutOfRange, InputError

# s and C are accumulated in int64; n * max_stage^2 must stay below this
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class ScoreEstimate:
    """Per-model mean stages and the sample size they came from."""

    scores: tuple[float, ...]
    n: int

    @property
    def k(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class PmfEstimate:
    """Stage counts and maximum-likelihood probabilities for one model."""

    model_name: str
    counts: tuple[int, ...]
    probabilities: tuple[float, ...]
    n: int

    def mean_stage(self) -> float:
        return float(sum(a * p for a, p in enumerate(self.probabilities)))


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Scores plus per-observation covariance and correlation matrices.

    ``cov`` holds unbiased (n-1 denominator) sample covariances of the
    stage columns. ``corr`` entries are NaN wherever either variance is
    zero; ``degenerate`` flags those models. Degeneracy is not an error
    here, only when inference later needs to divide by a variance.
    """

    scores: ScoreEstimate
    cov: np.ndarray
    corr: np.ndarray
    degenerate: tuple[bool, ...]

    @property
    def variances(self) -> tuple[float, ...]:
        return tuple(float(v) for v in np.diag(self.cov))

    @property
    def n(self) -> int:
        return self.scores.n


def _moments(values: np.ndarray) -> MomentEstimate:
    """Moments of an n x k matrix of non-negative integer stages, n >= 2."""
    n, k = values.shape
    peak = int(values.max())
    if n * peak * peak >= _INT64_LIMIT:
        raise InputError(f"stages up to {peak} over {n} rows overflow exact int64 moments")
    sums = values.sum(axis=0, dtype=np.int64).tolist()
    cross = (values.T @ values).tolist()
    denominator = n * (n - 1)
    cov = np.array(
        [[(n * cross[j][l] - sums[j] * sums[l]) / denominator for l in range(k)] for j in range(k)]
    )
    sd = np.sqrt(np.diag(cov))
    degenerate = sd == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.clip(cov / np.outer(sd, sd), -1.0, 1.0)
    corr[degenerate, :] = np.nan
    corr[:, degenerate] = np.nan
    np.fill_diagonal(corr, np.where(degenerate, np.nan, 1.0))
    cov.setflags(write=False)
    corr.setflags(write=False)
    return MomentEstimate(
        scores=ScoreEstimate(scores=tuple(float(s) / n for s in sums), n=n),
        cov=cov,
        corr=corr,
        degenerate=tuple(bool(d) for d in degenerate),
    )


def estimate_scores(dataset: AdoptionDataset) -> ScoreEstimate:
    """Column means, computed as exact integer sums divided by n."""
    sums = dataset.values.sum(axis=0, dtype=np.int64)
    n = dataset.n
    return ScoreEstimate(scores=tuple(float(s) / n for s in sums), n=n)


def estimate_pmf(dataset: AdoptionDataset, j: int) -> PmfEstimate:
    """Exact stage counts and MLE probabilities for model position ``j``."""
    if not 0 <= j < dataset.spec.k:
        raise IndexOutOfRange(f"model position {j} outside 0..{dataset.spec.k - 1}")
    model = dataset.spec.models[j]
    counts = np.bincount(dataset.values[:, j], minlength=model.m + 1)
    n = dataset.n
    return PmfEstimate(
        model_name=model.name,
        counts=tuple(int(c) for c in counts),
        probabilities=tuple(int(c) / n for c in counts),
        n=n,
    )


def estimate_moments(dataset: AdoptionDataset) -> MomentEstimate:
    """Scores plus unbiased sample covariance and derived correlations.

    Correlations are derived from the covariance matrix and clipped into
    [-1, 1] against rounding; they are NaN where a variance is zero.
    """
    return _moments(dataset.values)
