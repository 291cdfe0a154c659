"""Score, pmf, and second-moment estimation from integer stage matrices.

Every moment comes from the same three sufficient statistics of the n x k
stage matrix X: n, the integer column sums s = X^T 1, and the integer
cross-product matrix C = X^T X, which a dataset reduces once and caches
(``AdoptionDataset.sufficient_stats``). Scores are s / n, one division per
column, so the column mean and the pmf-weighted stage sum agree bitwise.
The unbiased covariance is

    cov = (n C - s s^T) / (n (n - 1))

with the numerator formed exactly in Python integers, so no intermediate
can wrap or cancel, and one correctly rounded division per entry. The
result is exactly symmetric with a non-negative diagonal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import AdoptionDataset
from .errors import IndexOutOfRange


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


def _from_sums(n: int, sums: Sequence[int], cross: Sequence[Sequence[int]]) -> MomentEstimate:
    """Moments from n >= 2 rows, their column sums and their cross-product matrix."""
    k, denominator = len(sums), n * (n - 1)
    cov = [[(n * cross[j][l] - sums[j] * sums[l]) / denominator for l in range(k)] for j in range(k)]
    sd = [math.sqrt(cov[j][j]) for j in range(k)]
    degenerate = tuple(s == 0.0 for s in sd)
    corr = [
        [math.nan if degenerate[j] or degenerate[l] else 1.0 if j == l
         else min(1.0, max(-1.0, cov[j][l] / (sd[j] * sd[l]))) for l in range(k)]
        for j in range(k)
    ]
    cov_array, corr_array = np.array(cov), np.array(corr)
    cov_array.setflags(write=False)
    corr_array.setflags(write=False)
    return MomentEstimate(
        scores=ScoreEstimate(scores=tuple(float(s) / n for s in sums), n=n),
        cov=cov_array,
        corr=corr_array,
        degenerate=degenerate,
    )


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
    return _from_sums(dataset.n, *dataset.sufficient_stats)
