"""Score and second-moment estimation from integer stage matrices.

Every moment comes from the same three sufficient statistics of the n x k
stage matrix X: n, the integer column sums s = X^T 1, and the integer
cross-product matrix C = X^T X, which a dataset reduces once and caches
(``AdoptionDataset.sufficient_stats``). Scores are s / n, one division per
column of an exact integer sum, so a score is bitwise the stage sum
weighted by stage counts, divided by n.
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


@dataclass(frozen=True)
class ScoreEstimate:
    """Per-model mean stages and the sample size they came from."""

    scores: tuple[float, ...]
    n: int

    @property
    def k(self) -> int:
        return len(self.scores)


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


def estimate_moments(dataset: AdoptionDataset) -> MomentEstimate:
    """Scores plus unbiased sample covariance and derived correlations.

    Correlations are derived from the covariance matrix and clipped into
    [-1, 1] against rounding; they are NaN where a variance is zero.
    """
    return _from_sums(dataset.n, *dataset.sufficient_stats)
