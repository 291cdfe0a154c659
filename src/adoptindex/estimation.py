"""Score and second-moment estimation from integer stage matrices.

Every moment comes from the same three sufficient statistics of the n x k
stage matrix X: n, the integer column sums s = X^T 1, and the integer
cross-product matrix C = X^T X, which a dataset reduces once and caches
(``AdoptionDataset.sufficient_stats``). A score is float(s) / n, the sum
rounded to a float once, then divided by n. The unbiased covariance is

    cov = (n C - s s^T) / (n (n - 1))

with the numerator formed exactly (in int64 below 2^53, in Python integers
past it), so no intermediate can wrap or cancel, and one correctly rounded
division per entry. The result is exactly symmetric with a non-negative
diagonal. One kernel, ``_moments`` with ``_correlations``, does this over a
leading batch axis, for ``_from_sums`` and ``simulation._chunk_arguments``.
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


def _moments(n: int, sums: np.ndarray, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, read-only covariances and degenerate flags of samples of n >= 2 rows from their
    sums [..., k] and cross-products [..., k, k], int64 or Python ints (object arrays). Past
    2^53, where int64 ``/`` rounds its operands first, int64 is taken as Python ints."""
    if sums.dtype != object and max(n * int(cross.max()), int(sums.max()) ** 2, n * (n - 1)) >= 2**53:
        sums, cross = sums.astype(object), cross.astype(object)
    cov = ((n * cross - sums[..., :, None] * sums[..., None, :]) / (n * (n - 1))).astype(float, copy=False)
    cov.setflags(write=False)
    return sums.astype(float) / n, cov, cov.diagonal(axis1=-2, axis2=-1) == 0.0


def _correlations(cov: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Read-only correlations of covariances [..., k, k], clipped into [-1, 1] against
    rounding, and NaN in a degenerate model's row and column."""
    sd = np.sqrt(cov.diagonal(axis1=-2, axis2=-1))
    defined = ~(degenerate[..., :, None] | degenerate[..., None, :])
    corr = np.full(cov.shape, math.nan)
    np.divide(cov, sd[..., :, None] * sd[..., None, :], out=corr, where=defined)
    np.minimum(np.maximum(corr, -1.0, out=corr), 1.0, out=corr)  # np.clip, without its dispatch
    k = cov.shape[-1]
    corr.reshape(*cov.shape[:-2], k * k)[..., :: k + 1] = np.where(degenerate, math.nan, 1.0)  # the diagonal
    corr.setflags(write=False)
    return corr


def _from_sums(n: int, sums: Sequence[int], cross: Sequence[Sequence[int]]) -> MomentEstimate:
    """Moments from n >= 2 rows, their column sums and their cross-product matrix."""
    scores, cov, degenerate = _moments(n, np.array(sums, dtype=object), np.array(cross, dtype=object))
    return MomentEstimate(ScoreEstimate(tuple(scores.tolist()), n), cov,
                          _correlations(cov, degenerate), tuple(degenerate.tolist()))


def estimate_moments(dataset: AdoptionDataset) -> MomentEstimate:
    """Scores plus unbiased sample covariance and derived correlations.

    Correlations are derived from the covariance matrix and clipped into
    [-1, 1] against rounding; they are NaN where a variance is zero.
    """
    return _from_sums(dataset.n, *dataset.sufficient_stats)
