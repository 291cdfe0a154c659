import math

import numpy as np
import pytest
from hypothesis import strategies as st

from adoptindex import ModelSpec, StudySpec, validate_dataset
from adoptindex.estimation import MomentEstimate, ScoreEstimate


@pytest.fixture
def tam_cmm_spec():
    """Two linear six-stage models with equal weights."""
    return StudySpec([ModelSpec("TAM", 5), ModelSpec("CMM", 5)])


@pytest.fixture
def single_model_spec():
    return StudySpec([ModelSpec("M", 5)])


@pytest.fixture
def ladder_dataset(single_model_spec):
    """k=1 column holding stages 1..5, one per row."""
    rows = [(str(v), (v,)) for v in (1, 2, 3, 4, 5)]
    return validate_dataset(rows, single_model_spec)


def make_dataset(spec, columns):
    """Build a dataset from per-model columns of equal length."""
    rows = [
        (f"r{i}", tuple(int(col[i]) for col in columns))
        for i in range(len(columns[0]))
    ]
    return validate_dataset(rows, spec)


def record_welch_calls(monkeypatch, module):
    """Wrap ``module._welch`` so that each call's variances, sizes and k are kept."""
    calls = []
    original = module._welch

    def recording(indices, variances, sizes, k):
        calls.append((variances, sizes, k))
        return original(indices, variances, sizes, k)

    monkeypatch.setattr(module, "_welch", recording)
    return calls


def assert_welch_inputs_judged(calls):
    """What ``_welch`` takes on trust: finite, non-negative variances and int sizes above k."""
    assert calls
    for variances, sizes, k in calls:
        assert all(isinstance(v, float) and math.isfinite(v) and v >= 0 for v in variances), variances
        assert all(type(n) is int and n > k for n in sizes), (sizes, k)


@st.composite
def sample_sums(draw, stage_maxima, n):
    """B samples of n rows of models with ``stage_maxima``, as int64 sums [B, k] and
    cross-products [B, k, k]: each a few distinct rows with multiplicities."""
    sums, cross = [], []
    for _ in range(draw(st.integers(1, 4))):
        distinct = draw(st.integers(1, min(n, 5)))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=distinct - 1,
                                    max_size=distinct - 1, unique=True))) if distinct > 1 else []
        counts = np.diff([0, *cuts, n])
        rows = [[draw(st.integers(0, m)) for m in stage_maxima] for _ in counts]
        # a column held at one stage; with at most five distinct rows, most stages are empty
        constant = draw(st.one_of(st.none(), st.integers(0, len(stage_maxima) - 1)))
        if constant is not None:
            level = draw(st.integers(0, stage_maxima[constant]))
            for row in rows:
                row[constant] = level
        x = np.array(rows, dtype=object)
        sums.append((counts @ x).tolist())
        cross.append(((x.T * counts) @ x).tolist())
    return np.array(sums, dtype=np.int64), np.array(cross, dtype=np.int64)


def reference_moments(n, sums, cross):
    """Moments of n >= 2 rows from their column sums and cross-products as Python ints, entry by
    entry in Python: each covariance one division of an exact integer numerator, and each
    correlation clipped into [-1, 1] and NaN for a degenerate model."""
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


def hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def assert_same_moments(got, want):
    """``got`` equals the MomentEstimate ``want`` by ``float.hex``, and its arrays are read-only."""
    assert got.n == want.n
    assert hexes(got.scores.scores) == hexes(want.scores.scores)
    assert hexes(got.cov) == hexes(want.cov)
    assert hexes(got.corr) == hexes(want.corr)
    assert got.degenerate == want.degenerate
    assert not got.cov.flags.writeable and not got.corr.flags.writeable
