import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adoptindex import (
    ModelSpec,
    StudySpec,
    estimate_moments,
    validate_dataset,
)
from adoptindex.errors import InputError
from adoptindex.estimation import MomentEstimate, ScoreEstimate, _correlations, _from_sums, _moments
from conftest import assert_same_moments, make_dataset, reference_moments, sample_sums


class TestScores:
    def test_column_means(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3), (5, 0, 3, 2)])
        assert estimate_moments(ds).scores.scores == (2.5, 2.5)

    def test_all_zero(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 0, 0), (0, 0, 0)])
        assert estimate_moments(ds).scores.scores == (0.0, 0.0)

    def test_single_column_mean(self, single_model_spec):
        ds = make_dataset(single_model_spec, [(1, 2, 3)])
        assert estimate_moments(ds).scores.scores == (2.0,)

    @given(data=st.data())
    @settings(max_examples=50)
    def test_dual_form_identity_is_bitwise(self, data):
        # the count-weighted stage sum and the column mean share the same
        # integer numerator, so one division gives identical floats
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(2, 40))
        column = [data.draw(st.integers(0, m)) for _ in range(n)]
        spec = StudySpec([ModelSpec("M", m)])
        ds = validate_dataset([(f"r{i}", (v,)) for i, v in enumerate(column)], spec)
        score = estimate_moments(ds).scores.scores[0]
        counts = np.bincount(ds.values[:, 0], minlength=m + 1)
        numerator = sum(stage * int(count) for stage, count in enumerate(counts))
        assert score == numerator / ds.n


class TestMoments:
    def test_unbiased_variance(self, single_model_spec):
        # deviations +-2.5, squared sum 25, over n-1 = 3
        ds = make_dataset(single_model_spec, [(0, 0, 5, 5)])
        moments = estimate_moments(ds)
        assert np.diag(moments.cov)[0] == pytest.approx(25 / 3, rel=1e-15)

    def test_identical_columns_fully_correlated(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3), (0, 5, 2, 3)])
        assert estimate_moments(ds).corr[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_constant_column_flags_degeneracy(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(3, 3, 3, 3), (0, 5, 2, 3)])
        moments = estimate_moments(ds)
        assert moments.degenerate == (True, False)
        assert np.diag(moments.cov)[0] == 0.0
        assert math.isnan(moments.corr[0, 1])
        assert moments.corr[1, 1] == 1.0

    def test_covariance_is_symmetric(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3), (1, 4, 0, 5)])
        moments = estimate_moments(ds)
        assert np.array_equal(moments.cov, moments.cov.T)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_integer_moments_match_the_float_reference(self, data):
        k = data.draw(st.integers(1, 4))
        ms = [data.draw(st.integers(1, 9)) for _ in range(k)]
        n = data.draw(st.integers(k + 1, 40))
        columns = [data.draw(st.lists(st.integers(0, m), min_size=n, max_size=n)) for m in ms]
        spec = StudySpec([ModelSpec(f"M{j}", m) for j, m in enumerate(ms)])
        ds = make_dataset(spec, columns)
        moments = estimate_moments(ds)

        sums = ds.values.sum(axis=0)
        assert moments.scores.scores == tuple(float(s) / n for s in sums)

        reference = np.atleast_2d(np.cov(ds.values.astype(float), rowvar=False, ddof=1))
        scale = max(float(np.max(np.diag(reference))), 1.0)
        assert np.max(np.abs(moments.cov - reference)) <= 1e-12 * scale
        assert np.array_equal(moments.cov, moments.cov.T)
        assert np.all(np.diag(moments.cov) >= 0.0)

        defined = ~np.isnan(moments.corr)
        assert np.all(np.abs(moments.corr[defined]) <= 1.0)
        for j, flag in enumerate(moments.degenerate):
            assert flag == (moments.cov[j, j] == 0.0)
            if not flag:
                assert moments.corr[j, j] == 1.0

    def test_cross_products_that_would_wrap_int64_are_refused(self):
        # refused when the dataset is built, before any reduction
        spec = StudySpec([ModelSpec("M", 2**32)])
        with pytest.raises(InputError) as info:
            make_dataset(spec, [(0, 2**32, 2**32)])
        assert str(info.value) == f"stages up to {2**32} over 3 rows overflow exact int64 moments"

    def test_arrays_are_read_only(self, tam_cmm_spec):
        moments = estimate_moments(make_dataset(tam_cmm_spec, [(0, 5, 2), (1, 4, 0)]))
        for array in (moments.cov, moments.corr):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


@st.composite
def samples(draw):
    k = draw(st.integers(1, 4))
    # n on both sides of 2^53, where the kernel takes int64 operands as Python ints
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, 10**4), st.integers(2**24, 2**40)))
    return (n, *draw(sample_sums([draw(st.integers(1, 7)) for _ in range(k)], n)))


class TestKernel:
    @given(sample=samples())
    @settings(max_examples=300, deadline=None)
    def test_one_sample_and_a_batch_match_the_python_reference(self, sample):
        n, sums, cross = sample
        scores, cov, degenerate = _moments(n, sums, cross)
        corr = _correlations(cov, degenerate)
        assert not corr.flags.writeable
        for r in range(len(sums)):
            want = reference_moments(n, sums[r].tolist(), cross[r].tolist())
            got = _from_sums(n, tuple(sums[r].tolist()), tuple(map(tuple, cross[r].tolist())))
            assert_same_moments(got, want)
            assert got.cov.flags.owndata  # so index_variance keeps its estimate on it
            batched = MomentEstimate(ScoreEstimate(tuple(scores[r].tolist()), n), cov[r], corr[r],
                                     tuple(degenerate[r].tolist()))
            assert_same_moments(batched, want)

    def test_a_score_rounds_its_sum_to_a_float_before_dividing(self):
        # 511 rows at stage 511 and the rest at 512: the sum 2^53 + 1 rounds to 2^53 as a
        # float, and 2^53 / n is one ulp below the exact (2^53 + 1) / n
        n, low = 2**44 + 1, 511
        sums, cross = (low * low + (n - low) * 512,), ((low * low**2 + (n - low) * 512**2,),)
        assert sums[0] == 2**53 + 1 and cross[0][0] < 2**63
        score = float(sums[0]) / n
        assert score != sums[0] / n
        assert _from_sums(n, sums, cross).scores.scores == (score,)
        scores, cov, degenerate = _moments(n, np.array([sums]), np.array([cross]))
        assert scores.tolist() == [[score]]
        assert_same_moments(
            MomentEstimate(ScoreEstimate((score,), n), cov[0], _correlations(cov, degenerate)[0], (False,)),
            reference_moments(n, sums, cross))


class TestSamplingProperties:
    """Monte Carlo checks of unbiasedness and the 1/n variance decay.

    The sampler here is plain numpy, independent of the package's own
    simulation module; only the estimator under test comes from the
    package.
    """

    PMF = np.array([0.15, 0.2, 0.25, 0.2, 0.1, 0.1])
    TRUE_SCORE = float(np.arange(6) @ PMF)
    TRUE_VAR = float((np.arange(6) ** 2) @ PMF) - TRUE_SCORE**2
    SPEC = StudySpec([ModelSpec("M", 5)])

    def _estimated_scores(self, rng, n, reps):
        from adoptindex.domain import AdoptionDataset

        u = rng.random((reps, n))
        draws = np.searchsorted(np.cumsum(self.PMF), u, side="left")
        ids = tuple(f"r{i}" for i in range(n))
        scores = np.empty(reps)
        for r in range(reps):
            ds = AdoptionDataset(ids, draws[r].reshape(n, 1), self.SPEC)
            scores[r] = estimate_moments(ds).scores.scores[0]
        return scores

    def test_score_estimator_is_unbiased(self):
        rng = np.random.default_rng(986543)
        reps, n = 2000, 200
        means = self._estimated_scores(rng, n, reps)
        mc_se = math.sqrt(self.TRUE_VAR / n / reps)
        assert abs(means.mean() - self.TRUE_SCORE) <= 4 * mc_se

    def test_variance_decays_like_one_over_n(self):
        rng = np.random.default_rng(52101)
        reps = 2000
        var_small = self._estimated_scores(rng, 200, reps).var(ddof=1)
        var_large = self._estimated_scores(rng, 2000, reps).var(ddof=1)
        assert 8.0 <= var_small / var_large <= 12.5
