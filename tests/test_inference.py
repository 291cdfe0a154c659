import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adoptindex import (
    IndexValue,
    ModelSpec,
    MomentEstimate,
    ScoreEstimate,
    StudySpec,
    VarianceEstimate,
    confidence_interval,
    estimate_moments,
    index_variance,
    one_sample_test,
    row_index,
    subindex,
    two_sample_test,
    welch_df,
)
from adoptindex.errors import (
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
from conftest import make_dataset


def synthetic_moments(variances, rho, scores=None, n=100):
    """Build a MomentEstimate from chosen variances and one correlation."""
    variances = np.asarray(variances, dtype=float)
    k = len(variances)
    sd = np.sqrt(variances)
    corr = np.full((k, k), float(rho))
    np.fill_diagonal(corr, 1.0)
    cov = corr * np.outer(sd, sd)
    if scores is None:
        scores = tuple(2.5 for _ in range(k))
    return MomentEstimate(
        scores=ScoreEstimate(tuple(scores), n=n),
        cov=cov,
        corr=corr,
        degenerate=tuple(v == 0 for v in variances),
    )


def linear_variance_direct(variances, rho_matrix, ms, n, k):
    """Independent evaluation of the linear-index variance formula."""
    big_sigma = [v / (n * m**2) for v, m in zip(variances, ms)]
    total = sum(big_sigma)
    for j in range(k):
        for l in range(j + 1, k):
            total += 2 * rho_matrix[j][l] * math.sqrt(big_sigma[j] * big_sigma[l])
    return total / k**2


class TestIndexVariance:
    def test_uncorrelated_unit_variances(self, tam_cmm_spec):
        moments = synthetic_moments((1.0, 1.0), rho=0.0, n=100)
        assert index_variance(moments, tam_cmm_spec).value == pytest.approx(
            2.0e-4, rel=1e-12
        )

    def test_full_correlation_doubles_it(self, tam_cmm_spec):
        moments = synthetic_moments((1.0, 1.0), rho=1.0, n=100)
        assert index_variance(moments, tam_cmm_spec).value == pytest.approx(
            4.0e-4, rel=1e-12
        )

    def test_value_matches_contribution_expansion(self, tam_cmm_spec):
        moments = synthetic_moments((1.3, 0.8), rho=0.4, n=57)
        est = index_variance(moments, tam_cmm_spec)
        assert est.value == pytest.approx(float(est.contributions.sum()), abs=1e-15)

    def test_degenerate_model_refused(self, tam_cmm_spec):
        moments = synthetic_moments((0.0, 1.0), rho=0.0)
        with pytest.raises(DegenerateVariance):
            index_variance(moments, tam_cmm_spec)

    def test_forced_independence_reduction(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (1, 4, 0, 5, 3)])
        moments = estimate_moments(ds)
        forced = index_variance(moments, tam_cmm_spec, correlation=np.eye(2))
        v1, v2 = moments.variances
        assert forced.value == pytest.approx((v1 + v2) / (100 * ds.n), rel=1e-12)

    def test_closed_form_on_real_data(self, tam_cmm_spec):
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            cols = rng.integers(0, 6, size=(2, n))
            if cols[0].var() == 0 or cols[1].var() == 0:
                continue
            ds = make_dataset(tam_cmm_spec, cols)
            moments = estimate_moments(ds)
            value = index_variance(moments, tam_cmm_spec).value
            v1, v2 = moments.variances
            cov12 = float(moments.cov[0, 1])
            assert value == pytest.approx((v1 + v2 + 2 * cov12) / (100 * n), rel=1e-12)

    @given(
        v1=st.floats(0.01, 9.0),
        v2=st.floats(0.01, 9.0),
        rho=st.floats(-1.0, 1.0),
        m1=st.integers(1, 9),
        m2=st.integers(1, 9),
        n=st.integers(2, 10_000),
    )
    @settings(max_examples=200)
    def test_linear_consistency_two_models(self, v1, v2, rho, m1, m2, n):
        spec = StudySpec([ModelSpec("A", m1), ModelSpec("B", m2)])
        moments = synthetic_moments((v1, v2), rho=rho, scores=(m1 / 2, m2 / 2), n=n)
        mine = index_variance(moments, spec).value
        direct = linear_variance_direct(
            (v1, v2), [[1, rho], [rho, 1]], (m1, m2), n, k=2
        )
        assert mine == pytest.approx(direct, rel=1e-12, abs=1e-18)

    @given(
        variances=st.lists(st.floats(0.05, 4.0), min_size=3, max_size=3),
        rho=st.floats(-0.45, 0.45),
        n=st.integers(3, 500),
    )
    @settings(max_examples=100)
    def test_linear_consistency_three_models(self, variances, rho, n):
        ms = (5, 3, 7)
        spec = StudySpec([ModelSpec(f"M{i}", m) for i, m in enumerate(ms)])
        moments = synthetic_moments(variances, rho=rho, scores=(2.5, 1.5, 3.5), n=n)
        mine = index_variance(moments, spec).value
        rho_matrix = [[1 if i == j else rho for j in range(3)] for i in range(3)]
        direct = linear_variance_direct(variances, rho_matrix, ms, n, k=3)
        assert mine == pytest.approx(direct, rel=1e-12, abs=1e-18)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(77)
        spec = StudySpec([ModelSpec("A", 5, alpha=1.0, beta=2.0), ModelSpec("B", 4)])
        swapped = StudySpec([ModelSpec("B", 4), ModelSpec("A", 5, alpha=1.0, beta=2.0)])
        col_a = rng.integers(0, 6, size=12)
        col_b = rng.integers(0, 5, size=12)
        ds = make_dataset(spec, [col_a, col_b])
        ds_swapped = make_dataset(swapped, [col_b, col_a])
        v = index_variance(estimate_moments(ds), spec).value
        v_swapped = index_variance(estimate_moments(ds_swapped), swapped).value
        assert v == pytest.approx(v_swapped, rel=1e-12)


class TestWelchDf:
    def test_symmetric_case(self):
        assert welch_df(3e-4, 3e-4, 20, 20, 2) == pytest.approx(2 * (20 - 2), rel=1e-12)

    def test_one_variance_zero_limit(self):
        assert welch_df(5e-4, 0.0, 31, 77, 2) == pytest.approx(29.0, rel=1e-12)

    def test_worked_value(self):
        assert welch_df(2e-4, 1e-4, 102, 52, 2) == pytest.approx(150.0, rel=1e-12)

    def test_errors(self):
        with pytest.raises(BothVariancesZero):
            welch_df(0.0, 0.0, 10, 10, 2)
        with pytest.raises(InsufficientSample):
            welch_df(1e-4, 1e-4, 2, 10, 2)
        with pytest.raises(InputError):
            welch_df(-1e-4, 1e-4, 10, 10, 2)


class TestOneSample:
    def test_excluding_the_average_row_gives_zero(self, ladder_dataset):
        outcome = one_sample_test(ladder_dataset, row_id="3")
        assert outcome.statistic == pytest.approx(0.0, abs=1e-14)
        assert outcome.p_value == pytest.approx(1.0, abs=1e-12)
        assert not outcome.reject

    def test_hand_computed_fixture(self, ladder_dataset):
        outcome = one_sample_test(ladder_dataset, row_id="1")
        assert outcome.df == 2
        assert outcome.indices == (pytest.approx(0.7), pytest.approx(0.2))
        assert outcome.variances[0] == pytest.approx(1 / 60, rel=1e-12)
        assert outcome.statistic == pytest.approx(3.872983, abs=1e-6)
        assert outcome.sample_sizes == (4,)
        assert "reduced sample" in outcome.note

    def test_insufficient_df(self, single_model_spec):
        ds = make_dataset(single_model_spec, [(1, 2, 3)])
        with pytest.raises(InsufficientDf):
            one_sample_test(ds, row_id="r0")

    def test_row_not_found(self, ladder_dataset):
        with pytest.raises(RowNotFound):
            one_sample_test(ladder_dataset, row_id="missing")

    def test_degenerate_after_exclusion(self, single_model_spec):
        ds = make_dataset(single_model_spec, [(3, 3, 3, 3, 5)])
        with pytest.raises(DegenerateVariance):
            one_sample_test(ds, row_id="r4")

    def test_anticorrelated_columns_have_no_testable_variance(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (5, 0, 3, 2, 4)])
        with pytest.raises(DegenerateVariance):
            one_sample_test(ds, row_id="r0")

    def test_nonlinear_null_value_uses_the_transform(self):
        spec = StudySpec([ModelSpec("A", 5, alpha=1.0, beta=2.0), ModelSpec("B", 5)])
        ds = make_dataset(spec, [(1, 2, 3, 4, 0), (0, 5, 2, 3, 1)])
        expected = 0.5 * subindex(1.0, spec.models[0]) + 0.5 * subindex(
            0.0, spec.models[1]
        )
        assert row_index(ds, "r0") == pytest.approx(expected, rel=1e-14)
        outcome = one_sample_test(ds, row_id="r0")
        assert outcome.indices[1] == pytest.approx(expected, rel=1e-14)

    def test_significance_validation(self, ladder_dataset):
        with pytest.raises(InvalidLevel):
            one_sample_test(ladder_dataset, row_id="1", significance=1.0)


class TestTwoSample:
    def test_identical_industries(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (1, 4, 0, 5, 3)])
        outcome = two_sample_test(ds, ds)
        assert outcome.statistic == 0.0
        assert outcome.p_value == pytest.approx(1.0, abs=1e-12)
        assert outcome.df == pytest.approx(2 * (ds.n - 2), rel=1e-12)

    def test_one_sided_halves_two_sided_for_positive_t(self, tam_cmm_spec):
        ds_a = make_dataset(tam_cmm_spec, [(2, 5, 3, 4, 5), (3, 5, 4, 5, 2)])
        ds_b = make_dataset(tam_cmm_spec, [(0, 1, 2, 0, 1), (1, 0, 2, 1, 0)])
        two = two_sample_test(ds_a, ds_b, sidedness="two")
        greater = two_sample_test(ds_a, ds_b, sidedness="greater")
        assert two.statistic > 0
        assert greater.p_value == pytest.approx(two.p_value / 2, rel=1e-12)

    def test_spec_mismatch(self, tam_cmm_spec):
        other = StudySpec([ModelSpec("TAM", 5), ModelSpec("CMM", 4)])
        ds_a = make_dataset(tam_cmm_spec, [(0, 5, 2), (1, 4, 0)])
        ds_b = make_dataset(other, [(0, 4, 2), (1, 4, 0)])
        with pytest.raises(SpecMismatch):
            two_sample_test(ds_a, ds_b)

    def test_degenerate_refused(self, single_model_spec):
        constant = make_dataset(single_model_spec, [(2, 2, 2)])
        varied = make_dataset(single_model_spec, [(1, 3, 5)])
        with pytest.raises(DegenerateVariance):
            two_sample_test(constant, varied)

    def test_statistic_sign_swaps_with_order(self, tam_cmm_spec):
        ds_a = make_dataset(tam_cmm_spec, [(2, 5, 3, 4, 5), (3, 5, 4, 5, 2)])
        ds_b = make_dataset(tam_cmm_spec, [(0, 1, 2, 0, 1), (1, 0, 2, 1, 0)])
        ab = two_sample_test(ds_a, ds_b)
        ba = two_sample_test(ds_b, ds_a)
        assert ab.statistic == pytest.approx(-ba.statistic, rel=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, rel=1e-12)


class TestConfidenceInterval:
    def _index(self, value=0.5):
        spec = StudySpec([ModelSpec("M", 5)])
        return IndexValue(sub_indices=(value,), value=value, spec=spec)

    def _variance(self, value, n=100):
        return VarianceEstimate(
            value=value,
            contributions=np.array([[value]]),
            gradients=(0.2,),
            n_used=n,
        )

    def test_zero_variance_degenerates(self):
        ci = confidence_interval(self._index(0.37), self._variance(0.0), 0.95, 12)
        assert (ci.lower, ci.upper) == (0.37, 0.37)
        assert not ci.clamped

    def test_normal_limit_half_width(self):
        variance = 1.6e-5
        ci = confidence_interval(self._index(0.5), self._variance(variance), 0.95, 1e7)
        half = (ci.upper - ci.lower) / 2
        assert half == pytest.approx(1.96 * math.sqrt(variance), rel=1e-3)

    def test_clamped_upper(self):
        ci = confidence_interval(self._index(0.99), self._variance(0.01), 0.95, 30)
        assert ci.upper == 1.0
        assert ci.clamped

    def test_invalid_inputs(self):
        with pytest.raises(InvalidLevel):
            confidence_interval(self._index(), self._variance(1e-4), 1.2, 10)
        with pytest.raises(InvalidDf):
            confidence_interval(self._index(), self._variance(1e-4), 0.9, 0.0)
