import dataclasses
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adoptindex import (
    AdoptionDataset,
    IndexValue,
    ModelSpec,
    MomentEstimate,
    ScoreEstimate,
    StudySpec,
    VarianceEstimate,
    confidence_interval,
    delta_gradient,
    estimate_moments,
    global_index,
    index_variance,
    inference,
    one_sample_test,
    student_t_pvalue,
    subindex,
    tdist,
    two_sample_test,
)
from adoptindex.domain import _LEFT_OUT_BOUND
from adoptindex.errors import (
    AdoptionIndexError,
    DegenerateVariance,
    InputError,
    InsufficientDf,
    InvalidDf,
    InvalidLevel,
    RowNotFound,
    SpecMismatch,
    StatisticalRefusal,
)
from adoptindex.estimation import _from_sums
from conftest import assert_welch_inputs_judged, make_dataset, record_welch_calls


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
    def test_spec_mismatch(self, tam_cmm_spec):
        # named before the gradient, which would refuse the scores in its own words
        with pytest.raises(SpecMismatch, match="^1 moment columns for a 2-model spec$"):
            index_variance(synthetic_moments((1.0,), rho=0.0), tam_cmm_spec)

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
        v1, v2 = np.diag(moments.cov)
        assert forced.value == pytest.approx((v1 + v2) / (100 * ds.n), rel=1e-12)

    @pytest.mark.parametrize(
        "corr,reason",
        [
            ([[1.0, 0.3], [0.2, 1.0]], "must be symmetric"),
            ([[1.0, 1.5], [1.5, 1.0]], "must be positive semi-definite"),
            ([[0.5, 0.0], [0.0, 0.5]], "must have a unit diagonal"),
            ([["1", 0.0], [0.0, 1.0]], "must be a number"),
            (np.eye(3), "must be 2x2"),
            # np.allclose reads inf as close to inf, and eigvalsh's NaN is below no floor
            ([[1.0, math.inf], [math.inf, 1.0]], "entries must be finite"),
            ([[1.0, math.nan], [math.nan, 1.0]], "entries must be finite"),
            ([[math.inf, 0.0], [0.0, 1.0]], "entries must be finite"),
        ],
        ids=["asymmetric", "not-psd", "not-unit-diagonal", "string-entry", "wrong-size", "inf",
             "nan", "inf-diagonal"],
    )
    def test_correlation_override_is_a_correlation_matrix(self, tam_cmm_spec, corr, reason):
        ds = make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (1, 4, 0, 5, 3)])
        with pytest.raises(InputError, match=f"^correlation override.* {reason}"):
            index_variance(estimate_moments(ds), tam_cmm_spec, correlation=corr)

    def test_override_with_a_negative_eigenvalue_is_refused_past_rounding(self, tam_cmm_spec):
        # correlation_matrix admits an eigenvalue down to -1e-10, so the form is PSD only up to
        # that: here it sums to about -4e-12 of terms whose absolute sum is 0.08
        r = -1.0 - 9.9999e-11
        assert -1e-10 <= np.linalg.eigvalsh([[1.0, r], [r, 1.0]]).min() < -0.9999e-10
        ds = make_dataset(tam_cmm_spec, [(0, 5, 0, 5), (5, 0, 5, 0)])
        with pytest.raises(DegenerateVariance, match=r"the index variance is -4\.1\d*e-12, "
                                                     r"below zero beyond rounding \(bound -1e-12\)"):
            index_variance(estimate_moments(ds), tam_cmm_spec, correlation=[[1.0, r], [r, 1.0]])

    @given(beta=st.floats(1e3, 1e5), gap=st.floats(-1e-14, 1e-14),
           offsets=st.lists(st.integers(1, 3), min_size=1, max_size=3), centre=st.integers(1, 11))
    @settings(max_examples=200, deadline=None)
    def test_near_equal_steep_shapes_on_anticorrelated_columns(self, beta, gap, offsets, centre):
        # B = 6 - A and both scores are 3, so the form is var(A) (g_A - g_B)^2 / n, about zero,
        # while its terms reach 1e8: the float sum rounds to either side of zero, far past
        # -1e-12. The columns vary and the scores are inside (0, 6), so nothing may be refused.
        spec = StudySpec([ModelSpec("A", 6, beta=beta), ModelSpec("B", 6, beta=beta * (1 + gap))])
        stages = [3 - d for d in offsets] + [3 + d for d in offsets] + [3] * centre
        ds = make_dataset(spec, [stages, [6 - s for s in stages]])
        try:
            value = index_variance(estimate_moments(ds), spec).value
        except StatisticalRefusal as exc:
            pytest.fail(f"refused: {exc}")
        assert math.isfinite(value) and value >= 0

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
            v1, v2 = np.diag(moments.cov)
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
    @example(v1=6.5, v2=6.375, rho=-1.0, m1=3, m2=3, n=2)
    def test_linear_consistency_two_models(self, v1, v2, rho, m1, m2, n):
        spec = StudySpec([ModelSpec("A", m1), ModelSpec("B", m2)])
        moments = synthetic_moments((v1, v2), rho=rho, scores=(m1 / 2, m2 / 2), n=n)
        mine = index_variance(moments, spec).value
        # g' Sigma g / n in exact arithmetic from the same float covariance,
        # with the linear index's gradient g_j = 1 / (k m_j)
        g = [Fraction(1, 2 * m1), Fraction(1, 2 * m2)]
        terms = [g[j] * g[l] * Fraction(moments.cov[j, l]) / n for j in range(2) for l in range(2)]
        # near rho = -1 the terms cancel, so the rounding error scales with
        # their magnitudes, not with the result; for rho >= 0 the two agree
        assert abs(Fraction(mine) - sum(terms)) <= Fraction(1e-12) * sum(map(abs, terms))

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

    @given(data=st.data(), override=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_array_form(self, data, override):
        k = data.draw(st.integers(1, 4))
        ms = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        shapes = data.draw(st.lists(st.sampled_from([(1.0, 1.0), (0.5, 3.0), (2.0, 1.5)]),
                                    min_size=k, max_size=k))
        spec = StudySpec([ModelSpec(f"M{j}", m, alpha=a, beta=b)
                          for j, (m, (a, b)) in enumerate(zip(ms, shapes))])
        n = data.draw(st.integers(k + 2, 40))
        # a row of zeros and one of maxima keep every score inside (0, m) and every variance > 0
        rows = [[0] * k, ms] + [[data.draw(st.integers(0, m)) for m in ms] for _ in range(n - 2)]
        moments = estimate_moments(make_dataset(spec, list(zip(*rows))))
        sigma = np.asarray(moments.cov, dtype=float)
        corr = None
        if override:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            a = rng.uniform(-1.0, 1.0, (k, k + 1))
            c = a @ a.T
            corr = c / np.sqrt(np.outer(c.diagonal(), c.diagonal()))
            corr = (corr + corr.T) / 2
            np.fill_diagonal(corr, 1.0)
            sd = np.sqrt(sigma.diagonal())
            variances, sigma = sigma.diagonal(), corr * np.outer(sd, sd)
            np.fill_diagonal(sigma, variances)
        got = index_variance(moments, spec, correlation=corr)
        gradients = delta_gradient(moments.scores, spec)
        g = np.asarray(spec.weights) * np.asarray(gradients)
        contributions = np.outer(g, g) * sigma / n
        value = float(contributions.sum())
        if value < 0:
            contributions, value = np.zeros_like(contributions), 0.0
        assert got.value.hex() == value.hex()
        assert np.array_equal(got.contributions, contributions)
        assert got.contributions.dtype == np.float64 and got.contributions.shape == (k, k)
        assert [x.hex() for x in got.gradients] == [x.hex() for x in gradients]

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


def variance_bits(variance):
    """A VarianceEstimate with its floats as hex, so that == compares it bitwise."""
    return (variance.value.hex(), variance.contributions.tobytes(),
            tuple(g.hex() for g in variance.gradients), variance.n_used)


def writable(moments):
    """``moments`` with a writable copy of its covariance, which ``index_variance`` never keeps."""
    return dataclasses.replace(moments, cov=moments.cov.copy())


class TestVarianceMemo:
    def test_a_repeat_returns_the_same_estimate_per_spec(self, tam_cmm_spec):
        moments = estimate_moments(make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (1, 4, 0, 5, 3)]))
        reweighted = StudySpec([ModelSpec("TAM", 5, weight=0.3), ModelSpec("CMM", 5, weight=0.7)])
        for spec in (tam_cmm_spec, reweighted, tam_cmm_spec):
            first = index_variance(moments, spec)
            assert index_variance(moments, spec) is first
            assert variance_bits(first) == variance_bits(index_variance(writable(moments), spec))
        assert index_variance(moments, reweighted).value != index_variance(moments, tam_cmm_spec).value

    def test_an_override_is_never_kept(self, tam_cmm_spec):
        moments = estimate_moments(make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (1, 4, 0, 5, 3)]))
        forced = index_variance(moments, tam_cmm_spec, correlation=np.eye(2))
        assert index_variance(moments, tam_cmm_spec, correlation=np.eye(2)) is not forced
        plain = index_variance(moments, tam_cmm_spec)
        assert plain.value != forced.value
        assert variance_bits(plain) == variance_bits(index_variance(writable(moments), tam_cmm_spec))
        assert index_variance(moments, tam_cmm_spec, correlation=np.eye(2)).value == forced.value

    def test_a_degenerate_model_is_refused_on_every_call(self, tam_cmm_spec):
        moments = _from_sums(4, (12, 6), ((36, 18), (18, 14)))  # TAM 3 in every row, CMM 0..3
        assert moments.degenerate == (True, False)
        for _ in range(3):
            with pytest.raises(DegenerateVariance, match="model 'TAM' has zero sample variance"):
                index_variance(moments, tam_cmm_spec)

    @pytest.mark.parametrize("shared", [False, True], ids=["writable", "read-only-view"])
    def test_a_covariance_that_can_change_is_recomputed(self, tam_cmm_spec, shared):
        moments = synthetic_moments((1.3, 0.8), rho=0.4, n=57)  # a writable cov
        cov = moments.cov
        if shared:  # read-only, but its memory is a writable array's
            view = cov.view()
            view.setflags(write=False)
            moments = dataclasses.replace(moments, cov=view)
        before = index_variance(moments, tam_cmm_spec)
        cov[0, 0] *= 2.0
        after = index_variance(moments, tam_cmm_spec)
        assert after.value > before.value
        assert variance_bits(after) == variance_bits(index_variance(writable(moments), tam_cmm_spec))


def welch_df(v_a, v_b, n_a, n_b, k):
    """The Welch-Satterthwaite df that ``_welch`` gives ``test-two`` and the size study."""
    return inference._welch((0.5, 0.5), (v_a, v_b), (n_a, n_b), k)[1]


class TestWelchDf:
    def test_symmetric_case(self):
        assert welch_df(3e-4, 3e-4, 20, 20, 2) == pytest.approx(2 * (20 - 2), rel=1e-12)

    def test_one_variance_zero_limit(self):
        assert welch_df(5e-4, 0.0, 31, 77, 2) == pytest.approx(29.0, rel=1e-12)

    def test_worked_value(self):
        assert welch_df(2e-4, 1e-4, 102, 52, 2) == pytest.approx(150.0, rel=1e-12)

    @pytest.mark.parametrize("v", [1e-200, 1e200, 5e-324, 1.7e308])
    def test_extreme_equal_variances(self, v):
        # the squares of these underflow to 0 or overflow in floats
        assert welch_df(v, v, 10, 10, 2) == 16.0

    @given(
        v_a=st.floats(1e-3, 1e3), v_b=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        n_a=st.integers(5, 500), n_b=st.integers(5, 500), k=st.integers(1, 4),
        scale=st.floats(-300, 300),
    )
    def test_df_is_scale_free_and_unchanged_inside_the_range(self, v_a, v_b, n_a, n_b, k, scale):
        c = 10.0**scale
        a, b = c * v_a, c * v_b
        df = welch_df(a, b, n_a, n_b, k)
        if 2.0**-500 <= max(a, b) <= 2.0**500:
            expected = (a + b) ** 2 / (a**2 / (n_a - k) + b**2 / (n_b - k))
            assert df.hex() == expected.hex()
        assert df == pytest.approx(welch_df(v_a, v_b, n_a, n_b, k), rel=1e-14)


def sidedness_refusal_dataset():
    """Four rows of two models with A held at 1: one row left out leaves df = 0, and
    A's variance is zero."""
    return make_dataset(StudySpec([ModelSpec("A", 3), ModelSpec("B", 3)]), [(1, 1, 1, 1), (2, 3, 1, 0)])


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
        outcome = one_sample_test(ds, row_id="r0")
        assert outcome.indices[1] == pytest.approx(expected, rel=1e-14)

    def test_significance_validation(self, ladder_dataset):
        with pytest.raises(InvalidLevel):
            one_sample_test(ladder_dataset, row_id="1", significance=1.0)
        with pytest.raises(InvalidLevel, match="must be a number, got '0.05'"):
            one_sample_test(ladder_dataset, row_id="1", significance="0.05")
        with pytest.raises(InvalidLevel, match="must be a number, got True"):
            two_sample_test(ladder_dataset, ladder_dataset, significance=True)

    def test_an_invalid_sidedness_is_refused_before_the_data_are_judged(self):
        ds = sidedness_refusal_dataset()
        with pytest.raises(InputError, match="sidedness must be one of .*, got 'bogus'") as info:
            one_sample_test(ds, "r1", sidedness="bogus")
        assert not isinstance(info.value, StatisticalRefusal)
        with pytest.raises(InsufficientDf):
            one_sample_test(ds, "r1")


def fresh_reduction(dataset, positions):
    """``dataset`` without the rows at ``positions`` (removed in turn), rebuilt and reduced anew."""
    ids, values = dataset.row_ids, dataset.values
    for position in positions:
        ids, values = ids[:position] + ids[position + 1:], np.delete(values, position, axis=0)
    fresh = AdoptionDataset(row_ids=ids, values=values, spec=dataset.spec)
    return fresh, tuple(values.sum(axis=0).tolist()), tuple(map(tuple, (values.T @ values).tolist()))


def reference_one_sample(dataset, position):
    """The leave-one-out test of one row, from a freshly built and reduced (n-1)-row dataset."""
    spec = dataset.spec
    row_id = dataset.row_ids[position]
    reduced, sums, cross = fresh_reduction(dataset, [position])
    moments = _from_sums(reduced.n, sums, cross)
    variance = index_variance(moments, spec).value
    if variance == 0:
        raise DegenerateVariance(
            "the weighted stage combination is constant across the remaining rows"
        )
    df = reduced.n - spec.k - 1
    own = ScoreEstimate(tuple(float(x) for x in dataset.values[position]), n=1)
    indices = (global_index(moments.scores, spec).value, global_index(own, spec).value)
    statistic = (indices[0] - indices[1]) / math.sqrt(variance)
    p_value = student_t_pvalue(statistic, df, "two")
    return inference.TestOutcome(
        statistic=statistic,
        df=float(df),
        p_value=p_value,
        sidedness="two",
        significance=0.05,
        reject=p_value < 0.05,
        indices=indices,
        variances=(variance,),
        sample_sizes=(reduced.n,),
        note=(
            "degrees of freedom use the reduced sample of "
            f"{reduced.n} rows left after excluding row {row_id!r}"
        ),
    )


def bits(call):
    """What ``call()`` gives, with floats as hex so that == compares them bitwise."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(exact(v) for v in value)
        return value

    try:
        outcome = call()
    except AdoptionIndexError as exc:
        return type(exc), str(exc)
    return tuple(exact(getattr(outcome, f)) for f in inference.TestOutcome.__dataclass_fields__)


def assert_downdate_matches_reference(dataset, positions):
    """Every row of ``dataset`` and, after each of ``positions``, of the reduced dataset."""
    for first in positions:
        reduced, sums, cross = fresh_reduction(dataset, [first])
        assert dataset.without_row(first) == (reduced.n, sums, cross)
        assert bits(lambda: one_sample_test(dataset, row_id=dataset.row_ids[first])) == bits(
            lambda: reference_one_sample(dataset, first)
        )
        if reduced.n - 1 <= dataset.spec.k:
            continue
        for second in range(reduced.n):
            _, sums, cross = fresh_reduction(dataset, [first, second])
            assert reduced.without_row(second) == (reduced.n - 1, sums, cross)
            if reduced.n - 1 - dataset.spec.k - 1 >= 1:
                row_id = reduced.row_ids[second]
                assert bits(lambda: one_sample_test(reduced, row_id=row_id)) == bits(
                    lambda: reference_one_sample(reduced, second)
                )


def nonlinear_industry():
    """Seven rows of one nonlinear and one linear six-stage model."""
    spec = StudySpec([ModelSpec("A", 5, alpha=1.0, beta=2.0), ModelSpec("B", 5)])
    return make_dataset(spec, [(1, 2, 3, 4, 0, 5, 2), (0, 5, 2, 3, 1, 1, 4)])


def draw_spec(data, max_m):
    """A spec of 1-3 models with up to ``max_m`` stages and mixed shapes."""
    k = data.draw(st.integers(1, 3))
    ms = data.draw(st.lists(st.integers(1, max_m), min_size=k, max_size=k))
    shape = st.sampled_from([(1.0, 1.0), (0.5, 3.0), (2.0, 1.0)])
    shapes = data.draw(st.lists(shape, min_size=k, max_size=k))
    return StudySpec(
        [ModelSpec(f"M{j}", m, alpha=a, beta=b) for j, (m, (a, b)) in enumerate(zip(ms, shapes))]
    )


def draw_dataset(data, spec, max_n):
    """A dataset of ``spec`` with k + 3 to ``max_n`` rows of uniformly drawn stages."""
    n = data.draw(st.integers(spec.k + 3, max_n))
    return make_dataset(spec, [[data.draw(st.integers(0, m)) for _ in range(n)] for m in spec.stage_maxima])


class TestLeaveOneOutDowndate:
    def test_every_row_of_the_ladder(self, ladder_dataset):
        assert_downdate_matches_reference(ladder_dataset, range(ladder_dataset.n))

    def test_every_row_of_a_nonlinear_industry(self):
        ds = nonlinear_industry()
        assert_downdate_matches_reference(ds, range(ds.n))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_downdates_match_fresh_reductions(self, data):
        ds = draw_dataset(data, draw_spec(data, 9), 40)
        first = data.draw(st.integers(0, ds.n - 1))
        assert_downdate_matches_reference(ds, [first])

    def test_a_column_made_constant_by_the_removal_is_refused(self, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, [(3, 3, 3, 3, 5), (0, 5, 2, 3, 1)])
        with pytest.raises(DegenerateVariance) as info:
            one_sample_test(ds, row_id="r4")
        assert str(info.value) == "model 'TAM' has zero sample variance; the index variance is undefined"

    def test_int64_refusal_comes_when_the_full_sample_is_built(self):
        # 4 * (2^31)^2 = 2^64 overflows, so the dataset is refused, though 3 of its rows would fit
        peak = 2**31
        with pytest.raises(InputError) as info:
            make_dataset(StudySpec([ModelSpec("M", peak)]), [(peak, 1, 2, 3)])
        assert str(info.value) == f"stages up to {peak} over 4 rows overflow exact int64 moments"


SEAMS = (AdoptionDataset.without_row, inference.index_variance, tdist.student_t_pvalue)
REPEATED_CELLS = [(0, 1, 1, 2, 3, 1), (2, 3, 3, 4, 0, 3)]  # rows r1, r2 and r5 share (1, 3)


def replace_everywhere(monkeypatch, replacements):
    """Point every package binding of each key of ``replacements``, in a module or a class, at its value."""
    by_id = {id(original): replacement for original, replacement in replacements.items()}
    for name, module in list(sys.modules.items()):
        if name == "adoptindex" or name.startswith("adoptindex."):
            owners = [module] + [value for value in vars(module).values() if isinstance(value, type)]
            for owner in owners:
                for attribute, value in list(vars(owner).items()):
                    if id(value) in by_id:
                        monkeypatch.setattr(owner, attribute, by_id[id(value)])


def fresh(dataset):
    """A new dataset of ``dataset``'s rows, which has kept no leave-one-out work yet."""
    return AdoptionDataset(row_ids=dataset.row_ids, values=dataset.values, spec=dataset.spec)


def kept_tuples(dataset):
    """How many stage tuples ``dataset`` keeps leave-one-out work for."""
    return len(dataset.__dict__.get("_left_outs", {}))


def assert_kept_tests_match_reference(datasets):
    """Each row's test, cold (on a fresh copy of its dataset) and warm (in a second pass
    over one copy), is bitwise ``reference_one_sample``'s, and a dataset never keeps work
    for more stage tuples than it has."""
    rows = [(ds, position) for ds in datasets for position in range(ds.n)]
    expected = [bits(lambda: reference_one_sample(ds, position)) for ds, position in rows]
    cold = [bits(lambda: one_sample_test(fresh(ds), row_id=ds.row_ids[position])) for ds, position in rows]
    assert cold == expected
    copies = {id(ds): fresh(ds) for ds in datasets}
    for _ in range(2):  # the second pass finds every row's work kept
        warm = []
        for ds, position in rows:
            copy = copies[id(ds)]
            warm.append(bits(lambda: one_sample_test(copy, row_id=ds.row_ids[position])))
            assert kept_tuples(copy) <= len(set(map(tuple, ds.values.tolist())))
        assert warm == expected


class TestSharedDowndates:
    def test_each_test_goes_once_through_every_seam(self, monkeypatch, tam_cmm_spec):
        # the bench fault tests patch these bindings; a cached test that skipped one would escape
        ds = make_dataset(tam_cmm_spec, REPEATED_CELLS)
        calls = {seam: 0 for seam in SEAMS}

        def counting(seam):
            def call(*args, **kwargs):
                calls[seam] += 1
                return seam(*args, **kwargs)
            return call

        replace_everywhere(monkeypatch, {seam: counting(seam) for seam in SEAMS})
        computed = []
        monkeypatch.setattr(inference, "_from_sums", lambda *a: computed.append(a) or _from_sums(*a))
        for tests, row_id in enumerate(2 * ds.row_ids, 1):  # a cold round, then a warm one
            one_sample_test(ds, row_id=row_id)
            assert list(calls.values()) == [tests] * len(SEAMS)
        assert len(computed) == kept_tuples(ds) == 4  # 4 distinct rows, each computed once

    def test_a_replaced_variance_changes_every_warm_outcome(self, monkeypatch, tam_cmm_spec):
        ds = make_dataset(tam_cmm_spec, REPEATED_CELLS)
        for row_id in ds.row_ids:  # fill the dataset's memo, and each distinct row's variance memo
            one_sample_test(ds, row_id=row_id)
        computed = []
        form = inference._delta_form
        monkeypatch.setattr(inference, "_delta_form", lambda *a: computed.append(a) or form(*a))
        warm = [one_sample_test(ds, row_id=row_id) for row_id in ds.row_ids]
        assert computed == []  # a warm scan computes no form
        variance = inference.index_variance

        def scaled(*args, **kwargs):  # the benchmark's variance fault
            v = variance(*args, **kwargs)
            return dataclasses.replace(v, value=v.value * 1.01, contributions=v.contributions * 1.01)

        replace_everywhere(monkeypatch, {variance: scaled})
        for before, row_id in zip(warm, ds.row_ids):
            after = one_sample_test(ds, row_id=row_id)
            assert after.statistic != before.statistic and after.p_value != before.p_value

    def test_every_row_of_the_fixtures(self, ladder_dataset):
        industry = nonlinear_industry()
        # the same stages under a linear spec leave the same sums, and must keep their own indices
        linear = make_dataset(StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)]), industry.values.T)
        assert_kept_tests_match_reference([ladder_dataset, industry, linear])

    def test_rows_that_leave_the_same_sums_keep_their_own_index(self, tam_cmm_spec):
        # R + {x} without x and R + {y} without y leave the same (n, sums, cross)
        rest = [(0, 1, 1, 2, 3, 1), (2, 3, 3, 4, 0, 3)]
        with_x = make_dataset(tam_cmm_spec, [column + (x,) for column, x in zip(rest, (1, 4))])
        with_y = make_dataset(tam_cmm_spec, [column + (y,) for column, y in zip(rest, (5, 5))])
        assert with_x.without_row(6) == with_y.without_row(6)
        first = bits(lambda: one_sample_test(with_x, row_id="r6"))
        second = bits(lambda: one_sample_test(with_y, row_id="r6"))
        assert first == bits(lambda: reference_one_sample(with_x, 6))
        assert second == bits(lambda: reference_one_sample(with_y, 6))
        (remaining_x, own_x), (remaining_y, own_y) = first[6], second[6]  # the indices
        assert remaining_x == remaining_y and own_x != own_y

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_two_industries_under_one_spec(self, data):
        spec = draw_spec(data, 4)  # few stages, so rows share stage tuples
        assert_kept_tests_match_reference([draw_dataset(data, spec, 25), draw_dataset(data, spec, 25)])

    def test_repeated_calls_raise_the_same_refusal(self, single_model_spec, tam_cmm_spec):
        peak = 2**31
        with pytest.raises(InputError) as info:  # refused when built, so no test runs on it
            make_dataset(StudySpec([ModelSpec("M", peak)]), [(peak, 1, 2, 3)])
        assert str(info.value) == f"stages up to {peak} over 4 rows overflow exact int64 moments"
        cases = [
            (make_dataset(single_model_spec, [(1, 2, 3)]), "r0",
             InsufficientDf, "excluding row 'r0' leaves df=0; need at least 1"),
            (make_dataset(tam_cmm_spec, [(3, 3, 3, 3, 5), (0, 5, 2, 3, 1)]), "r4",
             DegenerateVariance, "model 'TAM' has zero sample variance; the index variance is undefined"),
            (make_dataset(tam_cmm_spec, [(0, 5, 2, 3, 1), (5, 0, 3, 2, 4)]), "r0", DegenerateVariance,
             "the weighted stage combination is constant across the remaining rows"),
        ]
        for ds, row_id, error, message in cases:
            for _ in range(3):  # cold, then warm
                assert bits(lambda: one_sample_test(ds, row_id=row_id)) == (error, message)


def many_tuples_industry():
    """3,000 rows of three 13-stage models (2,197 stage tuples), drawn so that 1,645
    rows, and 1,067 of the first 1,500, have stages no earlier row has."""
    spec = StudySpec([ModelSpec("A", 12), ModelSpec("B", 12, alpha=0.5, beta=2.0), ModelSpec("C", 12, alpha=2.0)])
    return make_dataset(spec, np.random.default_rng(5).integers(0, 13, (3, 3000)))


class TestKeptTuplesBound:
    def test_tuples_past_the_bound_are_tested_but_not_kept(self):
        ds = many_tuples_industry()
        assert len(set(map(tuple, ds.values.tolist()))) > _LEFT_OUT_BOUND
        expected = [bits(lambda: reference_one_sample(ds, position)) for position in range(ds.n)]
        for _ in range(2):  # the second pass finds the first tuples kept, and computes the rest again
            assert [bits(lambda: one_sample_test(ds, row_id=row_id)) for row_id in ds.row_ids] == expected
            assert kept_tuples(ds) == _LEFT_OUT_BOUND

    def test_memory_does_not_grow_with_rows_past_the_bound(self):
        ds = many_tuples_industry()
        for row_id in ds.row_ids[:ds.n // 2]:  # already more tuples than the bound
            one_sample_test(ds, row_id=row_id)
        assert kept_tuples(ds) == _LEFT_OUT_BOUND
        tracemalloc.start()
        try:
            for row_id in ds.row_ids[ds.n // 2:]:  # 578 more tuples, which would keep 1.6 MB
                one_sample_test(ds, row_id=row_id)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 256 * 1024  # what the interpreter's free lists hold

    def test_threads_sharing_a_dataset_get_the_same_outcomes(self):
        ds = many_tuples_industry()
        expected = [bits(lambda: one_sample_test(fresh(ds), row_id=row_id)) for row_id in ds.row_ids]
        threads = 4  # more than cores; a thread switch between a check and a write leaves both
        results = [None] * threads

        def scan(i):
            order = ds.row_ids[i * 750:] + ds.row_ids[:i * 750]  # each starts at another row
            results[i] = dict(zip(order, (bits(lambda: one_sample_test(ds, row_id=r)) for r in order)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=scan, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for result in results:
            assert [result[row_id] for row_id in ds.row_ids] == expected
        # racing threads may each add a tuple after reading the memo one short of the bound
        assert _LEFT_OUT_BOUND <= kept_tuples(ds) < _LEFT_OUT_BOUND + threads


class TestTwoSample:
    def test_an_invalid_sidedness_is_refused_before_the_data_are_judged(self):
        ds = sidedness_refusal_dataset()
        with pytest.raises(InputError, match="sidedness must be one of .*, got 'bogus'") as info:
            two_sample_test(ds, ds, sidedness="bogus")
        assert not isinstance(info.value, StatisticalRefusal)
        with pytest.raises(DegenerateVariance):
            two_sample_test(ds, ds)

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

    def test_constant_indices_are_refused(self):
        # B = 5 - A in both industries, so each index is constant
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)])
        ds_a = make_dataset(spec, [(1, 2, 3, 5), (4, 3, 2, 0)])
        ds_b = make_dataset(spec, [(0, 4, 2, 3, 1), (5, 1, 3, 2, 4)])
        with pytest.raises(DegenerateVariance) as info:
            two_sample_test(ds_a, ds_b)
        assert str(info.value) == (
            "both weighted stage combinations are constant; no variance to test against"
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_df_lies_between_the_smaller_sample_and_the_pooled_one(self, data):
        # Welch-Satterthwaite df lie in [min(nA, nB) - k, nA + nB - 2k] for any variances
        spec = draw_spec(data, 6)
        k = spec.k
        # each column is one draw of n bytes, each read modulo m + 1
        ds_a, ds_b = (
            make_dataset(spec, [[b % (m + 1) for b in data.draw(st.binary(min_size=n, max_size=n))]
                                for m in spec.stage_maxima])
            for n in (data.draw(st.integers(k + 2, 60)), data.draw(st.integers(k + 2, 60)))
        )
        try:
            outcome = two_sample_test(ds_a, ds_b)
        except StatisticalRefusal:
            return
        n_a, n_b = ds_a.n, ds_b.n
        assert (min(n_a, n_b) - k) * (1 - 1e-12) <= outcome.df <= (n_a + n_b - 2 * k) * (1 + 1e-12)

    def test_only_judged_variances_and_sizes_above_k_reach_the_df(self, monkeypatch, tam_cmm_spec):
        # _welch checks neither: the datasets and _psd_sum guarantee both before it
        calls = record_welch_calls(monkeypatch, inference)
        rng = np.random.default_rng(7)
        for sizes in [(3, 3), (3, 40), (25, 9)]:
            two_sample_test(*(make_dataset(tam_cmm_spec, rng.integers(0, 6, size=(2, n)))
                              for n in sizes))
        assert [call[1] for call in calls] == [(3, 3), (3, 40), (25, 9)]
        assert_welch_inputs_judged(calls)

    def test_infinite_index_variance_is_refused_before_the_df(self):
        spec = StudySpec([ModelSpec("A", 5, beta=1e200), ModelSpec("B", 5)])
        columns = [(2, 3, 3, 2, 3, 2), (2, 4, 1, 2, 3, 5)]
        with pytest.raises(DegenerateVariance) as info:
            two_sample_test(make_dataset(spec, columns), make_dataset(spec, columns))
        assert str(info.value) == "the index variance is not finite in floating point, got inf"

    def test_statistic_sign_swaps_with_order(self, tam_cmm_spec):
        ds_a = make_dataset(tam_cmm_spec, [(2, 5, 3, 4, 5), (3, 5, 4, 5, 2)])
        ds_b = make_dataset(tam_cmm_spec, [(0, 1, 2, 0, 1), (1, 0, 2, 1, 0)])
        ab = two_sample_test(ds_a, ds_b)
        ba = two_sample_test(ds_b, ds_a)
        assert ab.statistic == pytest.approx(-ba.statistic, rel=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, rel=1e-12)


class TestConfidenceInterval:
    def _index(self, value=0.5):
        return IndexValue(sub_indices=(value,), value=value)

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

    def test_the_level_is_judged_before_the_df(self):
        # the df is judged once, by student_t_quantile, with the message it always had
        with pytest.raises(InvalidLevel, match=r"confidence level must lie in \(0, 1\), got 1.2"):
            confidence_interval(self._index(), self._variance(1e-4), 1.2, 0.0)
        with pytest.raises(InvalidDf, match="degrees of freedom must be positive and finite, got nan"):
            confidence_interval(self._index(), self._variance(1e-4), 0.9, math.nan)

    def test_level_and_df_must_be_numbers(self):
        with pytest.raises(InvalidLevel, match="must be a number, got '0.95'"):
            confidence_interval(self._index(), self._variance(1e-4), "0.95", True)
        with pytest.raises(InvalidDf, match="must be a number, got True"):
            confidence_interval(self._index(), self._variance(1e-4), 0.95, True)
