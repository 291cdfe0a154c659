import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from adoptindex import (
    ModelSpec,
    PmfSpec,
    SimulationPlan,
    StudySpec,
    delta_gradient,
    estimate_moments,
    global_index,
    index_variance,
    latent_cross_covariance,
    population_asymptotic_variance,
    run_study,
    sample_dataset,
    true_index,
)
from adoptindex import inference, simulation, tdist
from adoptindex.domain import _exact_sums
from adoptindex.errors import DegenerateVariance, InputError, SpecMismatch, StatisticalRefusal
from adoptindex.estimation import MomentEstimate, _from_sums
from conftest import (assert_same_moments, assert_welch_inputs_judged, hexes, record_welch_calls,
                      reference_moments, sample_sums)

UNIFORM6 = (1 / 6,) * 6
# dyadic, so the cumulative sums are exact and an empty end stage gives a threshold at +-inf
ZERO_FIRST = (0.0, 0.25, 0.125, 0.375, 0.25)
ZERO_LAST = (0.125, 0.375, 0.5, 0.0)
UNEVEN = (0.1, 0.15, 0.25, 0.3, 0.2)
UNEVEN_SHORT = (0.05, 0.45, 0.2, 0.3)


@pytest.fixture
def linear_pair():
    spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)])
    pmf = PmfSpec([UNIFORM6, UNIFORM6])
    return spec, pmf


class TestTrueIndex:
    def test_degenerate_pmf(self, single_model_spec):
        pmf = PmfSpec([(0, 0, 0, 1.0, 0, 0)])
        truth = true_index(pmf, single_model_spec)
        assert truth.scores == (3.0,)
        assert truth.variances == (0.0,)

    def test_uniform_moments(self, single_model_spec):
        truth = true_index(PmfSpec([UNIFORM6]), single_model_spec)
        assert truth.scores[0] == pytest.approx(2.5, rel=1e-15)
        assert truth.variances[0] == pytest.approx(35 / 12, rel=1e-12)

    def test_two_point_moments(self, single_model_spec):
        truth = true_index(PmfSpec([(0.5, 0, 0, 0, 0, 0.5)]), single_model_spec)
        assert truth.scores == (2.5,)
        assert truth.variances[0] == pytest.approx(6.25, rel=1e-15)

    def test_arity_checked(self, tam_cmm_spec):
        with pytest.raises(SpecMismatch):
            true_index(PmfSpec([UNIFORM6]), tam_cmm_spec)


class TestSampleDataset:
    def test_degenerate_pmf_fixes_every_cell(self, single_model_spec):
        pmf = PmfSpec([(0, 0, 0, 0, 1.0, 0)])
        ds = sample_dataset(pmf, single_model_spec, 50, seed=3)
        assert np.all(ds.values == 4)

    def test_same_seed_bit_identical(self, linear_pair):
        spec, pmf = linear_pair
        a = sample_dataset(pmf, spec, 200, seed=99)
        b = sample_dataset(pmf, spec, 200, seed=99)
        assert np.array_equal(a.values, b.values)
        assert a.row_ids == b.row_ids

    def test_different_seeds_differ(self, linear_pair):
        spec, pmf = linear_pair
        a = sample_dataset(pmf, spec, 200, seed=1)
        b = sample_dataset(pmf, spec, 200, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_law_of_large_numbers(self, single_model_spec):
        ds = sample_dataset(PmfSpec([UNIFORM6]), single_model_spec, 100_000, seed=11)
        assert abs(estimate_moments(ds).scores.scores[0] - 2.5) <= 0.02

    def test_zero_latent_correlation_keeps_columns_independent(self, linear_pair):
        spec, _ = linear_pair
        pmf = PmfSpec([UNIFORM6, UNIFORM6], latent_correlation=np.eye(2))
        ds = sample_dataset(pmf, spec, 60_000, seed=21)
        sample_corr = np.corrcoef(ds.values.T)[0, 1]
        assert abs(sample_corr) < 0.02

    def test_latent_correlation_induces_dependence(self, linear_pair):
        spec, _ = linear_pair
        pmf = PmfSpec([UNIFORM6, UNIFORM6], latent_correlation=[[1, 0.8], [0.8, 1]])
        ds = sample_dataset(pmf, spec, 20_000, seed=22)
        assert np.corrcoef(ds.values.T)[0, 1] > 0.5

    def test_marginals_converge_to_the_pmf(self, single_model_spec):
        probs = (0.05, 0.1, 0.4, 0.25, 0.15, 0.05)
        ds = sample_dataset(PmfSpec([probs]), single_model_spec, 120_000, seed=5)
        freq = np.bincount(ds.values[:, 0], minlength=6) / ds.n
        assert np.max(np.abs(freq - np.asarray(probs))) < 0.01

    def test_copula_cut_points_match_scipy_in_both_tails(self):
        # cumulative stage probabilities 0, 1e-9, 0.5 and 1 - 1e-9
        tails = (0.0, 1e-9, 0.5 - 1e-9, 0.5 - 1e-9, 1e-9)
        pmf = PmfSpec([tails, tails[::-1]], latent_correlation=[[1, 0.3], [0.3, 1]])
        _, cuts = simulation._sampler(pmf)
        for probs, cut in zip(pmf.pmfs, cuts):
            expected = stats.norm.ppf(simulation._cumulative(probs)[:-1])
            np.testing.assert_allclose(cut, expected, rtol=1e-14, atol=0)


class TestLatentCrossCovariance:
    def test_matches_a_large_probe_sample(self, linear_pair):
        spec, _ = linear_pair
        pmf = PmfSpec(
            [(0.1, 0.15, 0.25, 0.25, 0.15, 0.1), (0.05, 0.15, 0.2, 0.3, 0.2, 0.1)],
            latent_correlation=[[1, 0.6], [0.6, 1]],
        )
        exact = latent_cross_covariance(pmf, spec, 0, 1)
        ds = sample_dataset(pmf, spec, 400_000, seed=7)
        probe = float(np.cov(ds.values.T, ddof=1)[0, 1])
        assert exact == pytest.approx(probe, abs=0.02)

    def test_induced_correlation_is_below_the_latent_value(self, linear_pair):
        # discretization attenuates dependence, so assuming the latent
        # value would overstate the ordinal correlation
        spec, _ = linear_pair
        pmf = PmfSpec([UNIFORM6, UNIFORM6], latent_correlation=[[1, 0.6], [0.6, 1]])
        cov = latent_cross_covariance(pmf, spec, 0, 1)
        truth = true_index(pmf, spec)
        induced_rho = cov / math.sqrt(truth.variances[0] * truth.variances[1])
        assert 0.0 < induced_rho < 0.6

    def test_zero_without_latent_matrix(self, linear_pair):
        spec, pmf = linear_pair
        assert latent_cross_covariance(pmf, spec, 0, 1) == 0.0

    @pytest.mark.parametrize("latent", [None, [[1, 0.6], [0.6, 1]]], ids=["independent", "copula"])
    @pytest.mark.parametrize(
        "j,l,named",
        [(7, 9, "j"), (-1, 0, "j"), (0, 2, "l"), (0.0, 1, "j"), (True, 0, "j"), (0, "1", "l"),
         (np.int64(0), 1, "j")],
        ids=["past-k", "negative", "l-equals-k", "float", "bool", "string", "numpy-int"],
    )
    def test_model_positions_are_ints_below_k(self, latent, j, l, named):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)])
        pmf = PmfSpec([UNIFORM6, UNIFORM6], latent_correlation=latent)
        with pytest.raises(InputError, match=f"^{named} must be "):
            latent_cross_covariance(pmf, spec, j, l)

    def test_zero_latent_correlation_gives_exactly_zero(self):
        # the orthant sum would leave about -2.7e-15 on these pmfs
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("C", 4, alpha=0.5, beta=1)])
        pmf = PmfSpec([[0.1, 0.15, 0.25, 0.25, 0.15, 0.1], [0.1, 0.2, 0.3, 0.2, 0.2]],
                      latent_correlation=[[1, 0], [0, 1]])
        assert latent_cross_covariance(pmf, spec, 0, 1) == 0.0

    @pytest.mark.parametrize("rho", [0.6, -0.35])
    @pytest.mark.parametrize(
        "pmfs",
        [(ZERO_FIRST, ZERO_LAST), (ZERO_LAST, ZERO_FIRST), (ZERO_FIRST, ZERO_FIRST)],
        ids=["first-last", "last-first", "first-first"],
    )
    def test_empty_end_stages_match_bivariate_normal_rectangles(self, pmfs, rho):
        # an empty first or last stage puts a latent threshold at -inf or +inf
        spec = StudySpec([ModelSpec("A", len(pmfs[0]) - 1), ModelSpec("B", len(pmfs[1]) - 1)])
        pmf = PmfSpec(pmfs, latent_correlation=[[1, rho], [rho, 1]])
        latent = stats.multivariate_normal([0, 0], [[1, rho], [rho, 1]])
        cuts = [np.concatenate([[-np.inf], stats.norm.ppf(np.cumsum(p)[:-1]), [np.inf]])
                for p in pmfs]
        cross_moment = 0.0
        for a in range(1, len(pmfs[0])):
            for b in range(1, len(pmfs[1])):
                if pmfs[0][a] and pmfs[1][b]:
                    rectangle = latent.cdf(
                        [cuts[0][a + 1], cuts[1][b + 1]], lower_limit=[cuts[0][a], cuts[1][b]]
                    )
                    cross_moment += a * b * rectangle
        scores = true_index(pmf, spec).scores
        exact = cross_moment - scores[0] * scores[1]
        assert latent_cross_covariance(pmf, spec, 0, 1) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("rho", [1.0, -1.0], ids=["comonotone", "countermonotone"])
    @pytest.mark.parametrize("pmfs", [(UNEVEN, UNEVEN_SHORT), (ZERO_FIRST, ZERO_LAST)],
                             ids=["uneven", "empty-end-stages"])
    def test_perfect_latent_correlation_is_the_monotone_coupling(self, pmfs, rho):
        # at rho = +-1 the stages are Q_A(U) and Q_B(U) or Q_B(1 - U) for one uniform U
        spec = StudySpec([ModelSpec("A", len(pmfs[0]) - 1), ModelSpec("B", len(pmfs[1]) - 1)])
        pmf = PmfSpec(pmfs, latent_correlation=[[1, rho], [rho, 1]])
        cums = [simulation._cumulative(p) for p in pmfs]
        ends = np.unique(np.concatenate([[0.0], *cums, *(1.0 - c for c in cums)]))
        u = (ends[:-1] + ends[1:]) / 2
        a, b = np.searchsorted(cums[0], u), np.searchsorted(cums[1], u if rho > 0 else 1.0 - u)
        scores = true_index(pmf, spec).scores
        exact = float(np.sum(a * b * np.diff(ends))) - scores[0] * scores[1]
        assert latent_cross_covariance(pmf, spec, 0, 1) == pytest.approx(exact, abs=1e-15)


def reference_bvn_lower(h, k, rho):
    """``_bvn_lower``'s Simpson rule for finite limits and |rho| < 1, one node at a time."""
    upper = math.asin(rho)
    width = upper / 256
    sines = [math.sin(t) for t in (0.0, upper, *(i * width for i in range(1, 256)))]
    terms = [math.exp(-(h * h + k * k - 2.0 * h * k * s) / (2.0 * (1.0 - s * s))) for s in sines]
    acc = terms[0] + terms[1]
    for i, term in enumerate(terms[2:], 1):
        acc += (4.0 if i % 2 else 2.0) * term
    return simulation._norm_cdf(h) * simulation._norm_cdf(k) + acc * width / 3.0 / (2.0 * math.pi)


@settings(max_examples=300, deadline=None)
@given(h=st.floats(-8, 8), k=st.floats(-8, 8), rho=st.floats(-0.999, 0.999))
def test_bvn_lower_is_bitwise_its_node_by_node_rule(h, k, rho):
    got = simulation._bvn_lower(h, k, rho, simulation._simpson_nodes(rho))
    assert type(got) is float  # no numpy scalar reaches a study's metrics
    assert got.hex() == reference_bvn_lower(h, k, rho).hex()


class TestPlanValidation:
    def test_study_name_checked(self, linear_pair):
        spec, pmf = linear_pair
        with pytest.raises(InputError):
            SimulationPlan(pmf=pmf, spec=spec, n=100, replications=10, seed=1, study="nope")

    def test_sample_size_checked(self, linear_pair):
        spec, pmf = linear_pair
        with pytest.raises(InputError):
            SimulationPlan(pmf=pmf, spec=spec, n=2, replications=10, seed=1, study="coverage")

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
    def test_seed_checked(self, linear_pair, seed):
        spec, pmf = linear_pair
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            SimulationPlan(pmf=pmf, spec=spec, n=100, replications=10, seed=seed, study="coverage")

    @pytest.mark.parametrize(
        "field, value",
        [("n", 100.0), ("n", "100"), ("replications", 5.0), ("replications", True),
         ("replications", 0)],
    )
    def test_counts_must_be_integers(self, linear_pair, field, value):
        spec, pmf = linear_pair
        fields = dict(n=100, replications=10, seed=1) | {field: value}
        with pytest.raises(InputError, match=f"{field} must be an integer >= "):
            SimulationPlan(pmf=pmf, spec=spec, study="coverage", **fields)

    @pytest.mark.parametrize("n", [2, 3.0])
    def test_size_study_needs_an_integer_n_above_k(self, linear_pair, n):
        # the Welch df divide by n - k, and _welch takes the plan's n on trust
        spec, pmf = linear_pair
        with pytest.raises(InputError) as info:
            SimulationPlan(pmf=pmf, spec=spec, n=n, replications=10, seed=1, study="size")
        assert str(info.value) == f"n must be an integer >= 3, got {n!r}"

    def test_replications_past_2_to_the_32_are_refused(self, linear_pair, monkeypatch):
        # replication r seeds from spawn-key word r, which numpy splits in two past 32 bits
        spec, pmf = linear_pair

        def no_draws(*args):
            raise AssertionError("the plan drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        monkeypatch.setattr(simulation, "_stream_words", no_draws)
        fields = dict(pmf=pmf, spec=spec, n=100, seed=1, study="coverage")
        assert SimulationPlan(replications=2**32, **fields).replications == 2**32
        with pytest.raises(InputError, match=r"replications must be at most 2\^32 = 4294967296, "
                                             r"got 4294967297"):
            SimulationPlan(replications=2**32 + 1, **fields)

    def test_samples_whose_sums_could_wrap_int64_are_refused_when_planned(self, monkeypatch):
        # n * m^2 must stay below 2^63: with m = 2, n = 2^62 reaches it and 2^61 - 1 does not
        spec, pmf = StudySpec([ModelSpec("A", 2)]), PmfSpec([(0.25, 0.5, 0.25)])

        def no_draws(*args):
            raise AssertionError("the plan drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        fields = dict(pmf=pmf, spec=spec, replications=10, seed=1, study="coverage")
        assert SimulationPlan(n=2**61 - 1, **fields).n == 2**61 - 1
        with pytest.raises(InputError) as info:
            SimulationPlan(n=2**62, **fields)
        assert str(info.value) == f"stages up to 2 over {2**62} rows overflow exact int64 moments"

    @pytest.mark.parametrize("study", ["normality", "coverage", "variance-ratio"])
    def test_alternative_pmf_only_for_the_size_study(self, linear_pair, study):
        spec, pmf = linear_pair
        with pytest.raises(InputError, match="pmf_alternative is for the size study"):
            SimulationPlan(pmf=pmf, spec=spec, n=100, replications=10, seed=1, study=study,
                           pmf_alternative=pmf)

    def test_pmf_alignment_checked(self, single_model_spec):
        with pytest.raises(SpecMismatch):
            SimulationPlan(
                pmf=PmfSpec([UNIFORM6, UNIFORM6]),
                spec=single_model_spec,
                n=100,
                replications=10,
                seed=1,
                study="coverage",
            )


COUNT_SPEC = StudySpec([ModelSpec("A", 2), ModelSpec("B", 2)])
COUNT_PMF = PmfSpec([(0.2, 0.3, 0.5)] * 2)
# each entry point's count, its floor, and a call that passes it the value
COUNTS = {
    "ModelSpec-m": (1, lambda v: ModelSpec("M", v)),
    "SimulationPlan-n": (3, lambda v: SimulationPlan(
        pmf=COUNT_PMF, spec=COUNT_SPEC, n=v, replications=10, seed=1, study="coverage")),
    "sample_dataset-n": (3, lambda v: sample_dataset(COUNT_PMF, COUNT_SPEC, v, seed=1)),
    "sample_dataset-seed": (0, lambda v: sample_dataset(COUNT_PMF, COUNT_SPEC, 10, seed=v)),
}
BELOW_FLOOR = object()


@pytest.mark.parametrize(
    "value", [10.0, 10.5, "10", None, True, np.int64(10), BELOW_FLOOR],
    ids=["float", "fraction", "string", "none", "bool", "numpy-int", "below-floor"],
)
@pytest.mark.parametrize("entry", COUNTS)
def test_counts_share_one_integer_rule(entry, value):
    low, call = COUNTS[entry]
    value = low - 1 if value is BELOW_FLOOR else value
    with pytest.raises(InputError, match=re.escape(f"must be an integer >= {low}, got {value!r}")):
        call(value)
    call(low)


class TestRunStudy:
    def test_size_study_passes_judged_variances_and_sizes_above_k(self, linear_pair, monkeypatch):
        # each replication's Welch df come from _psd_sum's variances and the plan's n
        calls = record_welch_calls(monkeypatch, simulation)
        spec, pmf = linear_pair
        run_study(SimulationPlan(pmf=pmf, spec=spec, n=3, replications=50, seed=1, study="size"))
        assert_welch_inputs_judged(calls)

    def test_degenerate_pmf_refused(self, single_model_spec):
        plan = SimulationPlan(
            pmf=PmfSpec([(0, 0, 0, 1.0, 0, 0)]),
            spec=single_model_spec,
            n=100,
            replications=10,
            seed=1,
            study="coverage",
        )
        with pytest.raises(DegenerateVariance):
            run_study(plan)

    def test_study_refusing_every_replication_raises_the_refusal(self, single_model_spec):
        # two rows from a pmf this concentrated are equal, so every variance is zero
        pmf = PmfSpec([(1 - 1e-12, 0, 0, 0, 0, 1e-12)])
        plan = SimulationPlan(
            pmf=pmf, spec=single_model_spec, n=2, replications=20, seed=1, study="variance-ratio"
        )
        with pytest.raises(DegenerateVariance, match="model 'M' has zero sample variance"):
            run_study(plan)

    @pytest.mark.parametrize("study", ["normality", "variance-ratio"])
    def test_zero_population_variance_refused_before_drawing(self, monkeypatch, study):
        # B = 3 - A: the population variance rounds to about -1e-16 and reads as zero
        pmf, spec = STUDY_PLANS["antithetic"]["pmf"], STUDY_PLANS["antithetic"]["spec"]
        assert population_asymptotic_variance(pmf, spec) == 0.0

        def no_draws(*args):
            raise AssertionError("the study drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        plan = SimulationPlan(pmf=pmf, spec=spec, n=20, replications=30, seed=3, study=study)
        with pytest.raises(DegenerateVariance, match=f"variance is zero .* the {study} study"):
            run_study(plan)

    def test_reports_are_reproducible(self, linear_pair):
        spec, pmf = linear_pair
        plan = SimulationPlan(
            pmf=pmf, spec=spec, n=50, replications=200, seed=31, study="coverage"
        )
        assert run_study(plan) == run_study(plan)

    @pytest.mark.parametrize("pmf,n,seed", [((0.5, 0.5), 2, 1), ((0, 2 / 3, 1 / 3), 20, 0)])
    def test_variance_ratio_refuses_a_zero_empirical_variance(self, pmf, n, seed):
        # every accepted replication gives the same index, so their variance is zero
        spec = StudySpec([ModelSpec("A", len(pmf) - 1)])
        plan = SimulationPlan(pmf=PmfSpec([pmf]), spec=spec, n=n, replications=2, seed=seed,
                              study="variance-ratio")
        with pytest.raises(DegenerateVariance) as info:
            run_study(plan)
        assert str(info.value) == ("every accepted replication gave the same index; "
                                   "the variance-ratio study divides by their variance")

    def test_single_replication_runs(self, linear_pair):
        spec, pmf = linear_pair
        plan = SimulationPlan(
            pmf=pmf, spec=spec, n=50, replications=1, seed=8, study="variance-ratio"
        )
        report = run_study(plan)
        assert report.replications == 1
        assert math.isfinite(report.metrics["ratio_vs_population"])

    def test_nonlinear_variance_formula_matches_monte_carlo(self):
        # with alpha=1, beta=2 the implemented per-model term is
        # sigma^2 D^2 / n; a variant with an extra 1/m^2 factor would
        # miss the Monte Carlo variance by the factor m^2 = 25
        spec = StudySpec([ModelSpec("M", 5, alpha=1.0, beta=2.0)])
        pmf = PmfSpec([(0.1, 0.15, 0.25, 0.25, 0.15, 0.1)])
        plan = SimulationPlan(
            pmf=pmf, spec=spec, n=500, replications=10_000, seed=31415,
            study="variance-ratio",
        )
        report = run_study(plan)
        avar = report.metrics["population_asymptotic_variance"]
        empirical = report.metrics["empirical_index_variance"] * plan.n
        assert 0.95 <= empirical / avar <= 1.05
        literal_variant = avar / 25.0
        assert 0.95 * 25 <= empirical / literal_variant <= 1.05 * 25

    def test_cross_term_validated_under_dependence(self):
        # the population asymptotic variance includes the copula-induced
        # cross covariance; the Monte Carlo must agree with it
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)])
        pmf = PmfSpec(
            [(0.1, 0.15, 0.25, 0.25, 0.15, 0.1), (0.05, 0.15, 0.2, 0.3, 0.2, 0.1)],
            latent_correlation=[[1, 0.6], [0.6, 1]],
        )
        plan = SimulationPlan(
            pmf=pmf, spec=spec, n=400, replications=4000, seed=271828,
            study="variance-ratio",
        )
        report = run_study(plan)
        assert 0.93 <= report.metrics["ratio_vs_population"] <= 1.07
        cross = latent_cross_covariance(pmf, spec, 0, 1)
        independent_avar = population_asymptotic_variance(
            PmfSpec(pmf.pmfs), spec
        )
        assert report.metrics["population_asymptotic_variance"] == pytest.approx(
            independent_avar + 2 * 0.25 * 0.2 * 0.2 * cross, rel=1e-12
        )


NONLINEAR_SPEC = StudySpec(
    [ModelSpec("A", 5, alpha=1.0, beta=2.0), ModelSpec("B", 5, alpha=2.0, beta=1.0)]
)
NONLINEAR_PMFS = [(0.1, 0.15, 0.25, 0.25, 0.15, 0.1), (0.05, 0.15, 0.2, 0.3, 0.2, 0.1)]

# Recorded at R = 200, n = 60, seed 20260808 from the implementation that
# built and validated a dataset per replication and used np.cov. Counts and
# every metric that depends only on the draws and the scores are pinned bit
# for bit; the three covariance-dependent variance-ratio metrics moved by a
# few ulps when moments switched to exact integer numerators, so they are
# held to 1e-12 relative.
STREAM_CASES = {
    "normality": (
        PmfSpec(NONLINEAR_PMFS), NONLINEAR_SPEC, None,
        {
            "mean": "0x1.1ed727857751bp-4",
            "variance": "0x1.99b38f14e5212p-1",
            "skewness": "-0x1.3170f72e36b23p-3",
            "excess_kurtosis": "0x1.d469645d5d870p-3",
            "se_mean": "0x1.0315fa4516c5ep-4",
            "population_asymptotic_variance": "0x1.921f8c5a55379p-4",
        },
        {},
    ),
    "coverage": (
        PmfSpec(NONLINEAR_PMFS), NONLINEAR_SPEC, ("coverage_rate", 194),
        {
            "coverage_rate": "0x1.f0a3d70a3d70ap-1",
            "se_coverage_rate": "0x1.8b4239c98f718p-7",
            "true_index": "0x1.c234f72c234f7p-2",
        },
        {},
    ),
    "size": (
        PmfSpec([UNIFORM6, UNIFORM6]), StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)]),
        ("rejection_rate", 7),
        {
            "rejection_rate": "0x1.1eb851eb851ecp-5",
            "se_rejection_rate": "0x1.a9d39112d5b01p-7",
        },
        {},
    ),
    "variance-ratio": (
        PmfSpec(NONLINEAR_PMFS, latent_correlation=[[1, 0.5], [0.5, 1]]), NONLINEAR_SPEC, None,
        {
            "empirical_index_variance": "0x1.06bca385f6847p-9",
            "population_asymptotic_variance": "0x1.0f2fb967a3b2fp-3",
        },
        {
            "mean_estimated_variance": "0x1.150d07e8f117cp-9",
            "ratio_vs_empirical": "0x1.0df26ed7dbf0fp+0",
            "ratio_vs_population": "0x1.ea61501e6c7b7p-1",
        },
    ),
}


@pytest.mark.parametrize("study", sorted(STREAM_CASES))
def test_sampler_streams_are_stable(study):
    pmf, spec, count, exact, close = STREAM_CASES[study]
    plan = SimulationPlan(pmf=pmf, spec=spec, n=60, replications=200, seed=20260808, study=study)
    metrics = run_study(plan).metrics
    if count is not None:
        name, expected = count
        assert round(metrics[name] * plan.replications) == expected
    assert {k: float(metrics[k]).hex() for k in exact} == exact
    for k, value in close.items():
        assert metrics[k] == pytest.approx(float.fromhex(value), rel=1e-12)


@pytest.mark.parametrize("study", sorted(STREAM_CASES))
def test_studies_seed_without_numpy_seed_sequences(monkeypatch, study):
    # the studies' streams must come from _stream_words, not from a fallback to spawn:
    # default_rng is refused, and the one SeedSequence each block builds only lends its pool
    def refuse(*args, **kwargs):
        raise AssertionError("a study seeded through default_rng")

    built, blocks = [], []
    seed_sequence, stream_words = np.random.SeedSequence, simulation._stream_words

    def counted_seed_sequence(*args, **kwargs):
        built.append((args, kwargs))
        return seed_sequence(*args, **kwargs)

    def counted_stream_words(*args):
        blocks.append(args)
        return stream_words(*args)

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
    monkeypatch.setattr(simulation, "_stream_words", counted_stream_words)
    test_sampler_streams_are_stable(study)
    assert blocks and built == [((seed,), {}) for seed, _, _ in blocks]


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1])
def test_stream_states_match_numpy(seed, samples):
    # seeds of one to five 32-bit words; a block larger than a study hashes at once
    replications = range(2, 2 + 600)
    words = simulation._stream_words(seed, replications, samples)
    assert words.shape == (len(replications), samples, 4) and words.dtype == np.uint64
    # from these words on, PCG64 seeds itself as default_rng would
    for position in (0, 1, 299, 599):
        r = replications[position]
        for i in range(samples):
            key = (r,) if samples == 1 else (r, i)
            want = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert words[position, i].tolist() == want.tolist()


def test_stream_keys_past_32_bits_are_refused():
    # numpy would split such a key into two words, which this hash does not do
    with pytest.raises(ValueError, match="below 2\\^32"):
        simulation._stream_words(0, range(2**32 - 1, 2**32 + 1), 1)
    assert simulation._stream_words(0, range(2**32 - 1, 2**32), 1).shape == (1, 1, 4)


# three models with unequal m; the second has an empty stage 0
CHUNK_SPEC = StudySpec([ModelSpec("A", 5), ModelSpec("B", 3, alpha=2.0), ModelSpec("C", 7)])
CHUNK_PMFS = [NONLINEAR_PMFS[0], (0.0, 0.2, 0.3, 0.5), (0.05, 0.1, 0.15, 0.2, 0.2, 0.15, 0.1, 0.05)]
CHUNK_CORRELATION = [[1, 0.5, 0.2], [0.5, 1, -0.3], [0.2, -0.3, 1]]
# spec, pmfs and latent correlation per model set: one model goes through numpy's
# matrix-vector product, and a second model past m = 255 needs stage counts wider than uint8
CHUNK_MODELS = {
    "three": (CHUNK_SPEC, CHUNK_PMFS, CHUNK_CORRELATION),
    "one": (StudySpec([ModelSpec("C", 7)]), CHUNK_PMFS[2:], [[1]]),
    "two": (StudySpec([ModelSpec("A", 5), ModelSpec("B", 3, alpha=2.0)]), CHUNK_PMFS[:2],
            [[1, -0.6], [-0.6, 1]]),
    "wide": (StudySpec([ModelSpec("B", 3, alpha=2.0), ModelSpec("W", 300)]),
             [CHUNK_PMFS[1], (1 / 301,) * 301], [[1, 0.4], [0.4, 1]]),
}


def reference_stages(pmf: PmfSpec, n: int, seed) -> np.ndarray:
    """One sample drawn on its own: the documented stream, then searchsorted."""
    rng = np.random.default_rng(seed)
    cums = [simulation._cumulative(p) for p in pmf.pmfs]
    if pmf.latent_correlation is None:
        variates = rng.random((n, pmf.k))
    else:
        variates = rng.standard_normal((n, pmf.k)) @ simulation._psd_transform(pmf.latent_correlation).T
        cums = [stats.norm.ppf(cum) for cum in cums]
    return np.stack(
        [np.searchsorted(cum, variates[:, j], side="left") for j, cum in enumerate(cums)], axis=1
    )


@pytest.mark.parametrize("models, seed", [("three", 0), ("three", 2**32), ("three", 2**64 + 3),
                                          ("one", 2**32), ("two", 0), ("wide", 2**64 + 3)])
@pytest.mark.parametrize("copula", [False, True], ids=["independent", "copula"])
@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("shape", ["one-replication", "one-full-chunk", "one-chunk-plus-one",
                                   "one-replication-per-chunk", "one-seeding-block-plus-one"])
def test_chunked_draws_match_per_replication_reference(models, copula, samples, shape, seed):
    spec, pmfs, correlation = CHUNK_MODELS[models]
    # 18000 cells are more than one chunk holds
    n = 18000 // spec.k if shape == "one-replication-per-chunk" else 200
    pmf = PmfSpec(pmfs, latent_correlation=correlation if copula else None)
    per_chunk = simulation._CHUNK_CELLS // (n * spec.k)
    per_block = simulation._SEED_BLOCK - simulation._SEED_BLOCK % max(1, per_chunk)  # whole chunks
    replications = {"one-replication": 1, "one-full-chunk": per_chunk,
                    "one-chunk-plus-one": per_chunk + 1, "one-replication-per-chunk": 2,
                    "one-seeding-block-plus-one": per_block + 1}[shape]
    assert replications >= 1 and (shape != "one-replication-per-chunk" or per_chunk == 0)
    plan = SimulationPlan(
        pmf=pmf, spec=spec, n=n, replications=replications, seed=seed, study="coverage"
    )
    # the draws run chunk by chunk, and each seed block's sums come out whole
    blocks = list(simulation._sampled_sums(plan, (pmf,) * samples))
    sizes = [len(block[0][0]) for block in blocks]
    assert sizes == [min(per_block, replications - start) for start in range(0, replications, per_block)]
    children = np.random.SeedSequence(seed).spawn(replications)
    seeds = [[c] for c in children] if samples == 1 else [c.spawn(2) for c in children]
    for i in range(samples):
        sums = np.concatenate([block[i][0] for block in blocks])
        cross = np.concatenate([block[i][1] for block in blocks])
        assert sums.dtype == cross.dtype == np.int64
        expected = [_exact_sums(reference_stages(pmf, n, seed[i])) for seed in seeds]
        assert sums.tolist() == [list(want) for want, _ in expected]
        assert cross.tolist() == [[list(row) for row in want] for _, want in expected]
    for block in blocks:
        replications = list(simulation._chunk_arguments(n, spec, block))
        assert len(replications) == len(block[0][0])
        for r, views in enumerate(replications):
            assert len(views) == samples
            for got, (sums, cross) in zip(views, block):
                assert_same_moments(got.moments(), reference_moments(n, sums[r].tolist(), cross[r].tolist()))
    # a lone sample_dataset draws the last sample's stream as the study does
    values = sample_dataset(pmf, spec, n, seeds[-1][-1]).values
    assert values.dtype == np.int64
    assert values.tolist() == reference_stages(pmf, n, seeds[-1][-1]).tolist()


@pytest.mark.parametrize("models", ["one", "two", "three"])
def test_stacked_rotation_matches_per_sample_products(models):
    # the chunk's variates, not only its stage sums: a rotation that rounds otherwise
    # moves few variates across a cut point
    spec, pmfs, correlation = CHUNK_MODELS[models]
    root, _ = simulation._sampler(PmfSpec(pmfs, latent_correlation=correlation))
    seeds = np.random.SeedSequence(7).spawn(16)
    got = simulation._variates(root, map(np.random.default_rng, seeds), np.empty((16, 300, spec.k)))
    want = [np.random.default_rng(seed).standard_normal((300, spec.k)) @ root for seed in seeds]
    assert np.array_equal(got, want)

    got = simulation._variates(None, map(np.random.default_rng, seeds), np.empty((16, 300, spec.k)))
    assert np.array_equal(got, [np.random.default_rng(seed).random((300, spec.k)) for seed in seeds])


ALPHAS = st.floats(0.1, 10.0)
BETAS = st.floats(1.0, 5.0)


@st.composite
def chunks(draw):
    """A spec and B samples of one n, each as a few distinct rows with multiplicities."""
    k = draw(st.integers(1, 4))
    models = []
    for j in range(k):
        m = draw(st.integers(1, 7))
        shape = draw(st.sampled_from(["linear", "nonlinear", "steep"]))
        if shape == "nonlinear":
            alpha, beta = draw(ALPHAS), draw(BETAS)
        else:
            # so steep that delta_derivative refuses every score but m / 2, where the
            # derivative is finite and its square overflows the variance to inf
            alpha, beta = 1.0, 1.0 if shape == "linear" else 1e308
        models.append(ModelSpec(f"M{j}", m, alpha=alpha, beta=beta))
    spec = StudySpec(models)
    # small n, and n on both sides of 2^53, past which the moments are taken in Python ints
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, 10**4), st.integers(2**24, 2**31)))
    sums, cross = draw(sample_sums([model.m for model in models], n))
    return spec, n, sums, cross


def scalar_flagged(moments, spec):
    """Whether the scalar chain refuses the sample's variance, or reads its delta-method form,
    negative within rounding, as 0.0."""
    try:
        index_variance(moments, spec)
    except StatisticalRefusal:
        return True
    # the form before index_variance zeroes a negative one, summed as it sums it
    g = [w * d for w, d in zip(spec.weights, delta_gradient(moments.scores, spec))]
    form = np.array([[gj * gl * s / moments.n for gl, s in zip(g, row)]
                     for gj, row in zip(g, moments.cov.tolist())]).sum()
    return form < 0


def assert_same_variance(got, want):
    assert hexes([got.value]) == hexes([want.value])
    assert hexes(got.contributions) == hexes(want.contributions)
    assert hexes(got.gradients) == hexes(want.gradients)
    assert got.n_used == want.n_used
    assert not got.contributions.flags.writeable


def twelve_model_chunk():
    """Three samples of 40 random rows of twelve nonlinear models, as a ``chunks`` draw."""
    spec = StudySpec([ModelSpec(f"M{j}", 3 + j % 4, alpha=0.5 + 0.25 * j, beta=1.0 + j % 3)
                      for j in range(12)])
    rng = np.random.default_rng(12)
    x = rng.integers(0, [model.m + 1 for model in spec.models], size=(3, 40, 12))
    return spec, 40, x.sum(axis=1), x.swapaxes(1, 2) @ x


@given(chunk=chunks(), paired=st.booleans())
# a finite derivative whose square overflows: the variance is +inf, which index_variance refuses
@example(chunk=(StudySpec([ModelSpec("A", 5, beta=1e200), ModelSpec("B", 5)]), 6,
                np.array([[15, 17]]), np.array([[[39, 42], [42, 59]]])), paired=False)
# two such variances of opposite covariance sum inf - inf: refused, with no RuntimeWarning
@example(chunk=(StudySpec([ModelSpec("M0", 1, beta=1e308), ModelSpec("M1", 1, beta=1e308)]), 2,
                np.array([[1, 1]]), np.array([[[1, 0], [0, 1]]])), paired=False)
# k = 12: 144 terms per form, past numpy's 8-way unrolled sum and its 128-term pairwise
# block, so a chunk's per-sample sum must add in the order of one sample's
@example(chunk=twelve_model_chunk(), paired=True)
# a nonlinear column at sum 0, then at n * m, where delta_derivative refuses, and an inner one
@example(chunk=(StudySpec([ModelSpec("A", 5, beta=2.0), ModelSpec("B", 4)]), 4,
                np.array([[0, 10], [20, 10], [8, 10]]),
                np.array([[[0, 0], [0, 30]], [[100, 50], [50, 30]], [[30, 23], [23, 30]]])), paired=False)
# the same columns of a linear model, whose derivative is 1/m on the closed [0, m]
@example(chunk=(StudySpec([ModelSpec("A", 5), ModelSpec("B", 4, alpha=2.0)]), 4,
                np.array([[0, 10], [20, 10], [8, 10]]),
                np.array([[[0, 0], [0, 30]], [[100, 50], [50, 30]], [[30, 23], [23, 30]]])), paired=False)
@settings(max_examples=300, deadline=None)
def test_chunk_arguments_match_the_scalar_chain(chunk, paired):
    spec, n, sums, cross = chunk
    # a second sample per replication, whose flag is its own
    batch = [(sums, cross), (sums[::-1], cross[::-1])] if paired else [(sums, cross)]
    replications = list(simulation._chunk_arguments(n, spec, batch))
    assert len(replications) == len(sums)
    for r, views in enumerate(replications):
        assert len(views) == len(batch)
        for view, (s, c) in zip(views, batch):
            want = _from_sums(n, s[r].tolist(), c[r].tolist())
            assert_same_moments(want, reference_moments(n, s[r].tolist(), c[r].tolist()))
            index, want_index = view.index(), global_index(want.scores, spec)
            assert hexes(index.sub_indices) == hexes(want_index.sub_indices)
            assert hexes([index.value]) == hexes([want_index.value])
            moments = view.moments()
            assert_same_moments(moments, want)
            flagged = scalar_flagged(want, spec)
            # an unflagged sample's moments hold the kernel's variance where index_variance looks it up
            assert ("_index_variances" not in vars(moments)) == flagged
            try:
                want_variance = index_variance(want, spec)
            except StatisticalRefusal as exc:
                for variance_of in (view.variance, lambda: index_variance(view.moments(), spec)):
                    with pytest.raises(type(exc)) as refused:
                        variance_of()
                    assert type(refused.value) is type(exc) and str(refused.value) == str(exc)
                continue
            assert_same_variance(view.variance(), want_variance)
            kept = index_variance(moments, spec)
            assert_same_variance(kept, want_variance)
            assert flagged or kept is vars(moments)["_index_variances"][spec]


class ReferenceSample:
    """One sample of the per-replication reference, with ``simulation._Sample``'s accessors
    computed by the scalar chain."""

    def __init__(self, moments, spec):
        self.of, self.spec = moments, spec

    def index(self):
        return global_index(self.of.scores, self.spec)

    def variance(self):
        return index_variance(self.of, self.spec)

    def moments(self):
        return self.of


def reference_accepted(plan, pmfs, statistic):
    """The per-replication loop: each sample drawn on its own, reduced by _exact_sums and
    reference_moments, and passed to the study's statistic as a ReferenceSample."""
    values, first = [], None
    for child in np.random.SeedSequence(plan.seed).spawn(plan.replications):
        seeds = [child] if len(pmfs) == 1 else child.spawn(2)
        samples = [ReferenceSample(reference_moments(plan.n, *_exact_sums(reference_stages(pmf, plan.n, seed))),
                                   plan.spec) for pmf, seed in zip(pmfs, seeds)]
        try:
            values.append(np.ravel(statistic(*samples)).astype(float))
        except StatisticalRefusal as exc:
            first = first or exc
    if not values:
        raise first
    note = () if first is None else (
        f"{plan.replications - len(values)} of {plan.replications} replications refused: {first}",)
    return np.array(values).T, note


PILED = (0.85, 0.05, 0.05, 0.05)
SYMMETRIC = (0.1, 0.4, 0.4, 0.1)
STUDY_PLANS = {
    "copula": dict(pmf=PmfSpec(NONLINEAR_PMFS, latent_correlation=[[1, 0.5], [0.5, 1]]),
                   spec=NONLINEAR_SPEC, n=60, replications=120, seed=4),
    "k3-unequal-m": dict(pmf=PmfSpec(CHUNK_PMFS, latent_correlation=CHUNK_CORRELATION),
                         spec=CHUNK_SPEC, n=40, replications=90, seed=5),
    # most replications hold a constant column
    "small-n-refusals": dict(pmf=PmfSpec([PILED, PILED]), spec=StudySpec(
        [ModelSpec("A", 3, alpha=1.0, beta=2.0), ModelSpec("B", 3, alpha=2.0)]),
        n=5, replications=100, seed=3),
    # B = 3 - A, so the index variance is exactly zero in every replication
    "antithetic": dict(pmf=PmfSpec([SYMMETRIC, SYMMETRIC], latent_correlation=[[1, -1], [-1, 1]]),
                       spec=StudySpec([ModelSpec("A", 3), ModelSpec("B", 3)]),
                       n=20, replications=30, seed=3),
}


def study_outcome(plan):
    try:
        report = run_study(plan)
    except StatisticalRefusal as exc:
        return type(exc), str(exc)
    return ({name: float(value).hex() for name, value in report.metrics.items()},
            report.checks, report.passed, report.notes)


@pytest.mark.parametrize("fallback", [False, True], ids=["chunked", "past-2^53"])
@pytest.mark.parametrize("case", sorted(STUDY_PLANS))
@pytest.mark.parametrize("study", ["normality", "coverage", "size", "power", "variance-ratio"])
def test_study_reports_match_the_per_replication_reference(monkeypatch, study, case, fallback):
    fields = dict(STUDY_PLANS[case])
    if study == "power":
        pmf = fields["pmf"]
        shifted = [p[1:] + p[:1] for p in pmf.pmfs]
        study, fields["pmf_alternative"] = "size", PmfSpec(shifted, pmf.latent_correlation)
    plan = SimulationPlan(study=study, **fields)
    if fallback:
        # every chunk in Python ints, as if its sums reached 2^53
        chunk_arguments = simulation._chunk_arguments
        monkeypatch.setattr(simulation, "_chunk_arguments", lambda n, spec, block: chunk_arguments(
            n, spec, [(sums.astype(object), cross.astype(object)) for sums, cross in block]))
    got = study_outcome(plan)
    monkeypatch.setattr(simulation, "_accepted", reference_accepted)
    assert got == study_outcome(plan)


# two models of n = 8,200 rows: 16,400 stage cells, so each draw chunk holds one replication
ONE_PER_CHUNK = dict(pmf=PmfSpec(NONLINEAR_PMFS, latent_correlation=[[1, 0.5], [0.5, 1]]),
                     spec=NONLINEAR_SPEC, n=8200, replications=5, seed=9)


@pytest.mark.parametrize("study", ["coverage", "size", "variance-ratio"])
def test_one_replication_chunks_reduce_in_a_block_as_the_reference(monkeypatch, study):
    plan = SimulationPlan(study=study, **ONE_PER_CHUNK)
    assert simulation._CHUNK_CELLS < plan.n * plan.spec.k
    runs = []
    accepted = simulation._accepted

    def recording(*args):
        runs.append((args, accepted(*args)))
        return runs[-1][1]

    monkeypatch.setattr(simulation, "_accepted", recording)
    got = study_outcome(plan)
    monkeypatch.setattr(simulation, "_accepted", reference_accepted)
    assert got == study_outcome(plan)
    # replication by replication, in order, which a rate or a mean need not show
    ((args, (values, notes)),) = runs
    want_values, want_notes = reference_accepted(*args)
    assert hexes(values) == hexes(want_values) and notes == want_notes


@pytest.mark.parametrize("n, replications", [(8200, 5), (60, 1000)],
                         ids=["one-per-chunk", "many-per-chunk"])
def test_each_seed_block_runs_the_kernel_once(monkeypatch, n, replications):
    sizes = []
    chunk_arguments = simulation._chunk_arguments

    def counting(n, spec, block, *rest):
        sizes.append(len(block[0][0]))
        return chunk_arguments(n, spec, block, *rest)

    monkeypatch.setattr(simulation, "_chunk_arguments", counting)
    plan = SimulationPlan(study="coverage", **{**ONE_PER_CHUNK, "n": n, "replications": replications})
    run_study(plan)
    per_chunk = max(1, simulation._CHUNK_CELLS // (n * plan.spec.k))
    per_block = per_chunk * max(1, simulation._SEED_BLOCK // per_chunk)
    assert len(sizes) == -(-replications // per_block)
    assert sizes == [min(per_block, replications - start) for start in range(0, replications, per_block)]


@pytest.mark.parametrize("study, per_replication", [
    ("normality", 0), ("coverage", 0), ("size", 0), ("variance-ratio", 1)])
def test_a_study_builds_moments_only_where_its_statistic_reads_them(monkeypatch, study, per_replication):
    built = []
    init = MomentEstimate.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MomentEstimate, "__init__", counting)
    plan = SimulationPlan(study=study, **STUDY_PLANS["copula"])
    assert len(run_study(plan).notes) == 1  # no replication refused
    assert len(built) == per_replication * plan.replications


def test_a_chunk_past_2_53_computes_only_refused_replications_one_by_one(monkeypatch):
    # half of 2^27 rows at each of two stage tuples: n * max(cross) reaches 2^53 * 17
    n = 2**27
    spec = StudySpec([ModelSpec("A", 5, alpha=1.0, beta=2.0), ModelSpec("B", 5)])
    plan = SimulationPlan(pmf=PmfSpec([UNIFORM6, UNIFORM6]), spec=spec, n=n, replications=4,
                          seed=0, study="coverage")
    rows = [[(1, 2), (4, 3)], [(3, 3), (3, 0)], [(0, 5), (5, 1)], [(2, 2), (2, 4)]]
    counts = np.array([n // 2, n - n // 2])
    x = [np.array(pair, dtype=object) for pair in rows]
    sums = np.array([(counts @ pair).tolist() for pair in x], dtype=np.int64)
    cross = np.array([((pair.T * counts) @ pair).tolist() for pair in x], dtype=np.int64)
    assert n * int(cross.max()) >= 2**53
    monkeypatch.setattr(simulation, "_sampled_sums", lambda plan, pmfs: iter([[(sums, cross)]]))
    calls = []

    def scalar_variance(moments, spec):
        calls.append(moments)
        return index_variance(moments, spec)

    monkeypatch.setattr(simulation, "index_variance", scalar_variance)
    values, notes = simulation._accepted(
        plan, (plan.pmf,), lambda sample: (sample.index().value, sample.variance().value))
    # the second and the fourth hold model A constant, which index_variance refuses; only
    # they reach it, with the kernel's moments
    assert len(calls) == 2
    for moments, r in zip(calls, (1, 3)):
        assert_same_moments(moments, reference_moments(n, sums[r].tolist(), cross[r].tolist()))
    assert notes == ("2 of 4 replications refused: model 'A' has zero sample variance; "
                     "the index variance is undefined",)
    expected = []
    for r in (0, 2):
        moments = reference_moments(n, sums[r].tolist(), cross[r].tolist())
        expected += [global_index(moments.scores, spec).value, index_variance(moments, spec).value]
    assert hexes(values.T) == hexes(expected)


@pytest.mark.parametrize("case", ["copula", "small-n-refusals"])
@pytest.mark.parametrize("study, seam", [
    ("coverage", inference.confidence_interval),
    ("size", tdist.student_t_pvalue),
    ("variance-ratio", inference.index_variance),
], ids=["coverage", "size", "variance-ratio"])
def test_each_accepted_replication_calls_the_graded_function_once(monkeypatch, study, seam, case):
    # the bench fault tests patch these bindings; a study that bypassed them would escape
    returned = []

    def counting(*args, **kwargs):
        value = seam(*args, **kwargs)
        returned.append(value)
        return value

    for name, module in list(sys.modules.items()):
        if name == "adoptindex" or name.startswith("adoptindex."):
            for attribute, value in list(vars(module).items()):
                if value is seam:
                    monkeypatch.setattr(module, attribute, counting)
    plan = SimulationPlan(study=study, **STUDY_PLANS[case])
    notes = run_study(plan).notes
    refused = int(notes[-1].split()[0]) if len(notes) > 1 else 0
    assert (case == "small-n-refusals") == (refused > 0)
    assert len(returned) == plan.replications - refused


@pytest.mark.parametrize("study", ["coverage", "size", "variance-ratio"])
def test_study_memory_does_not_grow_with_replications(study):
    correlation = [[1, 0.5], [0.5, 1]] if study == "variance-ratio" else None
    pmf = PmfSpec(NONLINEAR_PMFS, latent_correlation=correlation)

    def peak_bytes(replications: int) -> int:
        plan = SimulationPlan(
            pmf=pmf, spec=NONLINEAR_SPEC, n=500, replications=replications, seed=5, study=study
        )
        tracemalloc.start()
        try:
            run_study(plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1)  # lazy imports and caches are paid once, not per replication
    small = peak_bytes(400)
    assert peak_bytes(4000) - small <= 256 * 1024
