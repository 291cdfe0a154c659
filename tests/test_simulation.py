import math

import numpy as np
import pytest

from adoptindex import (
    ModelSpec,
    PmfSpec,
    SimulationPlan,
    StudySpec,
    estimate_scores,
    latent_cross_covariance,
    population_asymptotic_variance,
    run_study,
    sample_dataset,
    true_index,
)
from adoptindex.errors import DegenerateVariance, InputError, SpecMismatch

UNIFORM6 = (1 / 6,) * 6


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
        assert abs(estimate_scores(ds).scores[0] - 2.5) <= 0.02

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


class TestPlanValidation:
    def test_study_name_checked(self, linear_pair):
        spec, pmf = linear_pair
        with pytest.raises(InputError):
            SimulationPlan(pmf=pmf, spec=spec, n=100, replications=10, seed=1, study="nope")

    def test_sample_size_checked(self, linear_pair):
        spec, pmf = linear_pair
        with pytest.raises(InputError):
            SimulationPlan(pmf=pmf, spec=spec, n=2, replications=10, seed=1, study="coverage")

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


class TestRunStudy:
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

    def test_reports_are_reproducible(self, linear_pair):
        spec, pmf = linear_pair
        plan = SimulationPlan(
            pmf=pmf, spec=spec, n=50, replications=200, seed=31, study="coverage"
        )
        assert run_study(plan) == run_study(plan)

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
