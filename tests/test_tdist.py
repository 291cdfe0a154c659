import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from adoptindex import student_t_cdf, student_t_pvalue, student_t_quantile, tdist
from adoptindex.tdist import _betacf, regularized_incomplete_beta
from adoptindex.errors import InputError, InvalidDf, InvalidLevel


def quadrature_two_sided_p(t, df):
    """Oracle: adaptively integrate the t density over both tails."""
    density = stats.t(df).pdf
    tail, _ = integrate.quad(density, abs(t), math.inf)
    return 2 * tail


class TestPvalue:
    def test_zero_statistic_is_the_median(self):
        for df in [1, 2.5, 30, 1e6]:
            assert student_t_pvalue(0.0, df, "two") == 1.0

    def test_cauchy_quartile_closed_form(self):
        # for df=1 the two-sided p is 1 - (2/pi) * arctan(|t|)
        oracle = 1 - (2 / math.pi) * math.atan(1.0)
        assert student_t_pvalue(1.0, 1, "two") == pytest.approx(oracle, abs=1e-14)

    def test_normal_limit(self):
        # large df approaches the normal two-sided 5% point
        p = student_t_pvalue(1.959964, 1e6, "two")
        assert p == pytest.approx(0.05, abs=1e-4)
        assert p == pytest.approx(quadrature_two_sided_p(1.959964, 1e6), abs=1e-8)

    @pytest.mark.parametrize("df", [0.7, 1, 2, 4, 17, 123, 4096.5])
    @pytest.mark.parametrize("t", [-8.0, -2.2, -0.4, 0.3, 1.0, 3.7, 12.0])
    def test_quadrature_oracle_within_1e8(self, t, df):
        mine = student_t_pvalue(t, df, "two")
        assert mine == pytest.approx(quadrature_two_sided_p(t, df), abs=1e-8)

    def test_against_scipy_broadly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            t = float(rng.normal() * 5)
            df = float(rng.uniform(0.5, 500))
            assert student_t_pvalue(t, df, "two") == pytest.approx(
                2 * stats.t.sf(abs(t), df), abs=1e-10
            )
            for sidedness in ("two", "greater", "less"):
                assert 0.0 <= student_t_pvalue(t, df, sidedness) <= 1.0

    def test_one_sided_relations(self):
        for t in [0.3, 1.7, 4.0]:
            two = student_t_pvalue(t, 9, "two")
            assert student_t_pvalue(t, 9, "greater") == pytest.approx(two / 2, rel=1e-12)
            assert student_t_pvalue(-t, 9, "less") == pytest.approx(two / 2, rel=1e-12)
            assert student_t_pvalue(-t, 9, "greater") == pytest.approx(
                1 - two / 2, rel=1e-12
            )

    @given(
        t=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, -1e-300])),
        df=st.floats(1e-3, 1e6),
    )
    def test_one_sided_p_is_the_cdf_and_the_fold_of_the_two_sided_tail(self, t, df):
        tail = regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
        less = 0.5 * tail if t <= 0 else 1.0 - 0.5 * tail
        greater = 0.5 * tail if t >= 0 else 1.0 - 0.5 * tail
        assert student_t_pvalue(t, df, "less").hex() == student_t_cdf(t, df).hex() == less.hex()
        assert (
            student_t_pvalue(t, df, "greater").hex() == student_t_cdf(-t, df).hex() == greater.hex()
        )

    def test_one_sided_p_at_zero_needs_no_incomplete_beta(self):
        # 0.5 * 5e-324 underflows to 0, which the incomplete beta refuses; P(T <= 0) is 0.5 anyway
        assert student_t_pvalue(0.0, 5e-324, "less") == 0.5
        assert student_t_pvalue(0.0, 5e-324, "greater") == 0.5
        with pytest.raises(InputError, match="a, b > 0"):
            student_t_pvalue(0.0, 5e-324, "two")

    def test_two_sided_p_strictly_decreasing_in_t(self):
        for df in [1, 3, 28, 977]:
            grid = np.linspace(0.0, 9.0, 200)
            values = [student_t_pvalue(float(t), df, "two") for t in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidDf):
            student_t_pvalue(1.0, 0.0)
        with pytest.raises(InvalidDf):
            student_t_pvalue(1.0, -3)
        with pytest.raises(InputError):
            student_t_pvalue(math.inf, 3)
        with pytest.raises(InputError):
            student_t_pvalue(1.0, 3, "sideways")


@pytest.mark.parametrize(
    "function,args,error,message",
    [
        (student_t_pvalue, (2.0, True), InvalidDf, "degrees of freedom must be a number, got True"),
        (student_t_pvalue, (2.0, "5"), InvalidDf, "degrees of freedom must be a number, got '5'"),
        (student_t_pvalue, ("2.0", 5), InputError, "test statistic must be a number, got '2.0'"),
        (student_t_cdf, (True, 5), InputError, "t must be a number, got True"),
        (student_t_cdf, (2.0, True), InvalidDf, "degrees of freedom must be a number, got True"),
        (student_t_quantile, ("0.975", 5), InvalidLevel,
         "quantile level must be a number, got '0.975'"),
    ],
    ids=["pvalue-df-bool", "pvalue-df-string", "pvalue-t-string", "cdf-t-bool", "cdf-df-bool",
         "quantile-level-string"],
)
def test_bools_and_strings_are_refused_not_coerced(function, args, error, message):
    with pytest.raises(InputError) as info:
        function(*args)
    assert type(info.value) is error and str(info.value) == message


def test_cached_quantile_does_not_answer_for_a_bool():
    student_t_quantile(0.975, 1)
    with pytest.raises(InvalidDf, match="got True"):
        student_t_quantile(0.975, True)


@pytest.mark.parametrize("level", [np.array(0.9), [0.9]], ids=["0-d-array", "list"])
def test_an_unhashable_level_is_refused_before_the_cache(level):
    with pytest.raises(InvalidLevel, match="quantile level must be a number"):
        student_t_quantile(level, 10.0)
    with pytest.raises(InputError, match="test statistic must be a number"):
        student_t_pvalue(level, 10.0)


def test_the_quantile_cache_can_be_read_and_cleared():
    student_t_quantile.cache_clear()
    assert student_t_quantile.cache_info().currsize == 0
    first = student_t_quantile(0.975, 497)
    assert student_t_quantile(0.975, 497.0) == first  # one key: the checked floats
    info = student_t_quantile.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    student_t_quantile.cache_clear()
    assert student_t_quantile.cache_info().currsize == 0


def reference_betacf(a, b, x):
    """The continued fraction with each coefficient's Lentz step as one loop body."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tdist._LENTZ_TINY:
        d = tdist._LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, tdist._MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tdist._LENTZ_TINY:
                d = tdist._LENTZ_TINY
            c = 1.0 + aa / c
            if abs(c) < tdist._LENTZ_TINY:
                c = tdist._LENTZ_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < tdist._LENTZ_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


class TestBetacf:
    def test_bitwise_equal_to_the_loop_of_one_step(self):
        def hexed(a, b, x):
            try:
                return _betacf(a, b, x).hex(), reference_betacf(a, b, x).hex()
            except ArithmeticError as exc:
                return str(exc), str(exc)

        grid = [(a, b, x) for a in (0.5, 1.0, 2.5, 10.0, 298.0, 998.0, 1e5)
                for b in (0.5, 1.0, 3.0, 7.5) for x in np.linspace(0.001, 0.999, 21).tolist()]
        pairs = [hexed(*point) for point in grid]
        assert [mine for mine, _ in pairs] == [reference for _, reference in pairs]

    def test_a_first_denominator_of_zero_is_floored(self):
        # 1 - (a + b) x / (a + 1) is exactly 0 here, so the Lentz floor stands in for it
        assert 1.0 - 4.0 * 0.5 / 2.0 == 0.0
        assert _betacf(1.0, 3.0, 0.5).hex() == reference_betacf(1.0, 3.0, 0.5).hex()
        # I_0.5(1, 3) = 1 - 0.5^3, with the prefactor 3 * 0.5 * 0.5^3
        assert 0.1875 * _betacf(1.0, 3.0, 0.5) == pytest.approx(0.875, abs=1e-15)

    def test_a_fraction_that_does_not_converge_is_a_fault(self, monkeypatch):
        monkeypatch.setattr(tdist, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="did not converge for a=5.0, b=0.5, x=0.5"):
            _betacf(5.0, 0.5, 0.5)


@pytest.mark.parametrize("x", [-0.5, -5e-324, 1.0 + 2.0**-52, 1.5, math.nan])
def test_an_incomplete_beta_outside_the_unit_interval_is_refused(x):
    with pytest.raises(InputError, match=re.escape(f"incomplete beta needs x in [0, 1], got {x}")):
        regularized_incomplete_beta(2.0, 3.0, x)


class TestCdf:
    @pytest.mark.parametrize("df", [0.5, 7, 1e300])
    def test_infinite_t_is_a_sure_tail(self, df):
        assert student_t_cdf(-math.inf, df) == 0.0
        assert student_t_cdf(math.inf, df) == 1.0

    def test_symmetry(self):
        for t in [0.2, 1.1, 6.0]:
            assert student_t_cdf(t, 7) + student_t_cdf(-t, 7) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_against_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            t = float(rng.normal() * 4)
            df = float(rng.uniform(0.5, 2000))
            assert student_t_cdf(t, df) == pytest.approx(stats.t.cdf(t, df), abs=1e-10)


class TestQuantile:
    def test_roundtrip(self):
        for df in [1, 2, 11, 250]:
            for p in [0.51, 0.8, 0.975, 0.999, 0.12]:
                q = student_t_quantile(p, df)
                assert student_t_cdf(q, df) == pytest.approx(p, abs=1e-12)

    def test_normal_limit_975(self):
        assert student_t_quantile(0.975, 1e6) == pytest.approx(1.959964, abs=1e-4)

    def test_median_is_zero(self):
        assert student_t_quantile(0.5, 13) == 0.0

    def test_a_bracket_that_never_reaches_the_level_is_a_fault(self, monkeypatch):
        # the real cdf reaches any level below 1 at a finite t, so only a faulty one ends here
        student_t_quantile.cache_clear()
        monkeypatch.setattr(tdist, "student_t_cdf", lambda t, df: 0.5)
        with pytest.raises(ArithmeticError, match=re.escape("quantile bracket failed for p=0.975, df=5.0")):
            student_t_quantile(0.975, 5)
        monkeypatch.undo()
        assert student_t_quantile(0.975, 5) == pytest.approx(2.570582, abs=1e-6)

    def test_invalid_level(self):
        with pytest.raises(InputError):
            student_t_quantile(1.0, 5)
        with pytest.raises(InputError):
            student_t_quantile(0.0, 5)
