import itertools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adoptindex import (
    SHAPE_PRESETS,
    ModelSpec,
    ScoreEstimate,
    StudySpec,
    delta_derivative,
    delta_gradient,
    global_index,
    index,
    subindex,
    surface_grid,
)
from adoptindex.errors import (
    BoundaryScore,
    InputError,
    InvalidResolution,
    ScoreOutOfRange,
    SpecMismatch,
    UnsupportedArity,
)

ALPHAS = st.floats(0.1, 10.0)
BETAS = st.floats(1.0, 5.0)
# (alpha, beta) of a model on a surface grid; at beta = 1e5 most of a grid's powers underflow to 0
GRID_SHAPES = st.tuples(st.floats(1e-3, 50.0), st.floats(1.0, 1e5))


def ratio_form(score, m, alpha, beta):
    """The raw transform 1 / (1 + alpha ((m-S)/S)^beta), open interval only."""
    return 1.0 / (1.0 + alpha * ((m - score) / score) ** beta)


def decimal_slope(score, m, alpha, beta):
    """Central difference of S^beta / (S^beta + alpha (m-S)^beta) in 50 digits.

    A float difference of ``subindex`` loses about eps / h absolute to
    cancellation, which is more than 1e-6 relative where f' is small; at 50
    digits with h = 1e-15 both rounding and truncation error are negligible.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, mm = Decimal(alpha), Decimal(beta), Decimal(m)
        h = Decimal("1e-15")

        def f(s):
            num = s**b
            return num / (num + a * (mm - s) ** b)

        s = Decimal(score)
        return float((f(s + h) - f(s - h)) / (2 * h))


def decimal_subindex(score, m, alpha, beta):
    """S^beta / (S^beta + alpha (m-S)^beta) in 50 digits, as a Decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        s, b = Decimal(score), Decimal(beta)
        num = s**b
        return num / (num + Decimal(alpha) * (Decimal(m) - s) ** b)


class TestSubindex:
    def test_linear_special_case_midpoint(self):
        assert subindex(2.0, ModelSpec("M", 4)) == 0.5

    def test_formula_values(self):
        assert subindex(1.0, ModelSpec("M", 4, beta=2.0)) == pytest.approx(0.1, abs=1e-15)
        assert subindex(2.0, ModelSpec("M", 4, alpha=2.0)) == pytest.approx(1 / 3, rel=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (0.3, 1), (3, 1), (1, 3), (7.5, 4.2)])
    def test_exact_endpoints(self, alpha, beta):
        model = ModelSpec("M", 5, alpha=alpha, beta=beta)
        assert math.copysign(1.0, subindex(0.0, model)) == 1.0 and subindex(0.0, model) == 0.0
        assert subindex(5.0, model) == 1.0

    def test_out_of_range_score(self):
        model = ModelSpec("M", 4)
        with pytest.raises(ScoreOutOfRange):
            subindex(-0.1, model)
        with pytest.raises(ScoreOutOfRange):
            subindex(4.1, model)

    def test_linear_reduction_on_dense_grid(self):
        model = ModelSpec("M", 7)
        for s in np.linspace(0.0, 7.0, 1001):
            assert abs(subindex(float(s), model) - s / 7) <= 1e-12

    @given(alpha=ALPHAS, beta=BETAS, m=st.integers(1, 8), frac=st.floats(0.001, 0.999))
    @settings(max_examples=200)
    def test_matches_ratio_form_on_open_interval(self, alpha, beta, m, frac):
        score = frac * m
        mine = subindex(score, ModelSpec("M", m, alpha=alpha, beta=beta))
        assert mine == pytest.approx(ratio_form(score, m, alpha, beta), rel=1e-12)

    @given(
        alpha=ALPHAS,
        beta=BETAS,
        m=st.integers(1, 8),
        lo=st.floats(0.0, 1.0),
        hi=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    # the exact values differ by 1e-20 here, far below an ulp of 1.0, so both round to 1.0
    @example(alpha=1.0, beta=4.0, m=1, lo=0.99999, hi=1.0)
    # 3.6 ulps apart exactly, equal in floats: the power scales the rounding of S / (m - S) by beta
    @example(alpha=9.641537156057494, beta=4.203380125684237, m=4,
             lo=0.11780139516783748, hi=0.1178013951678375)
    def test_strictly_increasing(self, alpha, beta, m, lo, hi):
        lo, hi = sorted((lo, hi))
        model = ModelSpec("M", m, alpha=alpha, beta=beta)
        low, high = subindex(lo * m, model), subindex(hi * m, model)
        assert low <= high
        # each value is within (2 beta + 4) ulps of the exact one: about 2 beta + 1 half-ulp
        # relative errors from S / (m - S) raised to beta, and a few from the other steps
        gap = decimal_subindex(hi * m, m, alpha, beta) - decimal_subindex(lo * m, m, alpha, beta)
        if gap > Decimal(2 * (2 * beta + 4) * math.ulp(high)):
            assert low < high

    def test_no_overflow_for_extreme_steepness(self):
        model = ModelSpec("M", 5, alpha=2.0, beta=400.0)
        for s in [0.0, 1e-9, 0.1, 2.5, 4.9, 5 - 1e-9, 5.0]:
            assert math.isfinite(subindex(s, model))

    def test_s_shape_second_difference_changes_sign_once(self):
        model = ModelSpec("M", 4, beta=2.0)
        grid = np.linspace(0.0, 4.0, 1000)
        values = np.array([subindex(float(s), model) for s in grid])
        second = np.diff(values, 2)
        signs = np.sign(second[np.abs(second) > 1e-13])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1

    def test_linear_second_difference_is_zero(self):
        model = ModelSpec("M", 4)
        grid = np.linspace(0.0, 4.0, 1000)
        values = np.array([subindex(float(s), model) for s in grid])
        assert np.max(np.abs(np.diff(values, 2))) < 1e-13


@pytest.mark.parametrize(
    "function,score",
    [(subindex, True), (subindex, "3"), (delta_derivative, "2")],
    ids=["subindex-bool", "subindex-string", "derivative-string"],
)
def test_scores_must_be_numbers(function, score):
    with pytest.raises(InputError) as info:
        function(score, ModelSpec("M", 4))
    assert type(info.value) is InputError
    assert str(info.value) == f"score must be a number, got {score!r}"


class TestGlobalIndex:
    def test_equal_weight_average(self):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)])
        idx = global_index(ScoreEstimate((2.0, 3.0), n=10), spec)
        assert idx.sub_indices == (pytest.approx(0.4, abs=1e-12), pytest.approx(0.6, abs=1e-12))
        assert idx.value == pytest.approx(0.5, abs=1e-12)

    def test_weighted_sum(self):
        spec = StudySpec(
            [ModelSpec("A", 5, weight=0.25), ModelSpec("B", 5, weight=0.75)]
        )
        idx = global_index(ScoreEstimate((0.0, 5.0), n=10), spec)
        assert idx.value == 0.75

    def test_tam_cmm_midpoint(self, tam_cmm_spec):
        idx = global_index(ScoreEstimate((2.5, 2.5), n=4), tam_cmm_spec)
        assert idx.value == 0.5

    def test_value_is_the_weighted_sum_of_sub_indices(self, tam_cmm_spec):
        idx = global_index(ScoreEstimate((1.7, 4.2), n=9), tam_cmm_spec)
        expected = sum(w * s for w, s in zip(tam_cmm_spec.weights, idx.sub_indices))
        assert abs(idx.value - expected) <= 1e-12
        assert 0.0 <= idx.value <= 1.0

    def test_arity_mismatch(self, tam_cmm_spec):
        with pytest.raises(SpecMismatch):
            global_index(ScoreEstimate((2.5,), n=4), tam_cmm_spec)

    def test_gradient_arity_mismatch(self, tam_cmm_spec):
        with pytest.raises(SpecMismatch, match="^1 scores for a 2-model spec$"):
            delta_gradient(ScoreEstimate((2.5,), n=4), tam_cmm_spec)


class TestDeltaDerivative:
    def test_linear_derivative_is_inverse_m(self):
        model = ModelSpec("M", 5)
        for s in [0.0, 0.7, 2.5, 4.9, 5.0]:
            assert delta_derivative(s, model) == 0.2

    def test_known_value(self):
        assert delta_derivative(2.0, ModelSpec("M", 4, beta=2.0)) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_boundary_refused_before_overflow(self):
        model = ModelSpec("M", 4, beta=3.0)
        for s in [0.0, 4.0, -1.0, 5.0]:
            with pytest.raises(BoundaryScore):
                delta_derivative(s, model)

    @given(alpha=ALPHAS, beta=BETAS, m=st.integers(1, 8), tenth=st.integers(1, 9))
    @example(alpha=0.5, beta=5.0, m=7, tenth=9)  # float differencing failed here
    @settings(max_examples=200)
    def test_matches_central_finite_difference(self, alpha, beta, m, tenth):
        model = ModelSpec("M", m, alpha=alpha, beta=beta)
        s = tenth / 10 * m
        numeric = decimal_slope(s, m, alpha, beta)
        assert delta_derivative(s, model) == pytest.approx(numeric, rel=1e-6)

    @given(alpha=ALPHAS, beta=BETAS, m=st.integers(1, 8), frac=st.floats(0.01, 0.99))
    @settings(max_examples=100)
    def test_positive_inside_the_interval(self, alpha, beta, m, frac):
        assert delta_derivative(frac * m, ModelSpec("M", m, alpha=alpha, beta=beta)) > 0

    @pytest.mark.parametrize("s", [2.2, 2.5], ids=["f-is-zero", "f-is-tiny"])
    def test_overflowing_derivative_is_refused(self, s):
        # beta * m overflows: inf * f(1 - f) is NaN at f = 0 and inf at S = m/2, where f' = 0.8
        model = ModelSpec("A", 5, alpha=1e308, beta=1e308)
        message = f"derivative at score {s!r} for model 'A' is not finite in floating point"
        with pytest.raises(BoundaryScore, match=re.escape(message)):
            delta_derivative(s, model)

    def test_gradient_vector(self):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 4, beta=2.0)])
        grad = delta_gradient(ScoreEstimate((0.0, 2.0), n=3), spec)
        # the linear model keeps its constant derivative at the boundary
        assert grad == (0.2, pytest.approx(0.5, rel=1e-14))

    def test_gradient_refuses_nonlinear_boundary(self):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 4, beta=2.0)])
        with pytest.raises(BoundaryScore):
            delta_gradient(ScoreEstimate((2.0, 0.0), n=3), spec)


def reference_surface(spec, resolution):
    """One ``global_index`` per point, on axes of i * (m / (r - 1)) ending at float(m)."""

    def axis(m):
        step = m / (resolution - 1)
        points = [i * step for i in range(resolution)]
        points[-1] = float(m)
        return points

    m1, m2 = spec.stage_maxima
    return [
        (s1, s2, global_index(ScoreEstimate((s1, s2), n=1), spec).value)
        for s1 in axis(m1)
        for s2 in axis(m2)
    ]


def _each_preset_pair(test):
    """``example`` decorators for every ordered pair of shape presets."""
    for first, second in itertools.product(sorted(SHAPE_PRESETS), repeat=2):
        test = example(m1=5, m2=6, shape1=SHAPE_PRESETS[first], shape2=SHAPE_PRESETS[second],
                       weight=None, resolution=25)(test)
    return test


class TestSurfaceGrid:
    def test_corners(self, tam_cmm_spec):
        rows = surface_grid(tam_cmm_spec, 6)
        as_dict = {(r[0], r[1]): r[2] for r in rows}
        assert as_dict[(0.0, 0.0)] == 0.0
        assert as_dict[(5.0, 5.0)] == 1.0
        assert len(rows) == 36

    def test_linear_plane(self, tam_cmm_spec):
        for s1, s2, value in surface_grid(tam_cmm_spec, 5):
            assert value == pytest.approx((s1 / 5 + s2 / 5) / 2, abs=1e-12)

    def test_minimal_grid_is_the_four_corners(self, tam_cmm_spec):
        rows = surface_grid(tam_cmm_spec, 2)
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, 0.0),
            (0.0, 5.0),
            (5.0, 0.0),
            (5.0, 5.0),
        ]

    def test_points_are_the_weighted_sum_of_sub_indices(self):
        spec = StudySpec(
            [ModelSpec("A", 5, alpha=0.3, weight=0.7), ModelSpec("B", 3, beta=3.0, weight=0.3)]
        )
        for s1, s2, value in surface_grid(spec, 9):
            f1, f2 = subindex(s1, spec.models[0]), subindex(s2, spec.models[1])
            assert value == 0.7 * f1 + 0.3 * f2

    def test_arity_and_resolution_errors(self, single_model_spec, tam_cmm_spec):
        with pytest.raises(UnsupportedArity):
            surface_grid(single_model_spec, 4)
        with pytest.raises(InvalidResolution):
            surface_grid(tam_cmm_spec, 1)

    def test_resolution_is_bounded_at_10_to_the_6_points(self, tam_cmm_spec, monkeypatch):
        def _no_points(*args):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(index, "subindex", _no_points)
        with pytest.raises(InvalidResolution, match="^resolution must be at most 1000, got 1001$"):
            surface_grid(tam_cmm_spec, 1001)
        # the refusal below the range keeps its message, and the bound itself is allowed
        with pytest.raises(InvalidResolution, match="^resolution must be an integer >= 2, got 1$"):
            surface_grid(tam_cmm_spec, 1)
        with pytest.raises(AssertionError, match="a grid point was computed"):
            surface_grid(tam_cmm_spec, 1000)

    @given(
        m1=st.integers(1, 60),
        m2=st.integers(1, 60),
        shape1=GRID_SHAPES,
        shape2=GRID_SHAPES,
        weight=st.none() | st.floats(0.01, 0.99),
        resolution=st.integers(2, 80),
    )
    @settings(max_examples=60, deadline=None)
    @_each_preset_pair
    # an m past 2^53 that is no float: a step from float(m) would differ in the last bit
    @example(m1=2**53 + 1, m2=3, shape1=(1.0, 1.0), shape2=(0.5, 2.0), weight=0.3, resolution=7)
    # an m past 2^64, which np.linspace(0, m, r) refuses
    @example(m1=4, m2=2**64 + 1, shape1=(2.0, 3.0), shape2=(1.0, 1.0), weight=None, resolution=5)
    def test_grid_matches_the_per_point_global_index_bitwise(
        self, m1, m2, shape1, shape2, weight, resolution
    ):
        weights = (None, None) if weight is None else (weight, 1.0 - weight)
        spec = StudySpec([
            ModelSpec("A", m1, *shape1, weight=weights[0]),
            ModelSpec("B", m2, *shape2, weight=weights[1]),
        ])
        rows = surface_grid(spec, resolution)
        expected = reference_surface(spec, resolution)
        assert [tuple(map(float.hex, row)) for row in rows] == [
            tuple(map(float.hex, row)) for row in expected
        ]

    @pytest.mark.parametrize("resolution", [2, 50, 1000])
    def test_each_axis_value_is_transformed_once(self, resolution, monkeypatch):
        spec = StudySpec([ModelSpec("A", 5, beta=3.0, weight=0.4), ModelSpec("B", 6, weight=0.6)])
        calls = []

        def counted(score, model):
            calls.append(model.name)
            return subindex(score, model)

        def _per_point(*args, **kwargs):
            raise AssertionError("a per-point index was built")

        monkeypatch.setattr(index, "subindex", counted)
        for name in ("global_index", "ScoreEstimate", "IndexValue"):
            monkeypatch.setattr(index, name, _per_point)
        rows = surface_grid(spec, resolution)
        assert len(rows) == resolution**2
        assert sorted(calls) == ["A"] * resolution + ["B"] * resolution

    def test_monotone_in_both_axes_for_mixed_shapes(self):
        spec = StudySpec([ModelSpec("A", 5, beta=3.0), ModelSpec("B", 5)])
        rows = surface_grid(spec, 7)
        grid = np.array([r[2] for r in rows]).reshape(7, 7)
        assert np.all(np.diff(grid, axis=0) > 0)
        assert np.all(np.diff(grid, axis=1) > 0)
