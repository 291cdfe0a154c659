import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adoptindex import (
    ModelSpec,
    ScoreEstimate,
    StudySpec,
    delta_derivative,
    delta_gradient,
    global_index,
    subindex,
    surface_grid,
)
from adoptindex.errors import (
    BoundaryScore,
    InvalidResolution,
    ScoreOutOfRange,
    SpecMismatch,
    UnsupportedArity,
)

ALPHAS = st.floats(0.1, 10.0)
BETAS = st.floats(1.0, 5.0)


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


class TestSubindex:
    def test_linear_special_case_midpoint(self):
        assert subindex(2.0, ModelSpec("M", 4)) == 0.5

    def test_formula_values(self):
        assert subindex(1.0, ModelSpec("M", 4, beta=2.0)) == pytest.approx(0.1, abs=1e-15)
        assert subindex(2.0, ModelSpec("M", 4, alpha=2.0)) == pytest.approx(1 / 3, rel=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (0.3, 1), (3, 1), (1, 3), (7.5, 4.2)])
    def test_exact_endpoints(self, alpha, beta):
        model = ModelSpec("M", 5, alpha=alpha, beta=beta)
        assert subindex(0.0, model) == 0.0
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
    def test_strictly_increasing(self, alpha, beta, m, lo, hi):
        if abs(hi - lo) < 1e-6:
            return
        lo, hi = sorted((lo, hi))
        model = ModelSpec("M", m, alpha=alpha, beta=beta)
        assert subindex(lo * m, model) < subindex(hi * m, model)

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

    def test_gradient_vector(self):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 4, beta=2.0)])
        grad = delta_gradient(ScoreEstimate((0.0, 2.0), n=3), spec)
        # the linear model keeps its constant derivative at the boundary
        assert grad == (0.2, pytest.approx(0.5, rel=1e-14))

    def test_gradient_refuses_nonlinear_boundary(self):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 4, beta=2.0)])
        with pytest.raises(BoundaryScore):
            delta_gradient(ScoreEstimate((2.0, 0.0), n=3), spec)


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

    def test_arity_and_resolution_errors(self, single_model_spec, tam_cmm_spec):
        with pytest.raises(UnsupportedArity):
            surface_grid(single_model_spec, 4)
        with pytest.raises(InvalidResolution):
            surface_grid(tam_cmm_spec, 1)

    def test_monotone_in_both_axes_for_mixed_shapes(self):
        spec = StudySpec([ModelSpec("A", 5, beta=3.0), ModelSpec("B", 5)])
        rows = surface_grid(spec, 7)
        grid = np.array([r[2] for r in rows]).reshape(7, 7)
        assert np.all(np.diff(grid, axis=0) > 0)
        assert np.all(np.diff(grid, axis=1) > 0)
