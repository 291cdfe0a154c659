import numpy as np
import pytest
from hypothesis import given, strategies as st

from adoptindex import ModelSpec, PmfSpec, StudySpec, shift_stages, validate_dataset
from adoptindex.errors import (
    DuplicateRowId,
    InputError,
    OutOfRangeStage,
    RowArityMismatch,
    TooFewRows,
)


class TestModelSpec:
    def test_linear_is_a_configuration_not_a_type(self):
        model = ModelSpec("M", 5)
        assert model.is_linear
        assert not ModelSpec("M", 5, beta=2.0).is_linear

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"m": -1},
            {"m": 2.0},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"beta": 0.5},
            {"weight": 0.0},
            {"weight": 1.5},
            {"alpha": True},
            {"beta": "2"},
            {"weight": "0.5"},
        ],
    )
    def test_rejected_at_construction(self, kwargs):
        base = {"name": "M", "m": 5}
        with pytest.raises(InputError):
            ModelSpec(**{**base, **kwargs})


class TestStudySpec:
    def test_default_weights_are_equal(self):
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 5)])
        assert spec.weights == (0.5, 0.5)

    def test_custom_weights_must_sum_to_one(self):
        StudySpec([ModelSpec("A", 5, weight=0.25), ModelSpec("B", 5, weight=0.75)])
        with pytest.raises(InputError):
            StudySpec([ModelSpec("A", 5, weight=0.25), ModelSpec("B", 5, weight=0.25)])

    def test_mixed_weight_presence_is_ambiguous(self):
        with pytest.raises(InputError):
            StudySpec([ModelSpec("A", 5, weight=0.5), ModelSpec("B", 5)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            StudySpec([ModelSpec("A", 5), ModelSpec("A", 3)])

    def test_single_model_study_is_valid(self):
        assert StudySpec([ModelSpec("A", 5)]).weights == (1.0,)

    def test_empty_study_rejected(self):
        with pytest.raises(InputError):
            StudySpec([])


class TestPmfSpec:
    def test_pmf_must_sum_to_one(self):
        with pytest.raises(InputError):
            PmfSpec([(0.5, 0.4)])

    def test_negative_mass_rejected(self):
        with pytest.raises(InputError):
            PmfSpec([(1.2, -0.2)])

    def test_latent_correlation_checks(self):
        pmfs = [(0.5, 0.5), (0.5, 0.5)]
        PmfSpec(pmfs, latent_correlation=[[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(InputError):
            PmfSpec(pmfs, latent_correlation=[[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(InputError):
            PmfSpec(pmfs, latent_correlation=[[2.0, 0.3], [0.3, 1.0]])
        with pytest.raises(InputError):
            # eigenvalues 1 +/- 1.5: indefinite
            PmfSpec(pmfs, latent_correlation=[[1.0, 1.5], [1.5, 1.0]])

    def test_semi_definite_accepted(self):
        PmfSpec([(0.5, 0.5), (0.5, 0.5)], latent_correlation=[[1.0, 1.0], [1.0, 1.0]])


class TestValidateDataset:
    def test_four_rows_two_models(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        ds = validate_dataset(rows, tam_cmm_spec)
        assert ds.n == 4
        assert ds.row_ids == ("a", "b", "c", "d")

    def test_out_of_range_stage(self, tam_cmm_spec):
        rows = [("a", (0, 6)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(OutOfRangeStage, match="'a'"):
            validate_dataset(rows, tam_cmm_spec)

    def test_negative_stage(self, tam_cmm_spec):
        rows = [("a", (0, -1)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(OutOfRangeStage):
            validate_dataset(rows, tam_cmm_spec)

    def test_n_must_exceed_k(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("b", (5, 0))]
        with pytest.raises(TooFewRows):
            validate_dataset(rows, tam_cmm_spec)

    def test_row_arity(self, tam_cmm_spec):
        rows = [("a", (0, 5, 1)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(RowArityMismatch):
            validate_dataset(rows, tam_cmm_spec)

    def test_duplicate_row_id(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("a", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(DuplicateRowId):
            validate_dataset(rows, tam_cmm_spec)

    def test_empty_row_id_rejected(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(InputError, match="row 2 has an empty id"):
            validate_dataset(rows, tam_cmm_spec)

    def test_non_integer_cell_rejected(self, tam_cmm_spec):
        rows = [("a", (0.5, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(InputError):
            validate_dataset(rows, tam_cmm_spec)

    def test_values_are_immutable(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        ds = validate_dataset(rows, tam_cmm_spec)
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1

    @given(data=st.data())
    def test_valid_inputs_produce_invariant_datasets(self, data):
        k = data.draw(st.integers(1, 3))
        ms = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        n = data.draw(st.integers(k + 1, 12))
        spec = StudySpec([ModelSpec(f"M{j}", ms[j]) for j in range(k)])
        rows = [
            (
                f"r{i}",
                tuple(data.draw(st.integers(0, ms[j])) for j in range(k)),
            )
            for i in range(n)
        ]
        ds = validate_dataset(rows, spec)
        assert ds.n == n > k
        assert np.all(ds.values >= 0)
        assert all(np.all(ds.values[:, j] <= ms[j]) for j in range(k))
        assert len(set(ds.row_ids)) == ds.n

    @given(data=st.data())
    def test_any_out_of_range_cell_is_rejected(self, data):
        k = data.draw(st.integers(1, 3))
        ms = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        n = data.draw(st.integers(k + 1, 8))
        spec = StudySpec([ModelSpec(f"M{j}", ms[j]) for j in range(k)])
        rows = [
            (f"r{i}", tuple(data.draw(st.integers(0, ms[j])) for j in range(k)))
            for i in range(n)
        ]
        bad_i = data.draw(st.integers(0, n - 1))
        bad_j = data.draw(st.integers(0, k - 1))
        offset = data.draw(st.sampled_from([-1, ms[bad_j] + 1]))
        row = list(rows[bad_i][1])
        row[bad_j] = offset if offset < 0 else offset
        rows[bad_i] = (rows[bad_i][0], tuple(row))
        with pytest.raises(OutOfRangeStage):
            validate_dataset(rows, spec)


class TestShiftStages:
    def test_flagged_column_incremented(self):
        rows = [("a", (0,)), ("b", (1,)), ("c", (2,))]
        assert [v for _, (v,) in shift_stages(rows, [True])] == [1, 2, 3]

    def test_unflagged_column_unchanged(self):
        rows = [("a", (0,)), ("b", (1,)), ("c", (2,))]
        assert [v for _, (v,) in shift_stages(rows, [False])] == [0, 1, 2]

    def test_recoded_scale_fits_after_adding_zero_stage(self, single_model_spec):
        # five recorded stages 0..4 become 1..5 under the six-stage model
        rows = [(str(i), (i,)) for i in range(5)]
        shifted = shift_stages(rows, [True])
        ds = validate_dataset(shifted, single_model_spec)
        assert sorted(ds.values[:, 0].tolist()) == [1, 2, 3, 4, 5]

    def test_double_shift_breaks_range_validation(self, single_model_spec):
        rows = [(str(i), (i,)) for i in range(5)]  # max stage is m - 1
        twice = shift_stages(shift_stages(rows, [True]), [True])
        with pytest.raises(OutOfRangeStage):
            validate_dataset(twice, single_model_spec)

    def test_flag_arity_checked(self):
        with pytest.raises(RowArityMismatch):
            shift_stages([("a", (1, 2))], [True])
