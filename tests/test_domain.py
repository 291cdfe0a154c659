import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adoptindex import AdoptionDataset, ModelSpec, PmfSpec, StudySpec, validate_dataset
from adoptindex.errors import (
    DuplicateRowId,
    InputError,
    OutOfRangeStage,
    RowArityMismatch,
    RowNotFound,
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
            {"name": 7},
            {"name": None},
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

    @pytest.mark.parametrize("weights", [(None, None, None), (0.25, 0.5, 0.25)])
    def test_derived_tuples_follow_the_models(self, weights):
        models = [ModelSpec("A", 5, weight=weights[0]), ModelSpec("B", 3, 0.5, 2.0, weights[1]),
                  ModelSpec("C", 7, weight=weights[2])]
        spec = StudySpec(models)
        assert spec.k == len(spec.models) == 3
        assert spec.names == tuple(mod.name for mod in spec.models) == ("A", "B", "C")
        assert spec.stage_maxima == tuple(mod.m for mod in spec.models) == (5, 3, 7)
        assert spec.weights == tuple(mod.weight for mod in spec.models)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 4

    def test_identical_specs_stay_equal(self):
        def make():
            return StudySpec([ModelSpec("A", 5), ModelSpec("B", 3, alpha=0.5, beta=2.0)])

        spec, twin = make(), make()
        assert spec == twin and hash(spec) == hash(twin)
        assert repr(spec) == repr(twin) == f"StudySpec(models={spec.models!r})"
        assert spec != StudySpec([ModelSpec("A", 5), ModelSpec("B", 3)])


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

    @pytest.mark.parametrize(
        "second_row,error",
        [
            (("b", (5, 6)), OutOfRangeStage),
            (("a", (5, 0)), DuplicateRowId),
            (("", (5, 0)), InputError),
            (("b", (5,)), RowArityMismatch),
            (("b", (5, True)), InputError),
            (("b", (5, 2**63)), InputError),
            (("b", (-(2**63) - 1, 0)), InputError),
        ],
        ids=["range", "duplicate", "empty-id", "arity", "bool", "int64-max", "int64-min"],
    )
    def test_row_errors_carry_the_row_position(self, tam_cmm_spec, second_row, error):
        rows = [("a", (0, 5)), second_row, ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(error) as info:
            validate_dataset(rows, tam_cmm_spec)
        assert info.value.row == 1

    @pytest.mark.parametrize(
        "ids,values,error,message",
        [
            ("abc", [0, 1, 2], InputError, "values must be a 2-d matrix, got shape (3,)"),
            ("abc", [[0.5, 1.0]] * 3, InputError,
             "stage values must be integers, got dtype float64"),
            ("abc", [[0], [1], [2]], RowArityMismatch, "expected 2 columns, got 1"),
            ("ab", [[0, 1], [1, 2], [2, 3]], InputError, "2 row ids for 3 rows"),
        ],
        ids=["one-dimensional", "float-dtype", "column-count", "id-count"],
    )
    def test_direct_construction_checks_the_matrix(self, tam_cmm_spec, ids, values, error, message):
        with pytest.raises(InputError) as info:
            AdoptionDataset(tuple(ids), np.array(values), tam_cmm_spec)
        assert type(info.value) is error and str(info.value) == message

    def test_values_are_immutable(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        ds = validate_dataset(rows, tam_cmm_spec)
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1

    def test_without_row_keeps_more_rows_than_models(self, tam_cmm_spec):
        ds = validate_dataset([("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3))], tam_cmm_spec)
        with pytest.raises(TooFewRows) as info:
            ds.without_row(1)
        assert str(info.value) == "need more rows than models, got n=2 with k=2"

    def test_without_row_gives_the_remaining_rows_exact_sums(self, tam_cmm_spec):
        rows = [("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2)), ("e", (1, 1))]
        ds = validate_dataset(rows, tam_cmm_spec)
        fresh = validate_dataset(rows[:2] + rows[3:], tam_cmm_spec)
        assert ds.without_row(2) == (fresh.n, *fresh.sufficient_stats)
        twice = validate_dataset(rows[1:2] + rows[3:], tam_cmm_spec)
        assert fresh.without_row(0) == (twice.n, *twice.sufficient_stats) == (
            3, (9, 3), ((35, 7), (7, 5))
        )

    @pytest.mark.parametrize("position", [-1, 4])
    def test_without_row_position_must_name_a_row(self, tam_cmm_spec, position):
        rows = [("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(IndexError):
            validate_dataset(rows, tam_cmm_spec).without_row(position)

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


class TestRowPosition:
    ROWS = [(f"r{i}", (i % 6, (2 * i) % 6)) for i in range(7)]

    def test_first_and_later_lookups_agree_with_the_ids(self, tam_cmm_spec):
        ids = [row_id for row_id, _ in self.ROWS]
        first = [validate_dataset(self.ROWS, tam_cmm_spec).row_position(row_id) for row_id in ids]
        ds = validate_dataset(self.ROWS, tam_cmm_spec)
        # at n = 7 these scans add up to 56 = 8n, so all of them scan; see the dict test below
        later = [ds.row_position(row_id) for row_id in ids + ids[::-1]]
        assert first == [ds.row_ids.index(row_id) for row_id in ids]
        assert later == first + first[::-1]

    @pytest.mark.parametrize("row_id", ["missing", "", 5, None, [1], ("r0",)])
    def test_unknown_ids_are_not_found_before_and_after_the_dict(self, tam_cmm_spec, row_id):
        ds = validate_dataset(self.ROWS, tam_cmm_spec)
        message = f"row {row_id!r} not found in dataset"
        with pytest.raises(RowNotFound) as first:
            ds.row_position(row_id)
        assert str(first.value) == message
        assert ds.row_position("r3") == 3
        with pytest.raises(RowNotFound) as later:
            ds.row_position(row_id)
        assert str(later.value) == message
        assert ds.row_position("r6") == 6

    @pytest.mark.parametrize("row_id", ["missing", "", 5, None, [1], ("r0",)])
    def test_lookups_through_the_dict_agree_with_the_ids(self, tam_cmm_spec, row_id):
        ds = validate_dataset(self.ROWS, tam_cmm_spec)
        for _ in range(8):  # eight failed scans count 8n, so the next lookup builds the dict
            with pytest.raises(RowNotFound):
                ds.row_position("missing")
        ids = [known for known, _ in self.ROWS]
        assert [ds.row_position(known) for known in ids] == list(range(7))
        assert any(isinstance(value, dict) for value in vars(ds).values())
        with pytest.raises(RowNotFound) as later:
            ds.row_position(row_id)
        assert str(later.value) == f"row {row_id!r} not found in dataset"

    def test_one_lookup_builds_no_dict(self, tam_cmm_spec):
        ds = validate_dataset(self.ROWS, tam_cmm_spec)
        # eight scans of all n = 7 ids add up to 8n = 56; the ninth lookup builds the dict
        for _ in range(8):
            assert ds.row_position("r6") == 6
            assert not any(isinstance(value, dict) for value in vars(ds).values())
        assert ds.row_position("r6") == 6
        assert any(isinstance(value, dict) for value in vars(ds).values())

    @pytest.mark.parametrize(
        "lookups", [[f"r{i}" for i in range(7)] * 2, ["missing"] * 8], ids=["early", "failed"])
    def test_lookups_scan_until_their_scans_add_up_to_8n(self, tam_cmm_spec, lookups):
        ds = validate_dataset(self.ROWS, tam_cmm_spec)
        # two rounds of scans of 1, 2, ..., 7 ids add up to 8n = 56, and so do eight failed scans
        for row_id in lookups:
            assert not any(isinstance(value, dict) for value in vars(ds).values())
            if row_id == "missing":
                with pytest.raises(RowNotFound):
                    ds.row_position(row_id)
            else:
                assert ds.row_position(row_id) == int(row_id[1:])
        assert not any(isinstance(value, dict) for value in vars(ds).values())
        assert ds.row_position("r1") == 1
        assert any(isinstance(value, dict) for value in vars(ds).values())
