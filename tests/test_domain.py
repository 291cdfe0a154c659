import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adoptindex import (
    AdoptionDataset,
    ModelSpec,
    PmfSpec,
    StudySpec,
    cli,
    domain,
    estimate_moments,
    sample_dataset,
    validate_dataset,
)
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
            {"m": 10**400},
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

    def test_m_is_at_most_the_largest_float(self):
        # every score, sub-index and derivative works in float(m)
        largest = int(sys.float_info.max)
        assert ModelSpec("M", largest).m == largest
        with pytest.raises(InputError) as info:
            ModelSpec("M", largest + 1)
        assert str(info.value) == "model 'M': m must be at most 1.7976931348623157e+308, got an integer of 1024 bits"


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
        assert hash(spec) == hash((spec.models,))  # the dataclass hash of its one field

    def test_a_spec_pickled_in_one_process_hashes_like_a_fresh_one_in_another(self):
        # str hashes are salted per process, so a hash carried over in the pickle would be stale
        src = str(Path(domain.__file__).resolve().parents[1])
        make = "StudySpec([ModelSpec('A', 5), ModelSpec('B', 3, alpha=0.5, beta=2.0)])"

        def run(seed, code, data=""):
            head = (f"import pickle, sys; sys.path.insert(0, {src!r})\n"
                    "from adoptindex import ModelSpec, StudySpec\n")
            env = {**os.environ, "PYTHONHASHSEED": seed}
            return subprocess.run([sys.executable, "-c", head + code], input=data, capture_output=True,
                                  text=True, env=env, check=True).stdout.split()

        made_hash, data = run("1", f"spec = {make}; print(hash(spec), pickle.dumps(spec).hex())")
        loaded = run("2", f"spec = pickle.loads(bytes.fromhex(sys.stdin.read())); fresh = {make}\n"
                          "print(spec == fresh, hash(spec), hash(fresh))", data)
        assert loaded[0] == "True" and loaded[1] == loaded[2] != made_hash


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

    def test_one_stage_pmf_rejected(self):
        # (1.0,) sums to one, but a model has at least the stages 0 and 1
        with pytest.raises(InputError, match="^pmf 1: needs at least two stages$"):
            PmfSpec([(0.5, 0.5), (1.0,)])


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sums_and_downdates_agree_on_either_memory_order(self, data):
        # a plain data file's stages come column-major, a tuple's row-major
        spec = StudySpec([ModelSpec("A", 5), ModelSpec("B", 6, beta=2.0), ModelSpec("C", 4)])
        cell = st.tuples(*(st.integers(0, m) for m in spec.stage_maxima))
        values = np.array(data.draw(st.lists(cell, min_size=spec.k + 2, max_size=40)))
        ids = tuple(f"r{i}" for i in range(len(values)))
        c = AdoptionDataset(ids, np.ascontiguousarray(values), spec)
        f = AdoptionDataset(ids, np.asfortranarray(values), spec)
        assert c.values.flags.c_contiguous and f.values.flags.f_contiguous
        assert domain._exact_sums(c.values) == domain._exact_sums(f.values) == c.sufficient_stats
        assert c.sufficient_stats == f.sufficient_stats
        mc, mf = estimate_moments(c), estimate_moments(f)
        assert mc.scores == mf.scores and mc.degenerate == mf.degenerate
        assert np.array_equal(mc.cov, mf.cov) and np.array_equal(mc.corr, mf.corr, equal_nan=True)
        assert [c.without_row(i) for i in range(c.n)] == [f.without_row(i) for i in range(f.n)]

    def test_a_plain_file_keeps_its_stages_column_major(self, tmp_path, tam_cmm_spec):
        rows = [("a", (0, 5)), ("b", (5, 0)), ("c", (2, 3)), ("d", (3, 2)), ("e", (1, 1))]
        plain = _plain_file_dataset(tmp_path, rows, tam_cmm_spec)
        tupled = validate_dataset(rows, tam_cmm_spec)
        assert plain.values.flags.f_contiguous and tupled.values.flags.c_contiguous
        assert np.array_equal(plain.values, tupled.values)
        assert plain.sufficient_stats == tupled.sufficient_stats
        assert [plain.without_row(i) for i in range(5)] == [tupled.without_row(i) for i in range(5)]

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


def _plain_file_dataset(tmp_path, rows, spec):
    """``cli.load_dataset`` of ``rows`` written as a plain data file, whose ids stay packed."""
    path = tmp_path / "rows.csv"
    lines = [",".join(["corporation", *spec.names])]
    lines += [",".join([row_id, *map(str, cells)]) for row_id, cells in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cli.load_dataset(str(path), spec, (False,) * spec.k)


def _has_dict(ds):
    return any(isinstance(value, dict) for value in vars(ds).values())


class TestRowPosition:
    ROWS = [(f"r{i}", (i % 6, (2 * i) % 6)) for i in range(7)]

    @pytest.fixture(params=["validate_dataset", "plain-file"])
    def route(self, request):
        return request.param

    @pytest.fixture
    def build(self, route, tmp_path, tam_cmm_spec):
        """Make a fresh dataset of the given rows by one construction route."""
        if route == "validate_dataset":
            return lambda rows=self.ROWS: validate_dataset(rows, tam_cmm_spec)
        return lambda rows=self.ROWS: _plain_file_dataset(tmp_path, rows, tam_cmm_spec)

    def test_first_and_later_lookups_agree_with_the_ids(self, build):
        ids = [row_id for row_id, _ in self.ROWS]
        first = [build().row_position(row_id) for row_id in ids]
        ds = build()
        # the first eight lookups search the packed ids and the rest read the dict
        later = [ds.row_position(row_id) for row_id in ids + ids[::-1]]
        assert first == [ds.row_ids.index(row_id) for row_id in ids]
        assert later == first + first[::-1]

    @pytest.mark.parametrize("row_id", ["missing", "", 5, None, [1], ("r0",), b"r0"])
    def test_unknown_ids_are_not_found_before_and_after_the_dict(self, build, row_id):
        ds = build()
        message = f"row {row_id!r} not found in dataset"
        with pytest.raises(RowNotFound) as first:
            ds.row_position(row_id)
        assert str(first.value) == message
        assert ds.row_position("r3") == 3
        with pytest.raises(RowNotFound) as later:
            ds.row_position(row_id)
        assert str(later.value) == message
        assert ds.row_position("r6") == 6

    @pytest.mark.parametrize("row_id", ["missing", "", 5, None, [1], ("r0",), b"r0"])
    def test_lookups_through_the_dict_agree_with_the_ids(self, build, row_id):
        ds = build()
        for _ in range(8):  # eight failed searches count 8n, so the next lookup builds the dict
            with pytest.raises(RowNotFound):
                ds.row_position("missing")
        ids = [known for known, _ in self.ROWS]
        assert [ds.row_position(known) for known in ids] == list(range(7))
        assert _has_dict(ds)
        with pytest.raises(RowNotFound) as later:
            ds.row_position(row_id)
        assert str(later.value) == f"row {row_id!r} not found in dataset"

    def test_one_lookup_builds_no_dict(self, build, route):
        ds = build()
        # eight searches of all n = 7 ids add up to 8n = 56; the ninth lookup builds the dict
        for _ in range(8):
            assert ds.row_position("r6") == 6
            assert not _has_dict(ds)
            # a tuple of ids is kept as given; a plain file's stay packed, as a search decodes none
            assert ("row_ids" in vars(ds)) == (route == "validate_dataset")
        assert ds.row_position("r6") == 6
        assert _has_dict(ds) and "row_ids" in vars(ds)

    def test_only_row_ids_are_decoded_on_demand(self, build, route):
        # a packed dataset decodes its ids for row_ids alone; another missing name stays missing
        ds = build()
        with pytest.raises(AttributeError, match="^row_id$"):
            getattr(ds, "row_id")
        assert ("row_ids" in vars(ds)) == (route == "validate_dataset")
        assert ds.row_ids == tuple(row_id for row_id, _ in self.ROWS)

    @pytest.mark.parametrize(
        "lookups", [[f"r{i}" for i in range(7)] + ["r0"], ["missing"] * 8], ids=["found", "failed"])
    def test_lookups_scan_until_their_scans_add_up_to_8n(self, build, lookups):
        ds = build()
        # every search counts all n ids, found or not, so eight of them add up to 8n = 56
        for row_id in lookups:
            assert not _has_dict(ds)
            if row_id == "missing":
                with pytest.raises(RowNotFound):
                    ds.row_position(row_id)
            else:
                assert ds.row_position(row_id) == int(row_id[1:])
        assert not _has_dict(ds)
        assert ds.row_position("r1") == 1
        assert _has_dict(ds)

    def test_packed_lookups_compare_every_byte(self, build, route):
        # ids of one byte length that differ in one word only, across 8-byte word edges, and
        # ids that end earlier ones ("ab" ends "xab" and "aaaaaaaab")
        ids = ["a" * 8 + "b", "a" * 8 + "c", "a" * 16 + "b", "a" * 17, "xab", "xéx", "xèx", "ab", "ba"]
        rows = [(row_id, (i % 6, 0)) for i, row_id in enumerate(ids)]
        assert ("row_ids" in vars(build(rows))) == (route == "validate_dataset")
        # each lookup on a fresh dataset, so that every one searches the ids, not a dict
        for position, row_id in enumerate(ids):
            assert build(rows).row_position(row_id) == position
        # "ab,1" spans the id "ab" and its first cell, and "a\nb" a line end
        for missing in ["a" * 8 + "d", "a" * 16 + "c", "a" * 16, "xex", "a", "aab", "ab,c", "ab,1",
                        "a\nb", "b\nab"]:
            with pytest.raises(RowNotFound):
                build(rows).row_position(missing)


ONE_MODEL = StudySpec([ModelSpec("M", 5)])

# characters that str.strip() removes or keeps, non-ASCII, NUL, a line end and a lone
# surrogate, and a run of eight, so that ids cross 8-byte word edges and repeat often
ROW_ID = st.lists(
    st.sampled_from(["a", "b", "\xe9", "\u20ac", " ", "\t", "\x0b", "\x1c", "\xa0", "\u2003",
                     "\x00", "\n", "\udc80", "aaaaaaaa"]),
    max_size=4,
).map("".join)


def _file_ids(ids, filler=b""):
    """``_RowIds`` of ``ids`` laid out as a plain data file lays them out: each id
    followed by a comma, with ``filler`` before every id and after the last comma."""
    data, starts, stops = filler, [], []
    for row_id in ids:
        starts.append(len(data))
        data += row_id.encode()
        stops.append(len(data))
        data += b"," + filler
    return domain._RowIds(data, np.array(starts, np.int64), np.array(stops, np.int64))


def _dataset(ids):
    return AdoptionDataset(tuple(ids), np.zeros((len(ids), 1), np.int64), ONE_MODEL)


def _plain_one_model(tmp_path, ids):
    return _plain_file_dataset(tmp_path, [(row_id, (0,)) for row_id in ids], ONE_MODEL)


def _outcome(build):
    try:
        build()
    except InputError as exc:
        return type(exc), str(exc), exc.row
    return None


def _reference_id_check(ids):
    """The first blank or repeated id, in row order, as (error, message, row); None if none is."""
    seen = set()
    for i, row_id in enumerate(ids):
        if not row_id:
            return InputError, f"row {i + 1} has an empty id", i
        if row_id in seen:
            return DuplicateRowId, f"row id {row_id!r} appears more than once", i
        seen.add(row_id)
    return None


def _refuse_to_hash(ids):
    raise AssertionError("ids were keyed by their bytes")


def _lookups(build, ids):
    """The ids and the positions of every id, looked up through the scans and then the
    dict, of ``build(ids)``; or its error as (type, message, row)."""
    try:
        ds = build(ids)
    except InputError as exc:
        return type(exc), str(exc), exc.row
    return ds.row_ids, [ds.row_position(row_id) for row_id in ids * 3]


class TestStringIds:
    IDS = {"distinct": ["a", "b", "a" * 9, "x\xe9x", "c"], "repeated": ["a", "b", "a" * 9, "b", "c"],
           "blank": ["a", "b", "", "d", "c"]}

    @pytest.fixture(params=["validate_dataset", "quoted-file", "edge-byte-file"])
    def build(self, request, tmp_path):
        """A dataset of the given ids, built by one route that hands over strings."""
        if request.param == "validate_dataset":
            return lambda ids: validate_dataset([(row_id, (0,)) for row_id in ids], ONE_MODEL)
        # quotes send a file through csv.reader; a leading space makes a plain file strip its ids
        line = '"{}",0\n' if request.param == "quoted-file" else " {},0\n"
        path = tmp_path / "ids.csv"

        def load(ids):
            path.write_text("corporation,M\n" + "".join(map(line.format, ids)), "utf-8")
            return cli.load_dataset(str(path), ONE_MODEL, (False,))
        return load

    @pytest.mark.parametrize("case", IDS)
    def test_string_ids_never_reach_the_byte_key(self, build, monkeypatch, case):
        ids = self.IDS[case]
        before = _lookups(build, ids)
        monkeypatch.setattr(domain._RowIds, "keys", _refuse_to_hash)
        assert _lookups(build, ids) == before
        expected = _reference_id_check(ids)
        if expected is None:
            assert before == (tuple(ids), list(range(len(ids))) * 3)
        else:
            error, message, row = expected
            assert (before[0], before[2]) == (error, row) and before[1].endswith(message)

    def test_sampled_ids_never_reach_the_byte_key(self, monkeypatch):
        pmf = PmfSpec([[0.1, 0.2, 0.2, 0.2, 0.2, 0.1]])
        before = _lookups(lambda ids: sample_dataset(pmf, ONE_MODEL, 30, 7), ["r1", "r17", "r30"])
        monkeypatch.setattr(domain._RowIds, "keys", _refuse_to_hash)
        after = _lookups(lambda ids: sample_dataset(pmf, ONE_MODEL, 30, 7), ["r1", "r17", "r30"])
        assert after == before == (tuple(f"r{i}" for i in range(1, 31)), [0, 16, 29] * 3)

    def test_a_plain_file_of_ascii_ids_is_keyed_by_its_bytes(self, tmp_path, monkeypatch):
        # the patch takes effect: a plain file's ASCII ids are keyed by their bytes
        monkeypatch.setattr(domain._RowIds, "keys", _refuse_to_hash)
        with pytest.raises(AssertionError, match="keyed by their bytes"):
            _plain_one_model(tmp_path, self.IDS["distinct"][:3])


class TestRowIds:
    @pytest.mark.parametrize("bad", [1, None, b"b"], ids=["int", "none", "bytes"])
    @pytest.mark.parametrize("route", ["validate_dataset", "constructor"])
    def test_an_id_that_is_not_a_str_is_refused(self, tam_cmm_spec, route, bad):
        rows = [("a", (0, 5)), (bad, (5, 0)), ("c", (2, 3)), ("d", (3, 2))]
        with pytest.raises(InputError) as info:
            if route == "validate_dataset":
                validate_dataset(rows, tam_cmm_spec)
            else:
                AdoptionDataset([row_id for row_id, _ in rows], np.zeros((4, 2), int), tam_cmm_spec)
        assert type(info.value) is InputError
        assert str(info.value) == f"row 2 id must be a string, got {bad!r}"
        assert info.value.row == 1

    def test_an_id_that_is_not_a_str_is_refused_before_blank_and_repeated_ones(self, tam_cmm_spec):
        # 1 and "1" were once both read as "1", a repeated id
        rows = [("1", (0, 5)), ("1", (5, 0)), ("", (2, 3)), (1, (3, 2))]
        with pytest.raises(InputError) as info:
            validate_dataset(rows, tam_cmm_spec)
        assert type(info.value) is InputError
        assert (str(info.value), info.value.row) == ("row 4 id must be a string, got 1", 3)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(ROW_ID, min_size=2, max_size=12))
    # ids a plain file hands over packed: repeated, distinct, and alike up to a word edge
    @example(ids=["ab", "b", "ab"])
    @example(ids=["a\xe9a", "a" * 9, "a" * 8 + "b", "a" * 8])
    @example(ids=["a" * 8 + "b", "b", "a" * 8 + "b"])
    # ids of at most 8 bytes that differ only in trailing NULs
    @example(ids=["a", "a\x00", "a\x00\x00", "a\x00"])
    # a blank id, and one that only stripping blanks, each of which sends its file to
    # csv.reader: no blank id is packed, with or without a repeated id
    @example(ids=["a", "", "a"])
    @example(ids=["a", "", "b"])
    @example(ids=["a", " \xa0", "b"])
    def test_packed_checks_agree_with_the_in_order_loop(self, tmp_path, ids):
        assert _outcome(lambda: _dataset(ids)) == _reference_id_check(ids)
        if any("\ud800" <= char <= "\udfff" or char == "\n" for row_id in ids for char in row_id):
            return  # a lone surrogate has no UTF-8 bytes, and a line end would split its row
        path = tmp_path / "ids.csv"
        path.write_text("corporation,M\n" + "".join(f"{row_id},0\n" for row_id in ids), "utf-8")
        expected = _reference_id_check([row_id.strip() for row_id in ids])
        if expected is not None:
            error, message, row = expected
            expected = error, f"{path}: line {row + 2}: {message}", row
        assert _outcome(lambda: cli.load_dataset(str(path), ONE_MODEL, (False,))) == expected

    def test_hashes_tell_apart_ids_of_the_same_words(self):
        # words in another order, and a NUL that zero padding would hide, hash apart
        ids = ("a" * 8 + "b" * 8, "b" * 8 + "a" * 8, "a", "a\x00", "ab", "ba")
        assert not _file_ids(ids).needs_exact_check()
        assert _file_ids(ids + ("ba",)).needs_exact_check()

    # a tuple of ids is checked as strings and never hashed, so the constructor route no
    # longer reaches the zeroed mix; the plain-file route is the test of the fallback
    @pytest.mark.parametrize("route", ["constructor", "plain-file"])
    def test_equal_hashes_fall_back_to_the_exact_check(self, tmp_path, monkeypatch, route):
        monkeypatch.setattr(domain, "_mix", lambda words: np.zeros_like(words))
        build = _dataset if route == "constructor" else lambda ids: _plain_one_model(tmp_path, ids)
        distinct = ["a", "b", "ab", "ba", "a" * 9, "a" * 8 + "b", "xéx"]
        assert build(distinct).row_ids == tuple(distinct)
        with pytest.raises(DuplicateRowId) as info:
            build(distinct + ["a" * 8 + "b"])
        assert info.value.row == len(distinct)

    @pytest.mark.parametrize("route", ["constructor", "plain-file"])
    def test_the_check_needs_memory_for_the_ids_bytes_not_n_times_the_longest(
        self, tmp_path, route
    ):
        ids = [f"r{i}" for i in range(10_000)] + ["x" * 100_000]
        path = tmp_path / "ids.csv"
        path.write_text("corporation,M\n" + "".join(f"{row_id},0\n" for row_id in ids), "utf-8")
        tracemalloc.start()
        try:
            if route == "constructor":
                _dataset(ids)
            else:
                cli.load_dataset(str(path), ONE_MODEL, (False,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # 10^4 ids padded to 100 KB each would take 1 GB


    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(
                st.lists(st.sampled_from([b"\x00", b"a", b"b", b"\x80", b"\xe9", b"\xff"]),
                         min_size=1, max_size=40).map(b"".join),
                st.integers(0, 9),
            ),
            min_size=1, max_size=12,
        )
    )
    # one word in a buffer shorter than 8 bytes, and ids ending in the buffer's last 8 bytes
    @example(parts=[(b"a", 0)])
    @example(parts=[(b"\x00", 3), (b"a" * 9, 0)])
    @example(parts=[(b"a" * 40, 1), (b"\xff" * 17, 0)])
    @example(parts=[(b"a" * 16, 0), (b"a" * 8, 0), (b"a" * 8 + b"\x00", 0)])
    def test_keys_equal_the_one_pass_reference(self, parts):
        # each id is followed by its gap of filler bytes; a last gap of 0 ends the buffer with it
        data, starts, stops = b"", [], []
        for row_id, gap in parts:
            starts.append(len(data))
            data += row_id
            stops.append(len(data))
            data += b"," * gap
        ids = domain._RowIds(data, np.array(starts), np.array(stops))
        keys = ids.keys()
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, _one_pass_keys(ids))

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(st.text(st.characters(exclude_categories=("Cs",), exclude_characters=","),
                             max_size=10), max_size=12),
        filler=st.sampled_from(["", ",", ",\xe9,", "\n€", "\U0001f600"]),
    )
    @example(ids=["a\xe9", "", "€\U0001f600b", "ab"], filler=",")
    # ASCII ids with a character outside the BMP before, between and after them
    @example(ids=["ab", "c"], filler="\U0001f600")
    def test_strings_decode_ascii_and_non_ascii_ids(self, ids, filler):
        # ids between other bytes, some of them continuation bytes, as in a plain data file
        assert _file_ids(ids, filler.encode()).strings() == tuple(ids)

    def test_strings_decode_only_the_ids_and_their_commas(self):
        ids = domain._RowIds(b"\xff\xe2\x82\xaca,\xffc\xc3\xa9,\xff", np.array([1, 7]), np.array([5, 10]))
        assert ids.strings() == ("€a", "cé")


def _one_pass_keys(ids):
    """The reference for ``_RowIds.keys``: every word of every id, its place salted in,
    mixed and summed in one repeat and reduceat pass (ids of at least one byte)."""
    lengths = ids.stops - ids.starts
    counts = (lengths + 7) // 8
    firsts = np.cumsum(counts) - counts
    places = np.arange(counts.sum()) - np.repeat(firsts, counts)
    at = np.repeat(ids.starts, counts) + 8 * places
    words = ids._words(at, np.repeat(ids.stops, counts))
    salted = words ^ places.astype(np.uint64) * domain._WORD_SALT
    sums = np.add.reduceat(domain._mix(salted), firsts)
    return domain._mix(sums ^ lengths.astype(np.uint64))


def _reference_stage_check(values, spec, tops, ids, after=""):
    """The reference for ``domain._require_stages``: an n x k mask, on Python ints, of the
    cells of each column j in ``tops`` outside 0..tops[j], and its first hit by
    ``np.argwhere``, as (error, message, row); None if there is none."""
    cells = values.tolist()
    bad = np.array([[j in tops and not 0 <= x <= tops[j] for j, x in enumerate(row)]
                    for row in cells], bool).reshape(values.shape)
    hits = np.argwhere(bad)
    if not len(hits):
        return None
    i, j = (int(x) for x in hits[0])
    return (OutOfRangeStage, f"stage {cells[i][j]} out of range 0..{tops[j]} for model "
            f"{spec.names[j]!r} at row {ids[i]!r}{after}", i)


def _random_stages(rng, dtype, order, n, maxima):
    """An n x k matrix of ``dtype`` and memory ``order`` whose cells mostly lie within 0..m_j;
    about none, 2% or 20% of them are picked from values at and past the edges of the range
    and of the dtype."""
    info = np.iinfo(dtype)
    share = rng.choice([0.0, 0.02, 0.2])
    cells = []
    for _ in range(n):
        row = []
        for m in maxima:
            edges = [x for x in (-1, 0, m, m + 1, m + 2, info.min, info.max) if info.min <= x <= info.max]
            row.append(edges[rng.integers(len(edges))] if rng.random() < share
                       else int(rng.integers(0, min(m, info.max) + 1)))
        cells.append(row)
    return np.array(cells, dtype).reshape(n, len(maxima)).copy(order=order)


def _random_study(rng):
    """A spec of one to four models, each with m of 1 to 6 or 200 (past int8's range)."""
    maxima = [int(rng.choice([1, 2, 3, 6, 200])) for _ in range(rng.integers(1, 5))]
    return maxima, StudySpec([ModelSpec(f"M{j}", m) for j, m in enumerate(maxima)])


class TestStageRange:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64],
                             ids=["int8", "int32", "int64", "uint64"])
    def test_the_check_agrees_with_a_mask_and_argwhere(self, dtype, order):
        rng = np.random.default_rng([2, np.dtype(dtype).num, order == "F"])
        for _ in range(300):
            maxima, spec = _random_study(rng)
            n = int(rng.integers(0, 51))
            values = _random_stages(rng, dtype, order, n, maxima)
            ids = [f"r{i}" for i in range(n)]
            # a random subset of the columns, each on 0..m or, as a zero-stage column, 0..m-1
            tops = {j: m - int(rng.integers(0, 2)) for j, m in enumerate(maxima) if rng.random() < 0.7}
            after = str(rng.choice(["", " before adding the zero stage"]))
            expected = _reference_stage_check(values, spec, tops, ids, after)
            assert _outcome(lambda: domain._require_stages(values, spec, tops, ids, after)) == expected
            if expected is None:
                peak = max((int(values[:, j].max(initial=0)) for j in tops), default=0)
                assert domain._require_stages(values, spec, tops, ids, after) == peak

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64],
                             ids=["int8", "int32", "int64", "uint64"])
    def test_a_dataset_checks_every_column_as_the_reference_does(self, dtype, order):
        rng = np.random.default_rng([3, np.dtype(dtype).num, order == "F"])
        for _ in range(200):
            maxima, spec = _random_study(rng)
            n = int(rng.integers(len(maxima) + 1, 51))
            values = _random_stages(rng, dtype, order, n, maxima)
            ids = tuple(f"r{i}" for i in range(n))
            expected = _reference_stage_check(values, spec, dict(enumerate(maxima)), ids)
            assert _outcome(lambda: AdoptionDataset(ids, values, spec)) == expected

    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "csv-reader"])
    def test_a_loaded_file_checks_zero_stage_columns_then_every_column(self, tmp_path, plain):
        rng = np.random.default_rng([4, plain])
        path = tmp_path / "data.csv"
        for _ in range(150):
            maxima, spec = _random_study(rng)
            n = int(rng.integers(0, 51))
            values = _random_stages(rng, np.int64, "C", n, maxima)
            ids = [f"r{i}" for i in range(n)]
            flags = tuple(bool(rng.random() < 0.5) for _ in maxima)
            # a quoted id leaves the file to csv.reader
            rows = [",".join([row_id if plain else f'"{row_id}"', *map(str, cells)])
                    for row_id, cells in zip(ids, values.tolist())]
            path.write_text("\n".join(["corporation," + ",".join(spec.names), *rows]) + "\n", "utf-8")
            tops = {j: m - 1 for j, (m, flag) in enumerate(zip(maxima, flags)) if flag}
            expected = _reference_stage_check(values, spec, tops, ids, " before adding the zero stage")
            if expected is None and n > len(maxima):
                expected = _reference_stage_check(values + flags, spec, dict(enumerate(maxima)), ids)
            if expected is None and n <= len(maxima):
                expected = (TooFewRows, f"{path}: need more rows than models, got n={n} with "
                            f"k={len(maxima)}", None)
            elif expected is not None:
                error, message, row = expected
                expected = error, f"{path}: line {row + 2}: {message}", row
            assert _outcome(lambda: cli.load_dataset(str(path), spec, flags)) == expected
