import csv
import io
import json
import math
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adoptindex import ModelSpec, StudySpec, cli, domain, index, simulation
from adoptindex.cli import main
from adoptindex.errors import AdoptionIndexError

LINEAR_SPEC = {
    "models": [
        {"name": "TAM", "m": 5, "alpha": 1.0, "beta": 1.0,
         "pmf": [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6]},
        {"name": "CMM", "m": 5, "alpha": 1.0, "beta": 1.0,
         "pmf": [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6]},
    ]
}

SYMMETRIC_DATA = "corporation,TAM,CMM\nc1,0,5\nc2,5,0\nc3,2,2\nc4,3,3\n"
INDUSTRY_DATA = "corporation,TAM,CMM\nc1,0,1\nc2,5,4\nc3,2,0\nc4,3,5\nc5,1,3\n"


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(LINEAR_SPEC))
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(SYMMETRIC_DATA)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(token):
    raise AssertionError(f"{token} is not JSON")


def strict_json(text):
    """Parse a structured report as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


class TestCompute:
    def test_symmetric_fixture_gives_midpoint_index(self, capsys, spec_file, data_file):
        code, out, err = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file,
            "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        assert report["results"]["index"] == 0.5
        assert report["results"]["scores"] == {"TAM": 2.5, "CMM": 2.5}
        assert report["inputs"]["n"] == 4
        assert "interval" in report["results"]

    def test_table_format_contains_the_same_fields(self, capsys, spec_file, data_file):
        code, out, _ = run_cli(capsys, "compute", "--spec", spec_file, "--data", data_file)
        assert code == 0
        assert "index: 0.5" in out
        assert "variance" in out and "interval" in out

    def test_empty_data_file(self, capsys, spec_file, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(capsys, "compute", "--spec", spec_file, "--data", str(empty))
        assert code == 2
        assert "empty" in err

    def test_out_of_range_cell_names_the_row(self, capsys, spec_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("corporation,TAM,CMM\n5,1,1\n6,2,2\n7,6,0\n8,3,3\n")
        code, _, err = run_cli(capsys, "compute", "--spec", spec_file, "--data", str(bad))
        assert code == 2
        assert "'7'" in err

    def test_empty_corporation_id_names_file_and_line(self, capsys, spec_file, tmp_path):
        bad = tmp_path / "noid.csv"
        bad.write_text("corporation,TAM,CMM\nc1,0,5\n,1,2\nc3,2,2\nc4,3,3\n")
        code, _, err = run_cli(capsys, "compute", "--spec", spec_file, "--data", str(bad))
        assert code == 2
        assert str(bad) in err and "line 3" in err and "empty" in err

    def test_alpha_level_validated(self, capsys, spec_file, data_file):
        code, _, err = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file,
            "--alpha-level", "1.5",
        )
        assert code == 2
        assert "alpha-level" in err

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-16", "1.5e-16"])
    def test_alpha_level_whose_quantile_level_rounds_to_one(self, capsys, spec_file, data_file, alpha):
        code, out, err = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file, "--alpha-level", alpha,
        )
        assert (code, out) == (2, "")
        assert "--alpha-level" in err and repr(float(alpha)) in err

    def test_add_zero_stage_shifts_before_validation(self, capsys, tmp_path):
        spec = {
            "models": [{"name": "CMM", "m": 5, "add_zero_stage": True}],
        }
        spec_path = tmp_path / "shift.json"
        spec_path.write_text(json.dumps(spec))
        data_path = tmp_path / "shift.csv"
        # recorded on a five-stage scale 0..4; shifting makes them 1..5
        data_path.write_text("corporation,CMM\nc1,0\nc2,2\nc3,4\n")
        code, out, err = run_cli(
            capsys, "compute", "--spec", str(spec_path), "--data", str(data_path),
            "--format", "structured",
        )
        assert code == 0, err
        assert strict_json(out)["results"]["scores"]["CMM"] == 3.0


@pytest.mark.parametrize(
    "model_fields,top_level,named",
    [
        ({"m": 5.7}, {}, "m must be an integer"),
        ({"m": True}, {}, "m must be an integer"),
        ({"m": "5"}, {}, "m must be an integer"),
        ({"alpha": "fast"}, {}, "alpha"),
        ({"alpha": True}, {}, "alpha"),
        ({"alpha": -1}, {}, "alpha must be > 0, got -1.0"),
        ({"beta": "2"}, {}, "beta"),
        ({"weight": "1"}, {}, "weight"),
        ({"weight": True}, {}, "weight"),
        ({"add_zero_stage": "yes"}, {}, "add_zero_stage"),
        ({"pmf": [0.5, "x", 0.1, 0.1, 0.1, 0.2]}, {}, "pmf of model 'M': entry"),
        ({"pmf": [True, 0, 0, 0, 0, 0]}, {}, "pmf of model 'M': entry"),
        ({"pmf": 0.5}, {}, "pmf of model 'M' must be a list of numbers"),
        ({}, {"latent_correlation": [["one"]]}, "latent correlation"),
        ({}, {"latent_correlation": [[True]]}, "latent correlation"),
        ({}, {"latent_correlation": 1.0}, "latent correlation"),
        ({"name": None}, {}, "model name"),
        ({"name": 7}, {}, "model name"),
        ({"beat": 3}, {}, "model 0: unknown key 'beat'"),
        ({}, {"latent_corelation": [[1.0]]}, "unknown key 'latent_corelation'"),
    ],
    ids=[
        "m-float", "m-bool", "m-string", "alpha-string", "alpha-bool", "alpha-negative", "beta-string",
        "weight-string", "weight-bool", "add_zero_stage-string", "pmf-string-entry",
        "pmf-bool-entry", "pmf-not-a-list", "latent-string-entry", "latent-bool-entry",
        "latent-not-a-matrix", "name-null", "name-number", "model-key-misspelt",
        "top-level-key-misspelt",
    ],
)
def test_spec_values_are_validated_not_coerced(capsys, tmp_path, model_fields, top_level, named):
    model = {"name": "M", "m": 5, "pmf": [1 / 6] * 6, **model_fields}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"models": [model], **top_level}))
    code, out, err = run_cli(
        capsys, "simulate", "--spec", str(spec_path), "--study", "coverage",
        "--n", "20", "--replications", "2", "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {spec_path}: ") and named in err


@pytest.mark.parametrize("study", ["normality", "coverage", "variance-ratio"])
@pytest.mark.parametrize("entry", ["Infinity", "NaN"])
def test_non_finite_latent_correlations_are_refused(capsys, tmp_path, study, entry):
    # Infinity passed every check and drew from NaN normals; NaN was called asymmetric
    models = json.dumps([{"name": name, "m": 5, "pmf": [1 / 6] * 6} for name in "AB"])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(f'{{"models": {models}, "latent_correlation": [[1, {entry}], [{entry}, 1]]}}')
    code, out, err = run_cli(
        capsys, "simulate", "--spec", str(spec_path), "--study", study,
        "--n", "50", "--replications", "200", "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {spec_path}: latent correlation entries must be finite\n"


SHIFTED_MODELS = [{"name": "CMM", "m": 5, "add_zero_stage": True}]


@pytest.mark.parametrize(
    "models,text,line,named",
    [
        (
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\n\nc2,5,0\n\nc3,2,2\nc4,x,3\n",
            7,
            ["'c4'", "'TAM'", "must be a 64-bit integer, got 'x'"],
        ),
        (
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\nc2,5,0\n\nc3,2,7\nc4,3,3\n",
            5,
            ["stage 7 out of range 0..5 for model 'CMM' at row 'c3'"],
        ),
        (
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\nc2,5,0\nc3,2,2\n\nc2,3,3\n",
            6,
            ["row id 'c2' appears more than once"],
        ),
        (
            # recorded on the five-stage scale 0..4, checked as written before the shift
            SHIFTED_MODELS,
            "corporation,CMM\nc1,0\nc2,5\nc3,4\n",
            3,
            ["stage 5 out of range 0..4 for model 'CMM' at row 'c2' before adding the zero stage"],
        ),
        (
            # -1 is below the recorded scale, though the shift would make it stage 0
            SHIFTED_MODELS,
            "corporation,CMM\nc1,0\nc2,3\nc3,-1\nc4,4\n",
            4,
            ["stage -1 out of range 0..4 for model 'CMM' at row 'c3' before adding the zero stage"],
        ),
        (
            # a flagged column after an unflagged one is named by its own position
            [{"name": "TAM", "m": 3}, *SHIFTED_MODELS],
            "corporation,TAM,CMM\nc1,0,4\nc2,3,5\nc3,2,2\nc4,1,0\n",
            3,
            ["stage 5 out of range 0..4 for model 'CMM' at row 'c2' before adding the zero stage"],
        ),
        (
            # two flagged columns, both bad: the first bad cell in row order is named
            [{"name": "TAM", "m": 3, "add_zero_stage": True}, *SHIFTED_MODELS],
            "corporation,TAM,CMM\nc1,0,4\nc2,2,5\nc3,3,0\nc4,1,0\n",
            3,
            ["stage 5 out of range 0..4 for model 'CMM' at row 'c2' before adding the zero stage"],
        ),
        (
            # both bad on one row: the first column is named
            [{"name": "TAM", "m": 3, "add_zero_stage": True}, *SHIFTED_MODELS],
            "corporation,TAM,CMM\nc1,0,4\nc2,-1,5\nc3,1,0\nc4,2,0\n",
            3,
            ["stage -1 out of range 0..2 for model 'TAM' at row 'c2' before adding the zero stage"],
        ),
        (
            # the shift would wrap a 64-bit cell; the value is reported as written
            SHIFTED_MODELS,
            "corporation,CMM\nc1,0\nc2,9223372036854775807\nc3,4\n",
            3,
            ["stage 9223372036854775807 out of range 0..4 for model 'CMM' at row 'c2'"],
        ),
        (
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\nc2,5,0\nc3,99999999999999999999,2\nc4,3,3\n",
            4,
            ["'c3'", "'TAM'", "must be a 64-bit integer"],
        ),
        (
            # -2^63 is a 64-bit integer, 2^63 is not
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\nc2,-9223372036854775808,0\nc3,9223372036854775808,2\n",
            4,
            ["'c3'", "'TAM'", "must be a 64-bit integer, got '9223372036854775808'"],
        ),
        (
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\nc2," + "1" * 140_000 + ",0\nc3,2,2\n",
            3,
            ["field larger than field limit"],
        ),
        (
            LINEAR_SPEC["models"],
            "corporation,TAM,CMM\nc1,0,5\n" + "c" * 140_000 + ",1,0\nc3,2,2\nc4,3,3\n",
            3,
            ["field larger than field limit"],
        ),
    ],
    ids=["blank-lines-before-bad-cell", "range", "duplicate-id", "zero-stage-range",
         "zero-stage-negative", "zero-stage-second-column", "zero-stage-two-columns",
         "zero-stage-two-columns-one-row", "zero-stage-wrap", "oversized-stage", "int64-edges", "oversized-field",
         "oversized-id"],
)
def test_data_errors_name_file_and_physical_line(capsys, tmp_path, models, text, line, named):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"models": models}))
    data_path = tmp_path / "data.csv"
    data_path.write_text(text)
    code, out, err = run_cli(capsys, "compute", "--spec", str(spec_path), "--data", str(data_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {data_path}: ") and f"line {line}" in err
    for part in named:
        assert part in err


@pytest.mark.parametrize("which", ["spec", "data"])
def test_file_that_is_not_utf8_is_an_input_error(capsys, spec_file, data_file, which):
    path = spec_file if which == "spec" else data_file
    with open(path, "ab") as handle:
        handle.write(b"c9,\xff\xfe,1\n")
    code, out, err = run_cli(capsys, "compute", "--spec", spec_file, "--data", data_file)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "UTF-8" in err


@pytest.mark.parametrize(
    "spec,named",
    [
        (None, "cannot read spec file ("),
        ([LINEAR_SPEC], "spec must be a JSON object with a 'models' list"),
        ({"models": []}, "'models' must be a non-empty list"),
        ({"models": LINEAR_SPEC["models"][0]}, "'models' must be a non-empty list"),
        ({"models": [LINEAR_SPEC["models"][0], "CMM"]}, "model 1 must be an object"),
        ({"models": [{"m": 5}]}, "model 0 is missing 'name'"),
        ({"models": [{"name": "TAM"}]}, "model 0 is missing 'm'"),
    ],
    ids=["missing", "not-an-object", "no-models", "models-not-a-list", "model-not-an-object",
         "no-name", "no-m"],
)
def test_malformed_spec_file_names_the_file(capsys, tmp_path, data_file, spec, named):
    spec_path = tmp_path / "spec.json"
    if spec is not None:
        spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "compute", "--spec", str(spec_path), "--data", data_file)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {spec_path}: ") and named in err


@pytest.mark.parametrize("command", [["surface", "--resolution", "3"], ["compute"]])
def test_an_m_past_the_float_range_names_the_spec_file(capsys, tmp_path, data_file, command):
    # every score and sub-index works in float(m), which would overflow
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"models": [{"name": "TAM", "m": 5}, {"name": "CMM", "m": 10**400}]}))
    data = ["--data", data_file] if command == ["compute"] else []
    code, out, err = run_cli(capsys, *command, "--spec", str(spec_path), *data)
    assert (code, out) == (2, "")
    assert err == (f"error: {spec_path}: model 'CMM': m must be at most 1.7976931348623157e+308, "
                   "got an integer of 1329 bits\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["missing.csv", "."], ids=["missing", "a-dir"])
def test_unreadable_data_file_names_the_file(capsys, spec_file, tmp_path, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "compute", "--spec", spec_file, "--data", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: cannot read data file (")


# Byte strings a mutation may insert: encoding errors, CSV and JSON
# structure, blank lines, and a stage too large for 64 bits.
NOISE = st.sampled_from(
    [b"\xff", b"\xc3", b"\x00", b"\n", b"\n\n", b"\r", b",", b'"', b" ", b"-", b"0", b"7",
     b"99999999999999999999", b"[", b"{", b"null", b"true", b""]
) | st.binary(min_size=1, max_size=4)


@st.composite
def mutated_inputs(draw) -> dict[str, bytes]:
    """The spec and data fixtures with one to three byte runs of one of them
    dropped, inserted or replaced."""
    files = {"spec": json.dumps(LINEAR_SPEC).encode(), "data": INDUSTRY_DATA.encode()}
    target = draw(st.sampled_from(sorted(files)))
    data = bytearray(files[target])
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        data[start:start + draw(st.integers(0, 3))] = draw(NOISE)
    files[target] = bytes(data)
    return files


FUZZ_COMMANDS = [
    ["compute", "--data", "{data}"],
    ["test-one", "--data", "{data}", "--row", "c1"],
    ["test-two", "--data-a", "{data}", "--data-b", "{clean}"],
    ["simulate", "--study", "coverage", "--n", "20", "--replications", "2", "--seed", "1"],
    ["surface", "--resolution", "3"],
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    files=mutated_inputs(),
    command=st.sampled_from(FUZZ_COMMANDS),
    out_format=st.sampled_from(["table", "structured"]),
)
def test_mutated_inputs_end_in_an_exit_status(tmp_path, files, command, out_format):
    paths = {"spec": tmp_path / "spec.json", "data": tmp_path / "data.csv",
             "clean": tmp_path / "clean.csv"}
    paths["spec"].write_bytes(files["spec"])
    paths["data"].write_bytes(files["data"])
    paths["clean"].write_text(INDUSTRY_DATA)
    names = {key: str(path) for key, path in paths.items()}
    argv = [command[0], "--spec", names["spec"], "--format", out_format,
            *(part.format(**names) for part in command[1:])]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    elif out_format == "structured":
        strict_json(out.getvalue())


@pytest.mark.parametrize(
    "module,allocation,command",
    [
        (simulation, "_draw", ["simulate", "--study", "size", "--n", "20", "--replications", "2",
                               "--seed", "1"]),
        (cli, "_plain_stages", ["compute", "--data", "{data}"]),
    ],
    ids=["simulate", "compute"],
)
@pytest.mark.parametrize("message", ["Unable to allocate 14.6 TiB for an array", ""])
def test_running_out_of_memory_is_an_error_not_a_traceback(
    capsys, monkeypatch, spec_file, data_file, module, allocation, command, message
):
    # an allocation on the command's path fails; none is made for real
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, allocation, exhausted)
    argv = [part.format(data=data_file) for part in command]
    code, out, err = run_cli(capsys, argv[0], "--spec", spec_file, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {message or 'out of memory'}\n"


# Edits that turn a plain data file into a near-plain one. Cells of any
# spelling stay on the columnar path and must read as int() reads them or be
# refused alike, in the same order, and CRLF line ends read as LF. Quotes,
# carriage returns outside CRLF line ends, short or long lines,
# whitespace-only lines, bytes that are not UTF-8 and fields over the csv
# field limit must leave the file to csv.reader. Whitespace ids hold
# characters str.strip() removes but csv.reader does not split on. "\udcff"
# is written as the byte 0xff, which is not UTF-8.
FIELD_LIMIT = csv.field_size_limit()
PLAIN_EDGE_CELLS = ["007", "6", "9" * 18, "9" * 19, "1" * 19, "1" * 20, "0" * 20 + "3"]
ODD_CELLS = ["+3", " 3 ", "1_0", "\u0663", "", "3.5", "-1", "#3", '"3"', "3\x0b", " ",
             "\udcff3", "9" * 5000, "1" * (FIELD_LIMIT + 1)]
ODD_IDS = [" c9 ", "\xe9", "#c", "c\x0b9", "c\r9", "\x1cc9", "c ", "", "c1", "1", '"c9"',
           "c\xa0", "c\x00", "c\udcff"]
ODD_LINES = ["", ",,", " , , ", "\t,\x0b,\xa0", "c9,1", "c9,1,2,3", "7", "7,1,2,3", "\x0b", "#"]
ODD_HEADERS = ["corporation, TAM ,CMM", "\ufeffcorporation,TAM,CMM", " ,TAM,CMM",
               "\ncorporation,TAM,CMM", "corporation,TAM", "corporation,TAM,CMM,X",
               "corporation,TAM,\xa0CMM", "corporation,TAM,CMM\x0b"]
TWO_MODELS = StudySpec([ModelSpec("TAM", 5), ModelSpec("CMM", 5)])


@st.composite
def near_plain_csv(draw) -> bytes:
    """A plain two-model data file with up to three edits drawn from the lists above,
    CRLF line ends or a missing final newline. A "later" edit puts two odd cells
    on two lines, a "row" edit one in each column of a line."""
    prefix = draw(st.sampled_from(["c", ""]))
    rows = [[f"{prefix}{i}", str(draw(st.integers(0, 5))), str(draw(st.integers(0, 5)))]
            for i in range(draw(st.integers(2, 8)))]
    header, inserted = "corporation,TAM,CMM", []
    end, last = "\n", "\n"
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["edge", "cell", "later", "row", "id", "line", "header", "crlf", "last"]))
        i = draw(st.integers(0, len(rows) - 1))
        if edit in ("edge", "cell"):
            rows[i][draw(st.integers(1, 2))] = draw(
                st.sampled_from(PLAIN_EDGE_CELLS if edit == "edge" else ODD_CELLS))
        elif edit == "later":
            for row in (i, draw(st.integers(i, len(rows) - 1))):
                rows[row][draw(st.integers(1, 2))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "row":
            rows[i][1:] = draw(st.lists(st.sampled_from(ODD_CELLS), min_size=2, max_size=2))
        elif edit == "id":
            rows[i][0] = draw(st.sampled_from(ODD_IDS))
        elif edit == "line":
            inserted.append((i, draw(st.sampled_from(ODD_LINES))))
        elif edit == "header":
            header = draw(st.sampled_from(ODD_HEADERS))
        elif edit == "crlf":
            end = last = "\r\n"
        else:
            last = ""
    lines = [",".join(row) for row in rows]
    for i, line in inserted:
        lines.insert(i, line)
    return (end.join([header, *lines]) + last).encode("utf-8", "surrogateescape")


def _load_outcome(path, flags):
    try:
        dataset = cli.load_dataset(path, TWO_MODELS, flags)
    except AdoptionIndexError as exc:
        return type(exc), str(exc)
    return dataset.row_ids, dataset.values.dtype, dataset.values.shape, dataset.values.tobytes()


def _read_outcome(read, path, raw):
    try:
        table = read(path, raw, TWO_MODELS)
    except AdoptionIndexError as exc:
        return type(exc), str(exc)
    return table and (tuple(table[0]), table[1].tobytes(), list(table[2]))


HEADER = b"corporation,TAM,CMM\n"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=near_plain_csv(), flags=st.tuples(st.booleans(), st.booleans()))
@example(raw=b"corporation,TAM,CMM\nc0,1,2\nc1," + b"9" * 19 + b",0\nc2,3,4\n", flags=(False, False))
@example(raw=b"corporation,TAM,CMM\nc0,1,2\nc\r1,1,0\nc2,3,4\n", flags=(False, False))
@example(raw=b"corporation,TAM,CMM\n0,1\n2,3,4,5\n6,1,1\n7,2,2\n", flags=(False, True))
# cells past 255 and 65535 catch place values multiplied in a narrow dtype
@example(raw=b"corporation,TAM,CMM\nc0,300,900\nc1,256,65536\nc2,123456789012345678,4\n",
         flags=(False, False))
# a bad cell on a later line than a valid odd one, and bad cells read column by column
@example(raw=HEADER + b"c0,+3,2\nc1,1,3.5\nc2,3,4\n", flags=(False, False))
@example(raw=HEADER + b"c0,1,3.5\nc1,1_0,2\nc2,#3,4\n", flags=(False, False))
# odd cells in both columns of one row
@example(raw=HEADER + b"c0, 3 ,+4\nc1,1,2\nc2,3,4\n", flags=(False, False))
# invalid UTF-8 in a stage cell after a bad cell: csv.reader stops at the bytes first
@example(raw=HEADER + b"c0,3.5,1\nc1,\xff3,2\nc2,3,4\n", flags=(False, False))
# a whitespace-only line is skipped, so the bad cell after it is on line 4
@example(raw=HEADER + b"c0,1,2\n , , \nc1,3.5,4\n", flags=(False, False))
@example(raw=HEADER + b"c0,1," + b"1" * (FIELD_LIMIT + 1) + b"\nc1,3,4\n", flags=(False, False))
@example(raw=HEADER + b"c0,1," + b"9" * 5000 + b"\nc1,3,4\n", flags=(False, False))
# CRLF and LF line ends mixed, then a carriage return before a CRLF, and a blank and a
# whitespace-only CRLF line, each before a bad cell whose line number it must not shift
@example(raw=HEADER + b"c0,1,2\r\nc1,+3,4\nc2,3.5,4\r\nc3,1,1\n", flags=(False, False))
@example(raw=HEADER + b"c0,1,2\r\r\nc1,3.5,4\r\n", flags=(False, False))
@example(raw=HEADER + b"c0,1,2\r\n\r\nc1,3.5,4\r\n", flags=(False, False))
@example(raw=HEADER + b"c0,1,2\r\n , , \r\nc1,3.5,4\r\n", flags=(False, False))
@pytest.mark.parametrize("block", [cli._BLOCK_BYTES, 1, 7, 64])
def test_columnar_reader_agrees_with_csv_reader(tmp_path, monkeypatch, block, raw, flags):
    # small blocks put long lines, CRLF ends, odd cells and edge-byte ids in later blocks
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    fast = _load_outcome(str(path), flags)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_read_plain", lambda path, raw, spec: None)
        reference = _load_outcome(str(path), flags)
    assert fast == reference
    plain = _read_outcome(cli._read_plain, str(path), raw)
    if plain is not None:
        assert plain == _read_outcome(cli._read_csv, str(path), raw)
    if plain is not None and len(plain) == 3:  # a table: its ids are packed, none with anything to strip
        assert isinstance(cli._read_plain(str(path), raw, TWO_MODELS)[0], domain._RowIds)
        assert all(row_id == row_id.strip() for row_id in plain[0])


def _blocked_file(bad_last: bool) -> bytes:
    """About 5,000 lines of ids and cells of varied widths, some odd or space-padded;
    the last line's last cell is bad when ``bad_last``."""
    cells = ["0", "5", "3", "007", " 4", "2 ", "+1", "1_0", "4"]
    rows = [f"r{i * 7919:x},{cells[i % 9]},{cells[(i * 5) % 9]}" for i in range(5_000)]
    if bad_last:
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ",3.5"
    return (HEADER.decode() + "\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("bad_last", [False, True], ids=["good", "bad-last-cell"])
def test_blocks_of_16_bytes_read_as_one_block_does(monkeypatch, bad_last):
    raw = _blocked_file(bad_last)

    def read(block):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
        try:
            ids, values, lines = cli._read_plain("data.csv", raw, TWO_MODELS)
        except AdoptionIndexError as exc:
            return type(exc), str(exc), exc.row
        return tuple(ids), values.tobytes(), values.strides, list(lines)

    whole = read(len(raw))
    assert read(cli._BLOCK_BYTES) == whole
    assert read(16) == whole
    if bad_last:
        assert whole[1] == ("data.csv: row 'r25c0d09' (line 5001): stage for 'CMM' must be a "
                            "64-bit integer, got '3.5'")
    else:
        ids, values, _ = cli._read_csv("data.csv", raw, TWO_MODELS)
        assert whole[:2] == (tuple(ids), values.tobytes())


# an id with a non-ASCII byte inside stays packed, and the file is checked to be UTF-8
@pytest.mark.parametrize("prefix", ["a", "a\xe9"], ids=["ascii", "utf-8"])
def test_a_plain_load_holds_little_beyond_its_result(prefix):
    # the temporaries are one block's; parsing the whole body at once takes about 10 MB here,
    # and decoding the whole of the UTF-8 file to check it about 3.5 MB
    raw = b"corporation,TAM,CMM,DIG\n" + "".join(
        f"{prefix}{i:07d},{i % 6},{(3 * i) % 6},{(2 * i) % 5}\n" for i in range(100_000)
    ).encode()
    spec = StudySpec([ModelSpec("TAM", 5), ModelSpec("CMM", 5), ModelSpec("DIG", 5)])
    tracemalloc.start()
    try:
        ids, values, _ = cli._read_plain("data.csv", raw, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = values.nbytes + ids.starts.nbytes + ids.stops.nbytes
    assert peak - held < 2 * 2**20


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader ran")


INGEST_SHAPED_SPEC = {
    "models": [
        {"name": "TAM", "m": 5},
        {"name": "CMM", "m": 5, "alpha": 1.0, "beta": 3.0},
        {"name": "DIG", "m": 5, "alpha": 0.3, "beta": 1.0, "add_zero_stage": True},
    ]
}
INGEST_SHAPED_DATA = "".join(
    ["corporation,TAM,CMM,DIG\n"]
    + [f"a{i:07d},{i % 6},{(3 * i) % 6},{(2 * i) % 5}\n" for i in range(12)]
)


@pytest.mark.parametrize(
    "spec,text,error",
    [
        (LINEAR_SPEC, INDUSTRY_DATA, None),
        (INGEST_SHAPED_SPEC, INGEST_SHAPED_DATA, None),
        (INGEST_SHAPED_SPEC, INGEST_SHAPED_DATA.replace("a0000011,5,", "a0000011,5.5,"),
         "row 'a0000011' (line 13): stage for 'TAM' must be a 64-bit integer, got '5.5'"),
        (LINEAR_SPEC, INDUSTRY_DATA.replace(",5\n", ", 5\n"), None),
        (LINEAR_SPEC, INDUSTRY_DATA.replace("\n", "\r\n"), None),
        (INGEST_SHAPED_SPEC, INGEST_SHAPED_DATA.replace("a0000011,5,", "a0000011,5.5,")
         .replace("\n", "\r\n"),
         "row 'a0000011' (line 13): stage for 'TAM' must be a 64-bit integer, got '5.5'"),
    ],
    ids=["industry", "ingest-shaped", "ingest-shaped-bad-cell", "padded-cell", "crlf",
         "crlf-bad-cell"],
)
def test_plain_files_skip_csv_reader(tmp_path, monkeypatch, spec, text, error):
    spec_path, data_path = tmp_path / "spec.json", tmp_path / "data.csv"
    spec_path.write_text(json.dumps(spec))
    data_path.write_text(text)
    loaded = cli.load_spec(str(spec_path))
    monkeypatch.setattr(cli.csv, "reader", _no_csv_reader)
    try:
        dataset = cli.load_dataset(str(data_path), loaded["spec"], loaded["offset_flags"])
    except AdoptionIndexError as exc:
        assert str(exc) == f"{data_path}: {error}"
    else:
        assert error is None and dataset.n == text.count("\n") - 1


@pytest.mark.parametrize(
    "text",
    [
        INDUSTRY_DATA.replace("c2", '"c2"'),
        INDUSTRY_DATA.replace("\nc3", "\rc3"),
        INDUSTRY_DATA.replace("\nc3", "\n\nc3"),
        INDUSTRY_DATA.replace("\nc3", "\n , , \nc3"),
        INDUSTRY_DATA.replace("c3", "c\udcff3"),
        INDUSTRY_DATA.replace("\nc3", "\n ,x,y\nc3"),
        INDUSTRY_DATA.replace("c3", " c3"),
        INDUSTRY_DATA.replace("c3", "c3 "),
        INDUSTRY_DATA.replace("c3", "c3\xe9"),
        INDUSTRY_DATA.replace("c3", "\x1cc3"),
        INDUSTRY_DATA.replace("c3", "\xa0c3"),
    ],
    ids=["quote", "lone-cr", "blank-line", "whitespace-line", "not-utf8", "blank-id",
         "space-led-id", "space-ended-id", "non-ascii-ended-id", "separator-led-id", "nbsp-led-id"],
)
def test_other_files_reach_csv_reader(tmp_path, monkeypatch, text):
    data_path = tmp_path / "data.csv"
    data_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(cli.csv, "reader", _no_csv_reader)
    with pytest.raises(AssertionError, match="csv.reader ran"):
        cli.load_dataset(str(data_path), TWO_MODELS, (False, False))


def _refuse_to_decode(ids):
    raise AssertionError("every row id was decoded")


def test_plain_file_commands_decode_no_row_ids(capsys, tmp_path, monkeypatch):
    # compute and test-two read no id, test-one searches the packed ids for its row, and a
    # refused cell decodes only its own row's id: none of them makes every id a string
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(INGEST_SHAPED_SPEC))
    data = {"a": INGEST_SHAPED_DATA, "b": INGEST_SHAPED_DATA.replace("a00", "b00"),
            "bad": INGEST_SHAPED_DATA.replace("a0000011,5,", "a0000011,5.5,")}
    for name, text in data.items():
        (tmp_path / f"{name}.csv").write_text(text)
    runs = [["compute", "--data", "a.csv"], ["test-two", "--data-a", "a.csv", "--data-b", "b.csv"],
            ["test-one", "--data", "a.csv", "--row", "a0000007"], ["compute", "--data", "bad.csv"]]
    monkeypatch.chdir(tmp_path)
    free = [run_cli(capsys, *run, "--spec", "spec.json") for run in runs]
    assert [code for code, _, _ in free] == [0, 0, 0, 2]
    assert free[3][2] == ("error: bad.csv: row 'a0000011' (line 13): "
                          "stage for 'TAM' must be a 64-bit integer, got '5.5'\n")
    monkeypatch.setattr(domain._RowIds, "strings", _refuse_to_decode)
    assert [run_cli(capsys, *run, "--spec", "spec.json") for run in runs] == free
    loaded = cli.load_spec("spec.json")
    with pytest.raises(AssertionError, match="every row id was decoded"):
        cli.load_dataset("a.csv", loaded["spec"], loaded["offset_flags"]).row_ids


@pytest.mark.parametrize("cells", ["{},{}", " {}, {}"], ids=["digits", "padded"])
@pytest.mark.parametrize("row_id", ["\xe9{:07d}", " c{} "], ids=["non-ascii", "spaced"])
def test_an_edge_byte_file_names_a_bad_cell_through_csv_reader(tmp_path, cells, row_id):
    # csv.reader reads such a file and names the bad cell's row by its stripped id
    rows = [row_id.format(i) + "," + cells.format(i % 6, (2 * i) % 6) for i in range(20)]
    rows[-1] = rows[-1][:-1] + "3.5"
    path = tmp_path / "edge.csv"
    path.write_text("corporation,TAM,CMM\n" + "\n".join(rows) + "\n", "utf-8")
    assert cli._read_plain(str(path), path.read_bytes(), TWO_MODELS) is None
    with pytest.raises(AdoptionIndexError) as info:
        cli.load_dataset(str(path), TWO_MODELS, (False, False))
    named = row_id.format(19).strip()
    assert str(info.value) == (f"{path}: row {named!r} (line 21): "
                               "stage for 'CMM' must be a 64-bit integer, got '3.5'")


class TestTests:
    def test_one_sample_fixture(self, capsys, tmp_path):
        spec_path = tmp_path / "one.json"
        spec_path.write_text(json.dumps({"models": [{"name": "M", "m": 5}]}))
        data_path = tmp_path / "one.csv"
        data_path.write_text("corporation,M\nc1,1\nc2,2\nc3,3\nc4,4\nc5,5\n")
        code, out, err = run_cli(
            capsys, "test-one", "--spec", str(spec_path), "--data", str(data_path),
            "--row", "c1", "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        assert report["results"]["statistic"] == pytest.approx(3.872983, abs=1e-6)
        assert report["results"]["df"] == 2
        assert report["results"]["reject"] is False
        assert any("reduced sample" in note for note in report["notes"])

    def test_one_sample_missing_row(self, capsys, spec_file, data_file):
        code, _, err = run_cli(
            capsys, "test-one", "--spec", spec_file, "--data", data_file, "--row", "nope",
        )
        assert code == 2
        assert "nope" in err

    def test_two_sample_identical_files(self, capsys, tmp_path, spec_file):
        data = tmp_path / "ind.csv"
        data.write_text(INDUSTRY_DATA)
        code, out, err = run_cli(
            capsys, "test-two", "--spec", spec_file,
            "--data-a", str(data), "--data-b", str(data),
            "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        assert report["results"]["statistic"] == 0.0
        assert report["results"]["p_value"] == pytest.approx(1.0, abs=1e-12)

    def test_two_sample_mismatched_columns(self, capsys, tmp_path, spec_file, data_file):
        other = tmp_path / "other.csv"
        other.write_text("corporation,TAM,XYZ\nc1,0,1\nc2,5,4\nc3,2,0\n")
        code, _, err = run_cli(
            capsys, "test-two", "--spec", spec_file,
            "--data-a", data_file, "--data-b", str(other),
        )
        assert code == 2
        assert "XYZ" in err

    def test_degenerate_variance_is_a_statistical_refusal(self, capsys, tmp_path):
        spec_path = tmp_path / "one.json"
        spec_path.write_text(json.dumps({"models": [{"name": "M", "m": 5}]}))
        data_path = tmp_path / "const.csv"
        data_path.write_text("corporation,M\nc1,3\nc2,3\nc3,3\nc4,3\n")
        code, _, err = run_cli(
            capsys, "test-one", "--spec", str(spec_path), "--data", str(data_path),
            "--row", "c1",
        )
        assert code == 1
        assert "variance" in err

    def test_two_sample_with_constant_indices_is_a_statistical_refusal(self, capsys, tmp_path):
        # B = 5 - A in both files, so neither index varies
        spec_path = tmp_path / "pair.json"
        spec_path.write_text(json.dumps({"models": [{"name": "A", "m": 5}, {"name": "B", "m": 5}]}))
        a = tmp_path / "a.csv"
        a.write_text("corporation,A,B\nc1,1,4\nc2,2,3\nc3,3,2\nc4,5,0\n")
        b = tmp_path / "b.csv"
        b.write_text("corporation,A,B\nc1,0,5\nc2,4,1\nc3,2,3\nc4,3,2\nc5,1,4\n")
        code, out, err = run_cli(capsys, "test-two", "--spec", str(spec_path),
                                 "--data-a", str(a), "--data-b", str(b))
        assert (code, out) == (1, "")
        assert err == ("error: both weighted stage combinations are constant; "
                       "no variance to test against\n")


STEEP_SPEC = {"models": [{"name": "A", "m": 5, "beta": 3000}]}
# mean 2.4, far down the steep logistic: index variances near 1e-204, whose squares underflow
STEEP_DATA = {n: "corporation,A\n" + "".join(f"c{i + 1},{(2, 3, 2, 3, 2)[i % 5]}\n" for i in range(n))
              for n in (5, 10)}
# two steep, near-equal shapes on anti-correlated columns: each delta-method form is about zero,
# and its float sum rounds below -1e-12 though not below -1e-12 * max(1, sum|terms|)
STEEP_PAIR_PMF = [0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05]
STEEP_PAIR_SPEC = {"models": [{"name": "A", "m": 6, "beta": 65507.70429955353, "pmf": STEEP_PAIR_PMF},
                              {"name": "B", "m": 6, "beta": 65507.70429955391, "pmf": STEEP_PAIR_PMF}],
                   "latent_correlation": [[1, -1], [-1, 1]]}
# A's derivative is finite, but its square overflows the index variance to inf
HUGE_SPEC = {"models": [{"name": "A", "m": 5, "beta": 1e200}, {"name": "B", "m": 5}]}
HUGE_ROWS = "corporation,A,B\nr1,2,2\nr2,3,4\nr3,3,1\nr4,2,2\nr5,3,3\nr6,2,5\n"


@pytest.mark.parametrize("command,flags", [
    ("compute", ("--data", "big")),
    ("test-one", ("--data", "big", "--row", "r2")),
    ("test-two", ("--data-a", "small", "--data-b", "big")),
])
def test_int64_overflow_names_its_file(capsys, tmp_path, command, flags):
    # 4 rows of stages up to 2^40 may sum past 2^63 in a cross-product
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"models": [{"name": "A", "m": 2**40}, {"name": "B", "m": 5}]}))
    paths = {"big": tmp_path / "big.csv", "small": tmp_path / "small.csv"}
    paths["big"].write_text(f"corporation,A,B\nr1,{2**40},1\nr2,0,2\nr3,1,3\nr4,2,4\n")
    paths["small"].write_text("corporation,A,B\nr1,1,1\nr2,0,2\nr3,1,3\nr4,2,4\n")
    code, out, err = run_cli(capsys, command, "--spec", str(spec),
                             *(str(paths.get(flag, flag)) for flag in flags))
    assert (code, out) == (2, "")
    assert err == (f"error: {paths['big']}: stages up to 1099511627776 over 4 rows overflow "
                   "exact int64 moments\n")


# one rule broken per file, in a row after the first; "missing row" is valid, refused only for --row zz
NAMED_ROWS = {
    "bad cell": "r1,1,1\nr2,x,2\nr3,1,3\nr4,2,4\n",
    "duplicate id": "r1,1,1\nr2,0,2\nr1,1,3\nr4,2,4\n",
    "out-of-range stage": "r1,1,1\nr2,0,9\nr3,1,3\nr4,2,4\n",
    "int64 overflow": f"r1,1,1\nr2,{2**40},2\nr3,1,3\nr4,2,4\n",
    "missing row": "r1,1,1\nr2,0,2\nr3,1,3\nr4,2,4\n",
}


@pytest.mark.parametrize("command,case", [
    *((command, case) for command in ("compute", "test-one", "test-two A", "test-two B")
      for case in NAMED_ROWS if case != "missing row"),
    ("test-one", "missing row"),
])
def test_every_refused_data_file_is_named(capsys, tmp_path, command, case):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"models": [{"name": "A", "m": 2**40}, {"name": "B", "m": 5}]}))
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text("corporation,A,B\n" + NAMED_ROWS[case])
    good.write_text("corporation,A,B\n" + NAMED_ROWS["missing row"])
    argv = {
        "compute": ("--data", bad),
        "test-one": ("--data", bad, "--row", "zz" if case == "missing row" else "r1"),
        "test-two A": ("--data-a", bad, "--data-b", good),
        "test-two B": ("--data-a", good, "--data-b", bad),
    }[command]
    code, out, err = run_cli(capsys, command.split()[0], "--spec", str(spec), *map(str, argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: "), err


class TestExtremeVariances:
    def write(self, tmp_path, spec, **data):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        for name, text in data.items():
            (tmp_path / f"{name}.csv").write_text(text)
        return str(tmp_path / "spec.json"), *(str(tmp_path / f"{name}.csv") for name in data)

    @pytest.mark.parametrize("n_a,n_b,df", [(5, 5, 8.0), (10, 10, 18.0), (5, 10, None)])
    def test_two_sample_with_underflowing_variances(self, capsys, tmp_path, n_a, n_b, df):
        spec, a, b = self.write(tmp_path, STEEP_SPEC, a=STEEP_DATA[n_a], b=STEEP_DATA[n_b])
        code, out, err = run_cli(capsys, "test-two", "--spec", spec, "--data-a", a, "--data-b", b,
                                 "--format", "structured")
        assert code == 0, err
        results = strict_json(out)["results"]
        assert 0 < max(results["variances"]) < 1e-200
        v_a, v_b = (v * 2.0**600 for v in results["variances"])
        assert results["df"] == (df or (v_a + v_b) ** 2 / (v_a**2 / (n_a - 1) + v_b**2 / (n_b - 1)))

    def test_two_sample_with_overflowing_variance_squares(self, capsys, tmp_path):
        data = "corporation,A\nr1,2\nr2,3\nr3,2\nr4,3\nr5,1\nr6,4\n"
        spec, a = self.write(tmp_path, {"models": [{"name": "A", "m": 5, "beta": 1e150}]}, a=data)
        code, out, err = run_cli(capsys, "test-two", "--spec", spec, "--data-a", a, "--data-b", a,
                                 "--format", "structured")
        assert code == 0, err
        results = strict_json(out)["results"]
        assert min(results["variances"]) > 1e200 and results["df"] == 10.0

    def test_size_study_with_underflowing_variances(self, capsys, tmp_path):
        steep = {"models": [dict(STEEP_SPEC["models"][0], pmf=[0, 0, 0.5, 0.5, 0, 0])]}
        (spec,) = self.write(tmp_path, steep)
        code, out, err = run_cli(capsys, "simulate", "--spec", spec, "--study", "size", "--n", "20",
                                 "--replications", "20", "--seed", "1", "--format", "structured")
        assert code == 0, err
        assert 0 <= strict_json(out)["results"]["metrics"]["rejection_rate"] <= 1

    @pytest.mark.parametrize("command,flags", [
        ("compute", ("--data", "rows")),
        ("test-one", ("--data", "more", "--row", "r7")),
        ("test-two", ("--data-a", "rows", "--data-b", "more")),
    ])
    def test_infinite_variance_is_a_statistical_refusal(self, capsys, tmp_path, command, flags):
        paths = self.write(tmp_path, HUGE_SPEC, rows=HUGE_ROWS, more=HUGE_ROWS + "r7,4,1\n")
        paths = dict(zip(("spec", "rows", "more"), paths))
        code, out, err = run_cli(capsys, command, "--spec", paths["spec"],
                                 *(paths.get(flag, flag) for flag in flags))
        assert (code, out) == (1, "")
        assert err == "error: the index variance is not finite in floating point, got inf\n"

    def test_sample_sum_below_zero_by_rounding_reads_as_zero(self, capsys, tmp_path):
        # the form sums to -1.2e-10 of terms whose absolute sum is 2.3e6
        spec, data = self.write(
            tmp_path, {"models": [{"name": "A", "m": 6, "beta": 54818.87415507686},
                                  {"name": "B", "m": 6, "beta": 54818.874155077334}]},
            data="corporation,A,B\nr1,2,4\nr2,4,2\n" + "".join(f"r{i},3,3\n" for i in range(3, 10)))
        code, out, err = run_cli(capsys, "compute", "--spec", spec, "--data", data,
                                 "--format", "structured")
        assert (code, err) == (0, ""), err
        results = strict_json(out)["results"]
        assert results["variance"] == 0.0
        assert results["interval"]["lower"] == results["interval"]["upper"] == results["index"]

    def test_population_sum_below_zero_by_rounding_is_a_zero_variance(self, capsys, tmp_path):
        # the population form sums to -1.5e-8
        (spec,) = self.write(tmp_path, STEEP_PAIR_SPEC)
        code, out, err = run_cli(capsys, "simulate", "--spec", spec, "--study", "normality",
                                 "--n", "50", "--replications", "10", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == ("error: the index's population asymptotic variance is zero under this "
                       "pmf; the normality study divides by it\n")

    def test_replications_whose_sums_round_below_zero_are_accepted(self, capsys, tmp_path):
        # some replications' forms sum to about -2e-10; the scalar chain reads them as zero
        (spec,) = self.write(tmp_path, STEEP_PAIR_SPEC)
        code, out, err = run_cli(capsys, "simulate", "--spec", spec, "--study", "coverage",
                                 "--n", "50", "--replications", "200", "--seed", "1",
                                 "--format", "structured")
        assert (code, err) == (0, ""), err
        report = strict_json(out)
        assert 0 <= report["results"]["metrics"]["coverage_rate"] <= 1
        assert not any("refused" in note for note in report["notes"])

    def test_infinite_population_variance_is_a_statistical_refusal(self, capsys, tmp_path):
        # A's derivative at its score 3 is finite, and its square overflows
        (spec,) = self.write(tmp_path, {"models": [
            {"name": "A", "m": 6, "beta": 1e300, "pmf": STEEP_PAIR_PMF},
            {"name": "B", "m": 6, "pmf": STEEP_PAIR_PMF}]})
        code, out, err = run_cli(capsys, "simulate", "--spec", spec, "--study", "normality",
                                 "--n", "50", "--replications", "50", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == ("error: the index's population asymptotic variance is not finite in "
                       "floating point, got inf\n")


PMF3 = [0.2, 0.3, 0.5]


class TestSimulate:
    def test_single_replication(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "variance-ratio",
            "--n", "40", "--replications", "1", "--seed", "7",
            "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        assert report["inputs"]["seed"] == 7
        assert "ratio_vs_population" in report["results"]["metrics"]

    def test_fixed_seed_reports_are_byte_identical(self, capsys, spec_file, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out_path in (out_a, out_b):
            code, _, err = run_cli(
                capsys, "simulate", "--spec", spec_file, "--study", "coverage",
                "--n", "40", "--replications", "50", "--seed", "123",
                "--format", "structured", "--out", str(out_path),
            )
            assert code == 0, err
        assert out_a.read_bytes() == out_b.read_bytes()
        strict_json(out_a.read_text())

    def test_variance_ratio_study_reaches_a_pass_verdict(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "variance-ratio",
            "--n", "300", "--replications", "2000", "--seed", "11",
            "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        assert report["results"]["passed"] is True
        assert report["results"]["checks"]["empirical_ratio_in_band"] is True

    def test_degenerate_pmf_exits_with_refusal(self, capsys, tmp_path):
        spec = {"models": [{"name": "M", "m": 5, "pmf": [0, 0, 0, 1.0, 0, 0]}]}
        spec_path = tmp_path / "deg.json"
        spec_path.write_text(json.dumps(spec))
        code, _, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", "coverage",
            "--n", "40", "--replications", "10", "--seed", "1",
        )
        assert code == 1
        assert "degenerate" in err

    @pytest.mark.parametrize("study", ["normality", "variance-ratio"])
    def test_zero_population_variance_exits_with_refusal(self, capsys, tmp_path, study):
        # B = 3 - A, so the index does not vary; its variance's sum rounds to -1e-16
        symmetric = [0.1, 0.4, 0.4, 0.1]
        spec = {"models": [{"name": "A", "m": 3, "pmf": symmetric},
                           {"name": "B", "m": 3, "pmf": symmetric}],
                "latent_correlation": [[1, -1], [-1, 1]]}
        spec_path = tmp_path / "antithetic.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", study,
            "--n", "20", "--replications", "30", "--seed", "3",
        )
        assert (code, out) == (1, "")
        assert err == (f"error: the index's population asymptotic variance is zero under this "
                       f"pmf; the {study} study divides by it\n")

    @pytest.mark.parametrize("pmf,n,seed", [([0.5, 0.5], 2, 1), ([0, 2 / 3, 1 / 3], 20, 0)])
    def test_variance_ratio_with_one_index_is_a_statistical_refusal(self, capsys, tmp_path,
                                                                   pmf, n, seed):
        # every accepted replication gives the same index, so their variance is zero
        spec_path = tmp_path / "flat.json"
        spec_path.write_text(json.dumps({"models": [{"name": "A", "m": len(pmf) - 1, "pmf": pmf}]}))
        code, out, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", "variance-ratio",
            "--n", str(n), "--replications", "2", "--seed", str(seed),
        )
        assert (code, out) == (1, "")
        assert err == ("error: every accepted replication gave the same index; "
                       "the variance-ratio study divides by their variance\n")

    def test_negative_seed_is_an_input_error(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "coverage",
            "--n", "40", "--replications", "10", "--seed", "-1",
        )
        assert (code, out) == (2, "")
        assert err == "error: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_refused_replications_are_counted_not_fatal(self, capsys, spec_file, seed):
        # at n = 3 some samples hold a constant column, whose variance is undefined
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "size",
            "--n", "3", "--replications", "50", "--seed", str(seed), "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        refusal = report["notes"][-1]
        match = re.fullmatch(
            r"(\d+) of 50 replications refused: model '(TAM|CMM)' has zero sample variance; "
            r"the index variance is undefined",
            refusal,
        )
        assert match, refusal
        accepted = 50 - int(match.group(1))
        assert 0 < accepted < 50
        metrics = report["results"]["metrics"]
        rate = metrics["rejection_rate"]
        assert rate == round(rate * accepted) / accepted
        assert metrics["se_rejection_rate"] == math.sqrt(max(rate * (1 - rate), 1e-12) / accepted)

    def test_coverage_without_interval_df_is_refused_before_drawing(
        self, capsys, tmp_path, monkeypatch
    ):
        spec = {"models": [{"name": "M", "m": 5, "pmf": [1 / 6] * 6}]}
        spec_path = tmp_path / "one.json"
        spec_path.write_text(json.dumps(spec))

        def no_draws(*args):
            raise AssertionError("the study drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        code, out, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", "coverage",
            "--n", "2", "--replications", "10", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == "error: confidence interval needs n - k - 1 >= 1, got n=2, k=1\n"

    def test_degenerate_alternative_pmf_is_refused_before_drawing(
        self, capsys, tmp_path, monkeypatch
    ):
        spec = {
            "models": [{"name": "A", "m": 2, "pmf": [0.2, 0.3, 0.5]},
                       {"name": "B", "m": 2, "pmf": [0.2, 0.3, 0.5]}],
            "alternative_pmf": [[0, 1.0, 0], [0.2, 0.3, 0.5]],
        }
        spec_path = tmp_path / "shifted.json"
        spec_path.write_text(json.dumps(spec))

        def no_draws(*args):
            raise AssertionError("the study drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        code, out, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", "size",
            "--n", "40", "--replications", "10", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: alternative pmf for model 'A' is degenerate; inference is impossible\n"
        )

    def test_an_overflowing_n_is_refused_before_the_pmf_is_judged(
        self, capsys, tmp_path, monkeypatch
    ):
        # the plan checks the int64 bound when built, so a degenerate pmf is not reached
        spec_path = tmp_path / "flat.json"
        spec_path.write_text(json.dumps({"models": [{"name": "A", "m": 2, "pmf": [0, 1.0, 0]}]}))

        def no_draws(*args):
            raise AssertionError("the study drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        for n, status, message in [
            (40, 1, "pmf for model 'A' is degenerate; inference is impossible"),
            (2**62, 2, f"stages up to 2 over {2**62} rows overflow exact int64 moments"),
        ]:
            code, out, err = run_cli(
                capsys, "simulate", "--spec", str(spec_path), "--study", "coverage",
                "--n", str(n), "--replications", "10", "--seed", "1",
            )
            assert (code, out, err) == (status, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "study,undefined",
        [
            ("normality", ["excess_kurtosis", "se_mean", "skewness", "variance"]),
            ("variance-ratio", ["empirical_index_variance", "ratio_vs_empirical"]),
        ],
        ids=["normality", "variance-ratio"],
    )
    def test_metrics_undefined_for_one_replication(self, capsys, spec_file, study, undefined):
        argv = ["simulate", "--spec", spec_file, "--study", study, "--n", "40",
                "--replications", "1", "--seed", "7"]
        code, out, err = run_cli(capsys, *argv, "--format", "structured")
        assert code == 0, err
        metrics = strict_json(out)["results"]["metrics"]
        assert sorted(name for name, value in metrics.items() if value is None) == undefined
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        for name in undefined:
            assert f"    {name}: nan\n" in out

    def test_replications_past_2_to_the_32_are_refused_before_drawing(
        self, capsys, spec_file, monkeypatch
    ):
        def no_draws(*args):
            raise AssertionError("the study drew samples")

        monkeypatch.setattr(simulation, "_sampled_sums", no_draws)
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "coverage",
            "--n", "40", "--replications", str(2**32 + 1), "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: replications must be at most 2^32 = 4294967296, got 4294967297\n"

    @pytest.mark.parametrize("study, models, alternative, message", [
        ("coverage", ([0.5, 0.5], PMF3), None, "pmf of model 'A' has 2 stages, not the model's 3 (0 to 2)"),
        ("size", (PMF3, [0.2, 0.3, 0.6]), None, "pmf of model 'B': probabilities sum to 1.1, not 1"),
        ("size", (PMF3, PMF3), [PMF3, [0.1, 0.9]],
         "alternative_pmf of model 'B' has 2 stages, not the model's 3 (0 to 2)"),
        ("size", (PMF3, PMF3), [PMF3, [0.1, 0.2, 0.3]],
         "alternative_pmf of model 'B': probabilities sum to 0.6, not 1"),
        ("size", (PMF3, PMF3), [PMF3], "alternative_pmf must be a list of 2 pmfs, one per model"),
        ("size", (PMF3, PMF3), [0.5, 0.5], "alternative_pmf of model 'A' must be a list of numbers, got 0.5"),
        # a model's own pmf is judged before the alternative
        ("size", ([0.5, 0.5], PMF3), [PMF3, [0.1, 0.2, 0.3]],
         "pmf of model 'A' has 2 stages, not the model's 3 (0 to 2)"),
    ], ids=["pmf-stages", "pmf-sum", "alternative-stages", "alternative-sum", "alternative-count",
            "alternative-flat", "pmf-before-alternative"])
    def test_a_malformed_pmf_names_the_file_the_field_and_the_model(
        self, capsys, tmp_path, study, models, alternative, message
    ):
        spec = {"models": [{"name": name, "m": 2, "pmf": pmf} for name, pmf in zip("AB", models)]}
        if alternative is not None:
            spec["alternative_pmf"] = alternative
        spec_path = tmp_path / "pmfs.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", study,
            "--n", "40", "--replications", "10", "--seed", "1",
        )
        assert (code, out, err) == (2, "", f"error: {spec_path}: {message}\n")

    @pytest.mark.parametrize("argument, value, message", [
        ("--n", "2", "n must be an integer >= 3, got 2"),
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
        ("--replications", "0", "replications must be an integer >= 1, got 0"),
    ])
    def test_a_bad_argument_is_not_named_after_the_spec_file(self, capsys, tmp_path, argument, value, message):
        spec_path = tmp_path / "pmfs.json"
        spec_path.write_text(json.dumps({"models": [{"name": name, "m": 2, "pmf": PMF3} for name in "AB"]}))
        argv = {"--n": "40", "--replications": "10", "--seed": "1", argument: value}
        code, out, err = run_cli(capsys, "simulate", "--spec", str(spec_path), "--study", "size",
                                 *(word for pair in argv.items() for word in pair))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_pmf_is_an_input_error(self, capsys, tmp_path):
        spec = {"models": [{"name": "M", "m": 5}]}
        spec_path = tmp_path / "nopmf.json"
        spec_path.write_text(json.dumps(spec))
        code, _, err = run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--study", "coverage",
            "--n", "40", "--replications", "10", "--seed", "1",
        )
        assert code == 2
        assert "pmf" in err


def _no_points(*args):
    raise AssertionError("a grid point was computed")


class TestSurface:
    def test_linear_grid_and_corners(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "surface", "--spec", spec_file, "--resolution", "6",
            "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        rows = report["results"]["rows"]
        assert report["results"]["header"] == ["S_1", "S_2", "I"]
        assert len(rows) == 36
        assert rows[0] == [0.0, 0.0, 0.0]
        assert rows[-1] == [5.0, 5.0, 1.0]

    def test_table_format_is_a_delimited_grid(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "surface", "--spec", spec_file, "--resolution", "2")
        assert code == 0
        assert "S_1,S_2,I" in out
        assert "5,5,1" in out

    def test_presets_override_shape_parameters(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "surface", "--spec", spec_file, "--resolution", "5",
            "--preset", "s-shaped,linear", "--format", "structured",
        )
        assert code == 0, err
        report = strict_json(out)
        models = report["inputs"]["models"]
        assert models[0]["beta"] == 3.0
        assert models[1] == {"name": "CMM", "m": 5, "alpha": 1.0, "beta": 1.0, "weight": 0.5}
        values = [row[2] for row in report["results"]["rows"]]
        assert values[0] == 0.0 and values[-1] == 1.0
        # monotone along both axes
        grid = [values[i * 5:(i + 1) * 5] for i in range(5)]
        for row in grid:
            assert all(a < b for a, b in zip(row, row[1:]))
        for col in zip(*grid):
            assert all(a < b for a, b in zip(col, col[1:]))

    def test_unknown_preset(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "surface", "--spec", spec_file, "--resolution", "5",
            "--preset", "linear,zigzag",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: {spec_file}: unknown preset 'zigzag'; "
            "choose from ['concave', 'convex', 'linear', 's-shaped']\n"
        )

    def test_resolution_one_rejected(self, capsys, spec_file):
        code, _, err = run_cli(capsys, "surface", "--spec", spec_file, "--resolution", "1")
        assert code == 2
        assert "resolution" in err

    @pytest.mark.parametrize("resolution", ["1001", "100000"])
    def test_huge_resolution_refused_before_any_point(self, capsys, spec_file, monkeypatch, resolution):
        monkeypatch.setattr(index, "global_index", _no_points)
        code, out, err = run_cli(capsys, "surface", "--spec", spec_file, "--resolution", resolution)
        assert (code, out) == (2, "")
        assert err == f"error: resolution must be at most 1000, got {resolution}\n"

    def test_preset_count_must_match_the_models(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "surface", "--spec", spec_file, "--resolution", "3",
            "--preset", "linear,convex,concave",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: {spec_file}: 3 presets given for 2 models; give one preset or one per model\n"
        )


class TestReports:
    def test_structured_reports_round_trip(self, capsys, spec_file, data_file):
        _, out, _ = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file,
            "--format", "structured",
        )
        report = strict_json(out)
        assert strict_json(json.dumps(report)) == report

    def test_non_finite_floats_are_written_as_null(self):
        report = {"a": math.nan, "b": [math.inf, 1.5], "c": {"d": (-math.inf, 0.0)}}
        assert strict_json(cli.render_structured(report)) == {
            "a": None, "b": [None, 1.5], "c": {"d": [None, 0.0]}
        }

    def test_out_file_matches_stdout(self, capsys, spec_file, data_file, tmp_path):
        out_path = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file,
            "--format", "structured", "--out", str(out_path),
        )
        assert out_path.read_text() == out

    def test_identical_inputs_identical_tables(self, capsys, spec_file, data_file):
        _, first, _ = run_cli(capsys, "compute", "--spec", spec_file, "--data", data_file)
        _, second, _ = run_cli(capsys, "compute", "--spec", spec_file, "--data", data_file)
        assert first == second

    @pytest.mark.parametrize("target", ["nodir/report.txt", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_is_an_input_error(self, capsys, spec_file, data_file, tmp_path, target):
        out_path = tmp_path / target
        code, out, err = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file, "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {out_path}: cannot write report (")


SIMULATE_ARGS = ["--study", "coverage", "--n", "20", "--replications", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "command,flag",
    [
        (["compute", "--data", "{data}"], ["--sided", "less"]),
        (["simulate", *SIMULATE_ARGS], ["--alpha-level", "0.1"]),
        (["simulate", *SIMULATE_ARGS], ["--sided", "less"]),
        (["surface", "--resolution", "3"], ["--alpha-level", "0.1"]),
        (["surface", "--resolution", "3"], ["--sided", "less"]),
    ],
    ids=["compute-sided", "simulate-alpha-level", "simulate-sided", "surface-alpha-level",
         "surface-sided"],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, spec_file, data_file, command, flag):
    argv = [command[0], "--spec", spec_file, *(p.format(data=data_file) for p in command[1:]), *flag]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "usage:" in captured.err and f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("command", ["test-one", "test-two"])
def test_sided_changes_the_tests(capsys, spec_file, tmp_path, command):
    data = tmp_path / "ind.csv"
    data.write_text(INDUSTRY_DATA)
    inputs = ["--data", str(data), "--row", "c2"] if command == "test-one" else [
        "--data-a", str(data), "--data-b", str(data)]
    results = {}
    for sided in ("two", "less"):
        code, out, err = run_cli(
            capsys, command, "--spec", spec_file, *inputs, "--sided", sided, "--format", "structured",
        )
        assert code == 0, err
        results[sided] = strict_json(out)["results"]
    assert results["less"]["sidedness"] == "less"
    assert results["less"]["p_value"] != results["two"]["p_value"]


@pytest.mark.parametrize("command", ["test-one", "test-two"])
def test_tests_validate_alpha_level(capsys, spec_file, data_file, command):
    inputs = ["--data", data_file, "--row", "c1"] if command == "test-one" else [
        "--data-a", data_file, "--data-b", data_file]
    code, out, err = run_cli(capsys, command, "--spec", spec_file, *inputs, "--alpha-level", "0")
    assert (code, out) == (2, "")
    assert "--alpha-level" in err


OVERFLOW_SPEC = {"models": [{"name": "A", "m": 5, "alpha": 1e308, "beta": 1e308, "pmf": [1 / 6] * 6},
                            {"name": "B", "m": 5, "pmf": [1 / 6] * 6}]}


@pytest.mark.parametrize(
    "argv,score",
    [
        (["compute", "--data", "{data}"], "2.2"),
        (["test-one", "--data", "{data}", "--row", "c5"], "1.5"),
        (["test-two", "--data-a", "{data}", "--data-b", "{data}"], "2.2"),
        *((["simulate", "--study", study, "--n", "50", "--replications", "200", "--seed", "1"],
           r"[\d.]+") for study in ("coverage", "normality", "variance-ratio")),
    ],
    ids=["compute", "test-one", "test-two", "coverage", "normality", "variance-ratio"],
)
def test_non_finite_derivative_is_a_statistical_refusal(capsys, tmp_path, argv, score):
    # beta * m overflows; left unchecked it ends in a NaN variance or a misnamed input error
    spec_path = tmp_path / "overflow.json"
    spec_path.write_text(json.dumps(OVERFLOW_SPEC))
    data_path = tmp_path / "overflow.csv"
    data_path.write_text("corporation,A,B\nc1,1,2\nc2,3,1\nc3,2,2\nc4,0,1\nc5,5,3\n")
    argv = [argv[0], "--spec", str(spec_path), *(a.format(data=data_path) for a in argv[1:])]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(
        rf"error: derivative at score {score} for model 'A' is not finite in floating point\n", err
    ), err


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SIMULATE = ["--n", "40", "--replications", "50", "--seed", "5"]
GOLDEN_RUNS = {
    "compute": ["compute", "--data", "industry.csv", "--alpha-level", "0.1"],
    **{f"test-one-{sided}": ["test-one", "--data", "industry.csv", "--row", "c2", "--sided", sided]
       for sided in ("two", "greater", "less")},
    "test-two": ["test-two", "--data-a", "industry.csv", "--data-b", "symmetric.csv"],
    **{f"simulate-{study}": ["simulate", "--study", study, *GOLDEN_SIMULATE]
       for study in simulation.STUDY_KINDS},
    "surface": ["surface", "--resolution", "3"],
    "surface-preset": ["surface", "--resolution", "3", "--preset", "s-shaped,convex"],
}


@pytest.mark.parametrize("out_format", ["table", "structured"])
@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_reports_match_their_golden_copies(capsys, tmp_path, monkeypatch, case, out_format):
    # every byte of a report is part of the contract, so the golden copies are fixed, not regenerated
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(LINEAR_SPEC))
    (tmp_path / "industry.csv").write_text(INDUSTRY_DATA)
    (tmp_path / "symmetric.csv").write_text(SYMMETRIC_DATA)
    command, *rest = GOLDEN_RUNS[case]
    code, out, err = run_cli(capsys, command, "--spec", "spec.json", *rest, "--format", out_format)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.{out_format}.txt").read_text(encoding="utf-8")
