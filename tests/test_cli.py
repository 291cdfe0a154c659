import json

import pytest

from adoptindex.cli import main

LINEAR_SPEC = {
    "models": [
        {"name": "TAM", "m": 5, "alpha": 1.0, "beta": 1.0,
         "pmf": [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6]},
        {"name": "CMM", "m": 5, "alpha": 1.0, "beta": 1.0,
         "pmf": [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6]},
    ]
}

SYMMETRIC_DATA = "corporation,TAM,CMM\nc1,0,5\nc2,5,0\nc3,2,2\nc4,3,3\n"


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


class TestCompute:
    def test_symmetric_fixture_gives_midpoint_index(self, capsys, spec_file, data_file):
        code, out, err = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file,
            "--format", "structured",
        )
        assert code == 0, err
        report = json.loads(out)
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
        assert json.loads(out)["results"]["scores"]["CMM"] == 3.0


@pytest.mark.parametrize(
    "model_fields,top_level,named",
    [
        ({"m": 5.7}, {}, "m must be an integer"),
        ({"m": True}, {}, "m must be an integer"),
        ({"m": "5"}, {}, "m must be an integer"),
        ({"alpha": "fast"}, {}, "alpha"),
        ({"alpha": True}, {}, "alpha"),
        ({"beta": "2"}, {}, "beta"),
        ({"weight": "1"}, {}, "weight"),
        ({"weight": True}, {}, "weight"),
        ({"add_zero_stage": "yes"}, {}, "add_zero_stage"),
        ({"pmf": [0.5, "x", 0.1, 0.1, 0.1, 0.2]}, {}, "pmf 0"),
        ({"pmf": [True, 0, 0, 0, 0, 0]}, {}, "pmf 0"),
        ({"pmf": 0.5}, {}, "pmf"),
        ({}, {"latent_correlation": [["one"]]}, "latent correlation"),
        ({}, {"latent_correlation": [[True]]}, "latent correlation"),
        ({}, {"latent_correlation": 1.0}, "latent correlation"),
    ],
    ids=[
        "m-float", "m-bool", "m-string", "alpha-string", "alpha-bool", "beta-string",
        "weight-string", "weight-bool", "add_zero_stage-string", "pmf-string-entry",
        "pmf-bool-entry", "pmf-not-a-list", "latent-string-entry", "latent-bool-entry",
        "latent-not-a-matrix",
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
    assert err.startswith("error: ") and named in err


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
        report = json.loads(out)
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
        data.write_text("corporation,TAM,CMM\nc1,0,1\nc2,5,4\nc3,2,0\nc4,3,5\nc5,1,3\n")
        code, out, err = run_cli(
            capsys, "test-two", "--spec", spec_file,
            "--data-a", str(data), "--data-b", str(data),
            "--format", "structured",
        )
        assert code == 0, err
        report = json.loads(out)
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


class TestSimulate:
    def test_single_replication(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "variance-ratio",
            "--n", "40", "--replications", "1", "--seed", "7",
            "--format", "structured",
        )
        assert code == 0, err
        report = json.loads(out)
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

    def test_variance_ratio_study_reaches_a_pass_verdict(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "simulate", "--spec", spec_file, "--study", "variance-ratio",
            "--n", "300", "--replications", "2000", "--seed", "11",
            "--format", "structured",
        )
        assert code == 0, err
        report = json.loads(out)
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


class TestSurface:
    def test_linear_grid_and_corners(self, capsys, spec_file):
        code, out, err = run_cli(
            capsys, "surface", "--spec", spec_file, "--resolution", "6",
            "--format", "structured",
        )
        assert code == 0, err
        report = json.loads(out)
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
        report = json.loads(out)
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
        code, _, err = run_cli(
            capsys, "surface", "--spec", spec_file, "--resolution", "5",
            "--preset", "zigzag",
        )
        assert code == 2
        assert "zigzag" in err

    def test_resolution_one_rejected(self, capsys, spec_file):
        code, _, err = run_cli(capsys, "surface", "--spec", spec_file, "--resolution", "1")
        assert code == 2
        assert "resolution" in err


class TestReports:
    def test_structured_reports_round_trip(self, capsys, spec_file, data_file):
        _, out, _ = run_cli(
            capsys, "compute", "--spec", spec_file, "--data", data_file,
            "--format", "structured",
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

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
