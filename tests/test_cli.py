"""Tests for the command line interface: CSV ingestion, commands, JSON output."""

import csv
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import wgfe
from wgfe import (
    DuplicateCellError,
    GroupAssignment,
    PanelDataset,
    ParseError,
    UnbalancedPanelError,
    misclassification_rate,
)
from wgfe.cli import emit_csv, ingest_csv, main

from conftest import cell_constant_panel


def load_schema(name):
    path = files("wgfe") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def write_panel(path, data: PanelDataset):
    emit_csv(data, path)
    return str(path)


def clustered_fixture(noise_scale=0.0, seed=0, n=12, t=4):
    rng = np.random.default_rng(seed)
    labels = np.array([1, 2] * (n // 2))
    alpha = np.array([[0.0, 1.0, 0.0, 1.0], [5.0, 6.0, 5.0, 6.0]])[:, :t]
    x = rng.normal(size=(n, t, 1))
    u = noise_scale * rng.normal(size=(n, t))
    y = 0.7 * x[:, :, 0] + alpha[labels - 1] + u
    return PanelDataset(y, x), labels


class TestIngestCsv:
    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,time,y,x1\n"
            "a,1,1.0,0.5\n"
            "a,2,2.0,0.6\n"
            "b,1,3.0,0.7\n"
            "b,2,4.0,0.8\n"
        )
        data = ingest_csv(path)
        assert (data.n_units, data.n_periods, data.n_covariates) == (2, 2, 1)
        np.testing.assert_array_equal(data.outcomes, [[1.0, 2.0], [3.0, 4.0]])

    def test_units_keep_first_appearance_and_periods_sort(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,time,y\n"
            "z,2,4.0\n"
            "z,1,3.0\n"
            "a,2,2.0\n"
            "a,1,1.0\n"
        )
        data = ingest_csv(path)
        np.testing.assert_array_equal(data.outcomes, [[3.0, 4.0], [1.0, 2.0]])

    def test_missing_cell_is_named(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\n1,1,1.0\n1,2,2.0\n2,1,3.0\n")
        with pytest.raises(UnbalancedPanelError, match=r"\(2, 2\)"):
            ingest_csv(path)

    def test_duplicate_cell_is_rejected_with_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\n1,1,1.0\n1,1,2.0\n")
        with pytest.raises(DuplicateCellError) as info:
            ingest_csv(path)
        assert info.value.line == 3

    def test_malformed_number_reports_line_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y,x1\n1,1,1.0,oops\n")
        with pytest.raises(ParseError) as info:
            ingest_csv(path)
        assert info.value.line == 2
        assert info.value.column == "x1"

    def test_infinite_time_reports_line_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\na,1,1.0\na,inf,2.0\nb,1,3.0\nb,inf,4.0\n")
        with pytest.raises(ParseError, match="inf") as info:
            ingest_csv(path)
        assert (info.value.line, info.value.column) == (3, "time")

    def test_nan_time_reports_line_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\na,1,1.0\na,nan,2.0\nb,1,3.0\nb,nan,4.0\n")
        with pytest.raises(ParseError, match="nan") as info:
            ingest_csv(path)
        assert (info.value.line, info.value.column) == (3, "time")

    def test_nan_outcome_reports_line_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\na,1,1.0\na,2,nan\nb,1,3.0\nb,2,4.0\n")
        with pytest.raises(ParseError, match="nan") as info:
            ingest_csv(path)
        assert (info.value.line, info.value.column) == (3, "y")

    def test_infinite_covariate_exits_two_with_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text(
            "unit,time,y,x1\na,1,1.0,0.5\na,2,2.0,0.1\nb,1,3.0,-inf\nb,2,4.0,0.2\n"
        )
        assert main(["estimate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["code"], err["line"], err["column"]) == ("parse", 4, "x1")

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_size_limit_exits_two_with_its_line(self, tmp_path, capsys, line):
        # csv's default field size limit is 131,072 characters
        lines = ["unit,time,y", "a,1,1.0", "a,2,2.0", "b,1,3.0", "b,2,4.0"]
        lines[line - 1] += "1" * 200_000
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["estimate", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        (err_line,) = capsys.readouterr().err.splitlines()
        err = json.loads(err_line)["error"]
        assert (err["code"], err["line"]) == ("parse", line)
        assert "field larger than field limit" in err["message"]

    def test_byte_order_mark_gives_the_plain_files_json(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.3)
        plain = write_panel(tmp_path / "plain.csv", data)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        docs = []
        for panel in (plain, marked):
            out = tmp_path / "fit.json"
            assert main(["estimate", str(panel), "--restarts", "2", "--seed", "1",
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            del doc["meta"]["timestamp"]
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_bad_header_is_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,period,outcome\n1,1,1.0\n")
        with pytest.raises(ParseError, match="unit,time,y"):
            ingest_csv(path)

    def test_round_trip_preserves_the_arrays(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.3, seed=5)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(data, first)
        back = ingest_csv(first)
        emit_csv(back, second)
        again = ingest_csv(second)
        np.testing.assert_array_equal(back.outcomes, data.outcomes)
        np.testing.assert_array_equal(back.covariates, data.covariates)
        np.testing.assert_array_equal(again.outcomes, data.outcomes)
        assert first.read_text() == second.read_text()


def ingest_text(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text)
    return ingest_csv(path)


def ingest_error(tmp_path, text, kind=ParseError):
    with pytest.raises(kind) as info:
        ingest_text(tmp_path, text)
    return type(info.value), str(info.value), info.value.line, info.value.column


class TestIngestCsvRows:
    def test_blank_rows_are_skipped_but_counted_as_lines(self, tmp_path):
        text = "unit,time,y\na,1,1.0\n\n,,\n  , ,\t\na,2,2.0\n"
        data = ingest_text(tmp_path, text)
        np.testing.assert_array_equal(data.outcomes, [[1.0, 2.0]])
        assert ingest_error(tmp_path, text + "a,3,oops\n") == (
            ParseError, "invalid numeric value 'oops' (line 7, column y)", 7, "y"
        )

    def test_wrong_field_count_is_rejected(self, tmp_path):
        assert ingest_error(tmp_path, "unit,time,y\na,1,1.0\na,2,2.0,3.0\n") == (
            ParseError, "expected 3 fields, found 4 (line 3)", 3, None
        )
        assert ingest_error(tmp_path, "unit,time,y,x1\na,1,1.0\n")[1:] == (
            "expected 4 fields, found 3 (line 2)", 2, None
        )

    def test_empty_unit_id_is_rejected(self, tmp_path):
        assert ingest_error(tmp_path, "unit,time,y\na,1,1.0\n  ,2,2.0\n") == (
            ParseError, "empty unit identifier (line 3, column unit)", 3, "unit"
        )

    def test_integer_and_decimal_times_are_one_period(self, tmp_path):
        data = ingest_text(tmp_path, "unit,time,y\na,1,1.0\na,2.0,2.0\nb,1.0,3.0\nb,2,4.0\n")
        np.testing.assert_array_equal(data.outcomes, [[1.0, 2.0], [3.0, 4.0]])
        assert ingest_error(
            tmp_path, "unit,time,y\na,1,1.0\na,1.0,2.0\n", DuplicateCellError
        ) == (DuplicateCellError, "repeated cell for unit 'a', time 1.0 (line 3)", 3, None)

    def test_unit_ids_are_stripped_and_quoted_commas_kept(self, tmp_path):
        text = 'unit,time,y\n" a,b ",1,1.0\nc,1,2.0\na,1,3.0\na,2,4.0\n'
        assert ingest_error(tmp_path, text, UnbalancedPanelError)[1] == (
            "missing cells: (a,b, 2), (c, 2)"
        )
        data = ingest_text(tmp_path, text + '"a,b",2,5.0\n c ,2,6.0\n')
        np.testing.assert_array_equal(data.outcomes, [[1.0, 5.0], [2.0, 6.0], [3.0, 4.0]])

    def test_cells_are_read_as_float_reads_them(self, tmp_path):
        data = ingest_text(tmp_path, "unit,time,y,x1\na,1, 1_000 ,1e-3\na,2,-0.0,2.5\n")
        np.testing.assert_array_equal(data.outcomes, [[float("1_000"), -0.0]])
        assert np.signbit(data.outcomes[0, 1])
        np.testing.assert_array_equal(data.covariates[0, :, 0], [1e-3, 2.5])

    def test_a_file_without_data_rows(self, tmp_path):
        for text in ("unit,time,y\n", "unit,time,y,x1\n\n,,,\n"):
            assert ingest_error(tmp_path, text) == (ParseError, "no data rows", None, None)

    def test_missing_cells_list_the_first_five_in_unit_and_period_order(self, tmp_path):
        rows = ["b,3,1.0", "b,1,1.0", "a,2,1.0", "c,3,1.0", "d,1,1.0", "d,2,1.0"]
        text = "unit,time,y\n" + "\n".join(rows) + "\n"
        assert ingest_error(tmp_path, text, UnbalancedPanelError)[1] == (
            "missing cells: (b, 2), (a, 1), (a, 3), (c, 1), (c, 2), ..."
        )
        text = "unit,time,y\nb,1,1.0\nb,2,1.0\na,2,1.0\n"
        assert ingest_error(tmp_path, text, UnbalancedPanelError)[1] == "missing cells: (a, 1)"

    def test_the_first_problem_in_file_order_wins(self, tmp_path):
        text = "unit,time,y\na,1,1.0\na,2,bad\nb,1,1.0\nb,2\n"
        assert ingest_error(tmp_path, text)[1:] == (
            "invalid numeric value 'bad' (line 3, column y)", 3, "y"
        )
        text = "unit,time,y\na,1,1.0\na,2,1.0\na,1,2.0\nb,1,1.0\nb,2,nan\n"
        assert ingest_error(tmp_path, text, DuplicateCellError)[1:] == (
            "repeated cell for unit 'a', time 1 (line 4)", 4, None
        )
        text = "unit,time,y\na,1,1.0\n,2,1.0\na,1,2.0\n"
        assert ingest_error(tmp_path, text)[1:] == (
            "empty unit identifier (line 3, column unit)", 3, "unit"
        )


class TestEstimateCommand:
    def run_estimate(self, tmp_path, data, *flags):
        panel = write_panel(tmp_path / "panel.csv", data)
        out = tmp_path / "out.json"
        rc = main(["estimate", panel, "--out", str(out), *flags])
        return rc, json.loads(out.read_text()) if out.exists() else None

    def test_single_group_plain_mode_matches_within_ols(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 5, 2))
        y = x @ [1.5, -0.5] + rng.normal(size=(20, 5))
        data = PanelDataset(y, x)
        rc, doc = self.run_estimate(
            tmp_path, data, "--mode", "gfe", "--groups", "1", "--restarts", "1"
        )
        assert rc == 0
        yd = y - y.mean(axis=0)
        xd = x - x.mean(axis=0)
        beta = np.linalg.lstsq(xd.reshape(-1, 2), yd.ravel(), rcond=None)[0]
        np.testing.assert_allclose(doc["result"]["theta"], beta, rtol=1e-8)

    def test_noiseless_clusters_are_recovered(self, tmp_path):
        data, truth = clustered_fixture()
        rc, doc = self.run_estimate(
            tmp_path, data, "--groups", "2", "--restarts", "5", "--seed", "1"
        )
        assert rc == 0
        est = GroupAssignment(np.asarray(doc["result"]["labels"]), 2)
        rate, _ = misclassification_rate(est, GroupAssignment(truth, 2))
        assert rate == 0.0
        assert doc["result"]["objective"] < 1e-10

    def test_output_validates_against_the_shipped_schema(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.2, seed=2)
        rc, doc = self.run_estimate(
            tmp_path, data, "--groups", "2", "--restarts", "3"
        )
        assert rc == 0
        jsonschema.validate(doc, load_schema("estimate"))

    def test_ggfe_mode_runs_and_validates(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.4, seed=6)
        rc, doc = self.run_estimate(
            tmp_path, data, "--mode", "ggfe", "--groups", "2", "--seed", "2"
        )
        assert rc == 0
        assert doc["result"]["mode"] == "ggfe"
        jsonschema.validate(doc, load_schema("estimate"))

    @pytest.mark.parametrize("mode", ["wgfe", "gfe", "ggfe"])
    def test_same_seed_gives_identical_json_modulo_timestamp(self, tmp_path, mode):
        data, _ = clustered_fixture(noise_scale=0.3, seed=4)
        panel = write_panel(tmp_path / "panel.csv", data)
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                ["estimate", panel, "--seed", "7", "--restarts", "4",
                 "--mode", mode, "--out", str(out)]
            )
            assert rc == 0
            doc = json.loads(out.read_text())
            doc["meta"].pop("timestamp")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_solver_failure_maps_to_exit_three(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = np.ones((8, 3, 1))
        y = rng.normal(size=(8, 3))
        panel = write_panel(tmp_path / "panel.csv", PanelDataset(y, x))
        rc = main(["estimate", panel, "--groups", "2"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "singular_design"
        assert "rank deficient" in err["error"]["message"]

    def test_singular_design_stderr_is_one_json_line(self, tmp_path):
        # the zero-slope start is logged, not warned, so a fresh interpreter
        # writes nothing to stderr but the error document
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4, 2))
        x[:, :, 1] = 0.0
        data = PanelDataset(rng.normal(size=(20, 4)), x)
        panel = write_panel(tmp_path / "zero.csv", data)
        out = subprocess.run(
            [sys.executable, "-m", "wgfe.cli", "estimate", panel,
             "--restarts", "5", "--groups", "2"],
            env=source_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 3
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert json.loads(out.stderr)["error"]["code"] == "singular_design"

    @pytest.mark.parametrize("mode", ["wgfe", "gfe", "ggfe"])
    def test_unidentified_slope_exits_three(self, mode, tmp_path, capsys):
        # every search reaches the grouping by half, where the group effects
        # absorb the covariate
        data, _ = cell_constant_panel()
        panel = write_panel(tmp_path / "panel.csv", data)
        rc = main(["estimate", panel, "--mode", mode, "--groups", "2", "--restarts", "3"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["code"] == "singular_design"

    def test_input_problems_map_to_exit_two(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "absent.csv")])
        assert rc == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("unit,time,y\n1,1,1.0\n1,1,2.0\n")
        rc = main(["estimate", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"]["code"] == "duplicate_cell"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_a_tolerance_that_is_not_finite_is_an_input_problem(self, tol, tmp_path, capsys):
        # a NaN tolerance would run every restart to the iteration cap, and
        # an infinite one would stop each slope fixed point after one step
        data, _ = clustered_fixture()
        panel = write_panel(tmp_path / "panel.csv", data)
        rc = main(["estimate", panel, "--restarts", "1", "--tol", tol])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "value" and "fp_tol" in err["message"]

    def test_more_groups_than_units_is_an_input_problem(self, tmp_path, capsys):
        data, _ = clustered_fixture()
        panel = write_panel(tmp_path / "panel.csv", data)
        rc = main(["estimate", panel, "--groups", "13", "--restarts", "1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "13 units" in err["error"]["message"]


class TestSimulateCommand:
    def write_spec(self, tmp_path, **overrides):
        spec = dict(
            n_units=40,
            n_periods=4,
            n_groups=2,
            theta_true=[0.8],
            alpha_true=[[0.0, 0.0, 0.0, 0.0], [4.0, 4.0, 4.0, 4.0]],
            sigma_true=[0.0, 0.0],
            group_probs=[0.5, 0.5],
            covariate_law=dict(kind="ar1", rho=0.5, innovation_sd=1.0),
        )
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_zero_noise_reports_zero_rmse(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "study.json"
        rc = main(
            ["simulate", spec, "--replications", "3", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("simulate"))
        for name in ("wgfe", "gfe"):
            assert doc["report"]["rmse_theta"][name][0] < 1e-8
            assert doc["report"]["misclass_mean"][name] == 0.0

    def test_scale_contrast_design_favors_the_weighted_fit(self, tmp_path):
        t = 7
        base = np.linspace(0.0, 0.3, t)
        spec = self.write_spec(
            tmp_path,
            n_units=50,
            n_periods=t,
            theta_true=[0.554, 0.062],
            alpha_true=np.vstack([base, base + 0.25]).tolist(),
            sigma_true=[0.219, 0.086],
            group_probs=[0.64, 0.36],
            covariate_law=dict(kind="ar1", rho=0.9, innovation_sd=0.5),
            dynamic=True,
        )
        out = tmp_path / "study.json"
        rc = main(
            ["simulate", spec, "--replications", "10", "--seed", "2",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())["report"]
        assert report["misclass_mean"]["wgfe"] < report["misclass_mean"]["gfe"]

    def test_curve_csv_has_one_row_per_grid_point(self, tmp_path):
        spec = self.write_spec(tmp_path, sigma_true=[1.0, 0.5])
        out = tmp_path / "study.json"
        curves = tmp_path / "curves.csv"
        rc = main(
            ["simulate", spec, "--replications", "2", "--seed", "3",
             "--out", str(out), "--curves", str(curves),
             "--curve-periods", "2,4,8"]
        )
        assert rc == 0
        rows = list(csv.reader(curves.open()))
        assert rows[0] == ["T", "estimator", "probability"]
        body = rows[1:]
        assert len(body) == 6
        seen = {(r[0], r[1]) for r in body}
        assert seen == {(str(t), e) for t in (2, 4, 8) for e in ("wgfe", "gfe")}
        for row in body:
            assert 0.0 <= float(row[2]) <= 1.0

    @pytest.mark.parametrize("periods", ["4,x", "4,0", ""])
    def test_bad_curve_periods_exit_two_before_any_output(self, tmp_path, periods):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "study.json"
        with pytest.raises(SystemExit) as info:
            main(["simulate", spec, "--replications", "2", "--out", str(out),
                  "--curves", str(tmp_path / "c.csv"), "--curve-periods", periods])
        assert info.value.code == 2
        assert not out.exists()

    def test_one_group_curves_exit_two_before_any_output(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path, n_groups=1, alpha_true=[[0.0] * 4], sigma_true=[1.0],
            group_probs=[1.0],
        )
        out = tmp_path / "study.json"
        rc = main(["simulate", spec, "--replications", "2", "--out", str(out),
                   "--curves", str(tmp_path / "c.csv")])
        assert rc == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "two groups" in err["error"]["message"]

    def test_bad_spec_json_maps_to_exit_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        rc = main(["simulate", str(path), "--replications", "2"])
        assert rc == 2
        path.write_text(json.dumps({"n_units": 10}))
        rc = main(["simulate", str(path), "--replications", "2"])
        assert rc == 2
        spec = self.write_spec(tmp_path, error_law="cauchy")
        rc = main(["simulate", spec, "--replications", "2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error law" in err["error"]["message"]

    def test_byte_order_mark_in_the_spec_is_accepted(self, tmp_path):
        spec = Path(self.write_spec(tmp_path))
        spec.write_bytes(b"\xef\xbb\xbf" + spec.read_bytes())
        assert main(["simulate", str(spec), "--replications", "1",
                     "--out", str(tmp_path / "study.json")]) == 0

    @pytest.mark.parametrize("edit,named", [
        (lambda spec: [1, 2], "process description must be a JSON object"),
        (lambda spec: {k: v for k, v in spec.items() if k != "n_units"},
         "process description is missing 'n_units'"),
        (lambda spec: {**spec, "covariate_law": [0.5]}, "covariate_law must be a JSON object"),
        (lambda spec: {**spec, "covariate_law": {"kind": "ar1", "rho": 0.5}},
         "covariate_law is missing 'innovation_sd'"),
    ], ids=["array", "missing_key", "law_array", "missing_law_key"])
    def test_malformed_spec_exits_two_naming_the_problem(self, edit, named, tmp_path, capsys):
        path = Path(self.write_spec(tmp_path))
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["simulate", str(path), "--replications", "1"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["code"], err["exit_status"], err["message"]) == ("value", 2, named)

    @pytest.mark.parametrize("edit,named", [
        ({"n_units": "abc"}, "process description 'n_units' must be an integer, got 'abc'"),
        ({"n_units": None}, "process description 'n_units' must be an integer, got None"),
        ({"n_groups": 2.0}, "process description 'n_groups' must be an integer, got 2.0"),
        ({"covariate_law": {"kind": "ar1", "rho": "x", "innovation_sd": 1.0}},
         "covariate_law 'rho' must be a number, got 'x'"),
        ({"theta_true": {"a": 1}},
         "process description 'theta_true' must be a number or an array of numbers"),
        ({"covariate_law": {"kind": "fixed", "values": [[1.0], ["x"]]}},
         "covariate_law 'values' must be a number or an array of numbers"),
        ({"dynamic": "false"}, "process description 'dynamic' must be true or false, got 'false'"),
    ], ids=["string_count", "null_count", "float_count", "string_rho", "object_theta",
            "string_values", "string_dynamic"])
    def test_mistyped_spec_value_exits_two_naming_the_key(self, edit, named, tmp_path, capsys):
        path = self.write_spec(tmp_path, **edit)
        assert main(["simulate", path, "--replications", "1"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["code"], err["exit_status"], err["message"]) == ("value", 2, named)


class TestSelectGCommand:
    def three_group_panel(self, tmp_path):
        rng = np.random.default_rng(8)
        labels = np.repeat([1, 2, 3], 6)
        alpha = np.array(
            [[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0], [-5.0, -5.0, -5.0, -5.0]]
        )
        x = rng.normal(size=(18, 4, 1))
        y = 0.5 * x[:, :, 0] + alpha[labels - 1]
        return write_panel(tmp_path / "panel.csv", PanelDataset(y, x))

    def test_noiseless_three_groups_are_selected(self, tmp_path):
        panel = self.three_group_panel(tmp_path)
        out = tmp_path / "sel.json"
        rc = main(
            ["select-g", panel, "--gmax", "5", "--restarts", "5", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("select_g"))
        assert doc["result"]["selected"] == 3

    def test_gmax_one_gives_a_single_row(self, tmp_path):
        panel = self.three_group_panel(tmp_path)
        out = tmp_path / "sel.json"
        rc = main(["select-g", panel, "--gmax", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["result"]["rows"]) == 1
        assert doc["result"]["selected"] == 1

    def test_bic_column_recomputes_from_the_documented_formula(self, tmp_path):
        panel = self.three_group_panel(tmp_path)
        out = tmp_path / "sel.json"
        rc = main(
            ["select-g", panel, "--gmax", "4", "--restarts", "5", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        n, t, p = 18, 4, 1
        base = doc["result"]["sigma2_base"]
        for row in doc["result"]["rows"]:
            g = row["n_groups"]
            penalty = base * (g * t + n + p) * np.log(n * t) / (n * t)
            assert row["bic"] == pytest.approx(
                row["ssr"] / (n * t) + penalty, rel=1e-10, abs=1e-12
            )


class TestHomoskedasticityCommand:
    def test_equal_group_fit_quality_gives_exactly_zero(self, tmp_path):
        t = 4
        alpha = np.array([[0.0] * t, [100.0] * t])
        labels = np.array([1, 1, 2, 2])
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        y = alpha[labels - 1] + signs[:, None] * np.ones((4, t))
        panel = write_panel(
            tmp_path / "panel.csv", PanelDataset(y, np.zeros((4, t, 0)))
        )
        out = tmp_path / "tau.json"
        rc = main(
            ["test-homoskedasticity", panel, "--groups", "2", "--restarts", "3",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("homoskedasticity"))
        assert doc["result"]["tau"] == 0.0
        assert doc["result"]["q_gfe"] == 1.0

    def test_any_run_reports_nonnegative_tau(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.5, seed=9)
        panel = write_panel(tmp_path / "panel.csv", data)
        out = tmp_path / "tau.json"
        rc = main(
            ["test-homoskedasticity", panel, "--groups", "2", "--restarts", "5",
             "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["tau"] >= -1e-12

    def test_tau_recomputes_from_emitted_components(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.8, seed=10)
        panel = write_panel(tmp_path / "panel.csv", data)
        out = tmp_path / "tau.json"
        rc = main(
            ["test-homoskedasticity", panel, "--groups", "2", "--restarts", "5",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        res = json.loads(out.read_text())["result"]
        assert res["tau"] == pytest.approx(
            res["d_nt"] * (res["q_gfe"] - res["q_wgfe"] ** 2), rel=1e-10
        )


class TestOutputHygiene:
    def test_stdout_is_used_when_no_out_path(self, tmp_path, capsys):
        data, _ = clustered_fixture()
        panel = write_panel(tmp_path / "panel.csv", data)
        rc = main(["estimate", panel, "--restarts", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["command"] == "estimate"

    def test_numeric_fields_are_finite_or_null(self, tmp_path):
        spec = {
            "n_units": 20, "n_periods": 3, "n_groups": 2,
            "theta_true": [0.5], "alpha_true": [[0, 0, 0], [3, 3, 3]],
            "sigma_true": [0.1, 0.1], "group_probs": [0.5, 0.5],
            "covariate_law": {"kind": "ar1", "rho": 0.5, "innovation_sd": 1.0},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "study.json"
        rc = main(
            ["simulate", str(path), "--estimators", "wgfe,two_way_fe",
             "--replications", "2", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text)
        assert doc["report"]["misclass_mean"]["two_way_fe"] is None

    @pytest.mark.parametrize("command", ["estimate", "select-g", "test-homoskedasticity"])
    def test_threads_flag_is_rejected(self, command, tmp_path, capsys):
        data, _ = clustered_fixture()
        panel = write_panel(tmp_path / "panel.csv", data)
        extra = ["--gmax", "2"] if command == "select-g" else []
        with pytest.raises(SystemExit) as info:
            main([command, panel, *extra, "--threads", "2"])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["estimate", "{panel}", "--seed", "-1"], "--seed"),
            (["estimate", "{panel}", "--mode", "ggfe", "--seed", "-1"], "--seed"),
            (["select-g", "{panel}", "--gmax", "2", "--seed", "-5"], "--seed"),
            (["test-homoskedasticity", "{panel}", "--seed", "-1"], "--seed"),
            (["simulate", "{spec}", "--seed", "-1"], "--seed"),
            (["estimate", "{panel}", "--restarts", "abc"], "--restarts"),
            (["simulate", "{spec}", "--replications", "1.5"], "--replications"),
            (["select-g", "{panel}", "--restarts", "2"], "--gmax"),
        ],
    )
    def test_a_bad_flag_exits_two_with_one_json_line(self, argv, flag, tmp_path, capsys):
        # the flags are checked before any input is read: these inputs do
        # not exist, and the error is the flag's
        out = tmp_path / "out.json"
        paths = {"{panel}": str(tmp_path / "panel.csv"), "{spec}": str(tmp_path / "spec.json")}
        with pytest.raises(SystemExit) as info:
            main([paths.get(a, a) for a in argv] + ["--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)["error"]
        assert err["code"] == "usage" and err["exit_status"] == 2
        assert flag in err["message"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["estimate", "{panel}", "--groups", "0"], "--groups"),
            (["estimate", "{panel}", "--restarts", "0"], "--restarts"),
            (["estimate", "{panel}", "--mode", "ggfe", "--max-iters", "0"], "--max-iters"),
            (["select-g", "{panel}", "--gmax", "0"], "--gmax"),
            (["select-g", "{panel}", "--gmax", "2", "--restarts", "-3"], "--restarts"),
            (["test-homoskedasticity", "{panel}", "--groups", "0"], "--groups"),
            (["simulate", "{spec}", "--replications", "0"], "--replications"),
        ],
    )
    def test_a_count_below_one_is_a_usage_error_before_any_read(
        self, argv, flag, tmp_path, capsys
    ):
        # the inputs do not exist, so an error about the count came first
        out = tmp_path / "out.json"
        paths = {"{panel}": str(tmp_path / "panel.csv"), "{spec}": str(tmp_path / "spec.json")}
        with pytest.raises(SystemExit) as info:
            main([paths.get(a, a) for a in argv] + ["--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)["error"]
        assert err["code"] == "usage" and err["exit_status"] == 2
        assert err["message"] == (
            f"argument {flag}: expected a positive integer, got {argv[-1]!r}"
        )

    def test_help_still_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wgfe estimate")

    def test_every_command_records_one_thread(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.3)
        panel = write_panel(tmp_path / "panel.csv", data)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_units": 12, "n_periods": 3, "n_groups": 2,
            "theta_true": [0.5], "alpha_true": [[0, 0, 0], [3, 3, 3]],
            "sigma_true": [0.1, 0.1], "group_probs": [0.5, 0.5],
            "covariate_law": {"kind": "ar1", "rho": 0.5, "innovation_sd": 1.0},
        }))
        runs = {
            "estimate": ["estimate", panel, "--restarts", "2"],
            "select-g": ["select-g", panel, "--gmax", "2", "--restarts", "2"],
            "test-homoskedasticity": ["test-homoskedasticity", panel, "--restarts", "2"],
            "simulate": ["simulate", str(spec), "--replications", "1"],
        }
        for command, argv in runs.items():
            out = tmp_path / f"{command}.json"
            assert main([*argv, "--out", str(out)]) == 0
            meta = json.loads(out.read_text())["meta"]
            assert (meta["command"], meta["threads"]) == (command, 1)

    def test_importing_the_cli_leaves_scipy_unloaded(self):
        # SciPy is imported only where a command needs it
        assert scipy_loaded_after() is False

    def test_ggfe_estimate_leaves_scipy_unloaded(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.3, n=20)
        panel = write_panel(tmp_path / "panel.csv", data)
        out = str(tmp_path / "out.json")
        args = ["estimate", panel, "--mode", "ggfe", "--groups", "2", "--out", out]
        assert scipy_loaded_after(*args) is False


def scipy_loaded_after(*args):
    """Whether a fresh interpreter has SciPy loaded after ``wgfe`` runs ``args``.

    With no arguments the interpreter only imports the CLI.
    """
    code = (
        "import sys, wgfe.cli\n"
        "if sys.argv[1:]:\n"
        "    assert wgfe.cli.main(sys.argv[1:]) == 0\n"
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=source_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return {"True": True, "False": False}[out.stdout.strip()]


def source_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(wgfe.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path}
