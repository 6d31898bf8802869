"""Tests for the command line interface: CSV ingestion, commands, JSON output."""

import csv
import json
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

from wgfe import (
    DuplicateCellError,
    GroupAssignment,
    PanelDataset,
    ParseError,
    UnbalancedPanelError,
    misclassification_rate,
)
from wgfe.cli import emit_csv, ingest_csv, main


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

    def test_same_seed_gives_identical_json_modulo_timestamp(self, tmp_path):
        data, _ = clustered_fixture(noise_scale=0.3, seed=4)
        panel = write_panel(tmp_path / "panel.csv", data)
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                ["estimate", panel, "--seed", "7", "--restarts", "4",
                 "--out", str(out)]
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
        assert err["error"]["code"] in ("singular_design", "non_convergence")
        assert "rank deficient" in err["error"]["message"]

    def test_input_problems_map_to_exit_two(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "absent.csv")])
        assert rc == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("unit,time,y\n1,1,1.0\n1,1,2.0\n")
        rc = main(["estimate", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"]["code"] == "duplicate_cell"

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

    def test_bad_spec_json_maps_to_exit_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        rc = main(["simulate", str(path), "--replications", "2"])
        assert rc == 2
        path.write_text(json.dumps({"n_units": 10}))
        rc = main(["simulate", str(path), "--replications", "2"])
        assert rc == 2


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
