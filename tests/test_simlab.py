"""Tests for synthetic panel generation, matching metrics, and studies."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.stats import chi2, norm

from wgfe import (
    AR1Covariates,
    FixedCovariates,
    GroupAssignment,
    GroupCountMismatchError,
    SimulationSpec,
    generate,
    misclassification_rate,
    run_study,
    simple_case_misclass,
)


def two_group_spec(**overrides):
    base = dict(
        n_units=60,
        n_periods=4,
        n_groups=2,
        theta_true=[0.8],
        alpha_true=[[0.0, 1.0, 2.0, 1.0], [3.0, 2.0, 1.0, 2.0]],
        sigma_true=[0.4, 1.1],
        group_probs=[0.55, 0.45],
        covariate_law=AR1Covariates(rho=0.6, innovation_sd=1.0),
    )
    base.update(overrides)
    return SimulationSpec(**base)


class TestSimulationSpec:
    def test_rejects_probabilities_off_the_simplex(self):
        with pytest.raises(ValueError, match="sum to one"):
            two_group_spec(group_probs=[0.7, 0.7])
        with pytest.raises(ValueError, match="nonnegative"):
            two_group_spec(group_probs=[1.2, -0.2])

    def test_rejects_negative_scales(self):
        with pytest.raises(ValueError, match="sigma_true"):
            two_group_spec(sigma_true=[0.4, -0.1])

    def test_rejects_mismatched_effect_shape(self):
        with pytest.raises(ValueError, match="alpha_true"):
            two_group_spec(alpha_true=[[0.0, 1.0], [2.0, 3.0]])

    def test_rejects_wrong_theta_length(self):
        with pytest.raises(ValueError, match="theta_true"):
            two_group_spec(theta_true=[0.8, 0.1])

    def test_dynamic_requires_stable_lag_coefficient(self):
        with pytest.raises(ValueError, match="lag coefficient"):
            two_group_spec(theta_true=[1.0, 0.2], dynamic=True)

    def test_ar1_law_requires_stationary_rho(self):
        with pytest.raises(ValueError, match="rho"):
            AR1Covariates(rho=1.0, innovation_sd=1.0)

    def test_covariate_count_includes_the_lag(self):
        assert two_group_spec().n_covariates == 1
        assert two_group_spec(theta_true=[0.5, 0.8], dynamic=True).n_covariates == 2
        assert (
            two_group_spec(theta_true=[], covariate_law=None).n_covariates == 0
        )


class TestGenerate:
    def test_zero_noise_outcomes_are_deterministic_in_the_covariates(self):
        spec = two_group_spec(sigma_true=[0.0, 0.0])
        data, truth, params = generate(spec, np.random.default_rng(3))
        fitted = (
            data.covariates @ params.theta + params.alpha[truth.labels - 1]
        )
        np.testing.assert_allclose(data.outcomes, fitted, atol=1e-9)
        assert np.all(params.sigma > 0)

    def test_group_shares_match_probabilities(self):
        spec = two_group_spec(n_units=100_000, group_probs=[0.3, 0.7])
        _, truth, _ = generate(spec, np.random.default_rng(11))
        shares = truth.counts() / truth.labels.shape[0]
        for share, prob in zip(shares, [0.3, 0.7]):
            se = np.sqrt(prob * (1 - prob) / 100_000)
            assert abs(share - prob) < 3 * se

    def test_group_error_variances_match_scales(self):
        spec = two_group_spec(n_units=20_000, n_periods=6,
                              alpha_true=np.zeros((2, 6)), theta_true=[0.0])
        data, truth, params = generate(spec, np.random.default_rng(12))
        u = data.outcomes - data.covariates @ params.theta
        for k, sig in enumerate(params.sigma):
            draws = u[truth.labels == k + 1].ravel()
            sample_var = draws.var()
            se = sig**2 * np.sqrt(2.0 / (draws.size - 1))
            assert abs(sample_var - sig**2) < 3 * se

    def test_dynamic_panels_put_the_lagged_outcome_first(self):
        spec = two_group_spec(theta_true=[0.5, 0.8], dynamic=True)
        data, _, _ = generate(spec, np.random.default_rng(4))
        np.testing.assert_array_equal(
            data.covariates[:, 1:, 0], data.outcomes[:, :-1]
        )

    def test_fixed_covariates_are_reused_verbatim(self):
        x = np.random.default_rng(9).normal(size=(60, 4))
        spec = two_group_spec(covariate_law=FixedCovariates(x))
        d1, _, _ = generate(spec, np.random.default_rng(1))
        d2, _, _ = generate(spec, np.random.default_rng(2))
        np.testing.assert_array_equal(d1.covariates[:, :, 0], x)
        np.testing.assert_array_equal(d2.covariates[:, :, 0], x)

    def test_fixed_covariates_validate_panel_shape(self):
        spec = two_group_spec(
            covariate_law=FixedCovariates(np.ones((10, 4)))
        )
        with pytest.raises(ValueError, match="n_units"):
            generate(spec, np.random.default_rng(0))

    def test_same_seed_reproduces_the_panel_bitwise(self):
        spec = two_group_spec(theta_true=[0.5, 0.8], dynamic=True)
        d1, t1, _ = generate(spec, np.random.default_rng(42))
        d2, t2, _ = generate(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(d1.outcomes, d2.outcomes)
        np.testing.assert_array_equal(d1.covariates, d2.covariates)
        np.testing.assert_array_equal(t1.labels, t2.labels)

    def test_no_covariate_panel_has_empty_slope_block(self):
        spec = two_group_spec(theta_true=[], covariate_law=None)
        data, _, _ = generate(spec, np.random.default_rng(5))
        assert data.covariates.shape == (60, 4, 0)


class TestMisclassificationRate:
    def rand_assignment(self, rng, n, g):
        labels = rng.integers(1, g + 1, size=n)
        labels[:g] = np.arange(1, g + 1)
        return GroupAssignment(labels, g)

    def test_identical_labels_give_zero(self):
        truth = self.rand_assignment(np.random.default_rng(0), 50, 3)
        rate, perm = misclassification_rate(truth, truth)
        assert rate == 0.0
        assert perm == (1, 2, 3)

    def test_pure_relabeling_gives_zero_with_the_inverse_permutation(self):
        rng = np.random.default_rng(1)
        truth = self.rand_assignment(rng, 80, 3)
        mapping = {1: 3, 2: 1, 3: 2}
        est = GroupAssignment([mapping[v] for v in truth.labels], 3)
        rate, perm = misclassification_rate(est, truth)
        assert rate == 0.0
        assert perm == (2, 3, 1)

    def test_independent_labels_sit_near_one_half(self):
        rng = np.random.default_rng(2)
        truth = self.rand_assignment(rng, 10_000, 2)
        est = self.rand_assignment(rng, 10_000, 2)
        rate, _ = misclassification_rate(est, truth)
        assert abs(rate - 0.5) < 0.02

    def test_invariant_to_relabeling_the_estimate(self):
        rng = np.random.default_rng(3)
        truth = self.rand_assignment(rng, 60, 3)
        est = self.rand_assignment(rng, 60, 3)
        base, _ = misclassification_rate(est, truth)
        for perm in itertools.permutations((1, 2, 3)):
            relabeled = GroupAssignment(
                np.asarray(perm)[est.labels - 1], 3
            )
            rate, _ = misclassification_rate(relabeled, truth)
            assert rate == base

    def test_never_exceeds_the_unmatched_disagreement(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            truth = self.rand_assignment(rng, 40, 4)
            est = self.rand_assignment(rng, 40, 4)
            rate, _ = misclassification_rate(est, truth)
            naive = np.mean(est.labels != truth.labels)
            assert rate <= naive + 1e-12

    def test_large_group_counts_use_the_assignment_solver(self):
        rng = np.random.default_rng(5)
        g, n = 10, 400
        truth = self.rand_assignment(rng, n, g)
        shuffle = rng.permutation(g) + 1
        est_labels = shuffle[truth.labels - 1]
        flip = rng.choice(n, size=20, replace=False)
        est_labels = est_labels.copy()
        est_labels[flip] = ((est_labels[flip] + 3) % g) + 1
        rate, perm = misclassification_rate(GroupAssignment(est_labels, g), truth)
        assert rate <= 20 / n + 1e-12
        recovered = np.asarray(perm)[est_labels - 1]
        assert np.mean(recovered != truth.labels) == pytest.approx(rate)

    def test_group_count_mismatch_is_rejected(self):
        a = GroupAssignment([1, 2, 1, 2], 2)
        b = GroupAssignment([1, 2, 3, 1], 3)
        with pytest.raises(GroupCountMismatchError):
            misclassification_rate(a, b)

    def test_unit_count_mismatch_is_rejected(self):
        a = GroupAssignment([1, 2, 1], 2)
        b = GroupAssignment([1, 2, 1, 2], 2)
        with pytest.raises(ValueError, match="units"):
            misclassification_rate(a, b)


class TestSimpleCaseMisclass:
    def test_equal_scales_make_both_rules_agree_draw_by_draw(self):
        for t in (2, 4, 8):
            res = simple_case_misclass(
                0.0, 1.5, 1.0, 1.0, t, 50_000, np.random.default_rng(t)
            )
            assert res.wgfe_rate == res.gfe_rate
        res = simple_case_misclass(
            0.0, 0.0, 1.0, 1.0, 4, 1000, np.random.default_rng(0)
        )
        assert res.wgfe_rate == 0.0 and res.gfe_rate == 0.0
        assert res.exact == 0.0

    def test_monte_carlo_tracks_the_exact_chi_squared_region(self):
        n = 100_000
        res = simple_case_misclass(
            0.0, 0.0, 1.0, 0.5, 4, n, np.random.default_rng(7)
        )
        target = chi2.cdf(0.5, df=4)
        assert res.exact == pytest.approx(target, rel=1e-12)
        se = np.sqrt(target * (1 - target) / n)
        assert abs(res.wgfe_rate - target) < 3 * se
        assert res.gfe_rate == 0.0

    def test_noisier_own_group_loses_as_the_panel_lengthens(self):
        values = []
        for t in (2, 4, 8, 16, 32):
            res = simple_case_misclass(
                0.0, 0.0, 1.0, 1.5, t, 20_000, np.random.default_rng(t)
            )
            assert res.exact == pytest.approx(chi2.sf(1.5, df=t), rel=1e-12)
            se = np.sqrt(max(res.exact * (1 - res.exact), 1e-12) / 20_000)
            assert abs(res.wgfe_rate - res.exact) < 4 * se + 1e-6
            values.append(res.exact)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_normal_approximation_field_matches_its_formula(self):
        res = simple_case_misclass(
            0.0, 0.0, 1.0, 0.5, 4, 10, np.random.default_rng(1)
        )
        assert res.normal_approx == pytest.approx(
            norm.cdf((1.0 * 0.5 - 4) / np.sqrt(8.0)), rel=1e-12
        )
        res = simple_case_misclass(
            0.0, 0.0, 1.0, 2.0, 4, 10, np.random.default_rng(1)
        )
        assert res.normal_approx == pytest.approx(
            norm.sf((1.0 * 2.0 - 4) / np.sqrt(8.0)), rel=1e-12
        )

    def test_distinct_effect_paths_disable_the_closed_forms(self):
        res = simple_case_misclass(
            0.0, 5.0, 1.0, 1.0, 4, 2000, np.random.default_rng(2)
        )
        assert res.exact is None and res.normal_approx is None
        assert res.gfe_rate < 0.01

    def test_vector_effect_paths_are_accepted(self):
        res = simple_case_misclass(
            np.zeros(3), np.ones(3), 1.0, 0.5, 3, 500, np.random.default_rng(3)
        )
        assert 0.0 <= res.wgfe_rate <= 1.0

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="positive"):
            simple_case_misclass(0.0, 0.0, 0.0, 1.0, 4, 10, rng)
        with pytest.raises(ValueError, match="draw"):
            simple_case_misclass(0.0, 0.0, 1.0, 1.0, 4, 0, rng)


class TestRunStudy:
    def zero_noise_spec(self):
        return two_group_spec(
            n_units=40,
            sigma_true=[0.0, 0.0],
            alpha_true=[[0.0, 0.0, 0.0, 0.0], [4.0, 4.0, 4.0, 4.0]],
        )

    def test_zero_noise_recovers_everything(self):
        report = run_study(
            self.zero_noise_spec(), ["wgfe", "gfe"], 3, np.random.default_rng(1)
        )
        for name in ("wgfe", "gfe"):
            assert report.rmse_theta[name][0] < 1e-8
            assert report.misclass_mean[name] == 0.0
            assert report.n_failures[name] == 0
        assert report.n_replications == 3
        assert report.runtime_seconds > 0

    def test_two_way_benchmark_handles_separable_effects(self):
        spec = two_group_spec(
            alpha_true=[[0.0, 1.0, 2.0, 1.0], [3.0, 4.0, 5.0, 4.0]],
            sigma_true=[0.0, 0.0],
        )
        report = run_study(spec, ["two_way_fe"], 2, np.random.default_rng(2))
        assert report.rmse_theta["two_way_fe"][0] < 1e-8
        assert np.isnan(report.misclass_mean["two_way_fe"])
        assert np.isnan(report.misclass_se["two_way_fe"])

    def test_scale_aware_grouping_beats_plain_grouping_when_scales_differ(self):
        t = 7
        base = np.linspace(0.0, 0.3, t)
        spec = SimulationSpec(
            n_units=60,
            n_periods=t,
            n_groups=2,
            theta_true=[0.554, 0.062],
            alpha_true=np.vstack([base, base + 0.25]),
            sigma_true=[0.219, 0.086],
            group_probs=[0.64, 0.36],
            covariate_law=AR1Covariates(rho=0.9, innovation_sd=0.5),
            dynamic=True,
        )
        report = run_study(spec, ["wgfe", "gfe"], 30, np.random.default_rng(3))
        assert report.misclass_mean["wgfe"] < report.misclass_mean["gfe"]
        assert report.misclass_mean["wgfe"] < 0.10
        assert report.misclass_se["wgfe"] >= 0.0

    def test_reports_are_reproducible_under_a_fixed_seed(self):
        spec = two_group_spec(n_units=30)
        a = run_study(spec, ["wgfe", "gfe"], 4, np.random.default_rng(9))
        b = run_study(spec, ["wgfe", "gfe"], 4, np.random.default_rng(9))
        assert a.rmse_theta == b.rmse_theta
        assert a.misclass_mean == b.misclass_mean
        assert a.misclass_se == b.misclass_se
        assert a.n_failures == b.n_failures

    def test_singular_designs_are_counted_as_failures(self):
        spec = two_group_spec(
            covariate_law=FixedCovariates(np.ones((60, 4)))
        )
        report = run_study(
            spec, ["wgfe", "gfe", "two_way_fe"], 2, np.random.default_rng(4)
        )
        for name in report.estimators:
            assert report.n_failures[name] == 2
            assert np.isnan(report.misclass_mean[name])
            assert all(np.isnan(r) for r in report.rmse_theta[name])

    def test_rejects_unknown_or_empty_estimator_sets(self):
        spec = self.zero_noise_spec()
        with pytest.raises(ValueError, match="unknown estimator"):
            run_study(spec, ["ols"], 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one estimator"):
            run_study(spec, [], 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="replication"):
            run_study(spec, ["gfe"], 0, np.random.default_rng(0))


class TestStudyReportValidation:
    def test_rejects_negative_rmse(self):
        from wgfe import StudyReport

        with pytest.raises(ValueError, match="nonnegative"):
            StudyReport(
                estimators=("gfe",),
                rmse_theta={"gfe": (-0.1,)},
                misclass_mean={"gfe": 0.0},
                misclass_se={"gfe": 0.0},
                n_replications=1,
                n_failures={"gfe": 0},
                runtime_seconds=0.1,
            )

    def test_rejects_rates_outside_the_unit_interval(self):
        from wgfe import StudyReport

        with pytest.raises(ValueError, match="rates"):
            StudyReport(
                estimators=("gfe",),
                rmse_theta={"gfe": (0.1,)},
                misclass_mean={"gfe": 1.5},
                misclass_se={"gfe": 0.0},
                n_replications=1,
                n_failures={"gfe": 0},
                runtime_seconds=0.1,
            )
