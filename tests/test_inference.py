"""Inference: sandwich variances, the heteroskedasticity gap, BIC selection."""

import numpy as np
import pytest

from wgfe import inference
from wgfe.inference import (
    GroupSelection,
    HomoskedasticityTest,
    homoskedasticity_test,
    select_n_groups,
    variance_estimates,
)
from wgfe.model import (
    GroupAssignment,
    GroupParameters,
    ObjectiveBreakdown,
    PanelDataset,
    gfe_objective,
    group_ssr,
    wgfe_objective,
)
from wgfe.solvers import EstimationResult, SolverConfig, lloyd, initialize, multi_start

from conftest import make_grouped_dataset, make_dataset


def manual_result(data, theta, alpha, labels, mode="wgfe"):
    """Wrap known parameters in a result container without running a solver."""
    gamma = GroupAssignment(labels, alpha.shape[0])
    q = group_ssr(data, theta, alpha, gamma)
    sigma = np.maximum(np.sqrt(q), 1e-8)
    params = GroupParameters(theta, alpha, sigma, gamma.weights())
    crit = wgfe_objective if mode == "wgfe" else gfe_objective
    breakdown = crit(data, theta, alpha, gamma)
    return EstimationResult(
        params=params,
        assignment=gamma,
        objective=breakdown.value,
        breakdown=breakdown,
        mode=mode,
        n_lloyd_iters=0,
        n_restarts_used=1,
        converged=True,
        trace=(breakdown.value,),
    )


def cluster_robust_oracle(data, theta, demean_groups=None):
    """Independent cluster-robust variance for the within-demeaned slopes.

    Demeans by group-period averages (a single overall group when
    ``demean_groups`` is None), builds bread and meat with explicit loops,
    and clusters scores by unit.  No scale weighting.
    """
    n, t, p = data.n_units, data.n_periods, data.n_covariates
    labels = np.ones(n, int) if demean_groups is None else demean_groups
    xt = np.empty_like(np.asarray(data.covariates))
    u = np.empty((n, t))
    for g in np.unique(labels):
        members = labels == g
        xbar = data.covariates[members].mean(axis=0)
        ybar = data.outcomes[members].mean(axis=0)
        xt[members] = data.covariates[members] - xbar
        u[members] = (data.outcomes[members] - ybar) - (
            data.covariates[members] - xbar
        ) @ theta
    bread = np.zeros((p, p))
    meat = np.zeros((p, p))
    for i in range(n):
        score = np.zeros(p)
        for tt in range(t):
            bread += np.outer(xt[i, tt], xt[i, tt])
            score += xt[i, tt] * u[i, tt]
        meat += np.outer(score, score)
    bread /= n * t
    meat /= n * t
    meat *= (n * t) / (n * t - p)
    binv = np.linalg.inv(bread)
    return binv @ meat @ binv / (n * t)


class TestVarianceEstimates:
    def test_single_group_reduces_to_cluster_robust(self, rng):
        # scale weights cancel when there is one group, so the sandwich must
        # match a plain cluster-robust oracle on the time-demeaned data
        for seed in range(10):
            r = np.random.default_rng(seed)
            data = make_dataset(r, n=20, t=5, p=2)
            cfg = SolverConfig(mode="wgfe", n_groups=1)
            res = lloyd(data, cfg, initialize(data, cfg, r))
            inf = variance_estimates(data, res)
            oracle = cluster_robust_oracle(data, res.params.theta)
            np.testing.assert_allclose(inf.var_theta, oracle, rtol=1e-10)

    def test_zero_residuals_zero_variances(self, rng):
        theta = np.array([1.0, -0.5])
        alpha = rng.standard_normal((2, 4))
        labels = np.array([1, 2, 1, 2, 1, 2])
        x = rng.standard_normal((6, 4, 2))
        y = x @ theta + alpha[labels - 1]
        data = PanelDataset(y, x)
        inf = variance_estimates(data, manual_result(data, theta, alpha, labels))
        assert np.all(inf.var_theta == 0.0)
        assert np.all(inf.se_theta == 0.0)
        assert np.all(inf.var_alpha == 0.0)
        assert np.all(inf.sigma2_hat == 0.0)

    def test_equal_scales_match_unweighted_sandwich(self, rng):
        # residual blocks copied across groups force identical group scales,
        # making the weighted sandwich coincide with the unweighted one
        theta = np.array([0.8])
        alpha = np.array([[0.0, 1.0, -1.0], [3.0, 2.5, 4.0]])
        half = 8
        x_half = rng.standard_normal((half, 3, 1))
        u_half = 0.4 * rng.standard_normal((half, 3))
        u_half -= u_half.mean(axis=0)  # planted alpha is then least-squares
        x = np.concatenate([x_half, x_half])
        u = np.concatenate([u_half, u_half])
        labels = np.array([1] * half + [2] * half)
        y = x @ theta + alpha[labels - 1] + u
        data = PanelDataset(y, x)
        res = manual_result(data, theta, alpha, labels)
        inf = variance_estimates(data, res)
        assert inf.sigma2_hat[0] == pytest.approx(inf.sigma2_hat[1], rel=1e-12)
        oracle = cluster_robust_oracle(data, theta, demean_groups=labels)
        np.testing.assert_allclose(inf.var_theta, oracle, rtol=1e-10)

    def test_group_level_formulas_match_loops(self, rng):
        data, truth, gen = make_grouped_dataset(rng, n=30, t=4, p=1, sigma=[0.9, 0.3])
        cfg = SolverConfig(mode="wgfe", n_groups=2)
        res = lloyd(data, cfg, initialize(data, cfg, rng))
        inf = variance_estimates(data, res)
        u = (
            data.outcomes
            - data.covariates @ res.params.theta
            - res.params.alpha[res.assignment.labels - 1]
        )
        for g in (1, 2):
            members = res.assignment.labels == g
            count = members.sum()
            expect_s2 = np.sum(u[members] ** 2) / (data.n_periods * count)
            assert inf.sigma2_hat[g - 1] == pytest.approx(expect_s2, rel=1e-12)
            for tt in range(data.n_periods):
                expect_va = np.sum(u[members, tt] ** 2) / count**2
                assert inf.var_alpha[g - 1, tt] == pytest.approx(expect_va, rel=1e-12)

    def test_sigma2_equals_fit_breakdown(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=24, t=4, p=1, sigma=[0.5, 1.0])
        cfg = SolverConfig(mode="wgfe", n_groups=2)
        res = lloyd(data, cfg, initialize(data, cfg, rng))
        inf = variance_estimates(data, res)
        np.testing.assert_allclose(inf.sigma2_hat, res.breakdown.per_group_ssr, rtol=1e-12)

    def test_pure_clustering_has_empty_slope_blocks(self, rng):
        data, truth, _ = make_grouped_dataset(rng, n=12, t=3, p=0)
        res = manual_result(data, np.zeros(0), np.zeros((2, 3)), truth.labels)
        inf = variance_estimates(data, res)
        assert inf.var_theta.shape == (0, 0)
        assert inf.se_theta.shape == (0,)
        assert inf.var_alpha.shape == (2, 3)

    def test_heteroskedastic_weighting_changes_variance(self, rng):
        # planted groups with very different scales: the weighted sandwich
        # must disagree with the unweighted oracle
        data, truth, gen = make_grouped_dataset(
            rng, n=40, t=5, p=1, sigma=[2.0, 0.1]
        )
        res = manual_result(data, gen["theta"], gen["alpha"], truth.labels)
        inf = variance_estimates(data, res)
        oracle = cluster_robust_oracle(data, gen["theta"], demean_groups=truth.labels)
        assert not np.allclose(inf.var_theta, oracle, rtol=0.05)


class TestHomoskedasticityTest:
    def test_components_and_default_scale(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=18, t=3, p=1, sigma=[0.4, 1.2])
        cfg = SolverConfig(mode="wgfe", n_groups=2)
        res = lloyd(data, cfg, initialize(data, cfg, rng))
        ht = homoskedasticity_test(data, res)
        assert ht.d_nt == data.n_units * data.n_periods
        assert ht.q_wgfe == pytest.approx(res.objective, rel=1e-12)
        assert ht.tau == pytest.approx(ht.d_nt * (ht.q_gfe - ht.q_wgfe**2), rel=1e-12)

    def test_non_negative_at_optimum(self, rng):
        for seed in range(15):
            r = np.random.default_rng(seed)
            data, _, _ = make_grouped_dataset(
                r, n=15, t=3, p=0, g=2, sigma=[0.3, 1.0]
            )
            cfg = SolverConfig(
                mode="wgfe", n_groups=2, n_restarts=3, seed=seed,
                vns_iter_max=1, vns_neigh_max=2,
            )
            res = multi_start(data, cfg)
            assert homoskedasticity_test(data, res).tau >= -1e-12

    def test_exactly_zero_on_equal_ssr_fixture(self):
        # two groups whose mean squared residuals are exactly 1.0 each
        y = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        data = PanelDataset(y, np.zeros((4, 2, 0)))
        res = manual_result(data, np.zeros(0), np.zeros((2, 2)), [1, 1, 2, 2])
        ht = homoskedasticity_test(data, res)
        assert ht.tau == 0.0


def _study_config(**kwargs):
    base = dict(
        mode="wgfe", n_restarts=5, seed=2, vns_iter_max=1, vns_neigh_max=2
    )
    base.update(kwargs)
    return SolverConfig(**base)


class TestSelectNGroups:
    def test_noiseless_panel_selects_true_count(self, rng):
        alpha = np.array(
            [[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0], [-5.0, -4.0, -6.0, -5.0]]
        )
        labels = np.repeat([1, 2, 3], 8)
        x = rng.standard_normal((24, 4, 1))
        y = x @ np.array([1.0]) + alpha[labels - 1]
        data = PanelDataset(y, x)
        sel = select_n_groups(data, _study_config(), g_max=5)
        assert sel.selected == 3
        assert sel.rows[2].ssr == pytest.approx(0.0, abs=1e-16)
        assert sel.rows[1].ssr > 1.0

    def test_single_candidate(self, rng):
        data = make_dataset(rng, n=8, t=3, p=1)
        sel = select_n_groups(data, _study_config(), g_max=1)
        assert sel.selected == 1
        assert len(sel.rows) == 1

    def test_ssr_decreases_with_group_count(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=30, t=4, p=1, g=3)
        sel = select_n_groups(data, _study_config(), g_max=4)
        ssrs = [row.ssr for row in sel.rows]
        for a, b in zip(ssrs, ssrs[1:]):
            assert b <= a * 1.05

    def test_bic_recomputes_from_row_fields(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=20, t=3, p=1, g=2)
        sel = select_n_groups(data, _study_config(), g_max=3)
        n, t, p = 20, 3, 1
        nt = n * t
        for row in sel.rows:
            expect = (
                sel.sigma2_base * (row.n_groups * t + n + p) * np.log(nt) / nt
                + row.ssr / nt
            )
            assert row.bic == pytest.approx(expect, rel=1e-12)

    def test_reference_failure_raises(self, rng):
        data = make_dataset(rng, n=3, t=2, p=0)
        with pytest.raises(ValueError, match="g_max"):
            select_n_groups(data, _study_config(), g_max=4)

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_programming_error_in_a_candidate_propagates(self, error, rng, monkeypatch):
        # only package and linear-algebra failures are recorded as rows; the
        # bug hits the G=1 candidate, so the reference fit at g_max succeeds
        data = make_dataset(rng, n=8, t=3, p=1)
        real_multi_start = inference.multi_start

        def broken_multi_start(data, config):
            if config.n_groups == 1:
                raise error("bug in the search")
            return real_multi_start(data, config)

        monkeypatch.setattr(inference, "multi_start", broken_multi_start)
        with pytest.raises(error, match="bug in the search"):
            select_n_groups(data, _study_config(), g_max=2)

    def test_validation(self, rng):
        data = make_dataset(rng, n=6, t=2, p=0)
        with pytest.raises(ValueError):
            select_n_groups(data, _study_config(), g_max=0)
        with pytest.raises(ValueError):
            select_n_groups(data, _study_config(mode="ggfe"), g_max=2)
