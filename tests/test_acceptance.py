"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each test carries its tolerance and, where stated, its runtime budget.
Numbers quoted in comments are the pinned thresholds, not measurements.
"""

import collections
import time

import numpy as np
import pytest
from scipy.stats import chi2

from wgfe import (
    AR1Covariates,
    GroupAssignment,
    PanelDataset,
    SimulationSpec,
    SoftAssignment,
    SolverConfig,
    WgfeError,
    assignment_gradient,
    barycenter_fixed_point,
    generate,
    gfe_assign,
    gfe_objective,
    ggfe_objective,
    group_covariances,
    homoskedasticity_test,
    multi_start,
    run_study,
    select_n_groups,
    simple_case_misclass,
    solve_theta_fixed_point,
    variance_estimates,
    wgfe_assign,
    wgfe_objective,
)
from conftest import make_grouped_dataset
from test_ggfe import basis_profile_dataset
from test_inference import cluster_robust_oracle


def test_criterion_01_squared_weighted_criterion_bounded_by_pooled():
    # 1,000 random (data, slopes, effects, grouping) draws with N<=20,
    # T<=8, G<=4: squared weighted criterion <= pooled criterion at
    # relative slack 1e-12, in under 10 seconds.
    started = time.perf_counter()
    root = np.random.default_rng(20260823)
    for _ in range(1000):
        n = int(root.integers(4, 21))
        t = int(root.integers(2, 9))
        g = int(root.integers(1, 5))
        p = int(root.integers(0, 3))
        data = PanelDataset(
            root.standard_normal((n, t)), root.standard_normal((n, t, p))
        )
        theta = root.standard_normal(p)
        alpha = root.standard_normal((g, t))
        labels = root.integers(1, g + 1, size=n)
        labels[root.permutation(n)[:g]] = np.arange(1, g + 1)
        gamma = GroupAssignment(labels, g)
        q_w = wgfe_objective(data, theta, alpha, gamma).value
        q_g = gfe_objective(data, theta, alpha, gamma).value
        assert q_w**2 <= q_g * (1 + 1e-12) + 1e-30
    assert time.perf_counter() - started < 10.0


def test_criterion_02_gap_diagnostic_nonnegative_and_exactly_zero_at_parity():
    # tau >= -1e-12 across fitted runs; tau == 0.0 exactly on a fixture
    # where both groups have identical fit quality.
    for seed in range(20):
        r = np.random.default_rng(seed)
        data, _, _ = make_grouped_dataset(r, n=24, t=5, p=1, g=2,
                                          sigma=np.array([0.3, 1.0]))
        cfg = SolverConfig(mode="wgfe", n_groups=2, n_restarts=5,
                           vns_iter_max=1, vns_neigh_max=0, seed=seed)
        res = multi_start(data, cfg)
        assert homoskedasticity_test(data, res).tau >= -1e-12

    t = 4
    alpha = np.array([[0.0] * t, [100.0] * t])
    labels = np.array([1, 1, 2, 2])
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    y = alpha[labels - 1] + signs[:, None] * np.ones((4, t))
    data = PanelDataset(y, np.zeros((4, t, 0)))
    cfg = SolverConfig(mode="wgfe", n_groups=2, n_restarts=3, seed=0)
    res = multi_start(data, cfg)
    test = homoskedasticity_test(data, res)
    assert test.tau == 0.0
    assert test.q_gfe == 1.0


def test_criterion_03_multi_start_attains_enumerated_global_optimum():
    # N=8, T=3, G=2, p=1, 100 seeded instances: every 2-group partition
    # is scored with its exact parameter update to define the global
    # minimum; multi_start with 20 restarts matches it within 1e-8 in at
    # least 95 instances and never beats it; under 2 minutes.
    started = time.perf_counter()

    def instance(seed):
        rng = np.random.default_rng(seed)
        n, t = 8, 3
        labels = rng.integers(1, 3, size=n)
        labels[:2] = [1, 2]
        alpha = rng.normal(scale=2.0, size=(2, t))
        sigma = np.array([0.4, 1.0])
        x = rng.standard_normal((n, t, 1))
        y = (
            0.6 * x[:, :, 0]
            + alpha[labels - 1]
            + sigma[labels - 1][:, None] * rng.standard_normal((n, t))
        )
        return PanelDataset(y, x)

    def enumerated_minimum(data):
        best = np.inf
        for mask in range(1, 2**8 - 1):
            labels = np.array([(mask >> i) & 1 for i in range(8)]) + 1
            gamma = GroupAssignment(labels, 2)
            try:
                theta, alpha, _ = solve_theta_fixed_point(data, gamma)
            except WgfeError:
                continue
            best = min(best, wgfe_objective(data, theta, alpha, gamma).value)
        return best

    hits = 0
    for seed in range(100):
        data = instance(seed)
        global_min = enumerated_minimum(data)
        cfg = SolverConfig(mode="wgfe", n_groups=2, n_restarts=20,
                           vns_iter_max=3, vns_neigh_max=5, seed=seed)
        res = multi_start(data, cfg)
        assert res.objective >= global_min - 1e-8
        if abs(res.objective - global_min) <= 1e-8:
            hits += 1
    assert hits >= 95
    assert time.perf_counter() - started < 120.0


def test_criterion_04_equal_scales_align_both_assignment_rules():
    # with a common scale the scale-aware rule and the nearest-path rule
    # make the same decision on every one of 1e5 randomized units.
    rng = np.random.default_rng(404)
    n, t = 100_000, 4
    alpha = np.array([[0.0, 1.0, -1.0, 0.5], [0.8, -0.2, 0.3, -0.7]])
    mix = rng.integers(0, 2, size=n)
    scales = rng.uniform(0.2, 2.5, size=n)
    y = alpha[mix] + scales[:, None] * rng.standard_normal((n, t))
    data = PanelDataset(y, np.zeros((n, t, 0)))
    sigma = np.array([0.8, 0.8])
    weighted = wgfe_assign(data, np.zeros(0), alpha, sigma, rule="alg1")
    plain = gfe_assign(data, np.zeros(0), alpha)
    np.testing.assert_array_equal(weighted.labels, plain.labels)


def test_criterion_05_two_group_misassignment_matches_chi_squared_region():
    # equal effect paths, scales 1 and 0.5, T=4: the Monte Carlo rate with
    # 1e5 draws sits within 3 standard errors of the exact chi-squared
    # region probability; with the noisier own group (scale ratio 1.5) the
    # rate reaches at least 0.95 by T=32.
    n = 100_000
    res = simple_case_misclass(0.0, 0.0, 1.0, 0.5, 4, n, np.random.default_rng(5))
    target = chi2.cdf(0.5, df=4)
    assert res.exact == pytest.approx(target, rel=1e-12)
    se = np.sqrt(target * (1.0 - target) / n)
    assert abs(res.wgfe_rate - target) < 3 * se

    limit = simple_case_misclass(
        0.0, 0.0, 1.0, 1.5, 32, 20_000, np.random.default_rng(6)
    )
    assert limit.wgfe_rate >= 0.95


def _two_group_dynamic_spec(sigma, probs, gap):
    t = 7
    base = np.linspace(0.0, 0.3, t)
    return SimulationSpec(
        n_units=90,
        n_periods=t,
        n_groups=2,
        theta_true=[0.554, 0.062],
        alpha_true=np.vstack([base, base + gap]),
        sigma_true=sigma,
        group_probs=probs,
        covariate_law=AR1Covariates(rho=0.9, innovation_sd=0.5),
        dynamic=True,
    )


def test_criterion_06_scale_contrast_study_favors_weighted_grouping():
    # two groups with scales (0.219, 0.086) and shares (0.64, 0.36),
    # N=90, T=7, 200 replications: mean weighted-rule misclassification
    # strictly below the plain rule's and below 10%, in under 10 minutes.
    started = time.perf_counter()
    spec = _two_group_dynamic_spec([0.219, 0.086], [0.64, 0.36], 0.25)
    report = run_study(spec, ["wgfe", "gfe"], 200, np.random.default_rng(6))
    assert report.misclass_mean["wgfe"] < report.misclass_mean["gfe"]
    assert report.misclass_mean["wgfe"] < 0.10
    assert time.perf_counter() - started < 600.0


def test_criterion_07_equal_scale_study_shows_slope_rmse_parity():
    # equal scales and uniform shares: weighted and plain grouping give
    # slope RMSEs within 15% of each other for both components over 200
    # replications.
    spec = _two_group_dynamic_spec([0.15, 0.15], [0.5, 0.5], 0.25)
    report = run_study(spec, ["wgfe", "gfe"], 200, np.random.default_rng(7))
    for j in range(2):
        rw = report.rmse_theta["wgfe"][j]
        rg = report.rmse_theta["gfe"][j]
        assert rg > 0
        assert abs(rw - rg) / rg < 0.15


def test_criterion_08_single_group_sandwich_matches_cluster_robust_oracle():
    # one group: the scale-weighted sandwich equals an independently coded
    # cluster-robust within-estimator variance to 1e-10 relative, on 50
    # random instances.
    for seed in range(50):
        r = np.random.default_rng(1000 + seed)
        n = int(r.integers(8, 21))
        t = int(r.integers(3, 9))
        data = PanelDataset(
            r.standard_normal((n, t)), r.standard_normal((n, t, 2))
        )
        cfg = SolverConfig(mode="wgfe", n_groups=1, n_restarts=1, seed=seed)
        res = multi_start(data, cfg)
        inf = variance_estimates(data, res)
        oracle = cluster_robust_oracle(data, res.params.theta)
        np.testing.assert_allclose(inf.var_theta, oracle, rtol=1e-10)


def test_criterion_09_covariance_barycenter_numerics():
    # (a) identical inputs return the input; commuting (diagonal) inputs
    # match the closed form, both to 1e-10.
    rng = np.random.default_rng(9)
    b = rng.standard_normal((3, 3))
    spd = b @ b.T + 0.1 * np.eye(3)
    same = barycenter_fixed_point([spd, spd, spd], [0.5, 0.3, 0.2])
    np.testing.assert_allclose(same.values, spd, rtol=1e-10, atol=1e-12)

    d1 = np.diag([1.0, 4.0, 0.25])
    d2 = np.diag([9.0, 1.0, 1.0])
    w = (0.7, 0.3)
    closed = np.diag(
        (w[0] * np.sqrt(np.diag(d1)) + w[1] * np.sqrt(np.diag(d2))) ** 2
    )
    mixed = barycenter_fixed_point([d1, d2], w)
    np.testing.assert_allclose(mixed.values, closed, rtol=1e-10, atol=1e-12)

    # (b) the assignment gradient matches central finite differences along
    # simplex-renormalized rows (step 1e-5) to relative error 1e-5 on 20
    # random instances with T=3, G=2, N=6.
    step = 1e-5
    for seed in range(100, 120):
        r = np.random.default_rng(seed)
        x = r.standard_normal((6, 3, 1))
        y = r.standard_normal((6, 3)) + x[:, :, 0]
        data = PanelDataset(y, x)
        theta = np.array([0.9])
        alpha = r.standard_normal((2, 3))
        membership = r.dirichlet(np.ones(2), size=6)

        def value(rows):
            covs, weights = group_covariances(
                data, theta, alpha, SoftAssignment(rows)
            )
            return barycenter_fixed_point(covs, weights, tol=1e-13).trace

        grad = assignment_gradient(data, theta, alpha, SoftAssignment(membership))
        proj = grad - (membership * grad).sum(axis=1, keepdims=True)
        fd = np.zeros_like(proj)
        for i in range(6):
            for g in range(2):
                up = membership.copy()
                up[i, g] += step
                up[i] /= up[i].sum()
                down = membership.copy()
                down[i, g] -= step
                down[i] /= down[i].sum()
                fd[i, g] = (value(up) - value(down)) / (2 * step)
        assert np.linalg.norm(fd - proj) / np.linalg.norm(proj) < 1e-5

    # (c) spherical group covariances: the barycenter trace equals the
    # pooled per-unit mean squared residual to 1e-10.
    data, alpha, gamma = basis_profile_dataset([1.3, 1.3])
    value = ggfe_objective(data, np.zeros(0), alpha, gamma)
    resid = data.outcomes - alpha[gamma.labels - 1]
    pooled = float(np.sum(resid**2)) / data.n_units
    assert abs(value - pooled) <= 1e-10 * max(1.0, pooled)


def test_criterion_10_information_criterion_recovers_group_count():
    # (a) noiseless three-group fixture with g_max=5 selects exactly 3,
    # deterministically.
    rng = np.random.default_rng(8)
    labels = np.repeat([1, 2, 3], 6)
    alpha = np.array([[0.0] * 4, [5.0] * 4, [-5.0] * 4])
    x = rng.standard_normal((18, 4, 1))
    y = 0.5 * x[:, :, 0] + alpha[labels - 1]
    data = PanelDataset(y, x)
    cfg = SolverConfig(mode="wgfe", n_groups=3, n_restarts=5,
                       vns_iter_max=1, vns_neigh_max=2, seed=1)
    assert select_n_groups(data, cfg, g_max=5).selected == 3

    # (b) the two-group scale-contrast process at N=90, T=7: the modal
    # selected count over 50 replications is 2 (pooling rejected).
    spec = _two_group_dynamic_spec([0.219, 0.086], [0.64, 0.36], 0.25)
    picks = []
    for k, sub in enumerate(np.random.default_rng(2026).spawn(50)):
        panel, _, _ = generate(spec, sub)
        sel_cfg = SolverConfig(mode="wgfe", n_groups=2, n_restarts=5,
                               vns_iter_max=1, vns_neigh_max=0, seed=k)
        picks.append(select_n_groups(panel, sel_cfg, g_max=2).selected)
    modal, _ = collections.Counter(picks).most_common(1)[0]
    assert modal == 2
