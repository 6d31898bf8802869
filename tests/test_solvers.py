"""Solvers: slope fixed point, Lloyd iteration, neighborhood search, restarts."""

import itertools

import numpy as np
import pytest

from wgfe import solvers
from wgfe.errors import EmptyGroupError, NonConvergenceError
from wgfe.model import (
    GroupAssignment,
    GroupParameters,
    PanelDataset,
    gfe_objective,
    gfe_update,
    group_ssr,
    residual_profiles,
    sigma_floor,
    wgfe_objective,
)
from wgfe.solvers import (
    EstimationResult,
    SolverConfig,
    _fit_raw,
    initialize,
    lloyd,
    multi_start,
    solve_theta_fixed_point,
    vns,
)

from conftest import make_grouped_dataset, make_dataset, random_assignment


def exhaustive_best(data, cfg):
    """Smallest criterion value over every non-degenerate labeling."""
    best = np.inf
    for labels in itertools.product(range(1, cfg.n_groups + 1), repeat=data.n_units):
        gamma = GroupAssignment(np.array(labels), cfg.n_groups)
        if gamma.empty_groups():
            continue
        try:
            value = _fit_raw(data, gamma, cfg)[4]
        except NonConvergenceError:
            continue
        best = min(best, value)
    return best


def recompute_objective(data, res):
    crit = wgfe_objective if res.mode == "wgfe" else gfe_objective
    return crit(data, res.params.theta, res.params.alpha, res.assignment).value


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "ols"},
            {"n_groups": 0},
            {"n_restarts": 0},
            {"fp_tol": 0.0},
            {"assignment_rule": "fast"},
            {"init_strategy": "oracle"},
            {"init_strategy": "provided"},
            {"n_threads": 0},
            {"vns_neigh_max": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.mode == "wgfe" and cfg.n_restarts == 20


class TestThetaFixedPoint:
    def test_stationarity_residual(self, rng):
        # at the returned triple, re-solving the scale-weighted normal
        # equations reproduces theta (independent oracle for the fixed point)
        data, truth, _ = make_grouped_dataset(rng, n=40, t=6, p=2, sigma=[1.2, 0.3])
        theta, alpha, sigma = solve_theta_fixed_point(data, truth)
        idx = truth.labels - 1
        xt = data.covariates - np.stack(
            [data.covariates[truth.labels == g].mean(0) for g in (1, 2)]
        )[idx]
        yt = data.outcomes - np.stack(
            [data.outcomes[truth.labels == g].mean(0) for g in (1, 2)]
        )[idx]
        w = 1.0 / sigma[idx]
        gram = np.einsum("i,itp,itq->pq", w, xt, xt)
        rhs = np.einsum("i,itp,it->p", w, xt, yt)
        ref = np.linalg.solve(gram, rhs)
        np.testing.assert_allclose(theta, ref, rtol=1e-7, atol=1e-10)
        # alpha and sigma must be the implied closed forms
        alpha_ref = np.stack(
            [
                data.outcomes[truth.labels == g].mean(0)
                - data.covariates[truth.labels == g].mean(0) @ theta
                for g in (1, 2)
            ]
        )
        np.testing.assert_allclose(alpha, alpha_ref, rtol=1e-8)
        np.testing.assert_allclose(
            sigma,
            np.maximum(np.sqrt(group_ssr(data, theta, alpha, truth)), sigma_floor(data)),
            rtol=1e-12,
        )

    def test_single_group_equals_unweighted_update(self, rng):
        # one group means one common scale, so the weights cancel
        data = make_dataset(rng, n=25, t=4, p=2)
        gamma = GroupAssignment(np.ones(25, int), 1)
        theta, _, _ = solve_theta_fixed_point(data, gamma)
        ref, _ = gfe_update(data, gamma)
        np.testing.assert_allclose(theta, ref, rtol=1e-9)

    def test_noiseless_recovery(self, rng):
        theta_true = np.array([0.7, -1.1])
        alpha_true = rng.standard_normal((2, 5))
        labels = rng.integers(1, 3, 40)
        labels[:2] = [1, 2]
        x = rng.standard_normal((40, 5, 2))
        y = x @ theta_true + alpha_true[labels - 1]
        data = PanelDataset(y, x)
        theta, alpha, _ = solve_theta_fixed_point(data, GroupAssignment(labels, 2))
        np.testing.assert_allclose(theta, theta_true, atol=1e-9)
        np.testing.assert_allclose(alpha, alpha_true, atol=1e-9)

    def test_pure_clustering_path(self, rng):
        data = make_dataset(rng, n=10, t=3, p=0)
        gamma = random_assignment(rng, 10, 2)
        theta, alpha, sigma = solve_theta_fixed_point(data, gamma)
        assert theta.shape == (0,)
        for g in (1, 2):
            np.testing.assert_allclose(
                alpha[g - 1], data.outcomes[gamma.labels == g].mean(0), rtol=1e-12
            )
        assert np.all(sigma > 0)

    def test_empty_group_raises(self, rng):
        data = make_dataset(rng, n=5, t=3, p=1)
        with pytest.raises(EmptyGroupError):
            solve_theta_fixed_point(data, GroupAssignment(np.ones(5, int), 2))

    def test_iteration_cap_raises_with_iterate(self, rng):
        x = rng.standard_normal((30, 6, 2))
        lab = np.array([1, 2] * 15)
        alpha = np.array([np.zeros(6), np.full(6, 4.0)])
        sig = np.array([3.0, 0.05])
        y = (
            x @ np.array([1.0, -2.0])
            + alpha[lab - 1]
            + sig[lab - 1][:, None] * rng.standard_normal((30, 6))
        )
        data = PanelDataset(y, x)
        with pytest.raises(NonConvergenceError) as exc:
            solve_theta_fixed_point(data, GroupAssignment(lab, 2), max_iters=1)
        assert exc.value.last_iterate is not None
        assert exc.value.residual > 0


class TestInitialize:
    def test_alpha_rows_are_unit_profiles(self, rng):
        data = make_dataset(rng, n=12, t=4, p=1)
        cfg = SolverConfig(n_groups=3)
        params = initialize(data, cfg, np.random.default_rng(5))
        v = residual_profiles(data, params.theta)
        matches = set()
        for row in params.alpha:
            hits = np.nonzero(np.all(np.isclose(v, row, atol=1e-12), axis=1))[0]
            assert hits.size == 1
            matches.add(int(hits[0]))
        assert len(matches) == 3  # three distinct donor units

    def test_deterministic_given_stream(self, rng):
        data = make_dataset(rng, n=10, t=3, p=2)
        cfg = SolverConfig(n_groups=2)
        a = initialize(data, cfg, np.random.default_rng(11))
        b = initialize(data, cfg, np.random.default_rng(11))
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_pooled_ols_start_on_regression_data(self, rng):
        theta_true = np.array([2.0])
        x = rng.standard_normal((60, 5, 1))
        y = x @ theta_true + 0.01 * rng.standard_normal((60, 5))
        data = PanelDataset(y, x)
        params = initialize(data, SolverConfig(n_groups=2), np.random.default_rng(0))
        assert params.theta[0] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("strategy", ["two_way_fe", "random"])
    def test_other_strategies_produce_valid_params(self, rng, strategy):
        data = make_dataset(rng, n=9, t=4, p=2)
        cfg = SolverConfig(n_groups=2, init_strategy=strategy)
        params = initialize(data, cfg, np.random.default_rng(3))
        assert params.alpha.shape == (2, 4)
        assert np.all(params.sigma > 0)

    def test_provided_passthrough_and_validation(self, rng):
        data = make_dataset(rng, n=6, t=3, p=1)
        good = GroupParameters(np.zeros(1), np.zeros((2, 3)), [1.0, 1.0], [0.5, 0.5])
        cfg = SolverConfig(n_groups=2, init_strategy="provided", initial_params=good)
        assert initialize(data, cfg, np.random.default_rng(0)) is good
        bad = GroupParameters(np.zeros(1), np.zeros((3, 3)), np.ones(3), np.ones(3) / 3)
        cfg = SolverConfig(n_groups=2, init_strategy="provided", initial_params=bad)
        with pytest.raises(ValueError, match="match"):
            initialize(data, cfg, np.random.default_rng(0))

    def test_too_few_units_raises(self, rng):
        data = make_dataset(rng, n=2, t=3, p=0)
        with pytest.raises(ValueError, match="units"):
            initialize(data, SolverConfig(n_groups=3), np.random.default_rng(0))


class TestLloyd:
    def test_recovers_separated_clusters(self, rng):
        data, truth, gen = make_grouped_dataset(
            rng, n=60, t=5, p=0, g=2, sigma=[0.1, 0.1]
        )
        cfg = SolverConfig(mode="wgfe", n_groups=2)
        res = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(1)))
        assert res.converged
        # same partition up to a label swap
        agree = np.mean(res.assignment.labels == truth.labels)
        assert max(agree, 1 - agree) == 1.0

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    def test_trace_non_increasing_and_objective_consistent(self, mode, rng):
        for seed in range(30):
            r = np.random.default_rng(seed)
            data, _, _ = make_grouped_dataset(
                r, n=20, t=4, p=1, g=3, sigma=[0.2, 0.6, 1.1]
            )
            cfg = SolverConfig(mode=mode, n_groups=3)
            try:
                res = lloyd(data, cfg, initialize(data, cfg, r))
            except NonConvergenceError:
                continue
            diffs = np.diff(res.trace)
            assert np.all(diffs <= 1e-10 * (1.0 + np.abs(res.trace[:-1])))
            assert res.objective == pytest.approx(recompute_objective(data, res), rel=1e-12)
            assert res.objective == res.trace[-1]

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    def test_termination_is_rule_stable(self, mode, rng):
        # no unit prefers another group under the mode's rule at the
        # returned parameters
        from wgfe.solvers import _assign

        for seed in range(10):
            r = np.random.default_rng(100 + seed)
            data, _, _ = make_grouped_dataset(r, n=25, t=4, p=1, g=2, sigma=[0.3, 0.9])
            cfg = SolverConfig(mode=mode, n_groups=2)
            res = lloyd(data, cfg, initialize(data, cfg, r))
            assert res.converged
            replay, _ = _assign(
                data, res.params.theta, res.params.alpha, res.params.sigma, cfg
            )
            assert replay.same_as(res.assignment)

    def test_single_group_trivial(self, rng):
        data = make_dataset(rng, n=15, t=4, p=1)
        cfg = SolverConfig(mode="gfe", n_groups=1)
        res = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(0)))
        assert res.converged and res.n_lloyd_iters == 1
        ref_theta, ref_alpha = gfe_update(data, GroupAssignment(np.ones(15, int), 1))
        np.testing.assert_allclose(res.params.theta, ref_theta, rtol=1e-12)
        np.testing.assert_allclose(res.params.alpha, ref_alpha, rtol=1e-12)

    def test_never_beats_exhaustive_enumeration(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            data, _, _ = make_grouped_dataset(r, n=6, t=3, p=0, g=2, sigma=[0.4, 0.8])
            cfg = SolverConfig(mode="wgfe", n_groups=2)
            res = lloyd(data, cfg, initialize(data, cfg, r))
            assert res.objective >= exhaustive_best(data, cfg) - 1e-9

    def test_empty_group_repair(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=20, t=3, p=0, g=2)
        # an init row parked far away empties its group on the first pass
        far = np.full((1, 3), 1e6)
        alpha0 = np.vstack([data.outcomes[:1], far])
        init = GroupParameters(np.zeros(0), alpha0, [1.0, 1.0], [0.5, 0.5])
        cfg = SolverConfig(mode="wgfe", n_groups=2)
        res = lloyd(data, cfg, init)
        assert res.assignment.empty_groups() == ()
        assert res.converged

    def test_ggfe_mode_rejected(self, rng):
        data = make_dataset(rng, n=6, t=3, p=0)
        cfg = SolverConfig(mode="ggfe", n_groups=2)
        init = initialize(data, SolverConfig(n_groups=2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="lloyd"):
            lloyd(data, cfg, init)


    def test_single_move_marginal_of_weighted_criterion(self, rng):
        # at fixed slopes and effects, moving unit i from group s to h
        # changes the weighted criterion by about
        # (d_h/s_h + T s_h - d_s/s_s - T s_s) / (2NT); the assignment rule's
        # d/s + s under-weights the scale term by T and misjudges more moves
        n, t = 400, 6
        alpha = np.array([np.zeros(t), np.full(t, 0.6)])
        data, gamma, _ = make_grouped_dataset(
            rng, n=n, t=t, p=1, g=2, alpha=alpha, sigma=[1.0, 0.3]
        )
        theta, alpha, _ = solve_theta_fixed_point(data, gamma)
        sigma = np.sqrt(group_ssr(data, theta, alpha, gamma))
        v = residual_profiles(data, theta)
        d = np.sum((v[:, None, :] - alpha[None, :, :]) ** 2, axis=2)
        base = wgfe_objective(data, theta, alpha, gamma).value
        src = gamma.labels - 1
        dst = 1 - src
        exact = np.empty(n)
        for i in range(n):
            labels = gamma.labels.copy()
            labels[i] = dst[i] + 1
            moved = GroupAssignment(labels, 2)
            exact[i] = wgfe_objective(data, theta, alpha, moved).value - base
        units = np.arange(n)
        d_h, d_s = d[units, dst], d[units, src]
        s_h, s_s = sigma[dst], sigma[src]
        marginal = (d_h / s_h + t * s_h - d_s / s_s - t * s_s) / (2 * n * t)
        rule = d_h / s_h + s_h - d_s / s_s - s_s
        agree = np.mean(np.sign(marginal) == np.sign(exact))
        assert agree >= 0.99
        assert np.median(np.abs(marginal - exact) / np.abs(exact)) < 0.02
        assert np.mean(np.sign(rule) == np.sign(exact)) < agree


class TestVns:
    def test_zero_neighborhoods_reduces_to_lloyd(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=18, t=4, p=1, g=2, sigma=[0.3, 0.8])
        cfg = SolverConfig(mode="wgfe", n_groups=2, vns_iter_max=1, vns_neigh_max=0)
        res_v = vns(data, cfg, np.random.default_rng(9))
        res_l = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(9)))
        assert res_v.objective == res_l.objective
        assert res_v.assignment.same_as(res_l.assignment)

    def test_never_worse_than_plain_lloyd(self, rng):
        for seed in range(5):
            r = np.random.default_rng(200 + seed)
            data, _, _ = make_grouped_dataset(r, n=15, t=3, p=0, g=3, sigma=[0.2, 0.5, 1.0])
            cfg = SolverConfig(mode="wgfe", n_groups=3, vns_iter_max=2, vns_neigh_max=3)
            res_v = vns(data, cfg, np.random.default_rng(seed))
            res_l = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(seed)))
            assert res_v.objective <= res_l.objective + 1e-12

    def test_incumbent_trace_strictly_decreasing(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=20, t=3, p=0, g=3, sigma=[0.1, 0.6, 1.3])
        cfg = SolverConfig(mode="wgfe", n_groups=3, vns_iter_max=3, vns_neigh_max=4)
        res = vns(data, cfg, np.random.default_rng(4))
        assert all(b < a for a, b in zip(res.trace, res.trace[1:]))

    def test_finds_planted_optimum_small_instance(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=8, t=3, p=1, g=2, sigma=[0.3, 0.7])
        cfg = SolverConfig(mode="wgfe", n_groups=2, vns_iter_max=3, vns_neigh_max=5)
        res = vns(data, cfg, np.random.default_rng(0))
        assert res.objective <= exhaustive_best(data, cfg) + 1e-8


class TestMultiStart:
    def test_deterministic_repeat(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=20, t=4, p=1, g=2, sigma=[0.3, 0.9])
        cfg = SolverConfig(n_groups=2, n_restarts=4, seed=77, vns_iter_max=1, vns_neigh_max=2)
        a = multi_start(data, cfg)
        b = multi_start(data, cfg)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.assignment.labels, b.assignment.labels)

    def test_threaded_matches_serial_bitwise(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=20, t=4, p=1, g=2, sigma=[0.3, 0.9])
        base = dict(n_groups=2, n_restarts=6, seed=123, vns_iter_max=1, vns_neigh_max=2)
        serial = multi_start(data, SolverConfig(**base, n_threads=1))
        threaded = multi_start(data, SolverConfig(**base, n_threads=3))
        assert serial.objective == threaded.objective
        np.testing.assert_array_equal(
            serial.assignment.labels, threaded.assignment.labels
        )
        np.testing.assert_array_equal(serial.params.theta, threaded.params.theta)

    def test_selects_minimum_across_restarts(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=15, t=3, p=0, g=2, sigma=[0.2, 1.0])
        cfg = SolverConfig(n_groups=2, n_restarts=5, seed=5, vns_iter_max=1, vns_neigh_max=1)
        res = multi_start(data, cfg)
        streams = np.random.SeedSequence(5).spawn(5)
        singles = [vns(data, cfg, np.random.default_rng(s)).objective for s in streams]
        assert res.objective == min(singles)
        assert res.n_restarts_used == 5

    def test_more_restarts_never_hurt(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=25, t=3, p=0, g=3, sigma=[0.2, 0.5, 1.1])
        objs = []
        for k in (1, 4, 8):
            cfg = SolverConfig(
                n_groups=3, n_restarts=k, seed=31, vns_iter_max=1, vns_neigh_max=1
            )
            objs.append(multi_start(data, cfg).objective)
        assert objs[1] <= objs[0] + 1e-15
        assert objs[2] <= objs[1] + 1e-15

    def test_programming_error_in_a_restart_propagates(self, rng, monkeypatch):
        # only package and linear-algebra failures count as failed restarts
        data, _, _ = make_grouped_dataset(rng, n=12, t=3, p=1, g=2)

        def broken_vns(data, config, rng):
            raise TypeError("bug in the search")

        monkeypatch.setattr(solvers, "vns", broken_vns)
        with pytest.raises(TypeError, match="bug in the search"):
            multi_start(data, SolverConfig(n_groups=2, n_restarts=2))

    def test_result_fields(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=12, t=3, p=1, g=2)
        cfg = SolverConfig(n_groups=2, n_restarts=2, seed=9, vns_iter_max=1, vns_neigh_max=1)
        res = multi_start(data, cfg)
        assert isinstance(res, EstimationResult)
        assert res.mode == "wgfe"
        assert res.params.n_groups == 2
        assert res.breakdown.value == res.objective
        assert res.trace[-1] == pytest.approx(res.objective)
