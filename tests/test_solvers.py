"""Solvers: slope fixed point, Lloyd iteration, neighborhood search, restarts."""

import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgfe import solvers
from wgfe.errors import EmptyGroupError, NonConvergenceError, SingularDesignError
from wgfe.model import (
    GroupAssignment,
    GroupParameters,
    PanelDataset,
    gfe_objective,
    group_ssr,
    residual_profiles,
    sigma_floor,
    wgfe_objective,
)
from wgfe.solvers import (
    EstimationResult,
    SolverConfig,
    _Kernel,
    initialize,
    lloyd,
    multi_start,
    solve_theta_fixed_point,
    vns,
)

from conftest import (
    cell_constant_panel,
    make_dataset,
    make_grouped_dataset,
    random_assignment,
)
from reference import gfe_update, update_alpha


def exhaustive_best(data, cfg):
    """Smallest criterion value over every non-degenerate labeling."""
    best = np.inf
    for labels in itertools.product(range(1, cfg.n_groups + 1), repeat=data.n_units):
        gamma = GroupAssignment(np.array(labels), cfg.n_groups)
        if gamma.empty_groups():
            continue
        try:
            value = _Kernel(data, cfg).fit(gamma.labels)[4]
        except NonConvergenceError:
            continue
        best = min(best, value)
    return best


def singular_start_logged(caplog):
    """Whether the zero-slope fallback was logged as a ``wgfe.solvers`` warning."""
    return any(
        r.name == "wgfe.solvers" and r.levelno == logging.WARNING
        and "singular" in r.message
        for r in caplog.records
    )


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
            {"max_lloyd_iters": 0},
            {"fp_max_iters": 0},
            {"n_threads": 0},
            {"vns_neigh_max": -1},
            {"seed": -1},
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

    @pytest.mark.parametrize("seed", range(3))
    def test_covariate_constant_in_group_period_cells_is_singular(self, seed):
        # the within-group scatter is rounding noise, so the design's own
        # eigenvalues cannot tell it from a full-rank one
        data, halves = cell_constant_panel(seed)
        with pytest.raises(SingularDesignError, match="rank deficient"):
            solve_theta_fixed_point(data, halves)
        with pytest.raises(SingularDesignError):
            gfe_update(data, halves)

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


def dense_weighted_slopes(data, gamma, sigma):
    """The scale-weighted normal equations solved on the group-demeaned panel."""
    idx = gamma.labels - 1
    counts = gamma.counts()
    xbar = np.stack([data.covariates[idx == g].sum(0) for g in range(len(counts))])
    ybar = np.stack([data.outcomes[idx == g].sum(0) for g in range(len(counts))])
    xt = data.covariates - (xbar / counts[:, None, None])[idx]
    yt = data.outcomes - (ybar / counts[:, None])[idx]
    w = 1.0 / sigma[idx]
    gram = np.einsum("i,itp,itq->pq", w, xt, xt)
    return np.linalg.solve(gram, np.einsum("i,itp,it->p", w, xt, yt))


class TestKernel:
    """The sufficient-statistics fit against direct recomputation on the panel."""

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-3), (0.0, 1e3)])
    def test_matches_direct_recomputation(self, mode, p, g, shift, scale, rng):
        raw, _, _ = make_grouped_dataset(rng, n=30, t=5, p=p, g=g, sigma=np.linspace(0.2, 1.0, g))
        data = PanelDataset(
            scale * (raw.outcomes + shift), scale * (raw.covariates + shift)
        )
        gamma = random_assignment(rng, 30, g)
        cfg = SolverConfig(mode=mode, n_groups=g, fp_tol=1e-13)
        theta, alpha, sigma, q, value = _Kernel(data, cfg).fit(gamma.labels)
        floor = sigma_floor(data)
        if mode == "gfe":
            ref_theta, _ = gfe_update(data, gamma)
            ref_value = gfe_objective(data, theta, alpha, gamma).value
        else:
            ref_theta = dense_weighted_slopes(data, gamma, sigma) if p else np.zeros(0)
            ref_value = wgfe_objective(data, theta, alpha, gamma).value
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-9, atol=1e-12)
        ref_alpha = update_alpha(data, theta, gamma)
        np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-9, atol=1e-9 * scale)
        ref_q = group_ssr(data, theta, alpha, gamma)
        np.testing.assert_allclose(q, ref_q, rtol=1e-9)
        np.testing.assert_allclose(sigma, np.maximum(np.sqrt(ref_q), floor), rtol=1e-9)
        assert value == pytest.approx(ref_value, rel=1e-9)

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_noiseless_panel_gives_scales_at_the_floor(self, mode, p):
        # a zero Q_g computed as a difference of sums is rounding noise
        for seed in range(20):
            r = np.random.default_rng(seed)
            n = int(r.integers(6, 3000))
            labels = np.arange(n) % 3 + 1
            alpha = 3.0 * r.standard_normal((3, 5))
            x = r.standard_normal((n, 5, p)) * r.choice([0.01, 1.0, 100.0])
            data = PanelDataset(x @ r.standard_normal(p) + alpha[labels - 1], x)
            cfg = SolverConfig(mode=mode, n_groups=3)
            _, _, sigma, q, value = _Kernel(data, cfg).fit(labels)
            assert np.all(q >= 0.0)
            np.testing.assert_array_equal(sigma, np.full(3, sigma_floor(data)))
            assert value <= sigma_floor(data)

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("offset", [1e4, 1e7])
    def test_groups_far_apart_cancel_nothing(self, mode, p, offset, rng):
        # group effects `offset` noise scales apart, in a fit and after each
        # move, from the true grouping and from one with a unit misplaced
        alpha = offset * np.repeat([[0.0], [1.0]], 5, axis=1)
        data, truth, _ = make_grouped_dataset(
            rng, n=40, t=5, p=p, g=2, alpha=alpha, sigma=np.array([0.5, 1.0])
        )
        cfg = SolverConfig(mode=mode, n_groups=2, fp_tol=1e-13)
        kernel = _Kernel(data, cfg)
        crit = gfe_objective if mode == "gfe" else wgfe_objective
        misplaced = truth.labels.copy()
        misplaced[0] = 3 - misplaced[0]
        for labels in (truth.labels, misplaced):
            state = kernel.fit(labels)
            units = np.arange(40)
            moved = kernel._solve(*kernel.move_stats(labels, state[0], units, 3 - labels))
            for i, out in [(None, state), *enumerate(moved)]:
                cand = labels.copy()
                if i is not None:
                    cand[i] = 3 - labels[i]
                gamma = GroupAssignment(cand, 2)
                theta, alpha_hat, sigma, q, value = out
                ref_q = group_ssr(data, theta, alpha_hat, gamma)
                np.testing.assert_allclose(q, ref_q, rtol=1e-9)
                np.testing.assert_allclose(sigma, np.sqrt(ref_q), rtol=1e-9)
                ref_value = crit(data, theta, alpha_hat, gamma).value
                assert value == pytest.approx(ref_value, rel=1e-9)

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    def test_unidentified_slope_raises(self, mode):
        data, halves = cell_constant_panel()
        kernel = _Kernel(data, SolverConfig(mode=mode, n_groups=2))
        with pytest.raises(SingularDesignError, match="rank deficient"):
            kernel.fit(halves.labels)
        # any other grouping identifies the slope
        other = halves.labels.copy()
        other[[0, -1]] = other[[-1, 0]]
        assert np.isfinite(kernel.fit(other)[0]).all()

    def test_single_member_groups_fit_exactly(self, rng):
        # a lone unit is its own group mean, in a fresh fit and after a move
        data = make_dataset(rng, n=6, t=4, p=1)
        cfg = SolverConfig(mode="wgfe", n_groups=2)
        kernel = _Kernel(data, cfg)
        lone = np.array([1, 2, 2, 2, 2, 2])
        fresh = kernel.fit(lone)
        start = kernel.fit(np.array([1, 1, 2, 2, 2, 2]))
        moved = kernel._solve(
            *kernel.move_stats(
                np.array([1, 1, 2, 2, 2, 2]), start[0], np.array([1]), np.array([2])
            )
        )[0]
        for state in (fresh, moved):
            assert state[3][0] == 0.0
            assert state[2][0] == sigma_floor(data)
        assert moved[4] == pytest.approx(fresh[4], rel=1e-12)


#: Bound on a moved statistic's error: counts are equal; a group mean is
#: within MOVE_TOL times the panel's root mean square of that variable; a
#: cross product M_g[a, b] is within MOVE_TOL * sqrt(s_a s_b), with
#: s_a = sqrt(M_g[a, a] R_g[a, a]) and R_g = M_g + n_g sum_t zbar_gt zbar_gt'
#: the group's scatter about the period means.  The rebuild itself rounds
#: each deviation at the scale of R_g, so its own error is of order eps s_a.
MOVE_TOL = 1e-12

#: (shift, scale) of the data, and how far apart the group effects sit
MOVE_LAYOUTS = [(0.0, 1.0, 3.0), (0.0, 1.0, 1e4), (1e6, 1e-6, 3.0), (1e6, 1e-6, 1e4)]


def move_panel(r, n, t, p, g, layout):
    """A panel of ``g`` equal, tight groups whose effects sit ``separation`` apart.

    Returns the kernel and the true labels; the layout shifts and rescales
    the data.  With three or more groups, a middle group sits near the
    period means, so its own scatter is all that its statistics carry.
    """
    shift, scale, separation = layout
    labels = np.arange(n) % g + 1
    alpha = separation * np.arange(g)[:, None] + r.standard_normal((g, t))
    noise = np.linspace(0.1, 0.5, g)[labels - 1, None] * r.standard_normal((n, t))
    x = r.standard_normal((n, t, p))
    y = x.sum(axis=2) + alpha[labels - 1] + noise
    data = PanelDataset(scale * (y + shift), scale * (x + shift))
    return _Kernel(data, SolverConfig(n_groups=g)), labels


def moved_stats(kernel, stats, labels, new):
    """``kernel.move_units`` with its size rule off, and whether it rebuilt."""
    rebuilt = []
    stats_of = kernel.stats

    def counting(lab):
        rebuilt.append(True)
        return stats_of(lab)

    kernel.stats = counting
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_MOVE_RATIO", 0)
            out = kernel.move_units(stats, labels, new, np.flatnonzero(labels != new))
    finally:
        del kernel.stats
    return out, bool(rebuilt)


def assert_stats_close(kernel, got, ref):
    """``got`` within ``MOVE_TOL`` of the rebuilt statistics ``ref``."""
    counts, means, cross = got
    ref_counts, ref_means, ref_cross = ref
    np.testing.assert_array_equal(counts, ref_counts)
    a = means.shape[2]
    rms = np.sqrt(np.mean(kernel.z**2, axis=(0, 1)))
    assert np.all(np.abs(means - ref_means) <= MOVE_TOL * rms)
    diag = ref_cross[:, :: a + 1]
    raw = diag + ref_counts[:, None] * np.sum(ref_means**2, axis=1)
    spread = np.sqrt(np.sqrt(diag * raw))
    bound = MOVE_TOL * (spread[:, :, None] * spread[:, None, :]).reshape(-1, a * a)
    assert np.all(np.abs(cross - ref_cross) <= bound)


def random_move(r, labels, g, n_moves):
    """``labels`` with ``n_moves`` random units sent to random other groups."""
    new = labels.copy()
    units = r.choice(labels.shape[0], size=n_moves, replace=False)
    new[units] = (new[units] - 1 + r.integers(1, g, size=n_moves)) % g + 1
    return new


class TestMoveUnits:
    """Statistics moved by the units that changed group, against a rebuild."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(2, 4),
        n=st.integers(8, 60),
        t=st.integers(1, 5),
        p=st.integers(0, 2),
        layout=st.sampled_from(MOVE_LAYOUTS),
        misplaced=st.integers(0, 3),
        homing=st.booleans(),
        moves=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_a_rebuild(self, seed, g, n, t, p, layout, misplaced, homing, moves):
        # groups start at the truth with a few units misplaced; the move
        # sends random units to random other groups, and with ``homing``
        # every misplaced unit home, so that a unit far from its group is
        # often among those that leave it
        r = np.random.default_rng(seed)
        kernel, truth = move_panel(r, n, t, p, g, layout)
        labels = random_move(r, truth, g, misplaced)
        new = random_move(r, labels, g, int(moves**2 * n / 2))
        if homing:
            new[labels != truth] = truth[labels != truth]
        for lab in (labels, new):
            if np.bincount(lab - 1, minlength=g).min() == 0:
                return
        if np.array_equal(labels, new):
            return
        got, _ = moved_stats(kernel, kernel.stats(labels), labels, new)
        assert_stats_close(kernel, got, kernel.stats(new))

    @pytest.mark.parametrize("layout", MOVE_LAYOUTS)
    def test_a_far_unit_going_home_rebuilds(self, layout):
        # a unit 1e4 from a tight group takes nearly all its scatter along
        # when it leaves; moving it would keep ~1e-8 of rounding noise
        r = np.random.default_rng(5)
        kernel, truth = move_panel(r, 30, 4, 1, 3, layout)
        labels = truth.copy()
        labels[0] = 2  # a unit of group 1, misplaced in the middle group
        new = truth
        got, rebuilt = moved_stats(kernel, kernel.stats(labels), labels, new)
        assert_stats_close(kernel, got, kernel.stats(new))
        assert rebuilt == (layout[2] > 100.0)

    @pytest.mark.parametrize("layout", MOVE_LAYOUTS)
    @pytest.mark.parametrize("g", [2, 3])
    def test_a_group_left_with_one_member(self, g, layout):
        r = np.random.default_rng(11 + g)
        kernel, truth = move_panel(r, 24, 3, 2, g, layout)
        members = np.flatnonzero(truth == 1)
        new = truth.copy()
        new[members[1:]] = 2
        got, rebuilt = moved_stats(kernel, kernel.stats(truth), truth, new)
        assert not rebuilt
        assert got[0][0] == 1 and np.all(got[2][0] == 0.0)
        assert_stats_close(kernel, got, kernel.stats(new))

    @pytest.mark.parametrize("layout", MOVE_LAYOUTS)
    def test_a_group_that_loses_every_member_rebuilds(self, layout):
        # every member of group 1 leaves and one unit of group 2 arrives
        r = np.random.default_rng(3)
        kernel, truth = move_panel(r, 24, 3, 1, 3, layout)
        new = truth.copy()
        new[truth == 1] = 3
        new[np.flatnonzero(truth == 2)[0]] = 1
        got, rebuilt = moved_stats(kernel, kernel.stats(truth), truth, new)
        assert rebuilt
        ref = kernel.stats(new)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))

    @pytest.mark.parametrize("layout", MOVE_LAYOUTS)
    @pytest.mark.parametrize("p", [0, 2])
    def test_a_long_chain_of_small_rounds_does_not_drift(self, p, layout):
        # 250 rounds of 1 to 4 random moves, each carried forward from the
        # last; rounds whose move falls back restart the chain from a rebuild
        r = np.random.default_rng(100 + p)
        g = 3
        kernel, labels = move_panel(r, 40, 4, p, g, layout)
        stats = kernel.stats(labels)
        rebuilds = 0
        for _ in range(250):
            new = random_move(r, labels, g, int(r.integers(1, 5)))
            if np.bincount(new - 1, minlength=g).min() == 0:
                continue
            stats, rebuilt = moved_stats(kernel, stats, labels, new)
            rebuilds += rebuilt
            labels = new
            assert_stats_close(kernel, stats, kernel.stats(labels))
        assert rebuilds < 125

    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(1, 5),
        n=st.integers(1, 80),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_moved_key_equals_the_key_of_the_new_labels(self, seed, g, n, share):
        r = np.random.default_rng(seed)
        data = make_dataset(r, n=n, t=2, p=1)
        search = solvers._Search(data, SolverConfig(n_groups=g))
        labels = r.integers(1, g + 1, size=n)
        for _ in range(3):
            new = random_move(r, labels, g, int(share * n)) if g > 1 else labels.copy()
            units = np.flatnonzero(labels != new)
            assert search.key_after(search.key(labels), labels, new, units) == search.key(new)
            labels = new


def same_outcome(got, ref):
    """Whether two fit outcomes are bitwise equal: states array by array, errors by content."""
    if isinstance(ref, Exception):
        same = type(got) is type(ref) and str(got) == str(ref)
        if same and isinstance(ref, NonConvergenceError):
            same = got.residual == ref.residual and all(
                a.tobytes() == b.tobytes() for a, b in zip(got.last_iterate, ref.last_iterate)
            )
        return same
    return not isinstance(got, Exception) and all(
        np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, ref)
    )


class TestKernelRows:
    """Each row of a stacked fit is computed as if it were fitted alone."""

    @pytest.mark.parametrize("fp_max_iters", [1, 500])
    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_stacked_rows_match_one_row_calls(self, mode, p, g, fp_max_iters):
        r = np.random.default_rng(31 + 3 * p + g)
        n, t = 24, 5
        # with two or more groups, integer covariates that vary only by
        # block and period, with period means exactly zero: grouping by
        # block leaves exactly no within-group variation, a singular design
        blocks = np.arange(n) * g // n + 1
        x = r.standard_normal((n, t, p))
        if g > 1:
            levels = r.integers(-3, 4, size=(g, t, p)).astype(float)
            levels[-1] = -levels[:-1].sum(axis=0)
            x = levels[blocks - 1]
        data = PanelDataset(x.sum(axis=2) + r.standard_normal((n, t)), x)
        cfg = SolverConfig(mode=mode, n_groups=g, fp_max_iters=fp_max_iters)
        kernel = _Kernel(data, cfg)
        settled = _Kernel(data, replace(cfg, fp_max_iters=500))
        groupings = [random_assignment(r, n, g).labels for _ in range(5)]
        # seeded at their own fixed point, fits settle within one step;
        # seeded at zero, weighted fits take several
        seeds = [settled.fit(labels)[0] for labels in groupings[:3]] + [np.zeros(p)] * 2
        groupings.insert(2, blocks)
        seeds.insert(2, np.zeros(p))
        counts, means, cross = (np.stack(s) for s in zip(*map(kernel.stats, groupings)))
        stacked = kernel._solve(counts, means, cross, np.stack(seeds))
        alone = [
            kernel._solve(counts[[k]], means[[k]], cross[[k]], np.stack(seeds)[[k]])[0]
            for k in range(len(groupings))
        ]
        for got, ref in zip(stacked, alone):
            assert same_outcome(got, ref)
        kinds = {type(out) for out in stacked}
        assert tuple in kinds
        assert (SingularDesignError in kinds) == (p > 0 and g > 1)
        stalls = p > 0 and mode == "wgfe" and fp_max_iters == 1
        assert (NonConvergenceError in kinds) == stalls


def sequential_local_search(labels, state, fit, g, max_sweeps=100):
    """The first-improvement loop with one fit per candidate move, as a reference."""
    obj = state[4]
    n = labels.shape[0]
    for _ in range(max_sweeps):
        improved = False
        counts = np.bincount(labels - 1, minlength=g)
        for i in range(n):
            src = labels[i]
            if counts[src - 1] <= 1:
                continue
            for h in range(1, g + 1):
                if h == src:
                    continue
                cand = labels.copy()
                cand[i] = h
                try:
                    cand_state = fit(cand, state[0])
                except NonConvergenceError:
                    continue
                if cand_state[4] < obj - 1e-12 * (1.0 + abs(obj)):
                    labels, state, obj = cand, cand_state, cand_state[4]
                    counts = np.bincount(labels - 1, minlength=g)
                    improved = True
                    break
        if not improved:
            break
    return labels, state


def sequential_lloyd(data, cfg, theta, alpha, sigma, search):
    """One Lloyd descent with one fit per round, as a reference.

    Each round looks its grouping up in ``search.states`` by its key,
    computed from scratch; an uncached grouping is fitted from the
    statistics of the last grouping the descent fitted, moved by
    ``_Kernel.move_units``, or from ``_Kernel.stats`` for the first one,
    and cached.
    """
    labels = solvers._repair_empty(*solvers._assign(search, theta, alpha, sigma))
    trace, state, converged, n_iters, fitted = [], None, False, 0, None
    for it in range(cfg.max_lloyd_iters):
        n_iters = it + 1
        key = search.key(labels)
        if key not in search.states:
            if fitted is None:
                stats = search.stats(labels)
            else:
                units = np.flatnonzero(fitted[0] != labels)
                stats = search.move_units(fitted[1], fitted[0], labels, units)
            fitted = labels, stats
            seed = state[0] if state is not None else theta
            out = search._solve(*solvers._request([stats], [seed]))[0]
            if isinstance(out, Exception):
                raise out
            search.states[key] = out
        state = search.states[key]
        trace.append(state[4])
        labels_next = solvers._repair_empty(*solvers._assign(search, *state[:3]))
        if np.array_equal(labels_next, labels):
            converged = True
            break
        if it == cfg.max_lloyd_iters - 1:
            break
        labels = labels_next
    start = 0
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1] + 1e-12 * (1.0 + abs(trace[i - 1])):
            start = i
    return state, labels, tuple(trace[start:]), n_iters, converged


def cached_fit(search):
    """A fit that keeps the first state of each labeling in ``search.states``."""

    def fit(labels, seed):
        key = search.key(labels)
        if key not in search.states:
            search.states[key] = search.fit(labels, seed)
        return search.states[key]

    return fit


def sequential_vns(data, cfg, rng):
    """The shaking loop with one fit per jump, as a reference for ``vns``.

    Returns the search's ``(state, labels, trace, n_lloyd_iters, converged)``
    and its events: the jump sizes at which the incumbent improved, and how
    many jump fits did not converge.
    """
    search = solvers._Search(data, cfg)
    fit = cached_fit(search)
    searched = set()
    events = {"improved_at": [], "jump_stalls": 0}
    init = initialize(data, cfg, rng)
    best_state, best_labels, _, total_iters, converged = sequential_lloyd(
        data, cfg, init.theta, init.alpha, init.sigma, search
    )
    improvements = [best_state[4]]
    g = cfg.n_groups
    for _ in range(cfg.vns_iter_max if g > 1 else 0):
        n = 1
        while n <= cfg.vns_neigh_max:
            labels_j = solvers._jump(best_labels, g, n, rng)
            try:
                state_j = fit(labels_j, best_state[0])
            except NonConvergenceError:
                events["jump_stalls"] += 1
                n += 1
                continue
            try:
                state_c, labels_c, _, iters_d, conv_d = sequential_lloyd(
                    data, cfg, *state_j[:3], search
                )
                total_iters += iters_d
                if search.key(labels_c) not in searched:
                    labels_c, state_c, _ = solvers._run(
                        search, solvers._local_search(labels_c, state_c, search)
                    )
                    searched.add(search.key(labels_c))
            except NonConvergenceError:
                n += 1
                continue
            best_obj = best_state[4]
            if state_c[4] < best_obj - 1e-12 * (1.0 + abs(best_obj)):
                best_labels, best_state = labels_c, state_c
                converged = converged or conv_d
                improvements.append(state_c[4])
                events["improved_at"].append(n)
                n = 1
            else:
                n += 1
    return (best_state, best_labels, tuple(improvements), total_iters, converged), events


class TestLocalSearch:
    def test_batched_search_matches_sequential_reference(self):
        stalled = 0
        for case in range(20):
            r = np.random.default_rng(500 + case)
            n, g, p = int(r.integers(8, 41)), int(r.integers(2, 4)), int(r.integers(0, 3))
            mode = ("wgfe", "gfe")[case % 2]
            data, _, _ = make_grouped_dataset(r, n=n, t=4, p=p, g=g, sigma=np.linspace(0.3, 1.2, g))
            labels = random_assignment(r, n, g).labels
            labels.setflags(write=False)
            cfg = SolverConfig(mode=mode, n_groups=g, fp_max_iters=2 if case % 4 >= 2 else 500)
            state = _Kernel(data, replace(cfg, fp_max_iters=500)).fit(labels)
            kernel = _Kernel(data, cfg)
            cache = {}

            def fit(lab, seed):
                nonlocal stalled
                key = lab.tobytes()
                if key not in cache:
                    try:
                        cache[key] = kernel.fit(lab, seed)
                    except NonConvergenceError:
                        stalled += 1
                        raise
                return cache[key]

            ref_labels, ref_state = sequential_local_search(labels, state, fit, g)
            search = solvers._Search(data, cfg)
            got_labels, got_state, _ = solvers._run(
                search, solvers._local_search(labels, state, search)
            )
            np.testing.assert_array_equal(got_labels, ref_labels)
            assert got_state[4] == pytest.approx(ref_state[4], rel=1e-12)
        assert stalled > 0  # some candidate fits hit the iteration cap

    @pytest.mark.parametrize("seed", [14, 37, 101])
    def test_a_search_that_skipped_a_stall_is_rescanned(self, seed, monkeypatch):
        # every jump of a vns run descends from one first grouping, and the
        # first move its local search reaches stalls and is skipped; once an
        # improving state for that move is cached, the next jump from the
        # same first grouping rescans and takes the move, so only a jump
        # outcome whose search skipped nothing may be remembered
        r = np.random.default_rng(seed)
        g, n = int(r.integers(2, 4)), int(r.integers(10, 30))
        data, _, _ = make_grouped_dataset(r, n=n, t=4, p=1, g=g, sigma=np.linspace(0.3, 1.5, g))
        cfg = SolverConfig(
            n_groups=g, fp_max_iters=2, max_lloyd_iters=1, vns_iter_max=1, vns_neigh_max=2
        )
        settled = _Kernel(data, replace(cfg, fp_max_iters=500))
        labels = random_assignment(r, n, g).labels
        labels.setflags(write=False)
        state = settled.fit(labels)
        search = solvers._Search(data, cfg)
        search.states[search.key(labels)] = state
        units, targets = np.repeat(np.arange(n), g), np.tile(np.arange(1, g + 1), n)
        counts = np.bincount(labels - 1, minlength=g)
        keep = (targets != labels[units]) & (counts[labels[units] - 1] > 1)
        units, targets = units[keep], targets[keep]
        outs = search._solve(*search.move_stats(labels, state[0], units, targets))
        obj = state[4]
        reached = next(
            k for k, out in enumerate(outs)
            if isinstance(out, NonConvergenceError) or out[4] < obj - 1e-12 * (1.0 + abs(obj))
        )
        assert isinstance(outs[reached], NonConvergenceError)
        moved = labels.copy()
        moved[units[reached]] = targets[reached]
        improving = settled.fit(moved, state[0])
        assert improving[4] < obj - 1e-12 * (1.0 + abs(obj))

        # each jump returns the incumbent, and each descent starts from
        # ``labels`` and, with one round, ends there on its cached state
        first = (labels, search.key(labels), state[0])
        monkeypatch.setattr(solvers, "_jump", lambda best, *args: best)
        monkeypatch.setattr(solvers, "_first_grouping", lambda *args: first)
        local_search = solvers._local_search
        scans, refs = [], []

        def scan(start, start_state, s):
            assert np.array_equal(start, labels) and start_state is state
            if scans:
                fresh = s.restart()
                fresh.states = dict(s.states)
                refs.append(solvers._run(fresh, local_search(start, start_state, fresh)))
            out = yield from local_search(start, start_state, s)
            if not scans:
                assert s.key(moved) not in s.states
                s.states[s.key(moved)] = improving
            scans.append(out)
            return out

        monkeypatch.setattr(solvers, "_local_search", scan)
        init = initialize(data, cfg, np.random.default_rng(seed))
        solvers._run(search, solvers._vns_run(search, np.random.default_rng(seed), init))
        assert len(scans) >= 2
        first_labels, _, first_clean = scans[0]
        assert not first_clean and not np.array_equal(first_labels, labels)
        (ref_labels, ref_state, _), (got_labels, got_state, _) = refs[0], scans[1]
        np.testing.assert_array_equal(got_labels, ref_labels)
        assert got_state[4] == ref_state[4]
        assert not np.array_equal(got_labels, first_labels)


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

    def test_singular_pooled_ols_start_falls_back_to_zero_slopes(self, rng, caplog):
        # an all-zero covariate: the start logs a warning and uses zero slopes;
        # every grouped fit is singular too, so each restart fails at its first
        # fit and the search reports the design, not a convergence failure
        data = make_dataset(rng, n=20, t=4, p=2)
        x = data.covariates.copy()
        x[:, :, 1] = 0.0
        data = PanelDataset(data.outcomes, x)
        cfg = SolverConfig(n_groups=2, n_restarts=2, vns_iter_max=2)
        with caplog.at_level(logging.WARNING, logger="wgfe.solvers"):
            params = initialize(data, cfg, np.random.default_rng(0))
        assert singular_start_logged(caplog)
        np.testing.assert_array_equal(params.theta, np.zeros(2))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wgfe.solvers"):
            with pytest.raises(SingularDesignError, match="rank deficient"):
                multi_start(data, cfg)
        assert singular_start_logged(caplog)

    def test_search_runs_from_the_zero_slope_fallback(self, rng, caplog):
        # a covariate offset by 1e6 makes the pooled design numerically
        # singular, while the group-demeaned designs of the search are not
        x = rng.standard_normal((20, 4, 2))
        x[:, :, 0] += 1e6
        data = PanelDataset(rng.standard_normal((20, 4)), x)
        cfg = SolverConfig(n_groups=2, n_restarts=2, vns_iter_max=2)
        with caplog.at_level(logging.WARNING, logger="wgfe.solvers"):
            np.testing.assert_array_equal(
                initialize(data, cfg, np.random.default_rng(0)).theta, np.zeros(2)
            )
        assert singular_start_logged(caplog)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wgfe.solvers"):
            res = multi_start(data, cfg)
        assert singular_start_logged(caplog)
        assert res.n_restarts_used == 2
        assert res.objective == pytest.approx(recompute_objective(data, res), rel=1e-9)

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

    def test_trace_keeps_every_round_rises_included(self):
        # the paper's two-group dynamic design at N = 90: the scale-aware
        # rule is not a descent step, so some of these runs rise before
        # they settle, and the trace keeps those rounds
        from wgfe.simlab import AR1Covariates, SimulationSpec, generate

        base = np.linspace(0.0, 0.3, 7)
        spec = SimulationSpec(
            n_units=90, n_periods=7, n_groups=2, theta_true=[0.554, 0.062],
            alpha_true=np.vstack([base, base + 0.25]), sigma_true=[0.219, 0.086],
            group_probs=[0.64, 0.36],
            covariate_law=AR1Covariates(rho=0.9, innovation_sd=0.5), dynamic=True,
        )
        rises = 0
        for seed, g in itertools.product(range(4), (2, 3)):
            data = generate(spec, np.random.default_rng(seed).spawn(1)[0])[0]
            cfg = SolverConfig(n_groups=g)
            res = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(seed)))
            assert len(res.trace) == res.n_lloyd_iters
            assert res.trace[-1] == res.objective
            rises += int(np.sum(np.diff(res.trace) > 1e-9))
        assert rises > 0

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    def test_termination_is_rule_stable(self, mode, rng):
        # no unit prefers another group under the mode's rule at the
        # returned parameters
        from wgfe.solvers import _assign, _Search

        for seed in range(10):
            r = np.random.default_rng(100 + seed)
            data, _, _ = make_grouped_dataset(r, n=25, t=4, p=1, g=2, sigma=[0.3, 0.9])
            cfg = SolverConfig(mode=mode, n_groups=2)
            res = lloyd(data, cfg, initialize(data, cfg, r))
            assert res.converged
            replay, _ = _assign(
                _Search(data, cfg), res.params.theta, res.params.alpha, res.params.sigma
            )
            np.testing.assert_array_equal(replay, res.assignment.labels)

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
    def test_zero_neighborhoods_reduces_to_lloyd(self):
        # vns without jumps is the descent lloyd runs, bit for bit; its
        # trace holds the incumbent's objectives, so only the last entry
        # is lloyd's
        panels = [
            (9, 18, 1, [0.3, 0.8]),
            (31, 30, 2, [0.2, 0.6, 1.4]),
            (47, 24, 0, [0.5, 1.0]),
            (58, 40, 1, [0.3, 0.7, 1.1]),
        ]
        for mode, (seed, n, p, sigma) in itertools.product(["wgfe", "gfe"], panels):
            data, _, _ = make_grouped_dataset(
                np.random.default_rng(seed), n=n, t=4, p=p, g=len(sigma), sigma=sigma
            )
            cfg = SolverConfig(
                mode=mode, n_groups=len(sigma), vns_iter_max=1, vns_neigh_max=0
            )
            res_v = vns(data, cfg, np.random.default_rng(seed))
            res_l = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(seed)))
            for a, b in [
                (res_v.params.theta, res_l.params.theta),
                (res_v.params.alpha, res_l.params.alpha),
                (res_v.params.sigma, res_l.params.sigma),
                (res_v.params.weights, res_l.params.weights),
                (res_v.assignment.labels, res_l.assignment.labels),
                (res_v.breakdown.per_group_ssr, res_l.breakdown.per_group_ssr),
                (res_v.breakdown.weights, res_l.breakdown.weights),
            ]:
                assert a.tobytes() == b.tobytes()
            assert res_v.objective == res_l.objective == res_v.breakdown.value
            assert res_v.breakdown.value == res_l.breakdown.value
            assert res_v.mode == res_l.mode
            assert res_v.trace == (res_l.trace[-1],)
            assert res_v.n_lloyd_iters == res_l.n_lloyd_iters
            assert res_v.converged == res_l.converged
            assert res_v.n_restarts_used == res_l.n_restarts_used

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

    @pytest.mark.parametrize("mode", ["wgfe", "gfe"])
    def test_single_group_runs_one_lloyd_pass(self, mode, rng):
        # no jump can move a unit between groups when there is only one
        data = make_dataset(rng, n=15, t=4, p=1)
        cfg = SolverConfig(mode=mode, n_groups=1)
        res = vns(data, cfg, np.random.default_rng(3))
        one_pass = vns(data, replace(cfg, vns_neigh_max=0), np.random.default_rng(3))
        assert res.n_lloyd_iters == 1
        assert res.objective == one_pass.objective
        np.testing.assert_array_equal(res.params.theta, one_pass.params.theta)

    def test_matches_sequential_reference_bitwise(self, monkeypatch):
        # (seed, N, G, p, mode, fp_max_iters); the cap of 4 makes some jump
        # fits stall, and improvements land before the largest jump; the
        # reference scans at every descent that lands off an earlier result,
        # while vns takes some of those searches from memory.  Each panel
        # runs under the size rule of move_units, which at these N always
        # rebuilds, and with the rule off, so that every descent round after
        # the first moves its statistics
        panels = [
            (701, 34, 3, 2, "wgfe", 500),
            (705, 50, 3, 0, "wgfe", 500),
            (715, 34, 3, 1, "gfe", 500),
            (800, 35, 2, 1, "wgfe", 4),
            (700, 30, 2, 1, "wgfe", 500),
            (702, 38, 2, 0, "gfe", 500),
            (704, 46, 2, 2, "wgfe", 500),
            (710, 42, 2, 2, "gfe", 500),
        ]
        improved_at, stalls = [], 0
        scans = {"ref": 0, "got": 0}
        local_search = solvers._local_search
        side = "ref"

        def counting_search(*args):
            scans[side] += 1
            return (yield from local_search(*args))

        moved = []
        move_units = solvers._Kernel.move_units

        def counting_move(kernel, *args):
            moved.append(solvers._MOVE_RATIO)
            return move_units(kernel, *args)

        monkeypatch.setattr(solvers, "_local_search", counting_search)
        monkeypatch.setattr(solvers._Kernel, "move_units", counting_move)
        rules = (solvers._MOVE_RATIO, 0)
        for ratio, (seed, n, g, p, mode, fp_max_iters) in itertools.product(rules, panels):
            monkeypatch.setattr(solvers, "_MOVE_RATIO", ratio)
            r = np.random.default_rng(seed)
            data, _, _ = make_grouped_dataset(
                r, n=n, t=4, p=p, g=g, sigma=np.linspace(0.3, 1.5, g)
            )
            cfg = SolverConfig(
                mode=mode, n_groups=g, fp_max_iters=fp_max_iters,
                vns_iter_max=3, vns_neigh_max=6,
            )
            ref_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            side = "ref"
            ref, events = sequential_vns(data, cfg, ref_rng)
            side = "got"
            got = vns(data, cfg, got_rng)
            state, labels, trace, n_iters, converged = ref
            np.testing.assert_array_equal(got.assignment.labels, labels)
            for a, b in zip((got.params.theta, got.params.alpha, got.params.sigma), state):
                assert a.tobytes() == b.tobytes()
            assert got.breakdown.per_group_ssr.tobytes() == state[3].tobytes()
            assert got.objective == state[4]
            assert got.trace == trace
            assert got.n_lloyd_iters == n_iters
            assert got.converged == converged
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            improved_at += events["improved_at"]
            stalls += events["jump_stalls"]
        assert any(n < 6 for n in improved_at)  # the rest of a sweep is discarded
        assert stalls > 0
        assert 0 < scans["got"] < scans["ref"]
        assert moved.count(0) > 0

    def test_memo_of_jump_outcomes_changes_no_answer(self, monkeypatch):
        # vns with its memo of jump outcomes equals, bit for bit, vns whose
        # memo never stores (every local search reports a skipped stall, so
        # no outcome is remembered); the memo skips descents on every panel
        # (seed, N, G, p, mode)
        panels = [
            (901, 40, 2, 1, "wgfe"),
            (902, 40, 2, 2, "gfe"),
            (903, 45, 3, 1, "gfe"),
            (904, 45, 3, 2, "wgfe"),
            (905, 36, 2, 2, "wgfe"),
            (906, 36, 3, 1, "wgfe"),
            (907, 50, 2, 1, "gfe"),
            (908, 50, 3, 2, "gfe"),
        ]
        local_search, descent = solvers._local_search, solvers._descent
        descents = []

        def never_clean(labels, state, search):
            labels, state, _ = yield from local_search(labels, state, search)
            return labels, state, False

        def counting_descent(*args):
            descents[-1] += 1
            return (yield from descent(*args))

        monkeypatch.setattr(solvers, "_descent", counting_descent)
        for seed, n, g, p, mode in panels:
            data, _, _ = make_grouped_dataset(
                np.random.default_rng(seed), n=n, t=4, p=p, g=g, sigma=np.linspace(0.3, 1.5, g)
            )
            cfg = SolverConfig(mode=mode, n_groups=g, vns_iter_max=4, vns_neigh_max=6)
            runs = []
            for search in (local_search, never_clean):
                monkeypatch.setattr(solvers, "_local_search", search)
                rng = np.random.default_rng(seed)
                descents.append(0)
                runs.append((vns(data, cfg, rng), rng.bit_generator.state))
            (got, got_rng), (ref, ref_rng) = runs
            np.testing.assert_array_equal(got.assignment.labels, ref.assignment.labels)
            for a, b in [
                (got.params.theta, ref.params.theta),
                (got.params.alpha, ref.params.alpha),
                (got.params.sigma, ref.params.sigma),
                (got.params.weights, ref.params.weights),
                (got.breakdown.per_group_ssr, ref.breakdown.per_group_ssr),
            ]:
                assert a.tobytes() == b.tobytes()
            assert got.objective == ref.objective
            assert got.trace == ref.trace
            assert got.n_lloyd_iters == ref.n_lloyd_iters
            assert got.converged == ref.converged
            assert got_rng == ref_rng
            assert descents[-2] < descents[-1]

    def test_jump_offsets_match_one_draw_per_unit(self):
        # _jump draws the movers' offsets in one call; the labels and the
        # generator's state afterwards are those of one draw per mover
        refills = 0

        def per_unit_jump(labels, g, n_moves, rng):
            nonlocal refills
            labels = labels.copy()
            n = labels.shape[0]
            for i in rng.choice(n, size=min(n_moves, n), replace=False):
                labels[i] = (labels[i] - 1 + rng.integers(1, g)) % g + 1
            counts = np.bincount(labels - 1, minlength=g)
            for gg in np.nonzero(counts == 0)[0] + 1:
                donors = np.nonzero(counts[labels - 1] > 1)[0]
                i = donors[rng.integers(donors.shape[0])]
                counts[labels[i] - 1] -= 1
                labels[i] = gg
                counts[gg - 1] += 1
                refills += 1
            return labels

        for g, size, seed in itertools.product(range(2, 7), range(1, 11), range(300)):
            labels = np.random.default_rng([g, seed]).integers(1, g + 1, size=12)
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = solvers._jump(labels, g, size, got_rng)
            ref = per_unit_jump(labels, g, size, ref_rng)
            np.testing.assert_array_equal(got, ref)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert refills > 0  # some jumps empty a group and refill it

    def test_ggfe_mode_rejected(self, rng):
        # the searches fit the wgfe criterion, so a ggfe run would return a
        # wgfe fit under the ggfe label
        data = make_dataset(rng, n=8, t=3, p=1)
        cfg = SolverConfig(mode="ggfe", n_groups=2)
        with pytest.raises(ValueError, match="vns"):
            vns(data, cfg, np.random.default_rng(0))

    def test_search_steps_never_write_their_input_labels(self, rng):
        # each step hands on a read-only array; a write into it would raise
        data, _, _ = make_grouped_dataset(rng, n=20, t=3, p=1, g=3, sigma=[0.2, 0.5, 1.0])
        cfg = SolverConfig(mode="wgfe", n_groups=3)
        labels = np.array([1] * 10 + [2] * 10)  # group 3 is empty
        labels.setflags(write=False)
        given = []

        def keep(arr):
            given.append((arr, arr.copy()))
            return arr

        repaired = solvers._repair_empty(keep(labels), rng.standard_normal((20, 3)))
        jumped = solvers._jump(keep(repaired), 3, 5, np.random.default_rng(1))
        search = solvers._Search(data, cfg)
        searched, _, _ = solvers._run(
            search, solvers._local_search(keep(jumped), search.fit(jumped), search)
        )
        assert np.bincount(repaired - 1, minlength=3).min() >= 1
        for arr, copy in given:
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, copy)
        assert not searched.flags.writeable


class TestMultiStart:
    def test_deterministic_repeat(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=20, t=4, p=1, g=2, sigma=[0.3, 0.9])
        cfg = SolverConfig(n_groups=2, n_restarts=4, seed=77, vns_iter_max=1, vns_neigh_max=2)
        a = multi_start(data, cfg)
        b = multi_start(data, cfg)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.assignment.labels, b.assignment.labels)

    # (panel seed, N, T, p, true scales, G, mode, fp_max_iters,
    # vns_neigh_max, n_restarts); panel 117 empties a group in its opening
    # descents, and the fp_max_iters=4 panels fail some restarts only
    RESTART_CASES = [
        (701, 24, 3, 1, [0.3, 1.2], 1, "wgfe", 500, 3, 3),
        (702, 24, 4, 2, [0.3, 1.2], 1, "gfe", 500, 0, 3),
        (703, 30, 3, 1, [0.3, 1.2], 2, "wgfe", 500, 0, 4),
        (704, 30, 4, 0, [0.3, 1.2], 2, "gfe", 500, 3, 4),
        (705, 36, 3, 2, [0.3, 0.7, 1.5], 3, "wgfe", 500, 3, 4),
        (706, 36, 4, 1, [0.3, 0.7, 1.5], 3, "gfe", 500, 0, 4),
        (117, 16, 3, 1, [0.2, 2.0], 3, "wgfe", 500, 3, 4),
        (117, 16, 3, 1, [0.2, 2.0], 3, "gfe", 500, 0, 4),
        (800, 35, 4, 1, [0.3, 1.5], 2, "wgfe", 4, 3, 8),
        (814, 35, 4, 1, [0.3, 1.5], 2, "wgfe", 4, 0, 8),
    ]

    def test_restart_k_matches_lone_vns_bitwise(self, monkeypatch):
        # one driver over all restarts' search generators gives restart k
        # exactly what vns alone gives on substream k
        repaired = []
        repair = solvers._repair_empty

        def counting_repair(labels, crit, min_size=1):
            out = repair(labels, crit, min_size)
            repaired.append(out is not labels)
            return out

        monkeypatch.setattr(solvers, "_repair_empty", counting_repair)
        mixed = 0
        for seed, n, t, p, sigma, g, mode, fp_iters, neigh, k in self.RESTART_CASES:
            data, _, _ = make_grouped_dataset(
                np.random.default_rng(seed), n=n, t=t, p=p, g=len(sigma), sigma=sigma
            )
            cfg = SolverConfig(
                mode=mode, n_groups=g, n_restarts=k, seed=seed, fp_max_iters=fp_iters,
                vns_iter_max=2, vns_neigh_max=neigh,
            )
            repaired.clear()
            outs = solvers._restart_outcomes(data, cfg)
            fired = any(repaired)
            streams = np.random.SeedSequence(seed).spawn(k)
            for out, stream in zip(outs, streams):
                try:
                    ref = vns(data, cfg, np.random.default_rng(stream))
                except NonConvergenceError as exc:
                    assert type(out) is type(exc) and str(out) == str(exc)
                    continue
                np.testing.assert_array_equal(out.assignment.labels, ref.assignment.labels)
                for a, b in [
                    (out.params.theta, ref.params.theta),
                    (out.params.alpha, ref.params.alpha),
                    (out.params.sigma, ref.params.sigma),
                    (out.breakdown.per_group_ssr, ref.breakdown.per_group_ssr),
                ]:
                    assert a.tobytes() == b.tobytes()
                assert out.objective == ref.objective
                assert out.trace == ref.trace
                assert out.n_lloyd_iters == ref.n_lloyd_iters
                assert out.converged == ref.converged
            n_ok = sum(not isinstance(out, Exception) for out in outs)
            assert multi_start(data, cfg).n_restarts_used == n_ok
            if seed == 117:
                assert fired
            if fp_iters == 4:
                assert 0 < n_ok < k
                mixed += 1
        assert mixed == 2

    def test_restarts_that_move_statistics_match_lone_vns_bitwise(self, monkeypatch):
        # with the size rule of move_units off, every descent round after
        # the first moves its statistics; restart k still gets what vns
        # alone gets on substream k
        monkeypatch.setattr(solvers, "_MOVE_RATIO", 0)
        moved = []
        move_units = solvers._Kernel.move_units

        def counting_move(kernel, *args):
            moved.append(True)
            return move_units(kernel, *args)

        monkeypatch.setattr(solvers._Kernel, "move_units", counting_move)
        for seed, n, t, p, sigma, g, mode, fp_iters, neigh, k in self.RESTART_CASES[2:]:
            data, _, _ = make_grouped_dataset(
                np.random.default_rng(seed), n=n, t=t, p=p, g=len(sigma), sigma=sigma
            )
            cfg = SolverConfig(
                mode=mode, n_groups=g, n_restarts=k, seed=seed, fp_max_iters=fp_iters,
                vns_iter_max=2, vns_neigh_max=neigh,
            )
            outs = solvers._restart_outcomes(data, cfg)
            streams = np.random.SeedSequence(seed).spawn(k)
            for got, stream in zip(outs, streams):
                try:
                    ref = vns(data, cfg, np.random.default_rng(stream))
                except (NonConvergenceError, EmptyGroupError) as exc:
                    assert type(got) is type(exc) and str(got) == str(exc)
                    continue
                assert got.assignment.labels.tobytes() == ref.assignment.labels.tobytes()
                for a, b in [
                    (got.params.theta, ref.params.theta),
                    (got.params.alpha, ref.params.alpha),
                    (got.params.sigma, ref.params.sigma),
                    (got.breakdown.per_group_ssr, ref.breakdown.per_group_ssr),
                ]:
                    assert a.tobytes() == b.tobytes()
                assert (got.objective, got.trace) == (ref.objective, ref.trace)
                assert got.n_lloyd_iters == ref.n_lloyd_iters
                assert got.converged == ref.converged
        # the restarts and the lone runs make the same moves: at least 34 each
        assert len(moved) > 66

    def test_partition_cache_is_written_once_per_key(self, monkeypatch):
        # a jump's outcome may be taken from memory only because every cached
        # state stays as first stored; a second write to a key would raise
        class WriteOnce(dict):
            def __setitem__(self, key, value):
                assert key not in self, "cache key written twice"
                super().__setitem__(key, value)

        restart = solvers._Search.restart

        def write_once_restart(search):
            other = restart(search)
            other.states = WriteOnce()
            return other

        # vns remembers a jump's outcome by the key of its descent's first
        # grouping once its local search skipped no stall; a second clean
        # search from one key in one run would mean the memo missed a stored
        # key or was written twice
        searches = {"clean": 0, "stalled": 0, "remembered": 0}
        local_search, first_grouping = solvers._local_search, solvers._first_grouping
        last_first, remembered = {}, set()

        def keyed_first_grouping(search, *args):
            first = first_grouping(search, *args)
            last_first[id(search)] = first[1]
            searches["remembered"] += (id(search), first[1]) in remembered
            return first

        def counting_search(labels, state, search):
            out = yield from local_search(labels, state, search)
            searches["clean" if out[2] else "stalled"] += 1
            if out[2]:
                memo_key = (id(search), last_first[id(search)])
                assert memo_key not in remembered, "memo key written twice"
                remembered.add(memo_key)
            return out

        monkeypatch.setattr(solvers._Search, "restart", write_once_restart)
        monkeypatch.setattr(solvers, "_first_grouping", keyed_first_grouping)
        monkeypatch.setattr(solvers, "_local_search", counting_search)
        # (panel seed, N, p, true scales, mode, fp_max_iters)
        cases = [
            (800, 35, 1, [0.3, 1.5], "wgfe", 4),
            (704, 30, 2, [0.3, 1.2], "gfe", 500),
            (707, 40, 1, [0.3, 0.7, 1.5], "wgfe", 4),
            (706, 36, 1, [0.3, 0.7, 1.5], "gfe", 500),
        ]
        for seed, n, p, sigma, mode, fp_iters in cases:
            data, _, _ = make_grouped_dataset(
                np.random.default_rng(seed), n=n, t=4, p=p, g=len(sigma), sigma=sigma
            )
            cfg = SolverConfig(
                mode=mode, n_groups=len(sigma), n_restarts=4, seed=seed,
                fp_max_iters=fp_iters, vns_iter_max=3, vns_neigh_max=4,
            )
            remembered.clear()
            outs = solvers._restart_outcomes(data, cfg)
            assert any(isinstance(out, EstimationResult) for out in outs)
        assert searches["clean"] > 0 and searches["stalled"] > 0
        assert searches["remembered"] > 0

    def test_singular_start_is_logged_once_per_call(self, rng, caplog):
        # the pooled start is fitted once for all restarts, so its fallback
        # warning appears once, however many restarts run
        x = rng.standard_normal((20, 4, 2))
        x[:, :, 1] = 0.0
        data = PanelDataset(rng.standard_normal((20, 4)), x)
        with caplog.at_level(logging.WARNING, logger="wgfe.solvers"):
            with pytest.raises(SingularDesignError):
                multi_start(data, SolverConfig(n_groups=2, n_restarts=5))
        warnings = [r for r in caplog.records if r.name == "wgfe.solvers"]
        assert len(warnings) == 1 and "singular" in warnings[0].message

    def test_selects_minimum_across_restarts(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=15, t=3, p=0, g=2, sigma=[0.2, 1.0])
        cfg = SolverConfig(n_groups=2, n_restarts=5, seed=5, vns_iter_max=1, vns_neigh_max=1)
        res = multi_start(data, cfg)
        streams = np.random.SeedSequence(5).spawn(5)
        singles = [vns(data, cfg, np.random.default_rng(s)).objective for s in streams]
        assert res.objective == min(singles)
        assert res.n_restarts_used == 5

    def test_rounding_ties_go_to_the_lowest_restart(self, rng, monkeypatch):
        data, _, _ = make_grouped_dataset(rng, n=15, t=3, p=0, g=2)
        cfg = SolverConfig(n_groups=2, n_restarts=4, vns_iter_max=0)
        base = multi_start(data, cfg)
        for step, pick in [(1e-16, 0), (1e-9, 3)]:
            # restart k reaches the same value less k steps
            outs = iter(
                [replace(base, objective=1.0 - step * k, n_lloyd_iters=k) for k in range(4)]
            )
            # each restart's run generator returns its canned result
            def canned_run(*args):
                yield from ()
                return next(outs)

            monkeypatch.setattr(solvers, "_vns_run", canned_run)
            assert multi_start(data, cfg).n_lloyd_iters == pick

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

        def broken_run(search, rng, start):
            yield from ()
            raise TypeError("bug in the search")

        monkeypatch.setattr(solvers, "_vns_run", broken_run)
        with pytest.raises(TypeError, match="bug in the search"):
            multi_start(data, SolverConfig(n_groups=2, n_restarts=2))

    def test_programming_error_in_the_lockstep_descent_propagates(self, rng, monkeypatch):
        data, _, _ = make_grouped_dataset(rng, n=12, t=3, p=1, g=2)

        def broken_repair(labels, crit, min_size=1):
            raise TypeError("bug in the descent")

        monkeypatch.setattr(solvers, "_repair_empty", broken_repair)
        with pytest.raises(TypeError, match="bug in the descent"):
            multi_start(data, SolverConfig(n_groups=2, n_restarts=2))

    def test_mixed_restart_failures_raise_non_convergence(self, rng, monkeypatch):
        # only an all-singular run is reported as the design's fault
        data, _, _ = make_grouped_dataset(rng, n=12, t=3, p=1, g=2)
        errors = iter([SingularDesignError("rank deficient"), EmptyGroupError([2])])

        def failing_run(search, rng, start):
            yield from ()
            raise next(errors)

        monkeypatch.setattr(solvers, "_vns_run", failing_run)
        with pytest.raises(NonConvergenceError, match="all 2 restarts failed") as info:
            multi_start(data, SolverConfig(n_groups=2, n_restarts=2))
        assert isinstance(info.value.__cause__, SingularDesignError)

    def test_ggfe_mode_rejected(self, rng):
        data = make_dataset(rng, n=8, t=3, p=1)
        cfg = SolverConfig(mode="ggfe", n_groups=2, n_restarts=2)
        with pytest.raises(ValueError, match="multi_start"):
            multi_start(data, cfg)

    def test_restarts_share_each_fit_step(self, monkeypatch):
        # one driver fits the requests of every running restart in one
        # _solve call per step: as many calls as the longest lone restart
        # makes, and the rows of all of them
        data, _, _ = make_grouped_dataset(
            np.random.default_rng(705), n=36, t=3, p=2, g=3, sigma=[0.3, 0.7, 1.5]
        )
        cfg = SolverConfig(n_groups=3, n_restarts=4, seed=705, vns_iter_max=2, vns_neigh_max=3)
        calls = []
        solve = solvers._Kernel._solve

        def counting_solve(kernel, counts, *args):
            calls.append(len(counts))
            return solve(kernel, counts, *args)

        monkeypatch.setattr(solvers._Kernel, "_solve", counting_solve)
        multi_start(data, cfg)
        together = list(calls)
        alone = []
        for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.n_restarts):
            calls.clear()
            vns(data, cfg, np.random.default_rng(stream))
            alone.append(list(calls))
        assert len(together) == max(map(len, alone))
        assert sum(together) == sum(map(sum, alone))
        assert len(together) < sum(map(len, alone))

    def test_result_fields(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=12, t=3, p=1, g=2)
        cfg = SolverConfig(n_groups=2, n_restarts=2, seed=9, vns_iter_max=1, vns_neigh_max=1)
        res = multi_start(data, cfg)
        assert isinstance(res, EstimationResult)
        assert res.mode == "wgfe"
        assert res.params.n_groups == 2
        assert res.breakdown.value == res.objective
        assert res.trace[-1] == pytest.approx(res.objective)


class TestDrive:
    def test_a_linalg_error_is_pinned_to_its_own_row(self):
        # a stand-in kernel whose batch raises whenever it holds a marked
        # row (a NaN seed): the driver refits the batch row by row, so the
        # clean rows get their states and the marked one gets the error
        calls = []

        class StandIn:
            def _solve(self, counts, means, cross, seeds):
                calls.append(len(seeds))
                if np.isnan(seeds).any():
                    raise np.linalg.LinAlgError("marked row")
                return [("state", float(seed[0])) for seed in seeds]

        def search(*seeds):
            k = len(seeds)
            seeds = np.array(seeds)[:, None]
            return (yield np.ones((k, 2)), np.zeros((k, 2, 3, 2)), np.zeros((k, 4)), seeds)

        clean, marked = solvers._drive(StandIn(), [search(1.0, 2.0), search(np.nan)])
        assert clean == [("state", 1.0), ("state", 2.0)]
        assert len(marked) == 1 and isinstance(marked[0], np.linalg.LinAlgError)
        assert calls == [3, 1, 1, 1]

    def test_a_search_error_ends_only_its_own_generator(self):
        # a package or linear-algebra error raised by a generator becomes its
        # outcome, while the others run on; any other error propagates
        class StandIn:
            def _solve(self, counts, means, cross, seeds):
                return [float(seed[0]) for seed in seeds]

        def search(seed, error=None):
            request = np.ones((1, 2)), np.zeros((1, 2, 3, 2)), np.zeros((1, 4)), np.array([[seed]])
            (first,) = yield request
            if error is not None:
                raise error
            (second,) = yield request
            return first + second

        failed = SingularDesignError("rank deficient")
        outs = solvers._drive(StandIn(), [search(1.0, failed), search(2.0)])
        assert outs == [failed, 4.0]
        with pytest.raises(TypeError, match="bug"):
            solvers._drive(StandIn(), [search(1.0, TypeError("bug")), search(2.0)])
