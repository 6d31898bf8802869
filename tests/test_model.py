"""Core model: criteria, assignment rules, and update formulas.

Every vectorized operation is checked against a naive loop oracle written
independently of the implementation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgfe.errors import EmptyGroupError, SingularDesignError
from wgfe.model import (
    GroupAssignment,
    GroupParameters,
    ObjectiveBreakdown,
    PanelDataset,
    _assignment_criterion,
    _group_gram,
    _group_sums,
    _lower,
    _profile_criterion,
    gfe_assign,
    gfe_objective,
    group_ssr,
    residual_profiles,
    wgfe_assign,
    wgfe_objective,
)

from wgfe.solvers import SolverConfig, _assign, _Search

from conftest import make_dataset, make_grouped_dataset, random_assignment
from reference import gfe_update, update_alpha, within_group_means


# ---------------------------------------------------------------------------
# loop oracles


def oracle_means(data, gamma):
    n, t, p = data.n_units, data.n_periods, data.n_covariates
    g = gamma.n_groups
    ybar = np.full((g, t), np.nan)
    xbar = np.full((g, t, p), np.nan)
    for gg in range(1, g + 1):
        members = [i for i in range(n) if gamma.labels[i] == gg]
        if not members:
            continue
        for tt in range(t):
            ybar[gg - 1, tt] = sum(data.outcomes[i, tt] for i in members) / len(members)
            for k in range(p):
                xbar[gg - 1, tt, k] = sum(
                    data.covariates[i, tt, k] for i in members
                ) / len(members)
    return ybar, xbar


def oracle_ssr(data, theta, alpha, gamma):
    n, t = data.n_units, data.n_periods
    q = np.zeros(gamma.n_groups)
    for gg in range(1, gamma.n_groups + 1):
        members = [i for i in range(n) if gamma.labels[i] == gg]
        total = 0.0
        for i in members:
            for tt in range(t):
                r = data.outcomes[i, tt] - data.covariates[i, tt] @ theta
                r -= alpha[gg - 1, tt]
                total += r * r
        q[gg - 1] = total / (t * len(members))
    return q


def oracle_group_sums(idx, g, arr):
    out = np.zeros((g,) + arr.shape[1:])
    for i in range(arr.shape[0]):
        out[idx[i]] += arr[i]
    return out


def oracle_group_gram(idx, g, arr):
    m = arr.shape[-1]
    out = np.zeros((g, m, m))
    for i in range(arr.shape[0]):
        for v in arr[i].reshape(int(np.prod(arr.shape[1:-1])), m):
            for a in range(m):
                for b in range(m):
                    out[idx[i], a, b] += v[a] * v[b]
    return out


def oracle_assign_wgfe(data, theta, alpha, sigma):
    v = data.outcomes - data.covariates @ theta
    labels = []
    for i in range(data.n_units):
        best, best_g = np.inf, None
        for gg in range(alpha.shape[0]):
            d = float(np.sum((v[i] - alpha[gg]) ** 2)) / sigma[gg] + sigma[gg]
            if d < best:
                best, best_g = d, gg + 1
        labels.append(best_g)
    return np.array(labels)


def oracle_assign_gfe(data, theta, alpha):
    v = data.outcomes - data.covariates @ theta
    labels = []
    for i in range(data.n_units):
        dists = [float(np.sum((v[i] - alpha[gg]) ** 2)) for gg in range(alpha.shape[0])]
        labels.append(int(np.argmin(dists)) + 1)
    return np.array(labels)


# ---------------------------------------------------------------------------
# data containers


class TestPanelDataset:
    def test_shapes_and_properties(self, rng):
        data = make_dataset(rng, n=7, t=4, p=3)
        assert (data.n_units, data.n_periods, data.n_covariates) == (7, 4, 3)

    def test_two_dim_covariates_promoted(self, rng):
        data = PanelDataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
        assert data.covariates.shape == (5, 3, 1)

    def test_zero_covariates_allowed(self, rng):
        data = PanelDataset(rng.standard_normal((4, 3)), np.zeros((4, 3, 0)))
        assert data.n_covariates == 0

    @pytest.mark.parametrize(
        "y_shape,x_shape",
        [((5,), (5, 3, 1)), ((5, 3), (4, 3, 1)), ((5, 3), (5, 2, 2))],
    )
    def test_shape_mismatch_rejected(self, rng, y_shape, x_shape):
        with pytest.raises(ValueError):
            PanelDataset(rng.standard_normal(y_shape), rng.standard_normal(x_shape))

    def test_non_finite_rejected(self):
        y = np.zeros((3, 2))
        y[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PanelDataset(y, np.zeros((3, 2, 1)))

    def test_arrays_read_only(self, rng):
        data = make_dataset(rng)
        with pytest.raises(ValueError):
            data.outcomes[0, 0] = 1.0


class TestGroupAssignment:
    def test_counts_weights_empty(self):
        gamma = GroupAssignment([1, 1, 3, 1], 4)
        assert gamma.counts().tolist() == [3, 0, 1, 0]
        assert gamma.empty_groups() == (2, 4)
        np.testing.assert_allclose(gamma.weights(), [0.75, 0, 0.25, 0])

    @pytest.mark.parametrize("labels,g", [([0, 1], 2), ([1, 3], 2), ([1, 2], 0)])
    def test_label_range_enforced(self, labels, g):
        with pytest.raises(ValueError):
            GroupAssignment(labels, g)

    def test_same_as(self):
        a = GroupAssignment([1, 2, 2], 2)
        assert a.same_as(GroupAssignment([1, 2, 2], 2))
        assert not a.same_as(GroupAssignment([1, 2, 1], 2))
        assert not a.same_as(GroupAssignment([1, 2, 2], 3))


class TestGroupParameters:
    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            GroupParameters(np.zeros(1), np.zeros((2, 3)), [1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum to 1"):
            GroupParameters(np.zeros(1), np.zeros((2, 3)), [1.0, 1.0], [0.5, 0.4])

    def test_accepts_valid(self):
        params = GroupParameters(np.zeros(0), np.zeros((2, 3)), [1.0, 2.0], [0.5, 0.5])
        assert params.n_groups == 2 and params.n_periods == 3


# ---------------------------------------------------------------------------
# group sums, group means and residual sums


class TestGroupSumsAndGram:
    CASES = [
        # (N, G, shape of each row): a single group, a one-member group,
        # zero-width rows, 3-D input reduced over its middle axis
        (7, 1, (4,)),
        (9, 3, (3, 2)),
        (6, 2, (5, 0)),
        (8, 3, (0,)),
        (10, 2, (4, 3)),
        (12, 4, ()),
    ]

    @pytest.mark.parametrize("n, g, shape", CASES)
    def test_match_loop_oracles(self, rng, n, g, shape):
        # with G > 1, group 0 has exactly one member
        idx = np.zeros(n, int) if g == 1 else np.r_[0, rng.integers(1, g, n - 1)]
        arr = 1e3 + rng.standard_normal((n,) + shape)
        sums = _group_sums(idx, g, arr)
        assert sums.shape == (g,) + shape
        # rows are added one at a time in row order, exactly as the loop does
        np.testing.assert_array_equal(sums, oracle_group_sums(idx, g, arr))
        if not shape:
            return
        gram = _group_gram(idx, g, arr)
        m = shape[-1]
        assert gram.shape == (g, m, m)
        np.testing.assert_allclose(gram, oracle_group_gram(idx, g, arr), rtol=1e-13)

    def test_one_member_group_is_that_member(self, rng):
        idx = np.array([1, 0, 1, 1])
        arr = rng.standard_normal((4, 3, 2))
        np.testing.assert_array_equal(_group_sums(idx, 2, arr)[0], arr[1])
        np.testing.assert_array_equal(_group_gram(idx, 2, arr)[0], arr[1].T @ arr[1])

    def test_empty_group_gives_zeros(self, rng):
        idx = np.array([0, 2, 2, 0])
        arr = rng.standard_normal((4, 3, 2))
        assert not np.any(_group_sums(idx, 3, arr)[1])
        assert not np.any(_group_gram(idx, 3, arr)[1])

    def test_means_are_taken_out_per_group_bitwise(self):
        # netting each group's means inside the per-group loop equals
        # netting them from the whole array first, bit for bit
        for case in range(60):
            r = np.random.default_rng(case)
            n, t, g = int(r.integers(1, 301)), int(r.integers(1, 10)), int(r.integers(1, 5))
            shape = ((t,), (t, int(r.integers(1, 5))))[case % 2]
            idx = r.integers(0, g, n)
            if g > 1 and case % 3 == 0:
                idx[idx == g - 1] = 0  # an empty group
            arr = 1e3 + r.standard_normal((n,) + shape)
            means = r.standard_normal((g,) + shape)
            got = _group_gram(idx, g, arr, means)
            assert got.tobytes() == _group_gram(idx, g, arr - means[idx]).tobytes()


class TestWithinGroupMeans:
    def test_matches_double_loop_oracle(self, rng):
        data = make_dataset(rng, n=6, t=2, p=2)
        gamma = random_assignment(rng, 6, 3, nonempty=False)
        got = within_group_means(data, gamma)
        ybar, xbar = oracle_means(data, gamma)
        np.testing.assert_array_equal(got.outcomes, ybar)
        np.testing.assert_array_equal(got.covariates, xbar)

    def test_empty_groups_flagged_as_nan(self, rng):
        data = make_dataset(rng, n=4, t=3, p=1)
        gamma = GroupAssignment([1, 1, 1, 3], 3)
        got = within_group_means(data, gamma)
        assert got.empty == (2,)
        assert np.all(np.isnan(got.outcomes[1]))
        assert np.all(np.isfinite(got.outcomes[[0, 2]]))

    def test_single_group_is_cross_section_mean(self, rng):
        data = make_dataset(rng, n=9, t=4, p=1)
        gamma = GroupAssignment(np.ones(9, int), 1)
        got = within_group_means(data, gamma)
        np.testing.assert_allclose(got.outcomes[0], data.outcomes.mean(0), atol=1e-14)


class TestGroupSsr:
    def test_matches_residual_loop_oracle(self, rng):
        data = make_dataset(rng, n=10, t=4, p=2)
        gamma = random_assignment(rng, 10, 3)
        theta = rng.standard_normal(2)
        alpha = rng.standard_normal((3, 4))
        got = group_ssr(data, theta, alpha, gamma)
        np.testing.assert_allclose(got, oracle_ssr(data, theta, alpha, gamma), rtol=1e-12)

    def test_zero_residuals(self, rng):
        x = rng.standard_normal((5, 3, 1))
        theta = np.array([2.0])
        alpha = np.array([[1.0, -1.0, 0.5]])
        y = x[:, :, 0] * 2.0 + alpha[0]
        data = PanelDataset(y, x)
        gamma = GroupAssignment(np.ones(5, int), 1)
        np.testing.assert_allclose(group_ssr(data, theta, alpha, gamma), [0.0], atol=1e-28)

    def test_empty_group_raises(self, rng):
        data = make_dataset(rng, n=4, t=2, p=0)
        gamma = GroupAssignment([1, 1, 1, 1], 2)
        with pytest.raises(EmptyGroupError) as exc:
            group_ssr(data, np.zeros(0), np.zeros((2, 2)), gamma)
        assert exc.value.groups == (2,)


# ---------------------------------------------------------------------------
# criteria


def _fixture_with_ssr(q_values, n_per_group=2, t=2):
    """Build p=0 data whose per-group mean squared residuals are q_values."""
    g = len(q_values)
    rows = []
    labels = []
    for gg, q in enumerate(q_values):
        r = np.sqrt(q)
        for i in range(n_per_group):
            sign = 1.0 if i % 2 == 0 else -1.0
            rows.append(np.full(t, sign * r))
            labels.append(gg + 1)
    y = np.asarray(rows)
    data = PanelDataset(y, np.zeros((y.shape[0], t, 0)))
    gamma = GroupAssignment(labels, g)
    return data, gamma, np.zeros((g, t))


class TestObjectives:
    def test_weighted_value_hand_computed(self):
        # equal shares, Q = (4, 1): 0.5*2 + 0.5*1 = 1.5
        data, gamma, alpha = _fixture_with_ssr([4.0, 1.0])
        res = wgfe_objective(data, np.zeros(0), alpha, gamma)
        assert res.value == pytest.approx(1.5, abs=1e-14)
        np.testing.assert_allclose(res.per_group_ssr, [4.0, 1.0], rtol=1e-14)
        np.testing.assert_allclose(res.weights, [0.5, 0.5])

    def test_pooled_value_hand_computed(self):
        # same fixture under the unweighted criterion: 0.5*4 + 0.5*1 = 2.5
        data, gamma, alpha = _fixture_with_ssr([4.0, 1.0])
        res = gfe_objective(data, np.zeros(0), alpha, gamma)
        assert res.value == pytest.approx(2.5, abs=1e-14)

    def test_breakdown_recombines(self, rng):
        data = make_dataset(rng, n=12, t=3, p=1)
        gamma = random_assignment(rng, 12, 3)
        theta = rng.standard_normal(1)
        alpha = rng.standard_normal((3, 3))
        wb = wgfe_objective(data, theta, alpha, gamma)
        gb = gfe_objective(data, theta, alpha, gamma)
        assert wb.value == pytest.approx(wb.weights @ np.sqrt(wb.per_group_ssr), rel=1e-12)
        assert gb.value == pytest.approx(gb.weights @ gb.per_group_ssr, rel=1e-12)

    def test_jensen_bound_random_draws(self, rng):
        # squared weighted value never exceeds the pooled value
        for _ in range(200):
            n, t, p, g = 8, 3, 1, 3
            data = make_dataset(rng, n=n, t=t, p=p)
            gamma = random_assignment(rng, n, g)
            theta = rng.standard_normal(p)
            alpha = rng.standard_normal((g, t))
            w = wgfe_objective(data, theta, alpha, gamma).value
            f = gfe_objective(data, theta, alpha, gamma).value
            assert w * w <= f * (1 + 1e-12) + 1e-300

    def test_equal_ssr_collapses_jensen_gap(self):
        # Q_g identical across groups makes the bound an equality
        data, gamma, alpha = _fixture_with_ssr([1.0, 1.0, 1.0], n_per_group=4)
        w = wgfe_objective(data, np.zeros(0), alpha, gamma).value
        f = gfe_objective(data, np.zeros(0), alpha, gamma).value
        assert abs(w * w - f) <= 1e-12

    def test_empty_group_weighted_raises_pooled_ignores(self, rng):
        data = make_dataset(rng, n=5, t=2, p=0)
        gamma = GroupAssignment([1, 1, 1, 1, 1], 2)
        alpha = np.zeros((2, 2))
        with pytest.raises(EmptyGroupError):
            wgfe_objective(data, np.zeros(0), alpha, gamma)
        res = gfe_objective(data, np.zeros(0), alpha, gamma)
        assert res.value == pytest.approx(np.mean(data.outcomes**2), rel=1e-12)
        assert np.isnan(res.per_group_ssr[1])

    @given(perm=st.permutations(range(3)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, perm, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n=9, t=3, p=1)
        gamma = random_assignment(rng, 9, 3)
        theta = rng.standard_normal(1)
        alpha = rng.standard_normal((3, 3))
        perm = np.asarray(perm)
        inv = np.argsort(perm)
        relabeled = GroupAssignment(inv[gamma.labels - 1] + 1, 3)
        for crit in (wgfe_objective, gfe_objective):
            base = crit(data, theta, alpha, gamma)
            moved = crit(data, theta, alpha[perm], relabeled)
            assert moved.value == pytest.approx(base.value, rel=1e-12)
            np.testing.assert_allclose(
                moved.per_group_ssr, base.per_group_ssr[perm], rtol=1e-12
            )

    @given(log2c=st.integers(-6, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scale_covariance(self, log2c, seed):
        # scaling (y, alpha, theta) by c scales the weighted value by c and
        # the pooled value by c^2; powers of two keep the check exact
        rng = np.random.default_rng(seed)
        c = 2.0**log2c
        data = make_dataset(rng, n=8, t=3, p=1)
        gamma = random_assignment(rng, 8, 2)
        theta = rng.standard_normal(1)
        alpha = rng.standard_normal((2, 3))
        scaled = PanelDataset(c * data.outcomes, data.covariates)
        w0 = wgfe_objective(data, theta, alpha, gamma).value
        w1 = wgfe_objective(scaled, c * theta, c * alpha, gamma).value
        assert w1 == pytest.approx(c * w0, rel=1e-12)
        f0 = gfe_objective(data, theta, alpha, gamma).value
        f1 = gfe_objective(scaled, c * theta, c * alpha, gamma).value
        assert f1 == pytest.approx(c * c * f0, rel=1e-12)


# ---------------------------------------------------------------------------
# assignment rules


class TestAssignments:
    def test_scale_aware_hand_example(self):
        # profile (0.9, 0) sits closer to alpha_1 in raw distance but the
        # scale-aware rule sends it to the tighter group 2:
        # 0.81/2 + 2 = 2.405 versus 1.21/0.9 + 0.9 = 2.244...
        data = PanelDataset(np.array([[0.9, 0.0]]), np.zeros((1, 2, 0)))
        alpha = np.array([[0.0, 0.0], [2.0, 0.0]])
        sigma = np.array([2.0, 0.9])
        got = wgfe_assign(data, np.zeros(0), alpha, sigma)
        assert got.labels.tolist() == [2]
        # the plain nearest rule keeps it in group 1
        assert gfe_assign(data, np.zeros(0), alpha).labels.tolist() == [1]

    def test_matches_loop_oracle(self, rng):
        data = make_dataset(rng, n=40, t=4, p=2)
        theta = rng.standard_normal(2)
        alpha = rng.standard_normal((3, 4))
        sigma = rng.uniform(0.2, 2.0, size=3)
        got = wgfe_assign(data, theta, alpha, sigma)
        np.testing.assert_array_equal(got.labels, oracle_assign_wgfe(data, theta, alpha, sigma))
        got_g = gfe_assign(data, theta, alpha)
        np.testing.assert_array_equal(got_g.labels, oracle_assign_gfe(data, theta, alpha))

    def test_equal_sigma_coincides_with_nearest(self, rng):
        data = make_dataset(rng, n=200, t=3, p=1)
        theta = rng.standard_normal(1)
        alpha = rng.standard_normal((4, 3))
        sigma = np.full(4, 0.7)
        a = wgfe_assign(data, theta, alpha, sigma)
        b = gfe_assign(data, theta, alpha)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_unknown_rule_rejected(self, rng):
        data = make_dataset(rng, n=2, t=2, p=0)
        with pytest.raises(ValueError, match="rule"):
            wgfe_assign(data, np.zeros(0), np.zeros((1, 2)), [1.0], rule="fast")

    def test_tie_breaks_to_lowest_index(self):
        # two identical candidate groups: every unit lands in group 1
        data = PanelDataset(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((2, 2, 0)))
        alpha = np.array([[0.5, 0.5], [0.5, 0.5]])
        sigma = np.array([1.0, 1.0])
        assert wgfe_assign(data, np.zeros(0), alpha, sigma).labels.tolist() == [1, 1]
        assert gfe_assign(data, np.zeros(0), alpha).labels.tolist() == [1, 1]

    @pytest.mark.parametrize(
        "shift_y, shift_x, scale",
        [(0.0, 0.0, 1.0), (1e4, 0.0, 1.0), (0.0, 1e4, 1.0), (0.0, 0.0, 1e4), (0.0, 0.0, 1e-4)],
    )
    def test_expanded_distances_match_loop_oracles_when_shifted_or_rescaled(
        self, shift_y, shift_x, scale
    ):
        # effect rows near the profiles, so that groups compete for units;
        # the public rules centre the profiles by their own period means,
        # the searches' rule takes them from the kernel's centred data
        for seed in range(3):
            r = np.random.default_rng(40 + seed)
            base, _, _ = make_grouped_dataset(r, n=300, t=6, p=2, g=3, sigma=[0.2, 0.5, 1.0])
            theta = np.ones(2) + 0.1 * r.standard_normal(2)
            alpha = residual_profiles(base, theta)[r.choice(300, 3, replace=False)]
            alpha += 0.3 * r.standard_normal((3, 6))
            sigma = r.uniform(0.3, 1.5, 3)
            data = PanelDataset(
                scale * (base.outcomes + shift_y), scale * (base.covariates + shift_x)
            )
            alpha = scale * (alpha + shift_y - shift_x * theta.sum())
            sigma = scale * sigma
            want_w = oracle_assign_wgfe(data, theta, alpha, sigma)
            want_g = oracle_assign_gfe(data, theta, alpha)
            np.testing.assert_array_equal(wgfe_assign(data, theta, alpha, sigma).labels, want_w)
            np.testing.assert_array_equal(gfe_assign(data, theta, alpha).labels, want_g)
            for mode, want in (("wgfe", want_w), ("gfe", want_g)):
                search = _Search(data, SolverConfig(mode=mode, n_groups=3))
                labels, _ = _assign(search, theta, alpha, sigma)
                np.testing.assert_array_equal(labels, want)

    def test_identical_effect_rows_go_to_the_lowest_group(self, rng):
        # the first and last groups share an effect row, unit 0's profile,
        # and a scale: unit 0 and every unit that prefers that row land in
        # group 1
        shapes = [(7, 2, 3), (90, 7, 3), (2000, 7, 3), (500, 16, 3), (90, 16, 4), (300, 9, 5)]
        for n, t, g in shapes * 10:
            data = make_dataset(rng, n=n, t=t, p=1)
            theta = rng.standard_normal(1)
            alpha = rng.standard_normal((g, t))
            alpha[0] = alpha[-1] = residual_profiles(data, theta)[0]
            sigma = rng.uniform(0.5, 1.0, g)
            sigma[-1] = sigma[0]
            for labels in (
                wgfe_assign(data, theta, alpha, sigma).labels,
                gfe_assign(data, theta, alpha).labels,
                _assign(_Search(data, SolverConfig(n_groups=g)), theta, alpha, sigma)[0],
            ):
                assert labels[0] == 1 and np.any(labels == 1) and g not in labels

    def test_a_profile_equal_to_an_effect_row_is_at_distance_zero(self, rng):
        # the expansion's rounding near a zero distance reads exactly 0, and
        # no distance is negative, at any scale or offset of the data
        for shift, scale in [(0.0, 1.0), (1e4, 1.0), (0.0, 1e-4), (-3e3, 1e5)]:
            for n, t, g in [(5, 1, 2), (90, 7, 2), (400, 16, 5)]:
                data = PanelDataset(
                    scale * (rng.standard_normal((n, t)) + shift),
                    scale * rng.standard_normal((n, t, 2)),
                )
                theta = rng.standard_normal(2)
                rows = rng.choice(n, size=g, replace=False)
                v = residual_profiles(data, theta)
                for d2 in (
                    _assignment_criterion(data, theta, v[rows]),
                    _profile_criterion(v - v.mean(axis=0), (v - v.mean(axis=0))[rows]),
                    _assign(_Search(data, SolverConfig(mode="gfe", n_groups=g)), theta, v[rows], None)[1],
                ):
                    assert np.all(d2 >= 0.0)
                    np.testing.assert_array_equal(d2[rows, np.arange(g)], 0.0)
                    # and elsewhere the expansion agrees with the direct distances
                    direct = ((v[:, None, :] - v[rows][None]) ** 2).sum(axis=2)
                    np.testing.assert_allclose(d2, direct, rtol=1e-9, atol=1e-12 * direct.max())

    def test_scale_aware_prefers_noisy_group_for_far_profiles(self):
        # with equal alpha, profiles with large residual norm go to the
        # high-variance group and snug ones to the low-variance group
        y = np.array([[5.0, -5.0, 4.0], [0.1, -0.1, 0.0]])
        data = PanelDataset(y, np.zeros((2, 3, 0)))
        alpha = np.zeros((2, 3))
        sigma = np.array([4.0, 0.5])
        got = wgfe_assign(data, np.zeros(0), alpha, sigma)
        assert got.labels.tolist() == [1, 2]


# ---------------------------------------------------------------------------
# the reference updates of tests/reference.py, which other tests use as oracles


class TestUpdateAlpha:
    def test_zero_covariates_gives_group_means(self, rng):
        data = make_dataset(rng, n=8, t=3, p=0)
        gamma = random_assignment(rng, 8, 2)
        alpha = update_alpha(data, np.zeros(0), gamma)
        np.testing.assert_array_equal(alpha, within_group_means(data, gamma).outcomes)

    def test_matches_loop_oracle(self, rng):
        data = make_dataset(rng, n=10, t=4, p=2)
        gamma = random_assignment(rng, 10, 3)
        theta = rng.standard_normal(2)
        alpha = update_alpha(data, theta, gamma)
        ybar, xbar = oracle_means(data, gamma)
        np.testing.assert_allclose(alpha, ybar - xbar @ theta, rtol=1e-12)

    def test_empty_group_raises(self, rng):
        data = make_dataset(rng, n=4, t=2, p=1)
        gamma = GroupAssignment([1, 1, 1, 1], 2)
        with pytest.raises(EmptyGroupError):
            update_alpha(data, np.zeros(1), gamma)


class TestGfeUpdate:
    def test_matches_normal_equations_oracle(self, rng):
        data = make_dataset(rng, n=15, t=4, p=2)
        gamma = random_assignment(rng, 15, 3)
        theta, alpha = gfe_update(data, gamma)
        # oracle: stack the demeaned regression and solve the normal equations
        ybar, xbar = oracle_means(data, gamma)
        idx = gamma.labels - 1
        xt = (data.covariates - xbar[idx]).reshape(-1, 2)
        yt = (data.outcomes - ybar[idx]).ravel()
        ref = np.linalg.lstsq(xt, yt, rcond=None)[0]
        np.testing.assert_allclose(theta, ref, rtol=1e-9)
        np.testing.assert_allclose(alpha, ybar - xbar @ theta, rtol=1e-9, atol=1e-12)

    def test_minimizes_pooled_criterion(self, rng):
        # the closed form beats nearby parameter perturbations
        data = make_dataset(rng, n=20, t=5, p=2)
        gamma = random_assignment(rng, 20, 2)
        theta, alpha = gfe_update(data, gamma)
        base = gfe_objective(data, theta, alpha, gamma).value
        for _ in range(20):
            dt = 1e-3 * rng.standard_normal(2)
            da = 1e-3 * rng.standard_normal(alpha.shape)
            assert gfe_objective(data, theta + dt, alpha + da, gamma).value >= base

    def test_exact_recovery_when_noiseless(self, rng):
        theta_true = np.array([1.5, -0.5])
        alpha_true = rng.standard_normal((2, 4))
        labels = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        x = rng.standard_normal((8, 4, 2))
        y = x @ theta_true + alpha_true[labels - 1]
        data = PanelDataset(y, x)
        theta, alpha = gfe_update(data, GroupAssignment(labels, 2))
        np.testing.assert_allclose(theta, theta_true, atol=1e-10)
        np.testing.assert_allclose(alpha, alpha_true, atol=1e-10)

    def test_zero_covariates(self, rng):
        data = make_dataset(rng, n=6, t=3, p=0)
        gamma = random_assignment(rng, 6, 2)
        theta, alpha = gfe_update(data, gamma)
        assert theta.shape == (0,)
        np.testing.assert_array_equal(alpha, within_group_means(data, gamma).outcomes)

    def test_collinear_design_raises(self, rng):
        x1 = rng.standard_normal((10, 3, 1))
        x = np.concatenate([x1, 2.0 * x1], axis=2)
        data = PanelDataset(rng.standard_normal((10, 3)), x)
        gamma = random_assignment(rng, 10, 2)
        with pytest.raises(SingularDesignError):
            gfe_update(data, gamma)

    def test_constant_covariate_absorbed_by_alpha_raises(self, rng):
        # a unit-invariant covariate is collinear with the group effects
        x = np.ones((8, 3, 1))
        data = PanelDataset(rng.standard_normal((8, 3)), x)
        gamma = GroupAssignment([1, 1, 1, 1, 2, 2, 2, 2], 2)
        with pytest.raises(SingularDesignError):
            gfe_update(data, gamma)


class TestResidualProfiles:
    def test_matches_direct_computation(self, rng):
        data = make_dataset(rng, n=5, t=3, p=2)
        theta = rng.standard_normal(2)
        expect = data.outcomes - np.einsum("itp,p->it", data.covariates, theta)
        np.testing.assert_allclose(residual_profiles(data, theta), expect, rtol=1e-14)

    def test_theta_length_checked(self, rng):
        data = make_dataset(rng, n=3, t=2, p=2)
        with pytest.raises(ValueError, match="length"):
            residual_profiles(data, np.zeros(3))

    def test_one_product_over_all_rows_is_the_stacked_product(self):
        # x theta as one (N T, p) matrix-vector product must give, bit for
        # bit, the stacked (N, T, p) @ (p,) product it replaces
        for case in range(60):
            r = np.random.default_rng(case)
            n, t, p = int(r.integers(1, 301)), int(r.integers(1, 10)), int(r.integers(0, 4))
            data = PanelDataset(
                r.standard_normal((n, t)), r.standard_normal((n, t, p)) * 10.0 ** r.integers(-3, 4)
            )
            theta = r.standard_normal(p)
            expect = data.outcomes - data.covariates @ theta
            assert residual_profiles(data, theta).tobytes() == expect.tobytes()


class TestLower:
    @pytest.mark.parametrize("a,b,lower", [
        (1.0 - 3e-12, 1.0, True),
        (1.0 - 1e-12, 1.0, False),
        (-1e-13, 0.0, False),
        (-2e-12, 0.0, True),
        (1.0, 1.0, False),
        (1.0 + 3e-12, 1.0, False),
    ])
    def test_below_by_more_than_rounding(self, a, b, lower):
        # the threshold is 1e-12 (1 + |b|): relative for large values,
        # absolute near zero
        assert _lower(a, b) is lower
