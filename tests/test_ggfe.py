"""Covariance containers, barycenter fixed point, gradient, and descent."""

import numpy as np
import pytest
from scipy.linalg import sqrtm as dense_sqrtm

from wgfe import ggfe
from wgfe.errors import (
    EmptyGroupError,
    IllConditionedError,
    NonConvergenceError,
    NonSpdError,
    SingularDesignError,
)
from wgfe.ggfe import (
    SoftAssignment,
    SpdMatrix,
    assignment_gradient,
    barycenter_fixed_point,
    ggfe_descent,
    ggfe_objective,
    group_covariances,
)
from wgfe.model import (
    GroupAssignment,
    PanelDataset,
    gfe_objective,
    group_ssr,
    wgfe_objective,
)
from wgfe.simlab import AR1Covariates, SimulationSpec, generate
from wgfe.solvers import SolverConfig, _Kernel, initialize, lloyd

from conftest import cell_constant_panel, make_grouped_dataset
from reference import update_alpha, within_group_means


def random_spd(rng, t, spread=1.0):
    m = rng.standard_normal((t, t))
    return m @ m.T + spread * np.eye(t)


def reference_barycenter(mats, weights, tol=1e-13, max_iters=5000):
    """Plain fixed-point loop on Schur-based square roots."""
    omega = np.eye(mats[0].shape[0])
    for _ in range(max_iters):
        root = np.real(dense_sqrtm(omega))
        mean = sum(
            w * np.real(dense_sqrtm(root @ s @ root)) for w, s in zip(weights, mats)
        )
        if np.linalg.norm(omega - mean) / np.linalg.norm(omega) < tol:
            return omega
        inv_root = np.linalg.inv(root)
        omega = inv_root @ mean @ mean @ inv_root
        omega = (omega + omega.T) / 2
    raise AssertionError("reference iteration did not settle")


def canon(labels):
    """Relabel groups by first appearance so partitions compare directly."""
    out = np.empty_like(labels)
    seen = {}
    for i, lab in enumerate(labels):
        if lab not in seen:
            seen[lab] = len(seen) + 1
        out[i] = seen[lab]
    return out


def basis_profile_dataset(scales):
    """One group per scale; group g holds T units with profiles a_g * e_t.

    Every group covariance is then exactly (a_g^2 / T) I.
    """
    t = 3
    alpha = np.array([[3.0 * g, -1.0 * g, 2.0 + g] for g in range(len(scales))])
    rows = []
    labels = []
    for g, a in enumerate(scales):
        for tt in range(t):
            e = np.zeros(t)
            e[tt] = a
            rows.append(alpha[g] + e)
            labels.append(g + 1)
    y = np.stack(rows)
    data = PanelDataset(y, np.zeros((y.shape[0], t, 0)))
    return data, alpha, GroupAssignment(labels, len(scales))


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NonSpdError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NonSpdError):
            SpdMatrix(np.diag([1.0, -0.5]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(NonSpdError):
            SpdMatrix(np.zeros((2, 3)))
        with pytest.raises(NonSpdError):
            SpdMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_accepts_rank_deficient(self, rng):
        v = rng.standard_normal(4)
        m = SpdMatrix(np.outer(v, v))
        assert m.definite
        clamped = m.clamped()
        assert np.linalg.eigvalsh(clamped).min() > 0.0
        np.testing.assert_allclose(clamped, m.values, atol=1e-8 * m.trace)

    def test_zero_matrix_has_no_root(self):
        m = SpdMatrix(np.zeros((3, 3)))
        assert not m.definite

    def test_trace_past_the_float_range(self):
        m = SpdMatrix(np.diag([1e308] * 4))
        assert m.definite
        np.testing.assert_array_equal(m.clamped(), m.values)


class TestSoftAssignment:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            SoftAssignment(np.full((3, 2), 0.7))
        with pytest.raises(ValueError):
            SoftAssignment(np.array([[1.5, -0.5]]))
        with pytest.raises(ValueError):
            SoftAssignment(np.ones(3))

    def test_from_hard(self):
        gamma = GroupAssignment([2, 1, 2], 3)
        soft = SoftAssignment.from_hard(gamma)
        expect = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(soft.weights, expect)


class TestGroupCovariances:
    def test_single_unit_group_is_rank_one(self, rng):
        y = rng.standard_normal((3, 4))
        data = PanelDataset(y, np.zeros((3, 4, 0)))
        alpha = np.vstack([np.zeros(4), y[1:].mean(axis=0)])
        gamma = GroupAssignment([1, 2, 2], 2)
        covs, weights = group_covariances(data, np.zeros(0), alpha, gamma)
        np.testing.assert_allclose(covs[0].values, np.outer(y[0], y[0]), rtol=1e-12)
        assert np.linalg.matrix_rank(covs[0].values, tol=1e-10) == 1
        np.testing.assert_allclose(weights, [1 / 3, 2 / 3])

    def test_hard_matches_loops(self, rng):
        data, truth, gen = make_grouped_dataset(rng, n=14, t=4, p=1)
        theta, alpha = gen["theta"], gen["alpha"]
        covs, weights = group_covariances(data, theta, alpha, truth)
        v = data.outcomes - data.covariates @ theta
        for g in (1, 2):
            members = np.nonzero(truth.labels == g)[0]
            expect = np.zeros((4, 4))
            for i in members:
                r = v[i] - alpha[g - 1]
                expect += np.outer(r, r)
            expect /= members.size
            np.testing.assert_allclose(covs[g - 1].values, expect, rtol=1e-12)
            assert weights[g - 1] == pytest.approx(members.size / 14)

    def test_soft_with_hard_rows_matches_hard(self, rng):
        data, truth, gen = make_grouped_dataset(rng, n=12, t=3, p=1)
        hard, w_hard = group_covariances(data, gen["theta"], gen["alpha"], truth)
        soft, w_soft = group_covariances(
            data, gen["theta"], gen["alpha"], SoftAssignment.from_hard(truth)
        )
        for a, b in zip(hard, soft):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12)
        np.testing.assert_allclose(w_hard, w_soft, rtol=1e-14)

    def test_law_of_large_numbers_diagonal(self):
        rng = np.random.default_rng(515)
        n, t = 4000, 3
        d = np.array([1.0, 2.0, 3.0])
        y = rng.standard_normal((n, t)) * np.sqrt(d)
        data = PanelDataset(y, np.zeros((n, t, 0)))
        covs, _ = group_covariances(
            data, np.zeros(0), np.zeros((1, t)), GroupAssignment(np.ones(n, int), 1)
        )
        assert np.abs(covs[0].values - np.diag(d)).max() < 0.35

    def test_zero_residuals_zero_matrix(self):
        alpha = np.array([[1.0, 2.0], [0.0, -1.0]])
        labels = [1, 1, 2, 2]
        y = alpha[np.array(labels) - 1]
        data = PanelDataset(y, np.zeros((4, 2, 0)))
        covs, _ = group_covariances(data, np.zeros(0), alpha, GroupAssignment(labels, 2))
        for c in covs:
            assert np.all(c.values == 0.0)
            assert not c.definite

    def test_empty_group_raises(self, rng):
        y = rng.standard_normal((3, 2))
        data = PanelDataset(y, np.zeros((3, 2, 0)))
        with pytest.raises(EmptyGroupError):
            group_covariances(
                data, np.zeros(0), np.zeros((2, 2)), GroupAssignment([1, 1, 1], 2)
            )
        soft = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EmptyGroupError):
            group_covariances(
                data, np.zeros(0), np.zeros((2, 2)), SoftAssignment(soft)
            )


class TestBarycenterFixedPoint:
    def test_identical_inputs_idempotent(self, rng):
        sigma = random_spd(rng, 3)
        out = barycenter_fixed_point([sigma, sigma, sigma], [0.2, 0.5, 0.3])
        np.testing.assert_allclose(out.values, sigma, rtol=1e-10)

    def test_scalar_closed_form(self):
        out = barycenter_fixed_point(
            [np.array([[1.0]]), np.array([[4.0]])], [0.5, 0.5]
        )
        assert out.values[0, 0] == pytest.approx(2.25, rel=1e-10)

    def test_commuting_closed_form(self, rng):
        diags = [np.diag([1.0, 4.0, 9.0]), np.diag([2.0, 1.0, 3.0])]
        weights = [0.3, 0.7]
        out = barycenter_fixed_point(diags, weights)
        expect = sum(w * np.sqrt(d) for w, d in zip(weights, diags)) ** 2
        np.testing.assert_allclose(out.values, expect, rtol=1e-10)

    def test_random_pair_matches_reference(self, rng):
        mats = [random_spd(rng, 4), random_spd(rng, 4, spread=2.0)]
        weights = [0.4, 0.6]
        out = barycenter_fixed_point(mats, weights)
        ref = reference_barycenter(mats, weights)
        np.testing.assert_allclose(out.values, ref, rtol=1e-9)
        root = np.real(dense_sqrtm(out.values))
        mean = sum(
            w * np.real(dense_sqrtm(root @ s @ root)) for w, s in zip(weights, mats)
        )
        resid = np.linalg.norm(out.values - mean) / np.linalg.norm(out.values)
        assert resid < 1e-10
        assert out.definite

    def test_rejects_degenerate_inputs(self, rng):
        good = random_spd(rng, 2)
        with pytest.raises(NonSpdError):
            barycenter_fixed_point([good, np.zeros((2, 2))], [0.5, 0.5])
        with pytest.raises(ValueError):
            barycenter_fixed_point([good], [0.7])
        with pytest.raises(ValueError):
            barycenter_fixed_point([good, good], [0.5])

    def test_cap_raises_nonconvergence(self, rng):
        # three inputs: a pair starts at its closed form and cannot stall
        mats = [random_spd(rng, 3), random_spd(rng, 3, spread=5.0), random_spd(rng, 3)]
        with pytest.raises(NonConvergenceError) as info:
            barycenter_fixed_point(mats, [0.25, 0.25, 0.5], max_iters=1)
        assert info.value.residual > 0

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 1e305, 1e307])
    def test_scaled_inputs_scale_the_result(self, rng, scale):
        a = random_spd(rng, 4)
        # three inputs, so the stall below runs from the identity
        mats = [
            4.0 * a / np.trace(a),
            np.diag([1.0, 2.0, 3.0, 4.0]),
            np.diag([4.0, 1.0, 3.0, 2.0]),
        ]
        weights = [0.25, 0.25, 0.5]
        scaled = [m * scale for m in mats]
        base = barycenter_fixed_point(mats, weights).values
        out = barycenter_fixed_point(scaled, weights).values
        np.testing.assert_allclose(
            out / scale, base, rtol=0, atol=1e-12 * np.abs(base).max()
        )
        stalls = []
        for inputs in (mats, scaled):
            with pytest.raises(NonConvergenceError) as info:
                barycenter_fixed_point(inputs, weights, max_iters=2)
            stalls.append(info.value.last_iterate)
        np.testing.assert_allclose(
            stalls[1] / scale, stalls[0], rtol=0, atol=1e-12 * np.abs(stalls[0]).max()
        )

    def test_inputs_whose_traces_overflow(self):
        # the traces 4e308 and 4e307 are past the float range; the entries are not
        out = barycenter_fixed_point([1e308 * np.eye(4), 1e307 * np.eye(4)], [0.5, 0.5])
        expect = (0.5 * np.sqrt(1e308) + 0.5 * np.sqrt(1e307)) ** 2
        np.testing.assert_allclose(np.diag(out.values), expect, rtol=1e-12)

    def test_power_of_four_scales_are_exact(self, rng):
        mats = [random_spd(rng, 5), random_spd(rng, 5, spread=3.0)]
        base = barycenter_fixed_point(mats, [0.3, 0.7]).values
        out = barycenter_fixed_point([m * 4.0**100 for m in mats], [0.3, 0.7]).values
        assert np.array_equal(out, base * 4.0**100)


class TestPairStart:
    """Two live inputs start at their closed-form barycenter."""

    @pytest.mark.parametrize(
        "weights", [[0.4, 0.6], [0.4, 0.6, 0.0], [0.4, 0.6 + 5e-9]],
        ids=["pair", "third-at-zero-weight", "sum-above-one"],
    )
    def test_ends_at_its_first_pass(self, rng, weights):
        mats = [random_spd(rng, 4), random_spd(rng, 4, spread=2.0), random_spd(rng, 4)]
        mats = mats[: len(weights)]
        out = barycenter_fixed_point(mats, weights, max_iters=1).values
        live = [(w, m) for w, m in zip(weights, mats) if w > 0]
        ref = reference_barycenter([m for _, m in live], [w for w, _ in live])
        np.testing.assert_allclose(out, ref, rtol=1e-9)
        root = np.real(dense_sqrtm(out))
        mean = sum(w * np.real(dense_sqrtm(root @ s @ root)) for w, s in live)
        assert np.linalg.norm(out - mean) / np.linalg.norm(out) < 1e-10

    @pytest.mark.parametrize("t", [3, 7])
    def test_a_floored_input_reaches_the_identity_starts_answer(
        self, rng, monkeypatch, t
    ):
        # clamped eigenvalues of R B R spoil the closed form; the loop still
        # ends where the identity start ends
        v = rng.standard_normal((t, 2))
        mats = [random_spd(rng, t), v @ v.T]
        assert not np.all(np.linalg.eigvalsh(mats[1]) > 1e-12)
        for weights in ([0.4, 0.6], [0.7, 0.3]):
            out = barycenter_fixed_point(mats, weights).values
            with monkeypatch.context() as m:
                m.setattr(ggfe, "_geodesic_point", lambda covs, *a: np.eye(t))
                ident = barycenter_fixed_point(mats, weights).values
            np.testing.assert_allclose(
                out, ident, rtol=0, atol=1e-9 * np.abs(ident).max()
            )


class TestCovarianceDerivatives:
    @pytest.mark.parametrize("t", [3, 12, 24])
    def test_transport_maps_are_the_trace_derivative(self, rng, t):
        mats = [random_spd(rng, t), random_spd(rng, t, spread=2.0), random_spd(rng, t)]
        weights = np.array([0.2, 0.5, 0.3])
        covs = tuple(SpdMatrix(m) for m in mats)
        omega = barycenter_fixed_point(covs, weights)
        maps, consts = ggfe._covariance_derivatives(ggfe._barycenter(covs, weights)[1])
        for g, t_g in enumerate(maps):
            assert np.array_equal(t_g, t_g.T)
            inner = np.sum(t_g * covs[g].clamped())
            assert abs(consts[g] - inner) <= 1e-12 * abs(inner)
            np.testing.assert_allclose(
                t_g @ mats[g] @ t_g, omega.values,
                rtol=0, atol=1e-9 * np.abs(omega.values).max(),
            )
            e = rng.standard_normal((t, t))
            e = (e + e.T) / 2
            step = 1e-4 * np.linalg.norm(mats[g]) / np.linalg.norm(e)
            values = []
            for sign in (1.0, -1.0):
                moved = list(mats)
                moved[g] = mats[g] + sign * step * e
                values.append(barycenter_fixed_point(moved, weights, tol=1e-14).trace)
            fd = (values[0] - values[1]) / (2 * step)
            # relative to the derivative's norm: a direction nearly orthogonal
            # to t_g has a small directional derivative
            norm = weights[g] * np.linalg.norm(t_g) * np.linalg.norm(e)
            assert abs(weights[g] * np.sum(t_g * e) - fd) <= 1e-6 * norm


class TestGgfeObjective:
    def test_zero_residuals_zero_value(self):
        alpha = np.array([[1.0, -1.0], [2.0, 0.5]])
        labels = [1, 2, 1, 2]
        y = alpha[np.array(labels) - 1]
        data = PanelDataset(y, np.zeros((4, 2, 0)))
        value = ggfe_objective(data, np.zeros(0), alpha, GroupAssignment(labels, 2))
        assert value == 0.0

    def test_mixed_degenerate_group_raises(self, rng):
        alpha = np.zeros((2, 2))
        y = np.vstack([np.zeros((2, 2)), rng.standard_normal((3, 2))])
        labels = [1, 1, 2, 2, 2]
        data = PanelDataset(y, np.zeros((5, 2, 0)))
        with pytest.raises(NonSpdError):
            ggfe_objective(data, np.zeros(0), alpha, GroupAssignment(labels, 2))

    def test_composition(self, rng):
        data, truth, gen = make_grouped_dataset(rng, n=12, t=3, p=1)
        covs, weights = group_covariances(data, gen["theta"], gen["alpha"], truth)
        value = ggfe_objective(data, gen["theta"], gen["alpha"], truth)
        assert value == pytest.approx(
            barycenter_fixed_point(covs, weights).trace, rel=1e-12
        )

    def test_spherical_equal_scales_reduces_to_pooled_criterion(self):
        data, alpha, gamma = basis_profile_dataset([1.3, 1.3])
        value = ggfe_objective(data, np.zeros(0), alpha, gamma)
        pooled = gfe_objective(data, np.zeros(0), alpha, gamma).value
        assert value == pytest.approx(data.n_periods * pooled, rel=1e-10)
        assert value == pytest.approx(1.3**2, rel=1e-10)

    def test_spherical_scales_square_the_weighted_criterion(self):
        data, alpha, gamma = basis_profile_dataset([0.8, 2.0])
        value = ggfe_objective(data, np.zeros(0), alpha, gamma)
        weighted = wgfe_objective(data, np.zeros(0), alpha, gamma).value
        assert value == pytest.approx(data.n_periods * weighted**2, rel=1e-10)


def soft_value(data, theta, alpha, weights_matrix):
    covs, w = group_covariances(data, theta, alpha, SoftAssignment(weights_matrix))
    return barycenter_fixed_point(covs, w, tol=1e-13).trace


def projected(grad, membership):
    return grad - (membership * grad).sum(axis=1, keepdims=True)


class TestAssignmentGradient:
    def _instance(self, seed, n=6, t=3, g=2, p=1):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, t, p))
        y = rng.standard_normal((n, t)) + x[:, :, 0]
        data = PanelDataset(y, x)
        theta = np.array([0.9])
        alpha = rng.standard_normal((g, t))
        membership = rng.dirichlet(np.ones(g), size=n)
        return data, theta, alpha, membership

    def test_scalar_closed_form(self, rng):
        n = 5
        y = rng.standard_normal((n, 1))
        data = PanelDataset(y, np.zeros((n, 1, 0)))
        alpha = np.array([[0.3], [-0.6]])
        membership = rng.dirichlet(np.ones(2), size=n)
        grad = assignment_gradient(data, np.zeros(0), alpha, SoftAssignment(membership))
        covs, w = group_covariances(
            data, np.zeros(0), alpha, SoftAssignment(membership)
        )
        scales = np.array([c.values[0, 0] for c in covs])
        omega = float(w @ np.sqrt(scales)) ** 2
        rho = (y[:, 0][:, None] - alpha[:, 0][None, :]) ** 2
        expect = (
            np.sqrt(omega * scales)[None, :] + rho * np.sqrt(omega / scales)[None, :]
        ) / n
        np.testing.assert_allclose(grad, expect, rtol=1e-10)

    def test_matches_envelope_form(self):
        # the barycenter optimal-value identity gives the same projected
        # gradient through tr(A_g^{1/2}) in place of <t_g, S_g>
        for seed in (1, 2, 3):
            data, theta, alpha, membership = self._instance(seed)
            soft = SoftAssignment(membership)
            grad = assignment_gradient(data, theta, alpha, soft)
            covs, w = group_covariances(data, theta, alpha, soft)
            omega = barycenter_fixed_point(covs, w, tol=1e-13)
            root = np.real(dense_sqrtm(omega.values))
            v = data.outcomes - data.covariates @ theta
            env = np.zeros_like(grad)
            for g in range(soft.n_groups):
                a_g = root @ covs[g].values @ root
                evals, evecs = np.linalg.eigh((a_g + a_g.T) / 2)
                half = (evecs * np.sqrt(evals)) @ evecs.T
                ihalf = root @ ((evecs / np.sqrt(evals)) @ evecs.T) @ root
                r = v - alpha[g]
                env[:, g] = (
                    np.trace(half)
                    - omega.trace
                    + np.einsum("it,ts,is->i", r, ihalf, r)
                ) / data.n_units
            np.testing.assert_allclose(
                projected(grad, membership),
                projected(env, membership),
                rtol=1e-8,
                atol=1e-12,
            )

    def test_matches_finite_differences(self):
        # central differences along renormalized rows estimate the
        # on-simplex directional derivative, which is the projected gradient
        step = 1e-5
        for seed in (5, 6, 7):
            data, theta, alpha, membership = self._instance(seed)
            grad = assignment_gradient(
                data, theta, alpha, SoftAssignment(membership)
            )
            proj = projected(grad, membership)
            fd = np.zeros_like(proj)
            for i in range(data.n_units):
                for g in range(proj.shape[1]):
                    up = membership.copy()
                    up[i, g] += step
                    up[i] /= up[i].sum()
                    down = membership.copy()
                    down[i, g] -= step
                    down[i] /= down[i].sum()
                    fd[i, g] = (
                        soft_value(data, theta, alpha, up)
                        - soft_value(data, theta, alpha, down)
                    ) / (2 * step)
            assert np.linalg.norm(fd - proj) / np.linalg.norm(proj) < 1e-5

    def test_identical_units_identical_rows(self, rng):
        y = rng.standard_normal((5, 3))
        y[1] = y[0]
        x = rng.standard_normal((5, 3, 1))
        x[1] = x[0]
        data = PanelDataset(y, x)
        alpha = rng.standard_normal((2, 3))
        membership = np.full((5, 2), 0.5)
        grad = assignment_gradient(
            data, np.array([0.4]), alpha, SoftAssignment(membership)
        )
        np.testing.assert_array_equal(grad[0], grad[1])

    def test_single_group_is_flat_on_the_simplex(self, rng):
        y = rng.standard_normal((6, 3))
        data = PanelDataset(y, np.zeros((6, 3, 0)))
        alpha = y.mean(axis=0, keepdims=True)
        membership = np.ones((6, 1))
        grad = assignment_gradient(data, np.zeros(0), alpha, SoftAssignment(membership))
        np.testing.assert_allclose(projected(grad, membership), 0.0, atol=1e-12)
        up = membership.copy()
        up[0, 0] += 1e-5
        up[0] /= up[0].sum()
        assert soft_value(data, np.zeros(0), alpha, up) == pytest.approx(
            soft_value(data, np.zeros(0), alpha, membership), rel=1e-12
        )

    def test_rank_deficient_group_raises(self, rng):
        y = rng.standard_normal((5, 3))
        data = PanelDataset(y, np.zeros((5, 3, 0)))
        alpha = np.vstack([np.zeros(3), y[1:].mean(axis=0)])
        gamma = GroupAssignment([1, 2, 2, 2, 2], 2)
        with pytest.raises(IllConditionedError):
            assignment_gradient(
                data, np.zeros(0), alpha, SoftAssignment.from_hard(gamma)
            )

    def test_requires_soft_assignment(self, rng):
        y = rng.standard_normal((4, 2))
        data = PanelDataset(y, np.zeros((4, 2, 0)))
        with pytest.raises(TypeError):
            assignment_gradient(
                data, np.zeros(0), np.zeros((2, 2)), GroupAssignment([1, 1, 2, 2], 2)
            )


class TestGgfeDescent:
    def test_noiseless_exact_recovery(self, rng):
        n, t = 12, 3
        alpha = np.array([[0.0, 1.0, -1.0], [6.0, 7.0, 5.0]])
        labels = np.repeat([1, 2], n // 2)
        x = rng.standard_normal((n, t, 1))
        y = x[:, :, 0] * 0.8 + alpha[labels - 1]
        data = PanelDataset(y, x)
        res = ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=1))
        assert res.converged
        assert res.objective < 1e-12
        assert np.array_equal(canon(res.assignment.labels), canon(labels))
        assert res.params.theta[0] == pytest.approx(0.8, abs=1e-8)

    def test_agrees_with_plain_grouping_under_spherical_noise(self):
        # iid errors make every group covariance spherical in expectation,
        # where the covariance criterion and the pooled one coincide
        matches = 0
        for seed in range(20):
            r = np.random.default_rng(seed)
            n, t = 24, 3
            alpha = np.array([[0.0, 2.0, -2.0], [8.0, 10.0, 7.0]])
            labels = r.integers(1, 3, size=n)
            x = r.standard_normal((n, t, 1))
            y = x[:, :, 0] + alpha[labels - 1] + 0.5 * r.standard_normal((n, t))
            data = PanelDataset(y, x)
            res = ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=seed))
            cfg = SolverConfig(mode="gfe", n_groups=2, seed=seed)
            base = lloyd(data, cfg, initialize(data, cfg, np.random.default_rng(seed)))
            matches += np.array_equal(
                canon(res.assignment.labels), canon(base.assignment.labels)
            )
        assert matches >= 18

    def test_descent_audit(self):
        for seed in range(12):
            r = np.random.default_rng(100 + seed)
            n, t, g = 15, 3, 2
            alpha = 3.0 * r.standard_normal((g, t))
            labels = r.integers(1, g + 1, size=n)
            x = r.standard_normal((n, t, 1))
            scales = np.array([0.3, 1.2])
            y = (
                x[:, :, 0] * 0.7
                + alpha[labels - 1]
                + scales[labels - 1][:, None] * r.standard_normal((n, t))
            )
            data = PanelDataset(y, x)
            res = ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=g, seed=seed))
            trace = np.array(res.trace)
            assert np.all(
                np.diff(trace) <= 1e-8 * (1.0 + np.abs(trace[:-1]))
            )
            assert res.converged
            assert res.mode == "ggfe"
            assert res.objective == res.breakdown.value
            q = group_ssr(data, res.params.theta, res.params.alpha, res.assignment)
            np.testing.assert_allclose(res.breakdown.per_group_ssr, q, rtol=1e-12)
            np.testing.assert_allclose(
                res.params.sigma, np.maximum(np.sqrt(q), 1e-30), rtol=1e-12
            )
            np.testing.assert_allclose(
                res.params.alpha,
                update_alpha(data, res.params.theta, res.assignment),
                rtol=0,
                atol=1e-12,
            )

    def test_gradient_failure_at_a_regular_grouping_propagates(self, rng, monkeypatch):
        # only a group fitted exactly (zero covariance) ends the descent quietly
        data, _, _ = make_grouped_dataset(rng, n=20, t=3, p=1)

        def broken_gradient(*args, **kwargs):
            raise NonSpdError("matrix entries must be finite")

        monkeypatch.setattr(ggfe, "_membership_derivatives", broken_gradient)
        with pytest.raises(NonSpdError):
            ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=1))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_step_derivative_is_the_public_gradient(self, p):
        # the descent differentiates at the refit's own barycenter and hard
        # covariances; the public gradient recomputes both through the soft
        # branch at the same slopes, effects and grouping.  Seed 0 is left
        # out: at p = 2 it ends with a group of T units, whose covariance is
        # singular, and the two paths then agree only to 3.8e-8
        for seed in (1, 2, 3):
            data, _, _ = heteroskedastic_panel(seed, p=p)
            res = ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=seed))
            theta, alpha, gamma = res.params.theta, res.params.alpha, res.assignment
            assert gamma.counts().min() > data.n_periods
            state = ggfe._criterion_at(data, theta, alpha, gamma)
            assert state[0] == res.objective
            step = ggfe._membership_derivatives(data, theta, alpha, *state[1:])
            public = assignment_gradient(
                data, theta, alpha, SoftAssignment.from_hard(gamma)
            )
            np.testing.assert_allclose(step, public, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(
                np.argmin(step, axis=1), np.argmin(public, axis=1)
            )

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_step_derivative_matches_a_per_unit_loop(self, p):
        # entry (i, g) is (r_ig' t_g r_ig + <t_g, S_g>) / N, with r_ig unit
        # i's residual against group g's effects, t_g the transport map and
        # S_g the group covariance, each summed here one unit at a time
        for seed in (1, 2, 3):
            data, _, _ = heteroskedastic_panel(seed, p=p, n=90)
            res = ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=seed))
            theta, alpha, gamma = res.params.theta, res.params.alpha, res.assignment
            assert gamma.counts().min() > data.n_periods
            factors = ggfe._criterion_at(data, theta, alpha, gamma)[1]
            maps = ggfe._covariance_derivatives(factors)[0]
            covs = group_covariances(data, theta, alpha, gamma)[0]
            v = data.outcomes - data.covariates @ theta
            n = data.n_units
            loop = np.empty((n, 2))
            for g, (t_g, s_g) in enumerate(zip(maps, covs)):
                inner = float(np.sum(t_g * s_g.values))
                for i in range(n):
                    r = v[i] - alpha[g]
                    loop[i, g] = (r @ t_g @ r + inner) / n
            step = ggfe._membership_derivatives(data, theta, alpha, factors)
            np.testing.assert_allclose(step, loop, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(np.argmin(step, axis=1), np.argmin(loop, axis=1))

    def test_rejects_other_modes(self, rng):
        data, _, _ = make_grouped_dataset(rng, n=10, t=3, p=1)
        with pytest.raises(ValueError):
            ggfe_descent(data, SolverConfig(mode="wgfe", n_groups=2))

    def test_answers_are_stable_under_last_digit_perturbations(self):
        # a refit stopped by an evaluation budget moved theta by 1.5e-4 here
        r = np.random.default_rng(2)
        data, _, _ = make_grouped_dataset(
            r, n=80, t=4, p=2, theta=[0.5, -0.3], sigma=[0.4, 1.2]
        )
        cfg = SolverConfig(mode="ggfe", n_groups=2, seed=2)
        res = ggfe_descent(data, cfg)
        nudged = PanelDataset(data.outcomes * (1.0 + 2.0**-50), data.covariates)
        other = ggfe_descent(nudged, cfg)
        assert np.array_equal(res.assignment.labels, other.assignment.labels)
        assert np.abs(res.params.theta - other.params.theta).max() <= 1e-7
        assert abs(res.objective - other.objective) <= 1e-12 * res.objective

    def test_a_stop_at_an_ill_conditioned_derivative_is_not_convergence(self):
        # the paper's two-group dynamic design at N=60: the start leaves
        # group 2 with 6 < T members, so the first round's derivative raises
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
        data = generate(spec, np.random.default_rng(4).spawn(1)[0])[0]
        res = ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=4))
        assert res.n_lloyd_iters == 1
        assert res.assignment.counts().tolist() == [54, 6]
        theta, alpha = res.params.theta, res.params.alpha
        state = ggfe._criterion_at(data, theta, alpha, res.assignment)
        assert state[0] == res.objective > 0.0
        with pytest.raises(IllConditionedError):
            ggfe._covariance_derivatives(state[1])
        assert not res.converged

    def test_identical_pair_at_the_start_raises(self):
        # the start isolates two units with one residual path: a zero
        # covariance beside a nonzero one has no criterion value
        data = identical_pair_panel()
        with pytest.raises(NonSpdError):
            ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=3))

    def test_identical_pair_after_a_step_rolls_back(self, monkeypatch):
        # the start with seed 0 mixes the pair with other units; the step
        # then isolates it
        data = identical_pair_panel()
        cfg = SolverConfig(mode="ggfe", n_groups=2, seed=0)

        def isolate_pair(data, theta, alpha, *state):
            grad = np.zeros((data.n_units, 2))
            grad[:2, 0] = grad[2:, 1] = 1.0
            return grad

        monkeypatch.setattr(ggfe, "_membership_derivatives", isolate_pair)
        res = ggfe_descent(data, cfg)
        assert res.n_lloyd_iters == 2 and len(res.trace) == 1
        assert res.assignment.counts().min() > 2
        assert res.objective == ggfe_objective(
            data, res.params.theta, res.params.alpha, res.assignment
        )


def identical_pair_panel():
    """Two noisy groups plus units 0 and 1 sharing one residual path far away."""
    r = np.random.default_rng(5)
    n, t = 16, 3
    labels = np.repeat([1, 2], n // 2)
    alpha = np.array([[0.0, 1.0, -1.0], [6.0, 7.0, 5.0]])
    x = r.standard_normal((n, t, 1))
    y = 0.8 * x[:, :, 0] + alpha[labels - 1] + 0.5 * r.standard_normal((n, t))
    x[1], y[1] = x[0], y[0] + 40.0
    y[0] += 40.0
    return PanelDataset(y, x)


def refit(data, gamma):
    """The descent's slope refit at a fixed grouping, from the pooled slopes."""
    kernel = _Kernel(data, SolverConfig(mode="ggfe", n_groups=gamma.n_groups))
    theta, alpha, state = ggfe._inner_update(data, gamma, kernel, theta_seed=None)
    return theta, alpha, state[0]


def paper_panel(n, seed):
    """The first replication's panel of ``wgfe simulate --seed seed`` at N = n.

    The design is the paper's two-group dynamic one (T = 7, p = 2).
    """
    t = 7
    base = np.linspace(0.0, 0.3, t)
    spec = SimulationSpec(
        n_units=n,
        n_periods=t,
        n_groups=2,
        theta_true=[0.554, 0.062],
        alpha_true=np.vstack([base, base + 0.25]),
        sigma_true=[0.219, 0.086],
        group_probs=[0.64, 0.36],
        covariate_law=AR1Covariates(rho=0.9, innovation_sd=0.5),
        dynamic=True,
    )
    return generate(spec, np.random.default_rng(seed).spawn(1)[0])[0]


def heteroskedastic_panel(seed, p, n=60, t=4):
    r = np.random.default_rng(seed)
    return make_grouped_dataset(
        r, n=n, t=t, p=p, theta=np.linspace(0.5, -0.3, p), sigma=[0.4, 1.2]
    )


class TestSlopeRefit:
    def test_values_never_rise(self, monkeypatch):
        values = []
        criterion_at = ggfe._criterion_at

        def recorded(*args):
            out = criterion_at(*args)
            values.append(out[0])
            return out

        monkeypatch.setattr(ggfe, "_criterion_at", recorded)
        for seed in range(4):
            data, truth, _ = heteroskedastic_panel(seed, p=2)
            values.clear()
            value = refit(data, truth)[2]
            assert len(values) >= 3
            steps = np.diff(values)
            assert np.all(steps <= 1e-12 * np.abs(values[:-1]))
            assert value <= min(values) * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_an_uncapped_powell_search(self, p):
        from scipy.optimize import minimize

        for seed in range(3):
            data, truth, _ = heteroskedastic_panel(seed, p=p)
            theta, alpha, value = refit(data, truth)
            means = within_group_means(data, truth)

            def crit(th):
                return ggfe_objective(
                    data, th, means.outcomes - means.covariates @ th, truth
                )

            options = {"xtol": 1e-10, "ftol": 1e-15}
            ref = minimize(crit, np.zeros(p), method="Powell", options=options)
            assert ref.success
            assert abs(value - ref.fun) <= 1e-10 * ref.fun
            assert value == crit(theta)
            np.testing.assert_allclose(
                alpha, update_alpha(data, theta, truth), rtol=0, atol=1e-12
            )

    def test_no_slopes_take_no_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a refit without slopes took a step")

        monkeypatch.setattr(ggfe, "_covariance_derivatives", no_step)
        data, truth, _ = heteroskedastic_panel(0, p=0)
        theta, alpha, value = refit(data, truth)
        assert theta.shape == (0,)
        means = within_group_means(data, truth)
        np.testing.assert_array_equal(alpha, means.outcomes)
        assert value == ggfe_objective(data, theta, alpha, truth)

    @pytest.mark.parametrize("failure", ["rise", "no_value"])
    def test_a_rejected_secant_point_falls_back_to_the_mm_step(self, failure, monkeypatch):
        # every slope vector the refit evaluates is the start, a GLS solve
        # (the MM step) or a secant point; each secant point is made to rise
        # or to have no criterion value, so the refit walks the MM path
        solved, values, secants = [], [], []
        solve, criterion_at = np.linalg.solve, ggfe._criterion_at

        def recorded_solve(*args):
            solved.append(solve(*args))
            return solved[-1]

        def spoiled(data, theta, alpha, gamma):
            out = criterion_at(data, theta, alpha, gamma)
            if values and not any(np.array_equal(theta, s) for s in solved):
                secants.append(theta)
                if failure == "rise":
                    return 2.0 * out[0], out[1]
                raise NonSpdError("matrix has negative eigenvalue -1.000e-03")
            values.append(out[0])
            return out

        panels = [heteroskedastic_panel(seed, p=2)[:2] for seed in range(4)]
        extrapolated = [refit(data, truth)[2] for data, truth in panels]
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        monkeypatch.setattr(ggfe, "_criterion_at", spoiled)
        for (data, truth), expected in zip(panels, extrapolated):
            for record in (solved, values, secants):
                record.clear()
            theta, _, value = refit(data, truth)
            assert secants and len(values) >= 3
            assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))
            assert value <= min(values) * (1.0 + 1e-12)
            assert any(np.array_equal(theta, s) for s in solved)
            assert abs(value - expected) <= 1e-10 * expected

    def test_criterion_evaluations_per_round_on_the_paper_design(self, monkeypatch):
        # the secant step and the stop before a confirming step: the plain
        # MM iteration took 5.94 evaluations per round on these panels; and
        # every round starts from its own kernel fit
        calls = {"criterion": 0, "refit": 0, "fit": 0}
        criterion_at, inner_update, fit = ggfe._criterion_at, ggfe._inner_update, _Kernel.fit

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ggfe, "_criterion_at", counted("criterion", criterion_at))
        monkeypatch.setattr(ggfe, "_inner_update", counted("refit", inner_update))
        monkeypatch.setattr(_Kernel, "fit", counted("fit", fit))
        rounds = 0
        for s in range(16):
            data = paper_panel(1000, 100 + s)
            rounds += ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=s)).n_lloyd_iters
        assert calls["refit"] == calls["fit"] == rounds
        assert calls["criterion"] / calls["refit"] <= 4.0

    def test_a_rank_deficient_grouping_after_the_first_round_raises(self, monkeypatch):
        # the second round's grouping, by half, lets the group effects absorb
        # the covariate; that round's kernel fit reports it
        data, halves = cell_constant_panel(separation=0.0)
        groupings = []
        inner_update = ggfe._inner_update

        def recorded(data, gamma, *args, **kwargs):
            groupings.append(gamma)
            return inner_update(data, gamma, *args, **kwargs)

        def to_halves(data, theta, alpha, *state):
            return np.eye(2)[2 - halves.labels]

        monkeypatch.setattr(ggfe, "_inner_update", recorded)
        monkeypatch.setattr(ggfe, "_membership_derivatives", to_halves)
        with pytest.raises(SingularDesignError):
            ggfe_descent(data, SolverConfig(mode="ggfe", n_groups=2, seed=0))
        assert len(groupings) == 2
        assert not groupings[0].same_as(halves) and groupings[1].same_as(halves)
