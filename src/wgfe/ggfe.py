"""Full-covariance grouped heteroskedasticity: barycenter criterion and descent.

The scale-weighted estimator treats within-group dispersion as a scalar.
This module generalizes it: each group carries a dense T-by-T residual
covariance, the criterion is the trace of the Bures-Wasserstein barycenter
of those covariances, units are reassigned along the criterion's exact
assignment derivative, and slopes and effects are refitted numerically.

Gradients build T^2-by-T^2 Kronecker operators, so they are meant for
short panels (T up to about 16).
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (
    EmptyGroupError,
    IllConditionedError,
    NonConvergenceError,
    NonSpdError,
)
from .model import (
    GroupAssignment,
    PanelDataset,
    _clamped_sigma,
    _profile_distances,
    group_ssr,
    residual_profiles,
    sigma_floor,
)
from .solvers import (
    EstimationResult,
    SolverConfig,
    _build_result,
    _fit_raw,
    _repair_empty,
    initialize,
)

EPS_EIG = 1e-10
"""Relative eigenvalue floor (times trace/T) for matrix square roots."""

INNER_EVAL_BUDGET = 50
"""Criterion evaluations allowed per slope-and-effect refit in the descent."""


def _sym(a):
    return (a + a.T) / 2.0


def _eig_floor(a):
    """Eigenvalue clamp ``EPS_EIG * trace / dim`` of a symmetric matrix."""
    return EPS_EIG * max(float(np.trace(a)), 0.0) / a.shape[0]


def _eig_rebuild(evecs, lam):
    """The symmetric matrix ``U diag(lam) U'`` for eigenvectors ``U``."""
    return _sym((evecs * lam) @ evecs.T)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A symmetric positive semidefinite matrix with a cached spectrum.

    Construction checks symmetry (to 1e-12 on the entry scale) and
    near-positivity (eigenvalues above -1e-10 times the trace).  Square
    roots clamp eigenvalues at ``EPS_EIG * trace / dim``, so rank-deficient
    covariances from small groups stay usable; a matrix with zero trace has
    no usable root and reports itself as not definite.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSpdError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonSpdError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.T).max()) > 1e-12 * scale:
            raise NonSpdError("matrix is not symmetric")
        arr = _sym(arr)
        trace = float(np.trace(arr))
        if trace < -1e-12 * scale:
            raise NonSpdError(f"matrix has negative trace {trace:.3e}")
        evals, evecs = np.linalg.eigh(arr)
        if evals[0] < -EPS_EIG * max(trace, 1e-12 * scale):
            raise NonSpdError(f"matrix has negative eigenvalue {evals[0]:.3e}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))

    @property
    def eps_eig(self) -> float:
        return _eig_floor(self.values)

    @property
    def definite(self) -> bool:
        """Whether eigenvalue clamping yields a strictly positive matrix."""
        return self.trace > 0.0

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._evals.copy()

    def clamped_eigenvalues(self) -> np.ndarray:
        return np.maximum(self._evals, self.eps_eig)

    def clamped(self) -> np.ndarray:
        """The matrix with eigenvalues floored at ``eps_eig``."""
        return _eig_rebuild(self._evecs, self.clamped_eigenvalues())

    def sqrt(self) -> np.ndarray:
        if not self.definite:
            raise NonSpdError("matrix with nonpositive trace has no usable root")
        return _eig_rebuild(self._evecs, np.sqrt(self.clamped_eigenvalues()))

    def inv_sqrt(self) -> np.ndarray:
        if not self.definite:
            raise NonSpdError("matrix with nonpositive trace has no usable root")
        return _eig_rebuild(self._evecs, 1.0 / np.sqrt(self.clamped_eigenvalues()))


@dataclass(frozen=True, eq=False)
class SoftAssignment:
    """Row-stochastic membership weights, one row per unit.

    Hard groupings are the 0/1 special case; :meth:`from_hard` embeds a
    :class:`~wgfe.model.GroupAssignment`.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 2:
            raise ValueError("membership weights must be a 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("membership weights must be finite")
        if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
            raise ValueError("membership weights must lie in [0, 1]")
        if np.abs(arr.sum(axis=1) - 1.0).max() > 1e-8:
            raise ValueError("membership rows must sum to one")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @classmethod
    def from_hard(cls, assignment: GroupAssignment) -> "SoftAssignment":
        rows = np.zeros((assignment.labels.shape[0], assignment.n_groups))
        rows[np.arange(assignment.labels.shape[0]), assignment.labels - 1] = 1.0
        return cls(rows)

    @property
    def n_units(self) -> int:
        return self.weights.shape[0]

    @property
    def n_groups(self) -> int:
        return self.weights.shape[1]

    def group_weights(self) -> np.ndarray:
        """Average membership per group (the group mass function)."""
        return self.weights.mean(axis=0)


def group_covariances(data, theta, alpha, assignment):
    """Per-group residual covariances and group masses.

    For a hard assignment, group g averages the outer products of the
    member residual profiles against its own effect row.  For a soft
    assignment the average is membership-weighted and every unit's residual
    is taken against the target group's row.  Returns ``(covariances,
    weights)`` where covariances is a tuple of :class:`SpdMatrix`.
    """
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (assignment.n_groups, data.n_periods):
        raise ValueError("alpha shape does not match assignment/data")
    v = residual_profiles(data, theta)
    n, g = v.shape[0], assignment.n_groups
    if isinstance(assignment, SoftAssignment):
        if assignment.n_units != n:
            raise ValueError("soft assignment row count does not match data")
        mass = assignment.weights.sum(axis=0)
        empty = np.nonzero(mass <= 0.0)[0]
        if empty.size:
            raise EmptyGroupError(empty + 1)
        covs = []
        for k in range(g):
            r = v - alpha[k]
            sig = np.einsum("i,it,is->ts", assignment.weights[:, k], r, r)
            covs.append(SpdMatrix(_sym(sig / mass[k])))
        return tuple(covs), mass / n
    counts = assignment.counts()
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        raise EmptyGroupError(empty + 1)
    covs = []
    for k in range(g):
        r = v[assignment.labels == k + 1] - alpha[k]
        covs.append(SpdMatrix(_sym(r.T @ r / counts[k])))
    return tuple(covs), counts / n


def _sqrtm_psd(a):
    """Principal square root with the relative eigenvalue floor."""
    a = _sym(a)
    evals, evecs = np.linalg.eigh(a)
    return _eig_rebuild(evecs, np.sqrt(np.maximum(evals, _eig_floor(a))))


def barycenter_fixed_point(covariances, weights, *, tol=1e-11, max_iters=500):
    """Bures-Wasserstein barycenter of SPD matrices by fixed-point iteration.

    Iterates ``O <- O^{-1/2} (sum_g w_g (O^{1/2} S_g O^{1/2})^{1/2})^2
    O^{-1/2}`` from the identity and stops when the fixed-point residual
    ``||O - sum_g w_g (O^{1/2} S_g O^{1/2})^{1/2}||_F / ||O||_F`` drops
    below ``tol``.  Inputs are eigenvalue-clamped first; a matrix with
    nonpositive trace cannot be clamped into SPD and raises ``NonSpdError``.
    """
    covs = [c if isinstance(c, SpdMatrix) else SpdMatrix(c) for c in covariances]
    if not covs:
        raise ValueError("need at least one covariance")
    t = covs[0].dim
    if any(c.dim != t for c in covs):
        raise ValueError("covariances must share one dimension")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(covs),):
        raise ValueError("weights length must match the number of covariances")
    if weights.min() < -1e-9 or abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("weights must form a probability vector")
    bad = [k + 1 for k, c in enumerate(covs) if not c.definite]
    if bad:
        raise NonSpdError(f"covariances {bad} have nonpositive trace")
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")
    sigs = [c.clamped() for c in covs]
    omega = np.eye(t)
    residual = np.inf
    for _ in range(max_iters):
        root = _sqrtm_psd(omega)
        mean_root = np.zeros((t, t))
        for w, sig in zip(weights, sigs):
            if w > 0.0:
                mean_root += w * _sqrtm_psd(root @ sig @ root)
        residual = np.linalg.norm(omega - mean_root) / np.linalg.norm(omega)
        if residual < tol:
            return SpdMatrix(_sym(omega))
        inv_root = SpdMatrix(_sym(omega)).inv_sqrt()
        omega = _sym(inv_root @ mean_root @ mean_root @ inv_root)
    raise NonConvergenceError(
        f"barycenter iteration stalled (relative residual {residual:.3e})",
        last_iterate=omega,
        residual=residual,
    )


def ggfe_objective(data, theta, alpha, assignment) -> float:
    """Trace of the barycenter of the group residual covariances.

    Identically zero residuals give zero covariances and a zero objective;
    a mix of zero and nonzero covariances is not solvable and propagates
    ``NonSpdError`` from the barycenter.
    """
    covs, weights = group_covariances(data, theta, alpha, assignment)
    if max(c.trace for c in covs) <= 0.0:
        return 0.0
    return barycenter_fixed_point(covs, weights).trace


def _pair_inverse(evecs, roots):
    """Inverse of the Sylvester operator X -> m X + X m, for m = U diag(roots) U'."""
    uu = np.kron(evecs, evecs)
    denom = np.add.outer(roots, roots).ravel()
    return (uu / denom) @ uu.T


def assignment_gradient(data, theta, alpha, soft: SoftAssignment) -> np.ndarray:
    """Exact partial derivatives of the criterion in the membership weights.

    Entry (i, g) is the derivative of the barycenter trace in unit i's
    weight on group g, holding the other raw weights fixed.  It contracts
    ``vec(I)' W_g vec(v_i v_i' + S_g)`` where ``W_g`` chains the resolvent
    of the barycenter fixed point with the square-root derivative of group
    g, all built from Kronecker products of eigendecompositions.  Rows on
    the simplex can be compared with renormalized finite differences after
    projecting out the within-row mean.
    """
    if not isinstance(soft, SoftAssignment):
        raise TypeError("assignment_gradient needs a SoftAssignment")
    covs, weights = group_covariances(data, theta, alpha, soft)
    omega = barycenter_fixed_point(covs, weights)
    t, n, g = omega.dim, data.n_units, soft.n_groups
    lam = np.sqrt(omega.clamped_eigenvalues())
    root = omega.sqrt()
    k_omega = _pair_inverse(omega._evecs, lam)
    eye = np.eye(t)
    sigs = [c.clamped() for c in covs]
    k_groups = []
    mixing = np.zeros((t * t, t * t))
    for h in range(g):
        a_h = _sym(root @ sigs[h] @ root)
        d, u = np.linalg.eigh(a_h)
        floor = _eig_floor(a_h)
        if d[0] < floor:
            raise IllConditionedError(
                f"group {h + 1}: covariance factor eigenvalue {d[0]:.3e} "
                f"is below the stability floor {floor:.3e}"
            )
        k_h = _pair_inverse(u, np.sqrt(d))
        k_groups.append(k_h)
        rs = root @ sigs[h]
        b_h = np.kron(rs, eye) + np.kron(eye, rs)
        mixing += weights[h] * (k_h @ b_h @ k_omega)
    lhs = np.eye(t * t) - mixing
    lead = np.linalg.solve(lhs.T, eye.ravel())
    big_root = np.kron(root, root)
    v = residual_profiles(data, theta)
    grad = np.empty((n, g))
    for k in range(g):
        t_k = _sym((big_root @ (k_groups[k] @ lead)).reshape(t, t, order="F"))
        r = v - np.asarray(alpha, dtype=float)[k]
        quad = np.einsum("it,ts,is->i", r, t_k, r)
        grad[:, k] = (quad + float((t_k * sigs[k]).sum())) / n
    return grad


def _guarded_objective(data, theta, alpha, gamma, strict):
    """Criterion value at a hard grouping, tolerant of degenerate groups.

    A group fitted exactly has a zero covariance; when every group is
    degenerate the criterion is zero.  In the lenient form used inside the
    numerical refit, isolated degenerate groups are floored to a small
    multiple of the identity and barycenter failures score as infinity, so
    the search can route around them.
    """
    covs, weights = group_covariances(data, theta, alpha, gamma)
    traces = [c.trace for c in covs]
    top = max(traces)
    if top <= 0.0:
        return 0.0
    if strict:
        return barycenter_fixed_point(covs, weights).trace
    t = covs[0].dim
    if min(traces) <= 0.0:
        floor = EPS_EIG * top / t
        covs = tuple(
            c if c.definite else SpdMatrix(floor * np.eye(t)) for c in covs
        )
    try:
        return barycenter_fixed_point(covs, weights).trace
    except (NonSpdError, NonConvergenceError):
        return np.inf


def _inner_update(data, gamma, config, theta_seed):
    """Refit slopes and effects at a fixed grouping.

    Seeds at the scale-weighted update for the grouping, then runs a
    derivative-free direction-set search (coordinate directions first)
    capped at ``INNER_EVAL_BUDGET`` criterion evaluations, keeping the
    better of seed and search.
    """
    try:
        theta0, alpha0, _, _, _ = _fit_raw(data, gamma, config, theta_seed=theta_seed)
    except NonConvergenceError as exc:
        theta0, alpha0, _ = exc.last_iterate
    p, t, g = data.n_covariates, data.n_periods, gamma.n_groups

    def crit(z):
        return _guarded_objective(
            data, z[:p], z[p:].reshape(g, t), gamma, strict=False
        )

    z0 = np.concatenate([theta0, alpha0.ravel()])
    f0 = crit(z0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = minimize(
            crit,
            z0,
            method="Powell",
            options={"maxfev": INNER_EVAL_BUDGET, "xtol": 1e-8, "ftol": 1e-10},
        )
    if np.isfinite(out.fun) and out.fun < f0:
        z, value = out.x, float(out.fun)
    else:
        z, value = z0, f0
    return z[:p], z[p:].reshape(g, t), value


def ggfe_descent(data: PanelDataset, config: SolverConfig) -> EstimationResult:
    """Estimate the full-covariance grouped model by alternating descent.

    Each round refits slopes and effects at the current grouping, then
    moves every unit to the group minimizing its exact assignment
    derivative, repairing emptied groups from the worst-scoring donors.
    Stops at an assignment fixed point or after ``max_lloyd_iters`` rounds.

    Two guarded stops keep the loop a descent: a round whose refit value
    rises above the incumbent is rolled back and treated as terminal (the
    derivative step is linearized, so it can overshoot), and a grouping
    whose covariances are too degenerate for a stable derivative (near-zero
    residuals, groups smaller than T) ends the search at the incumbent.
    ``trace`` records the refit value per round and is non-increasing.
    """
    if config.mode != "ggfe":
        raise ValueError(f"ggfe_descent needs mode 'ggfe', got {config.mode!r}")
    rng = np.random.default_rng(config.seed)
    init = initialize(data, config, rng)
    d2 = _profile_distances(data, init.theta, init.alpha)
    gamma = GroupAssignment(np.argmin(d2, axis=1) + 1, config.n_groups)
    gamma = _repair_empty(gamma, d2)
    theta = init.theta
    best = None
    trace = []
    converged = False
    n_iters = 0
    for it in range(config.max_lloyd_iters):
        n_iters = it + 1
        theta, alpha, value = _inner_update(data, gamma, config, theta_seed=theta)
        if not np.isfinite(value):
            value = _guarded_objective(data, theta, alpha, gamma, strict=True)
        if best is not None and value > best[3] + 1e-12 * (1.0 + abs(best[3])):
            theta, alpha, gamma, value = best
            converged = True
            break
        trace.append(value)
        best = (theta, alpha, gamma, value)
        try:
            grad = assignment_gradient(
                data, theta, alpha, SoftAssignment.from_hard(gamma)
            )
        except IllConditionedError:
            converged = True
            break
        gamma_next = GroupAssignment(np.argmin(grad, axis=1) + 1, config.n_groups)
        gamma_next = _repair_empty(gamma_next, grad)
        if gamma_next.same_as(gamma):
            converged = True
            break
        gamma = gamma_next
    theta, alpha, gamma, value = best
    q = group_ssr(data, theta, alpha, gamma)
    state = (theta, alpha, _clamped_sigma(q, sigma_floor(data)), q, value)
    return _build_result(config, state, gamma, n_iters, converged, tuple(trace))
