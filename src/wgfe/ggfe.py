"""Full-covariance grouped heteroskedasticity: barycenter criterion and descent.

The scale-weighted estimator treats within-group dispersion as a scalar.
This module generalizes it: each group carries a dense T-by-T residual
covariance, the criterion is the trace of the Bures-Wasserstein barycenter
of those covariances, units are reassigned along the criterion's exact
assignment derivative, and slopes are refitted by majorize-minimize GLS steps.
Both take the criterion's derivative in each group covariance from the
optimal transport map between that covariance and the barycenter, built
from the eigendecompositions of the barycenter iteration's last pass.  With
two groups the iteration starts at the pair's closed-form barycenter, so it
usually stops at its first pass.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    _group_demeaned,
    _group_gram,
    _lower,
    _stacked,
    group_ssr,
    residual_profiles,
)
from .solvers import (
    EstimationResult,
    SolverConfig,
    _build_result,
    _Kernel,
    _pooled_start,
    _repair_empty,
    _seeded_start,
)

EPS_EIG = 1e-10
"""Relative eigenvalue floor (times trace/T) for matrix square roots."""


def _sym(a):
    half = a / 2.0  # halved first, so entries near the float limit do not overflow
    return half + half.T


def _pow4(x):
    """The power of four ``4^j`` with ``x / 4^j`` in [1, 4), for finite ``x > 0``."""
    return math.ldexp(1.0, 2 * ((math.frexp(x)[1] - 1) // 2))


def _eig_rebuild(evecs, lam):
    """The symmetric matrix ``U diag(lam) U'`` for eigenvectors ``U``."""
    return _sym((evecs * lam) @ evecs.T)


def _eigh_floored(a):
    """Eigenvectors ``U``, raw eigenvalues ``d`` and clamp of symmetric ``a``.

    The clamp ``EPS_EIG * trace / dim`` sums the diagonal over the power of
    four of the largest eigenvalue, which bounds every diagonal entry, so a
    trace past the float range does not overflow.
    """
    d, u = np.linalg.eigh(a)
    scale = _pow4(d[-1])
    trace = float((np.diagonal(a) / scale).sum())
    return u, d, EPS_EIG * max(trace, 0.0) / a.shape[0] * scale


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A symmetric positive semidefinite matrix with a cached spectrum.

    Construction checks symmetry (to 1e-12 on the entry scale) and
    near-positivity (eigenvalues above -1e-10 times the trace).
    :meth:`clamped` floors eigenvalues at ``EPS_EIG * trace / dim``, so
    rank-deficient covariances from small groups stay usable; a matrix with
    zero trace cannot be clamped into SPD and reports itself as not
    definite.  Barycenter inputs and results are checked this way; its
    iterates are plain arrays.
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
        evecs, evals, floor = _eigh_floored(arr)
        if evals[0] < -max(floor * arr.shape[0], EPS_EIG * 1e-12 * scale):
            raise NonSpdError(f"matrix has negative eigenvalue {evals[0]:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_floored", np.maximum(evals, floor))
        object.__setattr__(self, "_evecs", evecs)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))

    @property
    def definite(self) -> bool:
        """Whether eigenvalue clamping yields a strictly positive matrix."""
        return bool(self._floored[0] > 0.0)

    def clamped(self) -> np.ndarray:
        """The matrix with eigenvalues floored at ``EPS_EIG * trace / dim``."""
        return _eig_rebuild(self._evecs, self._floored)


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
    n = v.shape[0]
    soft = isinstance(assignment, SoftAssignment)
    if soft and assignment.n_units != n:
        raise ValueError("soft assignment row count does not match data")
    mass = assignment.weights.sum(axis=0) if soft else assignment.counts()
    empty = np.nonzero(mass <= 0)[0]
    if empty.size:
        raise EmptyGroupError(empty + 1)
    if soft:
        sigs = []
        for k in range(assignment.n_groups):
            r = v - alpha[k]
            sigs.append(np.einsum("i,it,is->ts", assignment.weights[:, k], r, r))
    else:
        idx = assignment.labels - 1
        sigs = _group_gram(idx, assignment.n_groups, v, alpha)
    return tuple(SpdMatrix(sig / m) for sig, m in zip(sigs, mass)), mass / n


def barycenter_fixed_point(covariances, weights, *, tol=1e-11, max_iters=500):
    """Bures-Wasserstein barycenter of SPD matrices by fixed-point iteration.

    Iterates ``O <- O^{-1/2} (sum_g w_g (O^{1/2} S_g O^{1/2})^{1/2})^2
    O^{-1/2}`` and stops when the fixed-point residual
    ``||O - sum_g w_g (O^{1/2} S_g O^{1/2})^{1/2}||_F / ||O||_F`` drops
    below ``tol``.  When exactly two inputs carry positive weight the
    iteration starts at their closed-form barycenter, a point of the
    Bures-Wasserstein geodesic between them, so it usually stops at its
    first pass; otherwise it starts at the identity.  Inputs are checked
    as :class:`SpdMatrix` and eigenvalue-clamped first; a matrix with
    nonpositive trace cannot be clamped into SPD and raises
    ``NonSpdError``.  The clamped inputs are divided by the power of four
    that brings their largest diagonal entry into [1, 4) and the result is
    multiplied back, so scaling the inputs by a power of four scales the
    result exactly.  The iterates are plain
    arrays; the result is an :class:`SpdMatrix`, and a stall raises
    ``NonConvergenceError`` with the last iterate in the input's units.
    """
    omega, (_, _, scale) = _barycenter(covariances, weights, tol, max_iters)
    return SpdMatrix(omega * scale)


def _barycenter(covariances, weights, tol=1e-11, max_iters=500):
    """:func:`barycenter_fixed_point` as the scaled iterate and ``(R, eigs, scale)``.

    R is the iterate's floored root and ``eigs[g]`` the :func:`_eigh_floored`
    triple of ``R S_g R`` for the scaled input ``S_g`` (None at zero weight).
    Two live inputs start at :func:`_geodesic_point`, any other count at the
    identity; the loop and its residual test are the same either way, so a
    start spoiled by rounding or a floored input only takes more passes.
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
    # a power of four and its root are exact, so inputs that differ by one
    # run the same iteration, and root @ sig @ root stays far from overflow
    scale = _pow4(max(np.diagonal(sig).max() for sig in sigs))
    sigs = [sig / scale for sig in sigs]
    live = np.flatnonzero(weights > 0.0)
    if live.size == 2:
        omega = _geodesic_point(covs, sigs, weights, live, scale)
    else:
        omega = np.eye(t)
    for _ in range(max_iters):
        evecs, evals, floor = _eigh_floored(omega)
        lam = np.sqrt(np.maximum(evals, floor))
        root = _eig_rebuild(evecs, lam)
        mean_root = np.zeros((t, t))
        eigs = [None] * len(sigs)
        for g, w in enumerate(weights):
            if w > 0.0:
                u, d, f = eigs[g] = _eigh_floored(_sym(root @ sigs[g] @ root))
                mean_root += w * _eig_rebuild(u, np.sqrt(np.maximum(d, f)))
        residual = np.linalg.norm(omega - mean_root) / np.linalg.norm(omega)
        if residual < tol:
            return omega, (root, eigs, scale)
        inv_root = _eig_rebuild(evecs, 1.0 / lam)
        omega = _sym(inv_root @ mean_root @ mean_root @ inv_root)
    raise NonConvergenceError(
        f"barycenter iteration stalled (relative residual {residual:.3e})",
        last_iterate=omega * scale,
        residual=residual,
    )


def _geodesic_point(covs, sigs, weights, live, scale):
    """The closed-form barycenter of the two scaled inputs ``sigs[live]``.

    With A the better-conditioned input, B the other and ``R = A^{1/2}``, it
    is the McCann interpolant ``R^{-1} (w_A A + w_B (R B R)^{1/2})^2 R^{-1}``
    on the Bures-Wasserstein geodesic from A to B, the fixed point of the
    barycenter iteration for any positive weights (Bhatia, Jain & Lim 2019).
    R and its inverse come from A's cached spectrum, so this costs one
    eigendecomposition, of ``R B R``.
    """
    a, b = sorted(live, key=lambda g: covs[g]._floored[-1] / covs[g]._floored[0])
    lam = np.sqrt(covs[a]._floored / scale)
    root = _eig_rebuild(covs[a]._evecs, lam)
    u, d, f = _eigh_floored(_sym(root @ sigs[b] @ root))
    mid = weights[a] * sigs[a] + weights[b] * _eig_rebuild(u, np.sqrt(np.maximum(d, f)))
    inv_root = _eig_rebuild(covs[a]._evecs, 1.0 / lam)
    return _sym(inv_root @ mid @ mid @ inv_root)


def _criterion_at(data, theta, alpha, assignment):
    """ggfe_objective's value and the barycenter's final-pass factors (None at zero)."""
    covs, weights = group_covariances(data, theta, alpha, assignment)
    if max(c.trace for c in covs) <= 0.0:
        return 0.0, None
    omega, factors = _barycenter(covs, weights)
    return float(np.trace(omega) * factors[2]), factors


def ggfe_objective(data, theta, alpha, assignment) -> float:
    """Trace of the barycenter of the group residual covariances.

    Identically zero residuals give zero covariances and a zero objective;
    a mix of zero and nonzero covariances is not solvable and propagates
    ``NonSpdError`` from the barycenter.
    """
    return _criterion_at(data, theta, alpha, assignment)[0]


def _covariance_derivatives(factors):
    """Transport maps ``t_g`` and constants ``<t_g, S_g>`` from :func:`_barycenter`.

    Omega minimizes ``sum_g w_g W^2(., S_g)``, so by the envelope theorem
    ``d tr(Omega) / d S_g = w_g t_g`` with ``t_g = R A_g^{-1/2} R`` the
    optimal transport map from ``S_g`` to Omega; it is symmetric, free of
    the scale, ``t_g S_g t_g = Omega`` and ``<t_g, S_g> = tr(A_g^{1/2})``.
    Raises ``IllConditionedError`` when a factor ``A_g`` has an eigenvalue
    below its floor (near-zero residuals, groups smaller than T).
    """
    root, eigs, scale = factors
    maps, consts = [], []
    for h, (u, d, floor) in enumerate(eigs):
        if d[0] < floor:
            raise IllConditionedError(  # A_g in the input's units
                f"group {h + 1}: covariance factor eigenvalue "
                f"{d[0] * scale * scale:.3e} is below the stability floor "
                f"{floor * scale * scale:.3e}"
            )
        maps.append(_sym(root @ _eig_rebuild(u, 1.0 / np.sqrt(d)) @ root))
        consts.append(scale * float(np.sqrt(d).sum()))
    return maps, consts


def _membership_derivatives(data, theta, alpha, factors):
    """:func:`assignment_gradient` from the barycenter's final-pass ``factors``."""
    v = residual_profiles(data, theta)
    maps, consts = _covariance_derivatives(factors)
    grad = np.empty((data.n_units, len(maps)))
    for k, t_k in enumerate(maps):
        r = v - np.asarray(alpha, dtype=float)[k]
        grad[:, k] = np.einsum("it,it->i", r @ t_k, r)
    return (grad + consts) / data.n_units


def assignment_gradient(data, theta, alpha, soft: SoftAssignment) -> np.ndarray:
    """Exact partial derivatives of the criterion in the membership weights.

    Entry (i, g) is the derivative of the barycenter trace in unit i's
    weight on group g, holding the other raw weights fixed.  It is
    ``(v_i' t_g v_i + <t_g, S_g>) / N`` for unit i's residual ``v_i``
    against group g's effect row, with ``t_g`` the optimal transport map
    from ``S_g`` to the barycenter Omega, which gives the covariance
    derivative ``d tr(Omega) / d S_g = w_g t_g``.  Rows on the simplex can
    be compared with renormalized finite differences after projecting out
    the within-row mean.  :func:`ggfe_descent` takes the same rows from
    the barycenter its slope refit ended with.
    """
    if not isinstance(soft, SoftAssignment):
        raise TypeError("assignment_gradient needs a SoftAssignment")
    covs, weights = group_covariances(data, theta, alpha, soft)
    return _membership_derivatives(data, theta, alpha, _barycenter(covs, weights)[1])


def _inner_update(data, gamma, kernel, theta_seed):
    """Refit the slopes at a fixed grouping by a majorize-minimize fixed point.

    The effects are the group means at the slopes, so residuals are the
    group-demeaned ``yt_i - xt_i theta``.  From the kernel's scale-weighted
    slopes, each step takes the transport maps ``t_g`` from each group
    covariance to the barycenter (:func:`_covariance_derivatives`) at the
    current slopes and solves the p-by-p GLS problem ``theta <- argmin
    sum_g sum_{i in g} (yt_i - xt_i theta)' t_g (yt_i - xt_i theta)``: the
    criterion is concave in the covariances, so this tangent majorizes it.
    With ``f = M(theta) - theta`` the MM step, a step that has the
    previous iterate and its step at hand first evaluates the depth-1
    Anderson (secant) point ``M(theta) - gamma (d_theta + d_f)``, ``gamma
    = (f . d_f) / (d_f . d_f)``, and moves there unless its value rises by
    more than rounding (``model._lower``, the rule of every search and
    refit); a rise, or ``NonSpdError`` there, falls back to the MM step and
    clears that history, so the next step is plain.  Stops at the current
    slopes, whose state is already evaluated, when ``|f|`` is at most
    ``fp_tol * (1 + |M(theta)|)``, or after ``fp_max_iters`` steps; an MM
    step whose value rises so ends at the current slopes, and so does an
    ill-conditioned derivative.  The start is the kernel's scale-weighted
    fit at the grouping, which raises ``SingularDesignError`` for a
    rank-deficient one.  p = 0 takes no step.  Returns ``(theta, alpha,
    state)``, where state is the final :func:`_criterion_at` pair (value,
    barycenter factors) at those slopes and effects; a start that fits a
    group exactly beside nonzero covariances raises ``NonSpdError``.
    """
    try:
        theta = kernel.fit(gamma.labels, theta_seed)[0]
    except NonConvergenceError as exc:
        theta = exc.last_iterate[0]
    idx = gamma.labels - 1
    zbar, zt = _group_demeaned(idx, gamma.counts(), _stacked(data))
    # per-group cross products of zt_i = [yt_i, xt_i], as (G, T, 1 + p, T, 1 + p)
    n, t, a = zt.shape
    cross = _group_gram(idx, gamma.n_groups, zt.reshape(n, t * a))
    cross = cross.reshape(gamma.n_groups, t, a, t, a)

    def effects(theta):
        return zbar[..., 0] - zbar[..., 1:] @ theta

    def evaluate(theta):
        return _criterion_at(data, theta, effects(theta), gamma)

    state = evaluate(theta)
    last = None  # the previous iterate and its MM step; cleared by a rejected secant
    for _ in range(kernel.config.fp_max_iters if theta.size else 0):
        if state[1] is None:
            break  # every group fitted exactly: the criterion is zero
        try:
            ts = np.stack(_covariance_derivatives(state[1])[0])
        except IllConditionedError:
            break
        m = np.einsum("gts,gtasb->ab", ts, cross)
        step_to = np.linalg.solve(m[1:, 1:], m[1:, 0])
        f = step_to - theta
        if np.linalg.norm(f) <= kernel.config.fp_tol * (1.0 + np.linalg.norm(step_to)):
            break  # theta's state is already evaluated
        if last is not None:
            d_f = f - last[1]
            secant = step_to - (f @ d_f) / (d_f @ d_f) * (theta - last[0] + d_f)
            try:
                step = evaluate(secant)
            except NonSpdError:
                step = None  # no criterion value counts as a rise
            if step is not None and not _lower(state[0], step[0]):
                last, theta, state = (theta, f), secant, step
                continue
        step = evaluate(step_to)
        if _lower(state[0], step[0]):
            break
        last = (theta, f) if last is None else None
        theta, state = step_to, step
    return theta, effects(theta), state


def ggfe_descent(data: PanelDataset, config: SolverConfig) -> EstimationResult:
    """Estimate the full-covariance grouped model by alternating descent.

    Each round refits the slopes, with the effects at their group means,
    by :func:`_inner_update`: a majorize-minimize fixed point started at the
    round's scale-weighted fit (so a rank-deficient grouping raises
    ``SingularDesignError`` in any round), extrapolated by secant steps
    kept only where the value does not rise, and stopped before a step
    shorter than ``fp_tol`` is evaluated.  It then moves every unit to the
    group minimizing its exact assignment derivative
    (:func:`assignment_gradient`, taken from the refit's final barycenter
    pass), topping up groups left with fewer than two members from the
    worst-scoring donors: a one-member group is fitted exactly by its
    effect row, and a zero covariance beside nonzero ones has no criterion
    value.
    Stops at an assignment fixed point or after ``max_lloyd_iters`` rounds.

    Guarded stops keep the loop a descent of :func:`ggfe_objective`
    values.  A round is rolled back and ends the search when its refit
    value rises above the incumbent's by more than rounding
    (``model._lower``; the derivative step is linearized, so it can
    overshoot) or its grouping fits a group exactly beside nonzero
    covariances, which has no criterion value; at the start that raises
    ``NonSpdError``.  A zero criterion, or covariances too degenerate for a
    stable derivative (near-zero residuals, groups smaller than T), ends
    the search at the incumbent.
    ``converged`` is true only when the assignment reproduces itself or the
    criterion is zero: exactly, or, where the derivative is ill-conditioned,
    to within ``T * sigma_floor(data)**2`` (every residual at the scale
    floor).  A rollback, any other ill-conditioned derivative or the round
    cap reports False.
    ``trace`` records each kept round's refit value, none higher than the
    last by more than rounding.
    """
    if config.mode != "ggfe":
        raise ValueError(f"ggfe_descent needs mode 'ggfe', got {config.mode!r}")
    if data.n_units < 2 * config.n_groups:
        raise ValueError(f"need at least two units per group, got {data.n_units} units")
    init, d2 = _seeded_start(config, np.random.default_rng(config.seed), _pooled_start(data))
    gamma = GroupAssignment(
        _repair_empty(np.argmin(d2, axis=1) + 1, d2, min_size=2), config.n_groups
    )
    theta = init.theta
    kernel = _Kernel(data, config)
    floor = kernel.floor
    best = None
    trace = []
    converged = False
    for n_iters in range(1, config.max_lloyd_iters + 1):
        try:
            theta, alpha, state = _inner_update(data, gamma, kernel, theta_seed=theta)
        except NonSpdError:
            if best is None:
                raise
            break
        value = state[0]
        if best is not None and _lower(best[3], value):
            break
        trace.append(value)
        best = (theta, alpha, gamma, value)
        if value <= 0.0:
            converged = True
            break  # every group is fitted exactly: zero covariances have no derivative
        try:
            grad = _membership_derivatives(data, theta, alpha, state[1])
        except IllConditionedError:
            # residuals at rounding level fit every group to the scale floor
            converged = value <= data.n_periods * floor**2
            break
        gamma_next = GroupAssignment(
            _repair_empty(np.argmin(grad, axis=1) + 1, grad, min_size=2), config.n_groups
        )
        if gamma_next.same_as(gamma):
            converged = True
            break
        gamma = gamma_next
    theta, alpha, gamma, value = best
    q = group_ssr(data, theta, alpha, gamma)
    state = (theta, alpha, _clamped_sigma(q, floor), q, value)
    return _build_result(config, state, gamma.labels, n_iters, converged, tuple(trace))
