"""Core panel model: data containers, grouping criteria, and updates.

The model is a linear panel regression with group-specific time effects and
group-specific error scales,

    y_it = x_it' theta + alpha_{g_i, t} + u_it,    sd(u_it) = sigma_{g_i},

where the group memberships g_i are latent.  Two clustering criteria live
here.  The weighted criterion scores a candidate (theta, alpha, gamma) by

    sum_g P_g * sqrt(Q_g),

with P_g the share of units in group g and Q_g the group's mean squared
residual, so that noisy groups are discounted by their own scale.  The
unweighted (GFE) criterion is the pooled mean squared residual
sum_g P_g * Q_g.  Assignment rules and the group sums and group Gram
matrices that the fit kernel, the covariance extension and inference share
complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroupError, SingularDesignError

__all__ = [
    "PanelDataset",
    "GroupAssignment",
    "GroupParameters",
    "ObjectiveBreakdown",
    "group_ssr",
    "wgfe_objective",
    "gfe_objective",
    "wgfe_assign",
    "gfe_assign",
    "residual_profiles",
    "sigma_floor",
]

#: Relative rank guard for demeaned Gram matrices.
EPS_RANK = 1e-10

#: Relative floor for estimated group scales, in units of the outcome std.
EPS_SIGMA = 1e-8

#: Machine epsilon of float64, the unit of the rounding bound in :func:`_profile_criterion`.
_EPS = np.finfo(float).eps


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """A balanced panel of outcomes and covariates.

    Parameters
    ----------
    outcomes : ndarray, shape (N, T)
        One row per unit, one column per period.
    covariates : ndarray, shape (N, T, p)
        Regressors aligned with ``outcomes``; ``p`` may be zero for pure
        clustering problems.

    Units and periods are identified by position; ``wgfe.cli.ingest_csv``
    maps a CSV's unit and time columns onto these rows and columns.
    """

    outcomes: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        y = _as_readonly(self.outcomes)
        x = np.asarray(self.covariates, dtype=float)
        if y.ndim != 2:
            raise ValueError(f"outcomes must be 2-d (N, T), got shape {y.shape}")
        n, t = y.shape
        if n < 1 or t < 1:
            raise ValueError("panel needs at least one unit and one period")
        if x.ndim == 2 and x.shape == (n, t):
            x = x[:, :, None]
        if x.ndim != 3 or x.shape[:2] != (n, t):
            raise ValueError(
                f"covariates must have shape (N, T, p) = ({n}, {t}, p), got {x.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("outcomes contain non-finite values")
        if x.size and not np.all(np.isfinite(x)):
            raise ValueError("covariates contain non-finite values")
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "covariates", _as_readonly(x))

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[2]


@dataclass(frozen=True, eq=False)
class GroupAssignment:
    """A hard grouping of units.

    ``labels`` holds 1-based group labels, one per unit; ``n_groups`` fixes
    the number of admissible groups, so some groups may be empty.
    """

    labels: np.ndarray
    n_groups: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 1:
            raise ValueError(f"labels must be 1-d, got shape {lab.shape}")
        if not np.issubdtype(lab.dtype, np.integer):
            as_int = lab.astype(int)
            if not np.array_equal(as_int, lab):
                raise ValueError("labels must be integers")
            lab = as_int
        lab = np.array(lab, dtype=np.int64, copy=True)
        g = int(self.n_groups)
        if g < 1:
            raise ValueError("n_groups must be at least 1")
        if lab.size and (lab.min() < 1 or lab.max() > g):
            raise ValueError(f"labels must lie in [1, {g}]")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "n_groups", g)

    @property
    def n_units(self) -> int:
        return self.labels.shape[0]

    def counts(self) -> np.ndarray:
        """Group sizes as a length-G integer vector."""
        return np.bincount(self.labels - 1, minlength=self.n_groups)

    def weights(self) -> np.ndarray:
        """Group shares P_g = #g / N."""
        return self.counts() / self.n_units

    def empty_groups(self) -> tuple:
        """1-based labels of groups with no members."""
        return tuple(int(g) for g in np.nonzero(self.counts() == 0)[0] + 1)

    def same_as(self, other: "GroupAssignment") -> bool:
        return self.n_groups == other.n_groups and np.array_equal(
            self.labels, other.labels
        )


@dataclass(frozen=True, eq=False)
class GroupParameters:
    """Model parameters at a fixed grouping.

    Fields
    ------
    theta : ndarray, shape (p,)
        Common slopes.
    alpha : ndarray, shape (G, T)
        Group-by-period effects, one row per group.
    sigma : ndarray, shape (G,)
        Group error scales, strictly positive.
    weights : ndarray, shape (G,)
        Group shares; must sum to one.
    """

    theta: np.ndarray
    alpha: np.ndarray
    sigma: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        theta = _as_readonly(np.atleast_1d(self.theta))
        alpha = _as_readonly(self.alpha)
        sigma = _as_readonly(np.atleast_1d(self.sigma))
        weights = _as_readonly(np.atleast_1d(self.weights))
        if theta.ndim != 1:
            raise ValueError("theta must be a vector")
        if alpha.ndim != 2:
            raise ValueError("alpha must be a (G, T) matrix")
        g = alpha.shape[0]
        if sigma.shape != (g,) or weights.shape != (g,):
            raise ValueError("sigma and weights must have one entry per group")
        if not np.all(sigma > 0):
            raise ValueError("sigma must be strictly positive")
        if not np.isclose(weights.sum(), 1.0, atol=1e-8):
            raise ValueError(f"weights must sum to 1, got {weights.sum()}")
        if np.any(weights < -1e-12):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "weights", weights)

    @property
    def n_groups(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_periods(self) -> int:
        return self.alpha.shape[1]


@dataclass(frozen=True, eq=False)
class ObjectiveBreakdown:
    """A criterion value with its per-group pieces.

    ``value`` equals sum_g weights_g * sqrt(per_group_ssr_g) for the weighted
    criterion and sum_g weights_g * per_group_ssr_g for the unweighted one.
    Entries for empty groups are NaN with zero weight.
    """

    per_group_ssr: np.ndarray
    weights: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "per_group_ssr", _as_readonly(self.per_group_ssr))
        object.__setattr__(self, "weights", _as_readonly(self.weights))
        object.__setattr__(self, "value", float(self.value))


def residual_profiles(data: PanelDataset, theta: np.ndarray) -> np.ndarray:
    """Per-unit residual paths y_i - x_i theta as an (N, T) array."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (data.n_covariates,):
        raise ValueError(
            f"theta must have length p={data.n_covariates}, got {theta.shape}"
        )
    n, t, p = data.covariates.shape
    if p == 0:
        return data.outcomes.copy()
    if t == 1:
        # numpy takes each unit's one-row product as a dot product, whose
        # last digits can differ from a matrix-vector product's
        return data.outcomes - data.covariates @ theta
    # one matrix-vector product over all N * T rows, bit for bit the
    # per-unit (T, p) products of the stacked form
    return data.outcomes - (data.covariates.reshape(n * t, p) @ theta).reshape(n, t)


def sigma_floor(data: PanelDataset) -> float:
    """Lower clamp for estimated group scales.

    Relative to the sample outcome standard deviation so the floor is
    invariant to rescaling the data; falls back to an absolute 1e-8 when the
    outcomes are constant.
    """
    scale = float(np.std(data.outcomes))
    return EPS_SIGMA * (scale if scale > 0 else 1.0)


def _group_index(data: PanelDataset, gamma: GroupAssignment) -> np.ndarray:
    if gamma.n_units != data.n_units:
        raise ValueError(
            f"assignment covers {gamma.n_units} units, data has {data.n_units}"
        )
    return gamma.labels - 1


def _group_sums(idx: np.ndarray, n_groups: int, arr: np.ndarray) -> np.ndarray:
    """Sums of the rows of ``arr`` over each group, as a (G, ...) array.

    ``idx`` holds 0-based group indices, one per row of ``arr``; an empty
    group sums to zero.  One weighted ``np.bincount`` over (group, entry)
    bins adds each group's rows one at a time in row order, so the sums do
    not depend on the array's shape or the BLAS build.
    """
    m = math.prod(arr.shape[1:])
    bins = (idx[:, None] * m + np.arange(m)).ravel()
    sums = np.bincount(bins, weights=arr.ravel(), minlength=n_groups * m)
    return sums.reshape((n_groups,) + arr.shape[1:])


def _group_gram(
    idx: np.ndarray, n_groups: int, arr: np.ndarray, means: np.ndarray = None
) -> np.ndarray:
    """Per-group sums of v v' over the vectors v on ``arr``'s last axis, as (G, m, m).

    The sum runs over the group's rows of ``arr`` and over any middle axes;
    an empty group gives zeros.  With ``means`` (one row per group, shaped
    like a row of ``arr``), each group's rows are taken net of its own row
    of ``means`` first, without forming ``arr - means[idx]``.
    """
    m = arr.shape[-1]
    gram = np.empty((n_groups, m, m))
    for k in range(n_groups):
        rows = arr[idx == k]
        if means is not None:
            rows -= means[k]  # boolean indexing made ``rows`` a copy
        v = rows.reshape(math.prod(rows.shape[:-1]), m)
        gram[k] = v.T @ v
    return gram


def _stacked(data: PanelDataset) -> np.ndarray:
    """Outcomes and covariates stacked as z = (y, x), of shape (N, T, 1 + p)."""
    return np.concatenate([data.outcomes[:, :, None], data.covariates], axis=2)


def _group_demeaned(idx: np.ndarray, counts: np.ndarray, arr: np.ndarray):
    """Group means of the rows of ``arr`` and ``arr`` net of them.

    Returns ``(means, demeaned)``, of shapes (G, ...) and ``arr.shape``;
    every group must be non-empty.
    """
    means = _group_sums(idx, counts.shape[0], arr)
    means /= counts.reshape((-1,) + (1,) * (arr.ndim - 1))
    return means, arr - means[idx]


def _two_way_demeaned(data: PanelDataset):
    """Outcomes (NT,) and covariates (NT, p) net of unit and period means."""
    y, x = data.outcomes, data.covariates
    ydd = (
        y - y.mean(axis=0, keepdims=True) - y.mean(axis=1, keepdims=True) + y.mean()
    )
    xdd = (
        x
        - x.mean(axis=0, keepdims=True)
        - x.mean(axis=1, keepdims=True)
        + x.mean(axis=(0, 1), keepdims=True)
    )
    return ydd.ravel(), xdd.reshape(-1, data.n_covariates)


def _least_squares(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve the normal equations ``(x' x) b = x' y`` for 2-d ``x``.

    Raises
    ------
    SingularDesignError
        If the Gram matrix is numerically rank deficient.
    """
    gram = x.T @ x
    _check_rank(gram)
    return np.linalg.solve(gram, x.T @ y)


def _group_q(resid: np.ndarray, idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group mean squared residuals Q_g of an (N, T) residual array.

    Empty groups come out as 0/0; each caller applies its own policy.
    """
    per_unit = np.einsum("it,it->i", resid, resid)
    return _group_sums(idx, counts.shape[0], per_unit) / (resid.shape[1] * counts)


def _clamped_sigma(q: np.ndarray, floor: float) -> np.ndarray:
    """Group scales sqrt(Q_g), clamped below by ``floor`` (see :func:`sigma_floor`)."""
    return np.maximum(np.sqrt(q), floor)


def group_ssr(
    data: PanelDataset,
    theta: np.ndarray,
    alpha: np.ndarray,
    gamma: GroupAssignment,
) -> np.ndarray:
    """Per-group mean squared residuals Q_g.

    Q_g averages (y_it - x_it' theta - alpha_{g,t})^2 over the T periods and
    the units assigned to g.  Empty groups leave Q_g undefined, so they are
    surfaced as an error rather than silently zeroed.

    Raises
    ------
    EmptyGroupError
        If any group in [1, G] has no members.
    """
    idx = _group_index(data, gamma)
    alpha = np.asarray(alpha, dtype=float)
    counts = gamma.counts()
    if np.any(counts == 0):
        raise EmptyGroupError(np.nonzero(counts == 0)[0] + 1)
    return _group_q(residual_profiles(data, theta) - alpha[idx], idx, counts)


def wgfe_objective(
    data: PanelDataset,
    theta: np.ndarray,
    alpha: np.ndarray,
    gamma: GroupAssignment,
) -> ObjectiveBreakdown:
    """Weighted criterion sum_g P_g sqrt(Q_g) with its per-group pieces."""
    q = group_ssr(data, theta, alpha, gamma)
    w = gamma.weights()
    return ObjectiveBreakdown(q, w, float(w @ np.sqrt(q)))


def gfe_objective(
    data: PanelDataset,
    theta: np.ndarray,
    alpha: np.ndarray,
    gamma: GroupAssignment,
) -> ObjectiveBreakdown:
    """Pooled criterion (1/NT) sum_it (y_it - x_it' theta - alpha_{g_i,t})^2.

    Empty groups contribute zero, so unlike the weighted criterion this one
    is defined for any assignment; their breakdown entries are NaN.
    """
    idx = _group_index(data, gamma)
    alpha = np.asarray(alpha, dtype=float)
    resid = residual_profiles(data, theta) - alpha[idx]
    value = float(np.sum(resid * resid)) / (data.n_units * data.n_periods)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = _group_q(resid, idx, gamma.counts())
    return ObjectiveBreakdown(q, gamma.weights(), value)


def _profile_criterion(v: np.ndarray, alpha: np.ndarray, sigma: np.ndarray = None):
    """Assignment criterion of profiles ``v`` (N, T) against effect rows ``alpha`` (G, T), as (N, G).

    ``v`` and ``alpha`` are taken net of the same centre, so that an offset
    common to the data cancels before any square is formed.  The squared
    distance is expanded,

        d2 = ||v_i||^2 - 2 v_i . alpha_g + ||alpha_g||^2,

    from one (G, T) by (T, N) product and the rows' squared norms, without
    an (N, G, T) temporary.  Near v_i = alpha_g the expansion's rounding
    error is at most about 4 (T + 2) eps ||v_i||^2; d2 is taken that much
    low and clamped at zero, so a profile equal to an effect row is at
    distance exactly 0, no distance is negative, and every distance is
    within twice that bound of the exact one.  Equal effect rows give
    equal columns, so ``np.argmin`` sends a unit tied between them to the
    lower group index.  Without ``sigma`` the criterion is d2; with it, the
    scale-aware d2 / sigma_g + sigma_g.  The result is the transpose of a
    (G, N) array, so that the per-group terms run along N.
    """
    ones = np.ones(v.shape[1])
    low = np.square(v) @ ones
    low *= 1.0 - 4.0 * (v.shape[1] + 2) * _EPS
    d2 = (-2.0 * alpha) @ v.T
    d2 += low
    # a row sum: BLAS may sum equal rows of a matrix-vector product in
    # different orders, and equal effect rows must tie
    d2 += np.square(alpha).sum(axis=1)[:, None]
    np.maximum(d2, 0.0, out=d2)
    if sigma is not None:
        sigma = sigma[:, None]
        d2 /= sigma
        d2 += sigma
    return d2.T


def _assignment_criterion(data, theta, alpha, sigma=None):
    """Per-unit, per-group assignment criterion values as an (N, G) matrix.

    Without ``sigma`` this is the squared profile distance d2; with it, the
    scale-aware value d2 / sigma_g + sigma_g.  The residual profiles and
    ``alpha`` are taken net of the profiles' period means, and d2 expanded
    from them (:func:`_profile_criterion`).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[1] != data.n_periods:
        raise ValueError(f"alpha must be (G, T={data.n_periods}), got {alpha.shape}")
    if sigma is not None and sigma.shape != (alpha.shape[0],):
        raise ValueError("sigma must have one entry per group")
    v = residual_profiles(data, theta)
    centre = v.mean(axis=0)
    return _profile_criterion(v - centre, alpha - centre, sigma)


def wgfe_assign(
    data: PanelDataset,
    theta: np.ndarray,
    alpha: np.ndarray,
    sigma: np.ndarray,
    rule: str = "alg1",
) -> GroupAssignment:
    """Scale-aware assignment: each unit to argmin_g ||v_i - alpha_g||^2 / sigma_g + sigma_g.

    Distances are normalized by the group scale and penalized by it, so a
    high-variance group must fit a unit's profile much better before
    absorbing it.  ``rule`` accepts only ``"alg1"``, the rule of the paper's
    Algorithm 1.  The distances are expanded from the residual profiles and
    ``alpha`` net of the profiles' period means
    (:func:`_assignment_criterion`), so the labels can differ from a direct
    computation's only where two groups' values agree to rounding.  Ties
    between equal effect rows with equal scales go to the lowest group
    index.
    """
    if rule != "alg1":
        raise ValueError(f"unknown assignment rule {rule!r}")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if not np.all(sigma > 0):
        raise ValueError("sigma must be strictly positive")
    crit = _assignment_criterion(data, theta, alpha, sigma)
    return GroupAssignment(np.argmin(crit, axis=1) + 1, crit.shape[1])


def gfe_assign(
    data: PanelDataset, theta: np.ndarray, alpha: np.ndarray
) -> GroupAssignment:
    """Nearest-profile assignment: each unit to argmin_g ||v_i - alpha_g||^2.

    Distances and ties as in :func:`wgfe_assign`.
    """
    d2 = _assignment_criterion(data, theta, alpha)
    return GroupAssignment(np.argmin(d2, axis=1) + 1, d2.shape[1])


def _rank_deficient(gram: np.ndarray):
    """Which of a stack of (..., p, p) Gram matrices are numerically rank deficient.

    Returns ``(mask, min_eig)``: a Gram matrix is deficient when its smallest
    eigenvalue is at most ``EPS_RANK`` times its mean eigenvalue.
    """
    eigs = np.linalg.eigvalsh(gram)
    min_eig = eigs[..., 0]
    return min_eig <= EPS_RANK * eigs.sum(axis=-1) / gram.shape[-1], min_eig


def _singular_design(min_eig: float) -> SingularDesignError:
    return SingularDesignError(
        f"demeaned design is rank deficient (min eigenvalue {min_eig:.3e})"
    )


def _check_rank(gram: np.ndarray) -> None:
    deficient, min_eig = _rank_deficient(gram)
    if deficient:
        raise _singular_design(min_eig)
