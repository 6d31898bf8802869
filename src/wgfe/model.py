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
sum_g P_g * Q_g.  Assignment rules, group means, and the closed-form
parameter updates for both criteria complete the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EmptyGroupError, SingularDesignError

__all__ = [
    "PanelDataset",
    "GroupAssignment",
    "GroupParameters",
    "ObjectiveBreakdown",
    "WithinGroupMeans",
    "within_group_means",
    "group_ssr",
    "wgfe_objective",
    "gfe_objective",
    "wgfe_assign",
    "gfe_assign",
    "update_alpha",
    "gfe_update",
    "residual_profiles",
    "sigma_floor",
]

#: Relative rank guard for demeaned Gram matrices.
EPS_RANK = 1e-10

#: Relative floor for estimated group scales, in units of the outcome std.
EPS_SIGMA = 1e-8


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
    unit_labels : tuple, optional
        External identifiers for the N units; defaults to 0..N-1.
    period_labels : tuple, optional
        External identifiers for the T periods; defaults to 0..T-1.
    """

    outcomes: np.ndarray
    covariates: np.ndarray
    unit_labels: tuple = None
    period_labels: tuple = None

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
        units = self.unit_labels if self.unit_labels is not None else range(n)
        periods = self.period_labels if self.period_labels is not None else range(t)
        units = tuple(units)
        periods = tuple(periods)
        if len(units) != n:
            raise ValueError(f"expected {n} unit labels, got {len(units)}")
        if len(periods) != t:
            raise ValueError(f"expected {t} period labels, got {len(periods)}")
        object.__setattr__(self, "unit_labels", units)
        object.__setattr__(self, "period_labels", periods)

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


class WithinGroupMeans(NamedTuple):
    """Group-by-period means; rows of empty groups are NaN sentinels."""

    outcomes: np.ndarray
    covariates: np.ndarray
    empty: tuple


def residual_profiles(data: PanelDataset, theta: np.ndarray) -> np.ndarray:
    """Per-unit residual paths y_i - x_i theta as an (N, T) array."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (data.n_covariates,):
        raise ValueError(
            f"theta must have length p={data.n_covariates}, got {theta.shape}"
        )
    if data.n_covariates == 0:
        return data.outcomes.copy()
    return data.outcomes - data.covariates @ theta


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


def _group_means(data: PanelDataset, idx: np.ndarray, counts: np.ndarray):
    """Group-by-period means ``(ybar (G, T), xbar (G, T, p))``.

    Rows of empty groups come out as 0/0; each caller applies its own
    policy (NaN sentinels or a raise) and its own floating-point error state.
    """
    g, t, p = counts.shape[0], data.n_periods, data.n_covariates
    ybar = np.zeros((g, t))
    np.add.at(ybar, idx, data.outcomes)
    ybar /= counts[:, None]
    xbar = np.zeros((g, t, p))
    if p:
        np.add.at(xbar, idx, data.covariates)
        xbar /= counts[:, None, None]
    return ybar, xbar


def _demean_by_group(data: PanelDataset, idx: np.ndarray, counts: np.ndarray):
    """Group means plus outcomes and covariates net of them.

    Returns ``(ybar, xbar, yt, xt)`` with ``yt`` of shape (N, T) and ``xt``
    of shape (N, T, p); every group must be non-empty.
    """
    ybar, xbar = _group_means(data, idx, counts)
    return ybar, xbar, data.outcomes - ybar[idx], data.covariates - xbar[idx]


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


def _least_squares(x: np.ndarray, y: np.ndarray, xw: np.ndarray = None) -> np.ndarray:
    """Solve the normal equations ``(x' xw) b = xw' y`` for 2-d ``x``.

    ``xw`` is ``x`` with rows scaled by observation weights (``x`` itself
    when unweighted).

    Raises
    ------
    SingularDesignError
        If the Gram matrix is numerically rank deficient.
    """
    xw = x if xw is None else xw
    gram = x.T @ xw
    _check_rank(gram, x.shape[1])
    return np.linalg.solve(gram, xw.T @ y)


def _group_q(resid: np.ndarray, idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group mean squared residuals Q_g of an (N, T) residual array.

    Empty groups come out as 0/0; each caller applies its own policy.
    """
    per_unit = np.einsum("it,it->i", resid, resid)
    sums = np.bincount(idx, weights=per_unit, minlength=counts.shape[0])
    return sums / (resid.shape[1] * counts)


def _clamped_sigma(q: np.ndarray, floor: float) -> np.ndarray:
    """Group scales sqrt(Q_g), clamped below by ``floor`` (see :func:`sigma_floor`)."""
    return np.maximum(np.sqrt(q), floor)


def within_group_means(
    data: PanelDataset, gamma: GroupAssignment
) -> WithinGroupMeans:
    """Group-by-period averages of outcomes and covariates.

    Parameters
    ----------
    data : PanelDataset
    gamma : GroupAssignment

    Returns
    -------
    WithinGroupMeans
        ``outcomes`` has shape (G, T) and ``covariates`` (G, T, p).  Rows for
        empty groups are NaN and their labels are listed in ``empty``; the
        caller chooses the repair policy.
    """
    counts = gamma.counts()
    with np.errstate(invalid="ignore", divide="ignore"):
        ybar, xbar = _group_means(data, _group_index(data, gamma), counts)
    empty = tuple(int(i) + 1 for i in np.nonzero(counts == 0)[0])
    return WithinGroupMeans(ybar, xbar, empty)


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


def _profile_distances(
    data: PanelDataset, theta: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    """Squared distances ||v_i - alpha_g||^2 as an (N, G) matrix."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[1] != data.n_periods:
        raise ValueError(f"alpha must be (G, T={data.n_periods}), got {alpha.shape}")
    v = residual_profiles(data, theta)
    diff = v[:, None, :] - alpha[None, :, :]
    return np.einsum("igt,igt->ig", diff, diff)


def _assignment_criterion(data, theta, alpha, sigma=None, rule="alg1"):
    """Per-unit, per-group assignment criterion values as an (N, G) matrix.

    Without ``sigma`` this is the squared profile distance d2; with it, the
    scale-aware value d2 / sigma_g + sigma_g, divided by T for ``eq6``.
    """
    d2 = _profile_distances(data, theta, alpha)
    if sigma is None:
        return d2
    if sigma.shape != (d2.shape[1],):
        raise ValueError("sigma must have one entry per group")
    crit = d2 / sigma + sigma
    if rule == "eq6":
        crit = crit / data.n_periods
    return crit


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
    absorbing it.  ``rule="eq6"`` divides both terms by T, which leaves every
    argmin unchanged; the variant is kept for completeness.  Ties go to the
    lowest group index.
    """
    if rule not in ("alg1", "eq6"):
        raise ValueError(f"unknown assignment rule {rule!r}")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if not np.all(sigma > 0):
        raise ValueError("sigma must be strictly positive")
    crit = _assignment_criterion(data, theta, alpha, sigma, rule)
    return GroupAssignment(np.argmin(crit, axis=1) + 1, crit.shape[1])


def gfe_assign(
    data: PanelDataset, theta: np.ndarray, alpha: np.ndarray
) -> GroupAssignment:
    """Nearest-profile assignment: each unit to argmin_g ||v_i - alpha_g||^2."""
    d2 = _assignment_criterion(data, theta, alpha)
    return GroupAssignment(np.argmin(d2, axis=1) + 1, d2.shape[1])


def update_alpha(
    data: PanelDataset, theta: np.ndarray, gamma: GroupAssignment
) -> np.ndarray:
    """Optimal group effects at fixed slopes: alpha_gt = ybar_gt - xbar_gt' theta."""
    means = within_group_means(data, gamma)
    if means.empty:
        raise EmptyGroupError(means.empty)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if data.n_covariates == 0:
        return means.outcomes
    return means.outcomes - means.covariates @ theta


def gfe_update(data: PanelDataset, gamma: GroupAssignment):
    """Closed-form pooled least squares at a fixed grouping.

    Demeans outcomes and covariates by their group-by-period averages,
    regresses the one on the other, and recovers the group effects from the
    means.

    Returns
    -------
    theta : ndarray, shape (p,)
    alpha : ndarray, shape (G, T)

    Raises
    ------
    EmptyGroupError
        If the assignment leaves any group without members.
    SingularDesignError
        If the demeaned Gram matrix is numerically rank deficient.
    """
    idx = _group_index(data, gamma)
    counts = gamma.counts()
    if np.any(counts == 0):
        raise EmptyGroupError(np.nonzero(counts == 0)[0] + 1)
    p = data.n_covariates
    if p == 0:
        return np.zeros(0), _group_means(data, idx, counts)[0]
    ybar, xbar, yt, xt = _demean_by_group(data, idx, counts)
    theta = _least_squares(xt.reshape(-1, p), yt.ravel())
    return theta, ybar - xbar @ theta


def _check_rank(gram: np.ndarray, p: int) -> None:
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= EPS_RANK * np.trace(gram) / p:
        raise SingularDesignError(
            f"demeaned design is rank deficient (min eigenvalue {eigs[0]:.3e})"
        )
