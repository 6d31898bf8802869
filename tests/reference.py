"""Reference computations that the tests use as independent oracles.

Group means, the effects at given slopes and the closed-form pooled (GFE)
update at a fixed grouping, written directly on the panel arrays.  The
package computes the same quantities from per-group sufficient statistics
(``wgfe.solvers._Kernel``) and from ``wgfe.model``'s shared group sums;
nothing here calls either.
"""

from typing import NamedTuple

import numpy as np

from wgfe.errors import EmptyGroupError, SingularDesignError

#: A demeaned design is singular when its smallest eigenvalue is at most
#: this share of the period-demeaned design's mean eigenvalue.
EPS_RANK = 1e-10


class WithinGroupMeans(NamedTuple):
    """Group-by-period means; rows of empty groups are NaN sentinels."""

    outcomes: np.ndarray
    covariates: np.ndarray
    empty: tuple


def within_group_means(data, gamma) -> WithinGroupMeans:
    """Group-by-period averages of outcomes, (G, T), and covariates, (G, T, p).

    Each group's rows are added one unit at a time; rows of empty groups
    are NaN and their labels are listed in ``empty``.
    """
    idx = gamma.labels - 1
    counts = np.bincount(idx, minlength=gamma.n_groups)
    ybar = np.zeros((gamma.n_groups, data.n_periods))
    xbar = np.zeros((gamma.n_groups, data.n_periods, data.n_covariates))
    np.add.at(ybar, idx, data.outcomes)
    np.add.at(xbar, idx, data.covariates)
    with np.errstate(invalid="ignore", divide="ignore"):
        ybar /= counts[:, None]
        xbar /= counts[:, None, None]
    empty = tuple(int(g) + 1 for g in np.nonzero(counts == 0)[0])
    return WithinGroupMeans(ybar, xbar, empty)


def update_alpha(data, theta, gamma) -> np.ndarray:
    """Optimal group effects at fixed slopes: alpha_gt = ybar_gt - xbar_gt' theta."""
    means = within_group_means(data, gamma)
    if means.empty:
        raise EmptyGroupError(means.empty)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if data.n_covariates == 0:
        return means.outcomes
    return means.outcomes - means.covariates @ theta


def gfe_update(data, gamma):
    """Closed-form pooled least squares at a fixed grouping, as ``(theta, alpha)``.

    Regresses group-demeaned outcomes on group-demeaned covariates.  Raises
    ``EmptyGroupError`` for an empty group and ``SingularDesignError`` when
    the demeaned design nearly vanishes against the period-demeaned one.
    """
    means = within_group_means(data, gamma)
    if means.empty:
        raise EmptyGroupError(means.empty)
    p = data.n_covariates
    if p == 0:
        return np.zeros(0), means.outcomes
    idx = gamma.labels - 1
    xt = (data.covariates - means.covariates[idx]).reshape(-1, p)
    yt = (data.outcomes - means.outcomes[idx]).ravel()
    xp = (data.covariates - data.covariates.mean(axis=0)).reshape(-1, p)
    gram = xt.T @ xt
    if np.linalg.eigvalsh(gram)[0] <= EPS_RANK * np.trace(xp.T @ xp) / p:
        raise SingularDesignError("demeaned design is rank deficient")
    theta = np.linalg.solve(gram, xt.T @ yt)
    return theta, means.outcomes - means.covariates @ theta
