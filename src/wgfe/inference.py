"""Inference on fitted groupings: variances, a heteroskedasticity gap, BIC.

Slope variances use a scale-weighted sandwich clustered by unit: the bread
weights each demeaned observation by the inverse estimated scale of its
group, the meat additionally squares that weight, and serial correlation
within a unit is left unrestricted.  With a single group (or equal group
scales) the weights cancel and the estimator collapses to the standard
cluster-robust variance of the within-demeaned regression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyGroupError, WgfeError
from .model import (
    GroupAssignment,
    PanelDataset,
    _clamped_sigma,
    _group_demeaned,
    _group_sums,
    gfe_objective,
    sigma_floor,
    wgfe_objective,
)
from .solvers import EstimationResult, SolverConfig, multi_start

__all__ = [
    "InferenceResult",
    "HomoskedasticityTest",
    "GroupCandidate",
    "GroupSelection",
    "variance_estimates",
    "homoskedasticity_test",
    "select_n_groups",
]


@dataclass(frozen=True, eq=False)
class InferenceResult:
    """Variance estimates at a fitted grouping.

    Fields
    ------
    var_theta : ndarray, shape (p, p)
        Sandwich covariance of the slopes (already divided by NT).
    se_theta : ndarray, shape (p,)
    sigma2_hat : ndarray, shape (G,)
        Group residual variances.
    var_alpha : ndarray, shape (G, T)
        Pointwise variances of the group effects.
    dof_correction : bool
        Whether the meat was scaled by NT / (NT - p).
    """

    var_theta: np.ndarray
    se_theta: np.ndarray
    sigma2_hat: np.ndarray
    var_alpha: np.ndarray
    dof_correction: bool


@dataclass(frozen=True)
class HomoskedasticityTest:
    """Scaled gap between the pooled criterion and the squared weighted one.

    ``tau = d_nt * (q_gfe - q_wgfe**2)`` with ``d_nt = N T``.  It is
    non-negative at a weighted optimum and exactly zero when every group
    shares one scale; it is a descriptive diagnostic, no null distribution
    is attached.
    """

    tau: float
    q_gfe: float
    q_wgfe: float
    d_nt: float


@dataclass(frozen=True)
class GroupCandidate:
    """One row of the group-count selection table."""

    n_groups: int
    objective: float
    ssr: float
    bic: float
    converged: bool
    message: str = None


@dataclass(frozen=True)
class GroupSelection:
    """BIC table over candidate group counts and the chosen count."""

    rows: tuple
    selected: int
    sigma2_base: float


def _residuals(data, result):
    idx = result.assignment.labels - 1
    fitted = result.params.alpha[idx]
    if data.n_covariates:
        fitted = fitted + data.covariates @ result.params.theta
    return data.outcomes - fitted


def variance_estimates(data: PanelDataset, result: EstimationResult) -> InferenceResult:
    """Sandwich slope variances and group-level variances at a fit.

    Parameters
    ----------
    data : PanelDataset
    result : EstimationResult
        A fit whose assignment has no empty group.

    Returns
    -------
    InferenceResult

    Notes
    -----
    The slope covariance is B^{-1} V B^{-1} / (NT) with

        B = (1/NT) sum_it  xt_it xt_it' / s_i
        V = (1/NT) sum_i  (sum_t xt_it u_it)(sum_s xt_is u_is)' / s_i^2

    where s_i is the estimated scale of unit i's group and xt is demeaned by
    group-period averages.  The meat carries an NT/(NT-p) degrees-of-freedom
    factor by default.  Group effect variances divide each period's summed
    squared residuals by the squared group size.
    """
    gamma = result.assignment
    if gamma.empty_groups():
        raise EmptyGroupError(gamma.empty_groups())
    n, t, p = data.n_units, data.n_periods, data.n_covariates
    counts = gamma.counts()
    idx = gamma.labels - 1
    u = _residuals(data, result)

    u2_by_group = _group_sums(idx, gamma.n_groups, u * u)
    sigma2 = u2_by_group.sum(axis=1) / (t * counts)
    var_alpha = u2_by_group / counts[:, None] ** 2

    if p == 0:
        return InferenceResult(
            var_theta=np.zeros((0, 0)),
            se_theta=np.zeros(0),
            sigma2_hat=sigma2,
            var_alpha=var_alpha,
            dof_correction=False,
        )

    if n * t <= p:
        raise ValueError("panel too small for a degrees-of-freedom correction")
    sigma_hat = _clamped_sigma(sigma2, sigma_floor(data))
    xt = _group_demeaned(idx, counts, data.covariates)[1]
    w = 1.0 / sigma_hat[idx]
    bread = np.einsum("i,itp,itq->pq", w, xt, xt) / (n * t)
    scores = np.einsum("itp,it->ip", xt, u)
    meat = np.einsum("i,ip,iq->pq", w * w, scores, scores) / (n * t)
    meat *= (n * t) / (n * t - p)
    bread_inv = np.linalg.inv(bread)
    var_theta = bread_inv @ meat @ bread_inv / (n * t)
    var_theta = (var_theta + var_theta.T) / 2.0
    return InferenceResult(
        var_theta=var_theta,
        se_theta=np.sqrt(np.diag(var_theta)),
        sigma2_hat=sigma2,
        var_alpha=var_alpha,
        dof_correction=True,
    )


def homoskedasticity_test(
    data: PanelDataset, result: EstimationResult
) -> HomoskedasticityTest:
    """Jensen-gap diagnostic for group heteroskedasticity.

    Evaluates both criteria at the fitted parameters and assignment and
    scales their gap by NT.  Values near zero are consistent with a common
    error scale across groups.
    """
    theta, alpha = result.params.theta, result.params.alpha
    q_wgfe = wgfe_objective(data, theta, alpha, result.assignment).value
    q_gfe = gfe_objective(data, theta, alpha, result.assignment).value
    d_nt = float(data.n_units * data.n_periods)
    return HomoskedasticityTest(
        tau=d_nt * (q_gfe - q_wgfe * q_wgfe),
        q_gfe=q_gfe,
        q_wgfe=q_wgfe,
        d_nt=d_nt,
    )


def select_n_groups(
    data: PanelDataset, config: SolverConfig, g_max: int
) -> GroupSelection:
    """Pick the group count in 1..g_max by a BIC on the pooled residuals.

    Each candidate count is fit with :func:`wgfe.solvers.multi_start` under
    ``config``; the criterion is

        BIC(G) = sigma2_base * (G T + N + p) ln(NT) / NT + SSR(G) / NT

    with ``sigma2_base`` the pooled residual variance of the most generous
    fit (G = g_max).  Counts whose BIC ties the minimum within 1e-9 resolve
    to the smallest count, so a perfectly fit panel selects the most
    parsimonious perfect count.  A count above N, and a candidate whose
    search fails with a package error or a linear-algebra failure, is
    recorded in the table and skipped; any other exception propagates.
    """
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    if config.mode not in ("wgfe", "gfe"):
        raise ValueError("group-count selection supports modes 'wgfe' and 'gfe'")
    n, t, p = data.n_units, data.n_periods, data.n_covariates
    nt = n * t
    fits = {}
    failures = {}
    for g in range(1, g_max + 1):
        if g > n:
            failures[g] = f"need at least {g} units to seed {g} groups"
            continue
        try:
            fits[g] = multi_start(data, replace(config, n_groups=g))
        except (WgfeError, np.linalg.LinAlgError) as exc:
            failures[g] = str(exc)
    if g_max not in fits:
        raise ValueError(f"reference fit at g_max={g_max} failed: {failures[g_max]}")

    def pooled_ssr(res):
        theta, alpha = res.params.theta, res.params.alpha
        return gfe_objective(data, theta, alpha, res.assignment).value * nt

    sigma2_base = pooled_ssr(fits[g_max]) / nt
    rows = []
    best_bic = np.inf
    for g in range(1, g_max + 1):
        if g not in fits:
            rows.append(
                GroupCandidate(g, np.nan, np.nan, np.nan, False, failures[g])
            )
            continue
        res = fits[g]
        ssr = pooled_ssr(res)
        penalty = sigma2_base * (g * t + n + p) * np.log(nt) / nt
        bic = penalty + ssr / nt
        rows.append(GroupCandidate(g, res.objective, ssr, bic, res.converged))
        best_bic = min(best_bic, bic)
    selected = None
    for row in rows:
        if row.message is None and row.bic <= best_bic + 1e-9 * (1.0 + abs(best_bic)):
            selected = row.n_groups
            break
    return GroupSelection(rows=tuple(rows), selected=selected, sigma2_base=sigma2_base)
