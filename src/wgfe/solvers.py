"""Iterative solvers for the grouped panel criteria.

The workhorse is a Lloyd-type alternation between the mode's assignment rule
and the closed-form (GFE) or fixed-point (weighted) parameter update.  A
variable neighborhood search wraps Lloyd runs with random relocation jumps
and a systematic single-move local search to escape poor partitions, and
``multi_start`` runs many independently seeded searches and keeps the best.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import EmptyGroupError, NonConvergenceError, SingularDesignError, WgfeError
from .model import (
    GroupAssignment,
    GroupParameters,
    ObjectiveBreakdown,
    PanelDataset,
    _assignment_criterion,
    _clamped_sigma,
    _demean_by_group,
    _group_index,
    _group_means,
    _group_q,
    _least_squares,
    _profile_distances,
    _two_way_demeaned,
    residual_profiles,
    sigma_floor,
)

__all__ = [
    "SolverConfig",
    "EstimationResult",
    "solve_theta_fixed_point",
    "initialize",
    "lloyd",
    "vns",
    "multi_start",
]

_MODES = ("wgfe", "gfe", "ggfe")
_INIT_STRATEGIES = ("pooled_ols", "two_way_fe", "random", "provided")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the estimation pipeline.

    Parameters
    ----------
    mode : {"wgfe", "gfe", "ggfe"}
        Criterion to optimize.  The solvers in this module handle the first
        two; "ggfe" is consumed by :func:`wgfe.ggfe.ggfe_descent`.
    n_groups : int
        Number of latent groups G.
    n_restarts : int
        Independently seeded searches in :func:`multi_start`.
    max_lloyd_iters : int
        Cap on assignment/update rounds within one Lloyd run.
    fp_tol, fp_max_iters : float, int
        Relative tolerance and cap for the slope fixed point.
    vns_iter_max, vns_neigh_max : int
        Outer rounds and largest jump size of the neighborhood search.
        Setting both such that no jump runs (``vns_neigh_max=0``) reduces
        :func:`vns` to a single Lloyd run.
    seed : int
        Root seed; restart k draws from substream k regardless of execution
        order.
    assignment_rule : {"alg1", "eq6"}
        Scale-aware rule variant (the two share every argmin).
    init_strategy : {"pooled_ols", "two_way_fe", "random", "provided"}
        How to seed the slopes; "provided" requires ``initial_params``.
    n_threads : int
        Worker threads for restarts; results are identical for any value.
    """

    mode: str = "wgfe"
    n_groups: int = 2
    n_restarts: int = 20
    max_lloyd_iters: int = 100
    fp_tol: float = 1e-8
    fp_max_iters: int = 500
    vns_iter_max: int = 10
    vns_neigh_max: int = 10
    seed: int = 0
    assignment_rule: str = "alg1"
    init_strategy: str = "pooled_ols"
    initial_params: GroupParameters = None
    n_threads: int = 1

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")
        if self.max_lloyd_iters < 1:
            raise ValueError("max_lloyd_iters must be at least 1")
        if self.fp_tol <= 0:
            raise ValueError("fp_tol must be positive")
        if self.fp_max_iters < 1:
            raise ValueError("fp_max_iters must be at least 1")
        if self.vns_iter_max < 0 or self.vns_neigh_max < 0:
            raise ValueError("vns budgets must be non-negative")
        if self.assignment_rule not in ("alg1", "eq6"):
            raise ValueError(f"unknown assignment rule {self.assignment_rule!r}")
        if self.init_strategy not in _INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")
        if self.init_strategy == "provided" and self.initial_params is None:
            raise ValueError("init_strategy 'provided' requires initial_params")
        if self.n_threads < 1:
            raise ValueError("n_threads must be at least 1")


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Outcome of one estimation run."""

    params: GroupParameters
    assignment: GroupAssignment
    objective: float
    breakdown: ObjectiveBreakdown
    mode: str
    n_lloyd_iters: int
    n_restarts_used: int
    converged: bool
    trace: tuple


class _InitState(NamedTuple):
    """Internal warm-start triple; avoids container validation in hot loops."""

    theta: np.ndarray
    alpha: np.ndarray
    sigma: np.ndarray


def solve_theta_fixed_point(
    data: PanelDataset,
    gamma: GroupAssignment,
    theta_init: np.ndarray = None,
    *,
    tol: float = 1e-8,
    max_iters: int = 500,
):
    """Slopes, effects, and scales minimizing the weighted criterion at a fixed grouping.

    Successive substitution on the stationarity condition: at the current
    slopes, refresh the group effects (group means) and scales (root mean
    squared residuals), then re-solve the scale-weighted least squares
    problem

        theta = [sum 1/sigma_{g_i} xt xt']^{-1} sum 1/sigma_{g_i} xt yt

    in group-demeaned variables.  Iterates until the relative slope change
    falls below ``tol``.  This is the update the searches run at every
    candidate grouping.

    Returns
    -------
    theta : ndarray, shape (p,)
    alpha : ndarray, shape (G, T)
    sigma : ndarray, shape (G,)
        Clamped below by :func:`wgfe.model.sigma_floor`.

    Raises
    ------
    EmptyGroupError
        If the grouping has empty groups.
    NonConvergenceError
        If ``max_iters`` is exhausted; carries the last iterate and the
        stationarity residual.
    """
    _group_index(data, gamma)
    if theta_init is not None:
        theta_init = np.atleast_1d(np.asarray(theta_init, dtype=float))
    config = SolverConfig(mode="wgfe", fp_tol=tol, fp_max_iters=max_iters)
    return _fit_raw(data, gamma, config, theta_init)[:3]


def _fit_raw(data, gamma, config, theta_seed=None):
    """One full parameter update at a fixed grouping.

    Shares the group-means computation across the slope solve, the scale
    refresh, and the criterion so the hot loops touch each array once.
    Returns ``(theta, alpha, sigma, q, value)`` without building the result
    containers; raises like :func:`solve_theta_fixed_point`.
    """
    idx = gamma.labels - 1
    counts = np.bincount(idx, minlength=gamma.n_groups)
    if np.any(counts == 0):
        raise EmptyGroupError(np.nonzero(counts == 0)[0] + 1)
    n, t, p = data.n_units, data.n_periods, data.n_covariates
    y = data.outcomes
    x = data.covariates
    if p:
        ybar, xbar, yt, xt = _demean_by_group(data, idx, counts)
        xt = xt.reshape(n * t, p)
        yt = yt.ravel()
    else:
        ybar, xbar = _group_means(data, idx, counts)
    floor = sigma_floor(data)

    def group_q(theta):
        alpha = ybar - xbar @ theta if p else ybar
        resid = (y - x @ theta if p else y) - alpha[idx]
        return alpha, _group_q(resid, idx, counts)

    if p == 0 or config.mode == "gfe":
        theta = _least_squares(xt, yt) if p else np.zeros(0)
        alpha, q = group_q(theta)
        w = counts / n
        value = float(w @ q) if config.mode == "gfe" else float(w @ np.sqrt(q))
        return theta, alpha, _clamped_sigma(q, floor), q, value

    def weighted_ls(sigma):
        wobs = np.repeat(1.0 / sigma[idx], t)
        return _least_squares(xt, yt, xt * wobs[:, None])

    if theta_seed is None:
        theta = _least_squares(xt, yt)
    else:
        theta = np.asarray(theta_seed, dtype=float)
    tol = config.fp_tol
    converged = False
    for _ in range(config.fp_max_iters):
        _, q = group_q(theta)
        theta_new = weighted_ls(_clamped_sigma(q, floor))
        step = np.linalg.norm(theta_new - theta)
        theta = theta_new
        if step <= tol * (1.0 + np.linalg.norm(theta)):
            converged = True
            break
    alpha, q = group_q(theta)
    sigma = _clamped_sigma(q, floor)
    residual = np.linalg.norm(weighted_ls(sigma) - theta)
    if not converged or residual > 10.0 * tol * (1.0 + np.linalg.norm(theta)):
        raise NonConvergenceError(
            f"slope fixed point stalled (residual {residual:.3e})",
            last_iterate=(theta, alpha, sigma),
            residual=residual,
        )
    value = float((counts / n) @ np.sqrt(q))
    return theta, alpha, sigma, q, value


def _fit_at_assignment(data, gamma, config, theta_seed=None):
    """One full parameter update at a fixed grouping, with its criterion."""
    theta, alpha, sigma, q, value = _fit_raw(data, gamma, config, theta_seed)
    params = GroupParameters(theta, alpha, sigma, gamma.weights())
    return params, ObjectiveBreakdown(q, params.weights, value)


def _assign(data, theta, alpha, sigma, config):
    crit = _assignment_criterion(
        data,
        theta,
        alpha,
        None if config.mode == "gfe" else sigma,
        config.assignment_rule,
    )
    return GroupAssignment(np.argmin(crit, axis=1) + 1, alpha.shape[0]), crit


def _repair_empty(gamma, crit):
    """Move worst-fit units into empty groups, one per empty group.

    The donor is the movable unit whose assigned-group criterion value is
    largest; its residual profile becomes the seed for the empty group once
    parameters are refreshed.  Ascending group order, ties to the lowest
    unit index.
    """
    counts = gamma.counts()
    if not np.any(counts == 0):
        return gamma
    labels = gamma.labels.copy()
    n = labels.shape[0]
    for g in np.nonzero(counts == 0)[0] + 1:
        assigned = crit[np.arange(n), labels - 1]
        movable = counts[labels - 1] > 1
        if not np.any(movable):
            raise EmptyGroupError([g])
        candidate = np.where(movable, assigned, -np.inf)
        i_star = int(np.argmax(candidate))
        counts[labels[i_star] - 1] -= 1
        labels[i_star] = g
        counts[g - 1] += 1
    return GroupAssignment(labels, gamma.n_groups)


def initialize(
    data: PanelDataset, config: SolverConfig, rng: np.random.Generator
) -> GroupParameters:
    """Starting parameters for a search.

    Slopes come from the configured strategy (pooled OLS, two-way within
    OLS, a standard normal draw, or user-provided parameters).  The effect
    rows are the residual profiles of G distinct randomly chosen units; the
    scales and weights follow from the nearest-profile assignment those rows
    induce, with empty groups falling back to the pooled residual scale.
    """
    if config.init_strategy == "provided":
        params = config.initial_params
        if params.n_groups != config.n_groups or params.n_periods != data.n_periods:
            raise ValueError("provided initial_params do not match data/config shapes")
        if params.theta.shape != (data.n_covariates,):
            raise ValueError("provided theta has the wrong length")
        return params
    n, p, g = data.n_units, data.n_covariates, config.n_groups
    if n < g:
        raise ValueError(f"need at least {g} units to seed {g} groups")
    theta = _initial_theta(data, config.init_strategy, rng)
    v = residual_profiles(data, theta)
    rows = rng.choice(n, size=g, replace=False)
    alpha = v[rows].copy()
    d2 = _profile_distances(data, theta, alpha)
    idx = np.argmin(d2, axis=1)
    counts = np.bincount(idx, minlength=g)
    resid = v - alpha[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        q = _group_q(resid, idx, counts)
    q = np.where(counts > 0, q, np.mean(resid * resid))
    return GroupParameters(theta, alpha, _clamped_sigma(q, sigma_floor(data)), counts / n)


def _initial_theta(data, strategy, rng):
    p = data.n_covariates
    if p == 0:
        return np.zeros(0)
    if strategy == "random":
        return rng.standard_normal(p)
    if strategy == "pooled_ols":
        y, x = data.outcomes.ravel(), data.covariates.reshape(-1, p)
    else:  # two_way_fe
        y, x = _two_way_demeaned(data)
    try:
        return _least_squares(x, y)
    except SingularDesignError:
        warnings.warn(
            f"{strategy} start is singular, falling back to zero slopes", stacklevel=3
        )
        return np.zeros(p)


def lloyd(
    data: PanelDataset, config: SolverConfig, init: GroupParameters
) -> EstimationResult:
    """Alternate the mode's assignment rule with full parameter updates.

    Starting from ``init``, assigns every unit by the rule, refreshes
    parameters at the new grouping, and repeats until the assignment stops
    changing or ``max_lloyd_iters`` is hit.  Assignments that empty a group
    are repaired by reseeding the group from the worst-fit unit.

    The returned state is self-consistent: parameters are the update at the
    returned assignment, and the assignment reproduces itself under the rule
    at those parameters.

    The scale-aware rule is not an exact descent step on the weighted
    criterion.  At fixed slopes and effects, moving one unit from group s to
    group h changes the criterion by about

        (d_h / sigma_h + T sigma_h - d_s / sigma_s - T sigma_s) / (2 N T),

    with d the unit's squared profile distance, so the rule's scale penalty
    is T times smaller than the criterion's, and the objective can rise for
    a step or two before settling.  ``trace`` therefore reports the final
    descent stretch, from the last such rise to the fixed point, and is
    non-increasing by construction; ``n_lloyd_iters`` counts every round.
    """
    if config.mode not in ("wgfe", "gfe"):
        raise ValueError(f"lloyd handles modes 'wgfe'/'gfe', got {config.mode!r}")
    state, gamma, trace, n_iters, converged = _lloyd_raw(data, config, init)
    return _build_result(config, state, gamma, n_iters, converged, trace)


def _lloyd_raw(data, config, init, fit=None):
    if fit is None:
        fit = lambda gamma, seed: _fit_raw(data, gamma, config, theta_seed=seed)
    gamma, crit = _assign(data, init.theta, init.alpha, init.sigma, config)
    gamma = _repair_empty(gamma, crit)
    trace = []
    state = None
    converged = False
    n_iters = 0
    for it in range(config.max_lloyd_iters):
        n_iters = it + 1
        seed = state[0] if state is not None else init.theta
        state = fit(gamma, seed)
        trace.append(state[4])
        gamma_next, crit = _assign(data, state[0], state[1], state[2], config)
        gamma_next = _repair_empty(gamma_next, crit)
        if gamma_next.same_as(gamma):
            converged = True
            break
        if it == config.max_lloyd_iters - 1:
            break
        gamma = gamma_next
    start = 0
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1] + 1e-12 * (1.0 + abs(trace[i - 1])):
            start = i
    return state, gamma, tuple(trace[start:]), n_iters, converged


def _build_result(config, state, gamma, n_iters, converged, trace, n_restarts=1):
    theta, alpha, sigma, q, value = state
    weights = gamma.weights()
    return EstimationResult(
        params=GroupParameters(theta, alpha, sigma, weights),
        assignment=gamma,
        objective=value,
        breakdown=ObjectiveBreakdown(q, weights, value),
        mode=config.mode,
        n_lloyd_iters=n_iters,
        n_restarts_used=n_restarts,
        converged=converged,
        trace=trace,
    )


def _jump(gamma, n_moves, rng):
    """Relocate ``n_moves`` random units to random other groups.

    Any group emptied by the relocation is refilled with a random unit from
    a group that still has at least two members, so downstream updates stay
    well defined.
    """
    g = gamma.n_groups
    if g < 2:
        return gamma
    labels = gamma.labels.copy()
    n = labels.shape[0]
    movers = rng.choice(n, size=min(n_moves, n), replace=False)
    for i in movers:
        offset = rng.integers(1, g)
        labels[i] = (labels[i] - 1 + offset) % g + 1
    counts = np.bincount(labels - 1, minlength=g)
    for gg in np.nonzero(counts == 0)[0] + 1:
        donors = np.nonzero(counts[labels - 1] > 1)[0]
        i = donors[rng.integers(donors.shape[0])]
        counts[labels[i] - 1] -= 1
        labels[i] = gg
        counts[gg - 1] += 1
    return GroupAssignment(labels, g)


def _local_search(data, gamma, state, config, max_sweeps=100, fit=None):
    """First-improvement single-move search on the mode's objective.

    Scans units and target groups in index order; every accepted move
    re-fits parameters exactly.  Repeats sweeps until none improves.
    """
    if fit is None:
        fit = lambda cand, seed: _fit_raw(data, cand, config, theta_seed=seed)
    obj = state[4]
    n, g = data.n_units, config.n_groups
    for _ in range(max_sweeps):
        improved = False
        counts = gamma.counts()
        labels = gamma.labels
        for i in range(n):
            src = labels[i]
            if counts[src - 1] <= 1:
                continue
            for h in range(1, g + 1):
                if h == src:
                    continue
                cand_labels = labels.copy()
                cand_labels[i] = h
                cand = GroupAssignment(cand_labels, g)
                try:
                    cand_state = fit(cand, state[0])
                except NonConvergenceError:
                    continue
                if cand_state[4] < obj - 1e-12 * (1.0 + abs(obj)):
                    gamma, state = cand, cand_state
                    obj = cand_state[4]
                    labels = gamma.labels
                    counts = gamma.counts()
                    improved = True
                    break
        if not improved:
            break
    return gamma, state


def vns(
    data: PanelDataset, config: SolverConfig, rng: np.random.Generator
) -> EstimationResult:
    """Variable neighborhood search around Lloyd descents.

    One seeded initialization and Lloyd run fix the incumbent.  Then, for up
    to ``vns_iter_max`` rounds, a jump relocates n random units of the
    incumbent grouping, one update step re-fits parameters, a Lloyd descent
    and a single-move local search polish the result, and the incumbent is
    replaced whenever the final objective strictly improves on the best
    found so far (resetting n to 1); otherwise n escalates to
    ``vns_neigh_max``.  With ``vns_neigh_max=0`` this is exactly one Lloyd
    run.
    """
    cache = {}

    def fit(gamma, seed):
        # partitions recur constantly across jump cycles; the first state
        # computed for a labeling is reused verbatim within this search
        key = gamma.labels.tobytes()
        state = cache.get(key)
        if state is None:
            state = _fit_raw(data, gamma, config, theta_seed=seed)
            cache[key] = state
        return state

    init = initialize(data, config, rng)
    best_state, best_gamma, _, total_iters, converged = _lloyd_raw(
        data, config, init, fit
    )
    best_obj = best_state[4]
    improvements = [best_obj]
    for _ in range(config.vns_iter_max):
        n = 1
        while n <= config.vns_neigh_max:
            gamma_j = _jump(best_gamma, n, rng)
            try:
                state_j = fit(gamma_j, best_state[0])
                init_j = _InitState(state_j[0], state_j[1], state_j[2])
                state_d, gamma_d, _, iters_d, conv_d = _lloyd_raw(
                    data, config, init_j, fit
                )
                total_iters += iters_d
                gamma_c, state_c = _local_search(data, gamma_d, state_d, config, fit=fit)
            except NonConvergenceError:
                n += 1
                continue
            if state_c[4] < best_obj - 1e-12 * (1.0 + abs(best_obj)):
                best_gamma, best_state = gamma_c, state_c
                best_obj = state_c[4]
                converged = converged or conv_d
                improvements.append(best_obj)
                n = 1
            else:
                n += 1
    return _build_result(
        config, best_state, best_gamma, total_iters, converged, tuple(improvements)
    )


def multi_start(data: PanelDataset, config: SolverConfig) -> EstimationResult:
    """Best of ``n_restarts`` independently seeded searches.

    Restart k draws from substream k of ``config.seed``, so the selected
    result is identical whether restarts run serially or on a thread pool.
    Ties in the objective go to the lowest restart index.  A restart that
    raises a package error or a linear-algebra failure is skipped; any other
    exception propagates.  Raises ``NonConvergenceError`` only when every
    restart fails.
    """
    streams = np.random.SeedSequence(config.seed).spawn(config.n_restarts)

    def run(k):
        try:
            return vns(data, config, np.random.default_rng(streams[k]))
        except (WgfeError, np.linalg.LinAlgError) as exc:
            return exc

    if config.n_threads > 1:
        with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
            outcomes = list(pool.map(run, range(config.n_restarts)))
    else:
        outcomes = [run(k) for k in range(config.n_restarts)]

    best = None
    n_ok = 0
    failures = []
    for k, out in enumerate(outcomes):
        if isinstance(out, Exception):
            failures.append((k, out))
            continue
        n_ok += 1
        if best is None or out.objective < best.objective:
            best = out
    if best is None:
        raise NonConvergenceError(
            f"all {config.n_restarts} restarts failed; first error: {failures[0][1]}"
        ) from failures[0][1]
    return replace(best, n_restarts_used=n_ok)
