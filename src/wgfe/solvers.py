"""Iterative solvers for the grouped panel criteria.

The workhorse is a Lloyd-type alternation between the mode's assignment rule
and the closed-form (GFE) or fixed-point (weighted) parameter update.  A
variable neighborhood search wraps Lloyd runs with random relocation jumps
and a systematic single-move local search to escape poor partitions, and
``multi_start`` runs many independently seeded searches and keeps the best.
Each search is a generator of fit requests, and one driver (``_drive``)
fits the requests of every running search in one batched fixed point.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyGroupError, NonConvergenceError, SingularDesignError, WgfeError
from .model import (
    EPS_RANK,
    GroupAssignment,
    GroupParameters,
    ObjectiveBreakdown,
    PanelDataset,
    _clamped_sigma,
    _group_gram,
    _group_index,
    _group_q,
    _least_squares,
    _profile_criterion,
    _rank_deficient,
    _singular_design,
    _stacked,
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

logger = logging.getLogger(__name__)

_MODES = ("wgfe", "gfe", "ggfe")


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
        Relative tolerance (positive and finite) and cap for the slope
        fixed point.
    vns_iter_max, vns_neigh_max : int
        Outer rounds and largest jump size of the neighborhood search.
        Setting both such that no jump runs (``vns_neigh_max=0``) reduces
        :func:`vns` to a single Lloyd run.
    seed : int
        Non-negative root seed; restart k draws from substream k regardless
        of execution order.
    assignment_rule : {"alg1"}
        The scale-aware assignment rule of the paper's Algorithm 1.
    n_threads : int
        Has no effect: every search runs on the calling thread.  Kept, and
        still checked to be at least 1, for callers that set it.
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
        if not 0 < self.fp_tol < np.inf:
            raise ValueError(f"fp_tol must be positive and finite, got {self.fp_tol!r}")
        if self.fp_max_iters < 1:
            raise ValueError("fp_max_iters must be at least 1")
        if self.vns_iter_max < 0 or self.vns_neigh_max < 0:
            raise ValueError("vns budgets must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.assignment_rule != "alg1":
            raise ValueError(f"unknown assignment rule {self.assignment_rule!r}")
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


def solve_theta_fixed_point(
    data: PanelDataset,
    gamma: GroupAssignment,
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

    in group-demeaned variables, starting from the unweighted slopes at the
    grouping.  Iterates until the relative slope change falls below
    ``tol``.  This is the update the searches run at every candidate
    grouping (they start it at their current slopes), computed from
    per-group sufficient statistics (see ``_Kernel``); it agrees with the
    direct computation on the panel to rounding.

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
    SingularDesignError
        If the group-demeaned design's smallest eigenvalue is at most
        ``EPS_RANK`` times the period-demeaned design's mean eigenvalue
        (the slopes are not identified at the grouping, as for a covariate
        constant within each group and period), or a scale-weighted one's
        is at most ``EPS_RANK`` times its own mean eigenvalue.
    """
    _group_index(data, gamma)
    config = SolverConfig(
        mode="wgfe", n_groups=gamma.n_groups, fp_tol=tol, fp_max_iters=max_iters
    )
    return _Kernel(data, config).fit(gamma.labels)[:3]


#: A Q_g below this share of a bound on the magnitudes that cancel in it is
#: rounding noise of its sufficient-statistics form, and reads as 0.  Exact
#: fits of up to 5000 units, with group effects up to 1e4 apart, left noise
#: below 1e-15 of that bound.
_Q_ROUNDING = 2.0**12 * np.finfo(float).eps

#: Seed of the random codes that key labelings in a search's cache.
_KEY_SEED = 20231

#: Largest ratio of a removed unit's scatter to the scatter left in its
#: group (per variable) that a move's downdate may carry: the fit loses
#: about this factor times eps of relative precision.
_DOWNDATE_LIMIT = 2.0**8

#: Moving m units' statistics (:meth:`_Kernel.move_units`) costs about
#: what rebuilding them costs at _MOVE_RATIO * (m + _MOVE_OVERHEAD) units:
#: timed on one core at N from 90 to 10^4, G = 2 and 3, T = 7, p = 2.  A
#: round that moves more rebuilds them from all units.
_MOVE_RATIO = 4
_MOVE_OVERHEAD = 100

#: Most single moves the local search fits in one batched fixed point
#: (whole units at a time, so at least one unit's moves).
_MOVE_BATCH = 256

#: Most sweeps of one local search.
_MAX_SWEEPS = 100


def _outer_sums(dev):
    """sum_t d_t d_t' for each row of a (K, T, a) stack, flattened to (K, a * a)."""
    k, _, a = dev.shape
    return (dev.transpose(0, 2, 1) @ dev).reshape(k, a * a)


class _Kernel:
    """The parameter update at a fixed grouping, from per-group sufficient statistics.

    Built once per search.  Outcomes and covariates are stacked as
    z = (y, x), of shape (N, T, 1 + p), and centred by their period means;
    ``rows`` holds the centred z's N * T rows and, after them, the T rows of
    the centre, so that one product with (1, -theta) gives the centred
    residual profiles and their centre (see :func:`_assign`).  A grouping
    enters only through its counts n_g, its group means zbar_gt and its
    within-group cross products

        M_g = sum_{i in g} sum_t (z_it - zbar_gt) (z_it - zbar_gt)',

    summed from group-centred rows (:meth:`stats`), so that neither a shift
    of the data nor groups that sit far apart cancel digits; a Lloyd round
    may instead move the previous grouping's statistics by the units that
    changed group (:meth:`move_units`), under the same guard against a
    lossy downdate as a single move.  With v = (1, -theta),
    Q_g(theta) = v' M_g v / (T n_g); the weighted normal equations are
    sum_g M_g[x, x] / sigma_g and sum_g M_g[x, y] / sigma_g.  The slope
    fixed point therefore runs on G small matrices and never touches the
    (N, T) arrays.

    Moving unit i from group s to group h changes the statistics by
    rank-one terms in its deviations d_g = z_i - zbar_g from the two
    groups' means (Welford's update):

        M_h + n_h / (n_h + 1) sum_t d_ht d_ht',
        M_s - n_s / (n_s - 1) sum_t d_st d_st',

    so :meth:`move_stats` stacks a whole neighbourhood for one batch.  Moving a
    set of units is the pairwise form of the same update (Chan, Golub and
    LeVeque), in deviations from a group's mean before the move: with
    e_i = z_i - zbar for the units that leave the group, f_j = z_j - zbar
    for those that arrive and s = sum_j f_j - sum_i e_i, the group's n'
    members after the move have

        zbar + s / n',
        M + sum_j sum_t f_jt f_jt' - sum_i sum_t e_it e_it' - sum_t s_t s_t' / n',

    which is taking the leavers out and then adding the arrivals.
    """

    def __init__(self, data, config):
        self.config = config
        self.n_groups = config.n_groups
        z = _stacked(data)
        n, t, a = z.shape
        centre = z.mean(axis=0)
        self.rows = np.concatenate([(z - centre).reshape(n * t, a), centre])
        self.z = self.rows[: n * t].reshape(n, t, a)
        self.centre = self.rows[n * t :]
        self.floor = sigma_floor(data)
        # mean eigenvalue of the period-demeaned design's Gram matrix, which
        # no grouping's within-group Gram matrix exceeds (zero when p = 0)
        p = data.n_covariates
        self.design_scale = float(np.sum(self.z[..., 1:] ** 2)) / max(p, 1)

    def stats(self, labels):
        """Counts (G,), means (G, T, 1 + p) and within-group cross products (G, (1 + p)^2).

        ``labels`` is a 1-based label array, read and never written.
        """
        idx = labels - 1
        g = self.n_groups
        counts = np.bincount(idx, minlength=g)
        if np.any(counts == 0):
            raise EmptyGroupError(np.nonzero(counts == 0)[0] + 1)
        n, t, a = self.z.shape
        # one one-hot matmul, not _group_sums: this is the search's hot path,
        # and the fits' last digits follow the BLAS order of these sums
        members = (idx == np.arange(g)[:, None]).astype(float)
        sums = members @ self.z.reshape(n, t * a)
        means = sums.reshape(g, t, a) / counts[:, None, None]
        cross = _group_gram(idx, g, self.z, means)
        return counts, means, cross.reshape(g, a * a)

    def move_units(self, stats, labels, new, units):
        """The statistics of ``new``, moved from ``stats``, those of ``labels``.

        ``units`` holds the indices of the units whose labels differ, in
        ascending order.  Each group loses the units that left it and gains
        the units that arrived, in one pass, as in the class docstring;
        ``stats`` is read and never written.  Falls back to ``stats(new)``
        when so many units moved that a rebuild costs less
        (``_MOVE_RATIO``), when a group loses all its members, or when what
        a group's update subtracts exceeds ``_DOWNDATE_LIMIT`` times what is
        left (per variable), the test of :meth:`move_stats`.
        """
        if _MOVE_RATIO * (units.size + _MOVE_OVERHEAD) > labels.shape[0]:
            return self.stats(new)
        g = self.n_groups
        src, dst = labels[units] - 1, new[units] - 1
        counts, means, cross = stats
        out = np.bincount(src, minlength=g)
        if not (counts - out).all():
            return self.stats(new)
        t, a = means.shape[1:]
        # deviations of the leavers (sides 0..G-1) and of the arrivals (sides
        # G..2G-1) from the mean their group has before the move
        sides = np.concatenate([src, dst + g])
        before = means[np.concatenate([src, dst])].reshape(2, units.size, t, a)
        dev = (self.z[units] - before).reshape(2 * units.size, t, a)
        members = (sides == np.arange(2 * g)[:, None]).astype(float)
        sums = (members @ dev.reshape(-1, t * a)).reshape(2, g, t, a)
        grams = _group_gram(sides, 2 * g, dev).reshape(2, g, a * a)
        shift = sums[1] - sums[0]
        counts = counts - out + np.bincount(dst, minlength=g)
        removed = grams[0] + _outer_sums(shift) / counts[:, None]
        cross = cross + grams[1] - removed
        # a lone member has no spread about its own mean
        lone = counts == 1
        cross[lone] = 0.0
        lossy = removed[:, :: a + 1] > _DOWNDATE_LIMIT * cross[:, :: a + 1]
        if lossy[~lone].any():
            return self.stats(new)
        return counts, means + shift / counts[:, None, None], cross

    def fit(self, labels, seed=None):
        """The update at one grouping, as ``(theta, alpha, sigma, q, value)``.

        Raises like :func:`solve_theta_fixed_point`.
        """
        counts, means, cross = self.stats(labels)
        seeds = None if seed is None else np.asarray(seed, dtype=float)[None]
        out = self._solve(counts[None], means[None], cross[None], seeds)[0]
        if isinstance(out, Exception):
            raise out
        return out

    def move_stats(self, labels, seed, units, targets):
        """The fit request of the groupings one move away from ``labels``.

        Move k sends unit ``units[k]`` to group ``targets[k]``; its source
        group must keep a member.  Every fit is seeded at ``seed``.  Returns
        the stacked statistics and seeds, as :func:`_request` builds them.

        Taking a unit out of a group cancels digits in proportion to its
        share of the group's scatter; a move whose share exceeds
        ``_DOWNDATE_LIMIT`` times what is left gets the statistics of its
        own labeling instead.
        """
        counts, means, cross = self.stats(labels)
        k = units.shape[0]
        a = means.shape[2]
        rows = np.arange(k)
        src, dst = labels[units] - 1, targets - 1
        n_src, n_dst = counts[src][:, None], counts[dst][:, None]
        d_src = self.z[units] - means[src]
        d_dst = self.z[units] - means[dst]
        counts = np.repeat(counts[None], k, axis=0)
        counts[rows, src] -= 1
        counts[rows, dst] += 1
        means = np.repeat(means[None], k, axis=0)
        means[rows, src] -= d_src / (n_src - 1)[:, None]
        means[rows, dst] += d_dst / (n_dst + 1)[:, None]
        cross = np.repeat(cross[None], k, axis=0)
        removed = n_src / (n_src - 1) * _outer_sums(d_src)
        cross[rows, src] -= removed
        cross[rows, dst] += n_dst / (n_dst + 1) * _outer_sums(d_dst)
        # a lone member has no spread about its own mean
        lone = n_src[:, 0] == 2
        cross[rows[lone], src[lone]] = 0.0
        left = cross[rows, src, :: a + 1]
        lossy = ~lone & np.any(removed[:, :: a + 1] > _DOWNDATE_LIMIT * left, axis=1)
        for r in np.flatnonzero(lossy):
            moved = labels.copy()
            moved[units[r]] = targets[r]
            counts[r], means[r], cross[r] = self.stats(moved)
        seeds = np.repeat(np.asarray(seed, dtype=float)[None], k, axis=0)
        return counts, means, cross, seeds

    def _solve(self, counts, means, cross, seeds):
        """The update at K groupings from their stacked statistics.

        Successive substitution, as documented at
        :func:`solve_theta_fixed_point`, on all K at once; a grouping's
        slopes stop moving once its own step is small.  Returns one outcome
        per grouping: a state, or the exception its fit raised.
        """
        config = self.config
        k, g = counts.shape
        a = self.centre.shape[1]
        aa = a * a
        tol = config.fp_tol
        # Q_g = v' M_g v / (T n_g) with v = (1, -theta); by Cauchy-Schwarz the
        # magnitudes that cancel in it are bounded by (sum_a |v_a| r_ga)^2 with
        # r_g = sqrt(diag M_g / (T n_g)), and below _Q_ROUNDING times that
        # bound Q_g is rounding noise
        scale = 1.0 / (means.shape[2] * counts)
        forms = cross * scale[..., None]
        roots = np.sqrt(np.maximum(forms[..., :: a + 1], 0.0) * _Q_ROUNDING)
        v = np.ones((k, a))
        # rows whose design was singular, with its smallest eigenvalue
        failed = np.zeros(k, dtype=bool)
        min_eigs = np.zeros(k)
        if a > 1:
            eigs = np.linalg.eigvalsh(cross.sum(axis=1).reshape(k, a, a)[:, 1:, 1:])
            # a within-group design is unidentified when it nearly vanishes
            # against the period-demeaned one, even if it is well conditioned
            min_eigs = eigs[:, 0].copy()
            failed = min_eigs <= EPS_RANK * self.design_scale
            # positive weights w_g scale the smallest eigenvalue of
            # sum_g w_g M_g[x, x] by at least min w and its trace by at most
            # max w, so the weighted rank check can only fail where the
            # unweighted design's margin does not cover twice the spread of
            # the weights
            plain_min = eigs[:, 0] * (a - 1)
            plain_trace = 2.0 * EPS_RANK * eigs.sum(axis=1)

        def group_q(theta):
            v[:, 1:] = -theta
            q = (forms @ (v[:, :, None] * v[:, None, :]).reshape(k, aa, 1))[..., 0]
            bound = (roots @ np.abs(v)[..., None])[..., 0]
            return np.where(q > bound * bound, q, 0.0)

        def least_squares(weights, rows):
            # slopes at the weights; rows with a singular design fail and
            # leave ``rows``
            both = (weights[:, None, :] @ cross).reshape(k, a, a)
            gram = both[:, 1:, 1:]
            spread = weights.max(axis=1) / weights.min(axis=1)
            singular = failed.copy()
            if np.any(plain_min <= spread * plain_trace):
                deficient, min_eig = _rank_deficient(gram)
                newly = deficient & rows & ~failed
                failed[newly] = True
                min_eigs[newly] = min_eig[newly]
                rows[newly] = False
                singular |= deficient
            if singular.any():
                gram = np.where(singular[:, None, None], np.eye(a - 1), gram)
            return np.linalg.solve(gram, both[:, 1:, :1])[..., 0]

        def norm(b):
            return np.hypot.reduce(b, axis=1)

        weighted = a > 1 and config.mode != "gfe"
        theta = np.zeros((k, a - 1))
        if a > 1 and (seeds is None or not weighted):
            theta = least_squares(np.ones((k, g)), ~failed)
        elif a > 1:
            theta = seeds.copy()
        converged = np.full(k, not weighted)
        if weighted:
            active = ~failed
            for _ in range(config.fp_max_iters):
                if not active.any():
                    break
                sigma = _clamped_sigma(group_q(theta), self.floor)
                step_to = least_squares(1.0 / sigma, active)
                done = norm(step_to - theta) <= tol * (1.0 + norm(step_to))
                theta = np.where(active[:, None], step_to, theta)
                converged |= active & done
                active &= ~done
        q = group_q(theta)
        sigma = _clamped_sigma(q, self.floor)
        means = means + self.centre
        alpha = means[..., 0] - (means[..., 1:] @ theta[:, None, :, None])[..., 0]
        weights = counts / self.z.shape[0]
        values = (weights * (q if config.mode == "gfe" else np.sqrt(q))).sum(axis=1)
        residual = np.zeros(k)
        stalled = np.zeros(k, dtype=bool)
        if weighted:
            residual = norm(least_squares(1.0 / sigma, ~failed) - theta)
            stalled = ~converged | (residual > 10.0 * tol * (1.0 + norm(theta)))
        outcomes = []
        for r in range(k):
            if failed[r]:
                outcomes.append(_singular_design(min_eigs[r]))
            elif stalled[r]:
                outcomes.append(
                    NonConvergenceError(
                        f"slope fixed point stalled (residual {residual[r]:.3e})",
                        last_iterate=(theta[r], alpha[r], sigma[r]),
                        residual=residual[r],
                    )
                )
            else:
                outcomes.append((theta[r], alpha[r], sigma[r], q[r], float(values[r])))
        return outcomes


def _frozen(labels):
    """Mark a new search grouping read-only, so no later step edits it in place."""
    labels.setflags(write=False)
    return labels


def _assign(search, theta, alpha, sigma):
    """The labels the mode's rule gives at ``(theta, alpha, sigma)``, and its (N, G) criterion.

    One product of ``search.rows`` with (1, -theta) gives the residual
    profiles net of the kernel's centre, and that centre, which comes off
    ``alpha`` too (:func:`wgfe.model._profile_criterion`).  Ties go to the
    lowest group index.
    """
    n, t, _ = search.z.shape
    v = search.rows @ np.concatenate(([1.0], -theta))
    crit = _profile_criterion(
        v[:-t].reshape(n, t), alpha - v[-t:], None if search.config.mode == "gfe" else sigma
    )
    labels = crit.argmin(axis=1)
    labels += 1
    return _frozen(labels), crit


def _repair_empty(labels, crit, min_size=1):
    """Move worst-fit units into groups with fewer than ``min_size`` members.

    The donor is the movable unit (its group keeps ``min_size`` members
    without it) whose assigned-group criterion value is largest; its
    residual profile becomes the seed for the group once parameters are
    refreshed.  Ascending group order, ties to the lowest unit index.
    ``crit`` has one column per group; ``labels`` is returned as is when no
    group is short, else a repaired copy.
    """
    counts = np.bincount(labels - 1, minlength=crit.shape[1])
    if counts.min() >= min_size:
        return labels
    labels = labels.copy()
    n = labels.shape[0]
    for g in np.nonzero(counts < min_size)[0] + 1:
        while counts[g - 1] < min_size:
            assigned = crit[np.arange(n), labels - 1]
            movable = counts[labels - 1] > min_size
            if not np.any(movable):
                raise EmptyGroupError([g])
            candidate = np.where(movable, assigned, -np.inf)
            i_star = int(np.argmax(candidate))
            counts[labels[i_star] - 1] -= 1
            labels[i_star] = g
            counts[g - 1] += 1
    return _frozen(labels)


def initialize(
    data: PanelDataset, config: SolverConfig, rng: np.random.Generator
) -> GroupParameters:
    """Starting parameters for a search.

    Slopes are the pooled OLS fit, or zero (with a logged warning) when its
    design is singular.  The effect rows are the residual profiles of G distinct
    randomly chosen units; the scales and weights follow from the
    nearest-profile assignment those rows induce, with empty groups falling
    back to the pooled residual scale.
    """
    return _seeded_start(config, rng, _pooled_start(data))[0]


def _pooled_start(data):
    """What every seeded start of a search shares, as ``(theta, v, centred, floor)``.

    The start slopes (see :func:`initialize`), their residual profiles, the
    profiles net of their period means, and the scale floor.
    """
    theta = _initial_theta(data)
    v = residual_profiles(data, theta)
    return theta, v, v - v.mean(axis=0), sigma_floor(data)


def _seeded_start(config, rng, start):
    """:func:`initialize` from its pooled start (:func:`_pooled_start`).

    Returns the start and the (N, G) squared profile distances to its
    effect rows.
    """
    theta, v, centred, floor = start
    n, g = v.shape[0], config.n_groups
    if n < g:
        raise ValueError(f"need at least {g} units to seed {g} groups")
    rows = rng.choice(n, size=g, replace=False)
    alpha = v[rows].copy()
    d2 = _profile_criterion(centred, centred[rows])
    idx = d2.argmin(axis=1)
    counts = np.bincount(idx, minlength=g)
    resid = v - alpha[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        q = _group_q(resid, idx, counts)
    q = np.where(counts > 0, q, np.mean(resid * resid))
    return GroupParameters(theta, alpha, _clamped_sigma(q, floor), counts / n), d2


def _initial_theta(data):
    p = data.n_covariates
    if p == 0:
        return np.zeros(0)
    try:
        return _least_squares(data.covariates.reshape(-1, p), data.outcomes.ravel())
    except SingularDesignError:
        logger.warning("pooled_ols start is singular, falling back to zero slopes")
        return np.zeros(p)


def lloyd(
    data: PanelDataset, config: SolverConfig, init: GroupParameters
) -> EstimationResult:
    """Alternate the mode's assignment rule with full parameter updates.

    Starting from ``init``, assigns every unit by the rule, refreshes
    parameters at the new grouping, and repeats until the assignment stops
    changing or ``max_lloyd_iters`` is hit.  Assignments that empty a group
    are repaired by reseeding the group from the worst-fit unit.  Each new
    grouping is fitted, seeded at the previous fit's slopes, from its
    per-group statistics; after the first grouping these are moved
    from the previous grouping's by the units that changed group, unless
    so many moved that a rebuild from all units is cheaper or the move
    would lose precision (see ``_Kernel.move_units``).  Each assignment
    takes the residual profiles from the search's centred data and expands
    the squared distances from them (:func:`_assign`), so its labels can
    differ from a direct computation's only where two groups' criterion
    values agree to rounding.  This is the descent of :func:`vns`
    (:func:`_descent`) with its own partition cache, driven alone: a
    grouping the descent revisits keeps its first fit.  Only modes "wgfe"
    and "gfe" are searched; any other raises ``ValueError``.

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
    search = _Search(data, config)
    first = _first_grouping(search, init.theta, init.alpha, init.sigma)
    state, labels, trace, n_iters, converged = _run(search, _descent(search, first))
    return _build_result(config, state, labels, n_iters, converged, trace)


def _request(stats, seeds):
    """A fit request: groupings' statistics (as ``_Kernel.stats`` gives them) and seeds, stacked."""
    counts, means, cross = (np.array(s) for s in zip(*stats))
    return counts, means, cross, np.array(seeds, dtype=float)


def _drive(kernel, runs):
    """Run the search generators ``runs`` to their ends, fitting their requests together.

    A search generator yields fit requests: the stacked ``(counts, means,
    cross, seeds)`` of the groupings it needs fitted (see :func:`_request`
    and :meth:`_Kernel.move_stats`).  It is sent back one outcome per
    grouping: its state, or the exception its fit raised.  Each step fits
    the pending requests of every live generator in one ``kernel._solve``
    call and sends each generator its own rows.  A batch that raises
    ``LinAlgError`` is refitted one row at a time, so the error becomes the
    outcome of each row that raises it alone.  The rows of a batch do not
    depend on each other, so each generator sees exactly what it would see
    driven alone.

    Returns, per generator, its return value or the package or
    linear-algebra error that ended it; any other exception propagates.
    """
    outcomes = [None] * len(runs)
    pending = {}

    def advance(k, fits):
        try:
            pending[k] = runs[k].send(fits)
        except StopIteration as stop:
            outcomes[k] = stop.value
        except (WgfeError, np.linalg.LinAlgError) as exc:
            outcomes[k] = exc

    for k in range(len(runs)):
        advance(k, None)
    while pending:
        live = list(pending)
        requests = [pending.pop(k) for k in live]
        if len(requests) == 1:
            batch = requests[0]
        else:
            batch = [np.concatenate(parts) for parts in zip(*requests)]
        try:
            fits = kernel._solve(*batch)
        except np.linalg.LinAlgError:
            fits = []
            for r in range(len(batch[0])):
                try:
                    fits += kernel._solve(*(part[r : r + 1] for part in batch))
                except np.linalg.LinAlgError as exc:
                    fits.append(exc)
        start = 0
        for k, request in zip(live, requests):
            stop = start + len(request[0])
            advance(k, fits[start:stop])
            start = stop
    return outcomes


def _run(kernel, run):
    """Drive the search generator ``run`` alone: its return value, or its error raised."""
    out = _drive(kernel, [run])[0]
    if isinstance(out, Exception):
        raise out
    return out


def _first_grouping(search, theta, alpha, sigma):
    """The first grouping of a descent from ``(theta, alpha, sigma)``, as ``(labels, key, seed)``.

    The labels are :func:`_assign`'s, repaired; their fit is seeded at ``theta``.
    """
    labels = _repair_empty(*_assign(search, theta, alpha, sigma))
    return labels, search.key(labels), theta


def _descent(search, first):
    """One Lloyd descent from ``first``, as in :func:`lloyd`, as a search generator.

    ``first`` is ``(labels, key, seed)`` from :func:`_first_grouping`, and
    ``search`` a ``_Search`` whose partition cache the descent reads and
    writes.  Each round looks its grouping up in ``search.states``, or
    requests its fit (one row, seeded at ``seed``, then at the last round's
    slopes; see :func:`_drive`) and caches it; then assigns (:func:`_assign`,
    from the kernel's centred data) and repairs.  Returns ``(state, labels,
    trace, n_iters, converged)``; a failed fit, assignment or repair raises.

    The descent keeps the labels, key and statistics of the last grouping
    it fitted (of its first grouping, without statistics, until a fit).
    Each round finds the units whose labels differ from those once, and
    moves both from them: the key of its grouping (``search.key_after``)
    and, when the grouping is fitted, the statistics
    (``search.move_units``).  The first grouping fitted takes its
    statistics from ``search.stats``, and neither is rebuilt from all N
    units unless the move falls back to ``search.stats``.
    """
    config = search.config
    labels, key, seed = first
    # the labels, key and statistics of the last grouping fitted, or of the
    # first grouping, without statistics, until a fit
    base = labels, key, None
    trace = []
    for it in range(config.max_lloyd_iters):
        state = search.states.get(key)
        if state is None:
            if base[2] is None:
                stats = search.stats(labels)
            else:
                stats = search.move_units(base[2], base[0], labels, units)
            base = labels, key, stats
            (state,) = yield _request([stats], [seed])
            if isinstance(state, Exception):
                raise state
            search.states[key] = state
        trace.append(state[4])
        labels_next = _repair_empty(*_assign(search, *state[:3]))
        converged = np.array_equal(labels_next, labels)
        if converged or it == config.max_lloyd_iters - 1:
            return state, labels, _last_descent(trace), it + 1, converged
        units = np.flatnonzero(base[0] != labels_next)
        key = search.key_after(base[1], base[0], labels_next, units)
        labels, seed = labels_next, state[0]


def _last_descent(trace):
    """The stretch of a Lloyd trace from its last objective rise on, as a tuple."""
    start = 0
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1] + 1e-12 * (1.0 + abs(trace[i - 1])):
            start = i
    return tuple(trace[start:])


def _build_result(config, state, labels, n_iters, converged, trace):
    theta, alpha, sigma, q, value = state
    gamma = GroupAssignment(labels, config.n_groups)
    weights = gamma.weights()
    return EstimationResult(
        params=GroupParameters(theta, alpha, sigma, weights),
        assignment=gamma,
        objective=value,
        breakdown=ObjectiveBreakdown(q, weights, value),
        mode=config.mode,
        n_lloyd_iters=n_iters,
        n_restarts_used=1,
        converged=converged,
        trace=trace,
    )


def _jump(labels, g, n_moves, rng):
    """Relocate ``n_moves`` random units to random other groups among ``g >= 2``.

    Any group emptied by the relocation is refilled with a random unit from
    a group that still has at least two members, so downstream updates stay
    well defined.  Returns a new label array.
    """
    labels = labels.copy()
    n = labels.shape[0]
    movers = rng.choice(n, size=min(n_moves, n), replace=False)
    labels[movers] = (labels[movers] - 1 + rng.integers(1, g, size=movers.size)) % g + 1
    counts = np.bincount(labels - 1, minlength=g)
    for gg in np.nonzero(counts == 0)[0] + 1:
        donors = np.nonzero(counts[labels - 1] > 1)[0]
        i = donors[rng.integers(donors.shape[0])]
        counts[labels[i] - 1] -= 1
        labels[i] = gg
        counts[gg - 1] += 1
    return _frozen(labels)


class _Search(_Kernel):
    """The kernel of one :func:`lloyd` or :func:`vns` search, with its partition cache.

    Partitions recur constantly across jump cycles.  ``states`` maps the key
    of a labeling to the first state fitted for it and used, and is written
    once per key: by :func:`_descent` (each grouping of a Lloyd descent that
    it fits), by :func:`_local_search` (every move that its requests fit),
    or by :func:`_vns_run` for a jump of a sweep's request once the search
    reaches it; jump fits that the search never reaches are not kept.  Each
    writer first looks the key up and uses a stored state verbatim, so a
    key's state never changes once stored; the memo of :func:`vns` relies
    on that.  Failed fits are never stored.

    Labelings are keyed by a 128-bit Zobrist hash: two independent random
    64-bit codes per (unit, group), XORed over the units.  A single move
    changes a key by two codes, so a neighbourhood is keyed without building
    its labelings, in O(1) time and memory per move where the bytes of a
    label array take O(N), and a Lloyd round's key follows from the last
    one by the codes of the units that moved (:meth:`key_after`); among a
    billion labelings the chance of any two keys colliding is below 1e-20.

    Raises ``ValueError`` for a mode other than "wgfe" or "gfe".
    """

    def __init__(self, data, config):
        if config.mode not in ("wgfe", "gfe"):
            raise ValueError(
                f"lloyd, vns and multi_start handle modes 'wgfe'/'gfe', got {config.mode!r}"
            )
        super().__init__(data, config)
        top = np.iinfo(np.uint64).max
        # a fixed stream, apart from the search's own random numbers
        self.codes = np.random.default_rng(_KEY_SEED).integers(
            top, size=(2, data.n_units, config.n_groups), dtype=np.uint64, endpoint=True
        )
        self.states = {}

    def key(self, labels):
        """The key of a 1-based label array."""
        units = np.arange(labels.shape[0])
        hi, lo = np.bitwise_xor.reduce(self.codes[:, units, labels - 1], axis=1).tolist()
        return hi << 64 | lo

    def key_after(self, key, labels, new, units):
        """The key of ``new``, from ``key``, that of ``labels``, by the ``units`` whose labels differ."""
        change = self.codes[:, units, labels[units] - 1] ^ self.codes[:, units, new[units] - 1]
        hi, lo = np.bitwise_xor.reduce(change, axis=1).tolist()
        return key ^ (hi << 64 | lo)

    def move_keys(self, key, labels, units, targets):
        """Keys of the labelings that move ``units[k]`` to group ``targets[k]``."""
        change = self.codes[:, units, labels[units] - 1] ^ self.codes[:, units, targets - 1]
        hi, lo = key >> 64, key & 0xFFFFFFFFFFFFFFFF
        return [(hi ^ a) << 64 | (lo ^ b) for a, b in zip(*change.tolist())]

    def restart(self):
        """A search on this one's kernel and key codes, with its own empty cache."""
        other = copy.copy(self)
        other.states = {}
        return other


def _local_search(labels, state, search):
    """First-improvement single-move search on the mode's objective, as a search generator.

    Scans units and target groups in index order and accepts the first move
    that lowers the objective; every accepted move re-fits parameters
    exactly, and the sweep resumes at the next unit.  Repeats sweeps until
    none improves, for at most ``_MAX_SWEEPS``.

    The moves left to scan are requested ahead, up to ``_MOVE_BATCH`` at a
    time, in one request seeded at the current slopes (see
    :meth:`_Kernel.move_stats` and :func:`_drive`); moves to labelings that
    ``search`` has already fitted are looked up instead.  An accepted move
    keeps the full fixed-point fit its request returned.  A move whose fit
    does not converge is skipped; any other failed fit, a singular design
    or a linear-algebra error, raises when the scan reaches its move.

    Returns ``(labels, state, clean)``, where ``clean`` says that the scan
    skipped no move, so that :func:`vns` may remember the outcome.
    """
    obj = state[4]
    key = search.key(labels)
    n, g = labels.shape[0], search.n_groups
    if g == 1:
        return labels, state, True
    clean = True
    per_batch = max(_MOVE_BATCH // (g - 1), 1)
    for _ in range(_MAX_SWEEPS):
        improved = False
        start = 0
        while start < n:
            counts = np.bincount(labels - 1, minlength=g)
            movable = np.arange(start, n)
            movable = movable[counts[labels[movable] - 1] > 1][:per_batch]
            if not movable.size:
                break
            start = movable[-1] + 1
            units = np.repeat(movable, g)
            targets = np.tile(np.arange(1, g + 1), movable.size)
            keep = targets != labels[units]
            units, targets = units[keep], targets[keep]
            keys = search.move_keys(key, labels, units, targets)
            outcomes = [search.states.get(move_key) for move_key in keys]
            misses = np.array([k for k, out in enumerate(outcomes) if out is None], dtype=int)
            if misses.size:
                fits = yield search.move_stats(labels, state[0], units[misses], targets[misses])
                for k, out in zip(misses, fits):
                    outcomes[k] = out
                    if not isinstance(out, Exception):
                        search.states[keys[k]] = out
            for k, out in enumerate(outcomes):
                if isinstance(out, NonConvergenceError):
                    clean = False
                    continue
                if isinstance(out, Exception):
                    raise out
                if out[4] < obj - 1e-12 * (1.0 + abs(obj)):
                    labels = labels.copy()
                    labels[units[k]] = targets[k]
                    labels, key, state, obj = _frozen(labels), keys[k], out, out[4]
                    improved = True
                    start = units[k] + 1
                    break
        if not improved:
            break
    return labels, state, clean


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
    ``vns_neigh_max``.  A jump whose fit, descent or local search does not
    converge counts as no improvement.  With ``vns_neigh_max=0``, or a
    single group (where no jump can move a unit), this is exactly one Lloyd
    run.  Only modes "wgfe" and "gfe" are searched; any other raises
    ``ValueError``.

    The whole run is one search generator (:func:`_vns_run`), driven alone
    (:func:`_drive`); :func:`multi_start` drives restart k's generator, on
    substream k, together with the other restarts', and gets exactly this
    function's answer for it.

    The jumps of a sweep (n = 1 up to ``vns_neigh_max``, all from the same
    incumbent) are drawn ahead when it starts, and the ones not yet cached
    are fitted in one request seeded at the incumbent's slopes.  The search
    then takes them in order, as if each were drawn and fitted when
    reached: a cached state still wins over the request's, a jump's outcome
    enters the cache only once it is reached, and a fit that failed raises
    (or counts as no improvement) at its own jump.  At each jump the random
    generator is set to its state just after that jump's draw, so an
    improvement discards the rest of the sweep and the next sweep draws
    from where a one-jump-at-a-time search would.  Every answer, and the
    generator's state afterwards, is that of drawing and fitting one jump
    at a time.

    Fits are cached per labeling for the whole run (see ``_Search``).  A
    jump's descent and local search are remembered by the key of the
    descent's first grouping (:func:`_first_grouping`), unless the search
    skipped a stalled move (a later fit may cache an improving state for
    it); a later jump from there reuses them, as a rerun would read the
    same cached states in the same order and return the same result.
    """
    search = _Search(data, config)
    return _run(search, _vns_run(search, rng, initialize(data, config, rng)))


def _vns_run(search, rng, init):
    """One :func:`vns` run from the start parameters ``init``, as a search generator.

    ``search`` holds the run's partition cache and ``rng`` its random
    stream.  Returns the run's result; the package or linear-algebra error
    that ends the run raises.
    """
    config = search.config
    first = _first_grouping(search, init.theta, init.alpha, init.sigma)
    best_state, best_labels, _, total_iters, converged = yield from _descent(search, first)
    memo = {}
    best_obj = best_state[4]
    improvements = [best_obj]
    g = config.n_groups
    for _ in range(config.vns_iter_max if g > 1 else 0):
        n = 1
        while n <= config.vns_neigh_max:
            if n == 1:
                # the sweep: keys and generator states of all its jumps, and
                # the fits of those not yet cached, from one request
                keys, drawn, fresh = [], [], {}
                for size in range(1, config.vns_neigh_max + 1):
                    labels_j = _jump(best_labels, g, size, rng)
                    keys.append(search.key(labels_j))
                    drawn.append(rng.bit_generator.state)
                    if keys[-1] not in search.states:
                        fresh[size] = search.stats(labels_j)
                fits = {}
                if fresh:
                    outs = yield _request(list(fresh.values()), [best_state[0]] * len(fresh))
                    fits = dict(zip(fresh, outs))
            rng.bit_generator.state = drawn[n - 1]
            try:
                state_j = search.states.get(keys[n - 1])
                if state_j is None:
                    if isinstance(fits[n], Exception):
                        raise fits[n]
                    state_j = search.states[keys[n - 1]] = fits[n]
                first = _first_grouping(search, *state_j[:3])
                outcome = memo.get(first[1])
                if outcome is None:
                    state_c, labels_c, _, iters_d, conv_d = yield from _descent(search, first)
                    labels_c, state_c, clean = yield from _local_search(labels_c, state_c, search)
                    outcome = labels_c, state_c, iters_d, conv_d
                    if clean:
                        memo[first[1]] = outcome
                labels_c, state_c, iters_d, conv_d = outcome
                total_iters += iters_d
            except NonConvergenceError:
                n += 1
                continue
            if state_c[4] < best_obj - 1e-12 * (1.0 + abs(best_obj)):
                best_labels, best_state = labels_c, state_c
                best_obj = state_c[4]
                converged = converged or conv_d
                improvements.append(best_obj)
                n = 1
            else:
                n += 1
    return _build_result(
        config, best_state, best_labels, total_iters, converged, tuple(improvements)
    )


def multi_start(data: PanelDataset, config: SolverConfig) -> EstimationResult:
    """Best of ``n_restarts`` independently seeded searches.

    Restart k is :func:`vns` on substream k of ``config.seed``, and its
    outcome is that search's, bit for bit.  The pooled start slopes are
    computed once for all restarts.  Each restart is one search generator
    with its own random stream and partition cache, and one driver
    (:func:`_drive`) runs them all: each step fits the pending requests of
    every restart still running (its descent's grouping, its sweep's jumps
    or its local search's moves) in one batched fixed point.  Only modes
    "wgfe" and "gfe" are searched; any other raises ``ValueError``.

    A later restart replaces the best so far only when it improves on it by
    more than the searches' own 1e-12 relative threshold, so ties (often
    the same partition with its labels permuted) go to the lowest restart
    index rather than to rounding noise.  A restart that
    raises a package error or a linear-algebra failure is skipped; any other
    exception propagates.  When every restart fails, raises the first
    failure if all of them are ``SingularDesignError`` (a design no grouping
    can fit), and ``NonConvergenceError`` otherwise.
    """
    best = None
    n_ok = 0
    failures = []
    for k, out in enumerate(_restart_outcomes(data, config)):
        if isinstance(out, Exception):
            failures.append((k, out))
            continue
        n_ok += 1
        if best is None or out.objective < best.objective - 1e-12 * (
            1.0 + abs(best.objective)
        ):
            best = out
    if best is None:
        if all(isinstance(exc, SingularDesignError) for _, exc in failures):
            raise failures[0][1]
        raise NonConvergenceError(
            f"all {config.n_restarts} restarts failed; first error: {failures[0][1]}"
        ) from failures[0][1]
    return replace(best, n_restarts_used=n_ok)


def _restart_outcomes(data, config):
    """Per restart of :func:`multi_start`, its result or the error that ended it."""
    kernel = _Search(data, config)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
    start = _pooled_start(data)
    runs = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        runs.append(_vns_run(kernel.restart(), rng, _seeded_start(config, rng, start)[0]))
    return _drive(kernel, runs)
