"""Synthetic panels, label-matched classification error, and study harness.

Generators draw grouped panels with per-group error scales, optionally with
a lagged outcome on the right-hand side.  Metrics match estimated group
labels to true ones over permutations before counting mistakes.  The study
harness replays generation and estimation over independent substreams and
aggregates slope errors and misclassification.
"""

import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import GroupCountMismatchError, WgfeError
from .model import (
    GroupAssignment,
    GroupParameters,
    PanelDataset,
    _least_squares,
    _two_way_demeaned,
)
from .solvers import SolverConfig, multi_start

logger = logging.getLogger(__name__)

SIGMA_CLAMP = 1e-12
"""Zero error scales are lifted to this so true parameters stay valid."""


@dataclass(frozen=True)
class AR1Covariates:
    """Scalar covariate following a stationary first-order autoregression."""

    rho: float
    innovation_sd: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        if not 0 <= self.innovation_sd < np.inf:
            raise ValueError("innovation_sd must be finite and nonnegative")

    @property
    def n_covariates(self) -> int:
        return 1

    def draw(self, n, t, rng):
        sd0 = self.innovation_sd / np.sqrt(1.0 - self.rho**2)
        x = np.empty((n, t))
        x[:, 0] = sd0 * rng.standard_normal(n)
        shocks = self.innovation_sd * rng.standard_normal((n, t - 1))
        for s in range(1, t):
            x[:, s] = self.rho * x[:, s - 1] + shocks[:, s - 1]
        return x[:, :, None]


@dataclass(frozen=True, eq=False)
class FixedCovariates:
    """A covariate array reused verbatim in every replication."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError("fixed covariates must be (N, T) or (N, T, p)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("fixed covariates must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_covariates(self) -> int:
        return self.values.shape[2]

    def draw(self, n, t, rng):
        if self.values.shape[:2] != (n, t):
            raise ValueError("fixed covariates do not match n_units/n_periods")
        return self.values


CovariateLaw = Union[AR1Covariates, FixedCovariates]


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    """A grouped-panel data generating process.

    ``theta_true`` stacks the lag coefficient first when ``dynamic`` (the
    previous outcome becomes the leading covariate column), followed by the
    coefficients on the exogenous covariates from ``covariate_law``.
    Errors are Gaussian with the per-group scales in ``sigma_true``.
    """

    n_units: int
    n_periods: int
    n_groups: int
    theta_true: np.ndarray
    alpha_true: np.ndarray
    sigma_true: np.ndarray
    group_probs: np.ndarray
    covariate_law: Optional[CovariateLaw] = None
    dynamic: bool = False

    def __post_init__(self):
        if self.n_units < 1 or self.n_periods < 1 or self.n_groups < 1:
            raise ValueError("n_units, n_periods and n_groups must be positive")
        theta = np.atleast_1d(np.asarray(self.theta_true, dtype=float))
        alpha = np.asarray(self.alpha_true, dtype=float)
        sigma = np.atleast_1d(np.asarray(self.sigma_true, dtype=float))
        probs = np.atleast_1d(np.asarray(self.group_probs, dtype=float))
        if alpha.shape != (self.n_groups, self.n_periods):
            raise ValueError("alpha_true must be (n_groups, n_periods)")
        if sigma.shape != (self.n_groups,) or np.any(sigma < 0):
            raise ValueError("sigma_true must be nonnegative with one entry per group")
        if probs.shape != (self.n_groups,) or np.any(probs < 0):
            raise ValueError("group_probs must be a nonnegative vector per group")
        if abs(probs.sum() - 1.0) > 1e-8:
            raise ValueError("group_probs must sum to one")
        n_exog = self.covariate_law.n_covariates if self.covariate_law else 0
        expected = n_exog + (1 if self.dynamic else 0)
        if theta.shape != (expected,):
            raise ValueError(
                f"theta_true must have {expected} entries for this spec"
            )
        if self.dynamic and not abs(theta[0]) < 1.0:
            raise ValueError("the lag coefficient must be inside (-1, 1)")
        for name, arr in (
            ("theta_true", theta),
            ("alpha_true", alpha),
            ("sigma_true", sigma),
            ("group_probs", probs),
        ):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_covariates(self) -> int:
        exog = self.covariate_law.n_covariates if self.covariate_law else 0
        return exog + (1 if self.dynamic else 0)


def generate(spec: SimulationSpec, rng: np.random.Generator):
    """Draw one panel from the process.

    Returns ``(data, truth, params)`` where truth is the drawn grouping and
    params holds the generating slopes, effect paths, clamped scales, and
    the population group masses.  Draw order is fixed (labels, errors,
    covariates, then the presample outcome) so a seeded generator
    reproduces the panel bit for bit.
    """
    n, t, g = spec.n_units, spec.n_periods, spec.n_groups
    labels = rng.choice(g, size=n, p=spec.group_probs) + 1
    sigma = np.maximum(spec.sigma_true, SIGMA_CLAMP)
    u = sigma[labels - 1][:, None] * rng.standard_normal((n, t))
    alpha_i = spec.alpha_true[labels - 1]
    if spec.covariate_law is not None:
        x_exog = spec.covariate_law.draw(n, t, rng)
    else:
        x_exog = np.zeros((n, t, 0))
    if not spec.dynamic:
        y = x_exog @ spec.theta_true + alpha_i + u
        data = PanelDataset(y, x_exog)
    else:
        rho = spec.theta_true[0]
        drift = x_exog @ spec.theta_true[1:] + alpha_i + u
        mean0 = spec.alpha_true.mean(axis=1)[labels - 1] / (1.0 - rho)
        sd0 = sigma[labels - 1] / np.sqrt(1.0 - rho**2)
        y_prev = mean0 + sd0 * rng.standard_normal(n)
        y = np.empty((n, t))
        lag = np.empty((n, t))
        for s in range(t):
            lag[:, s] = y_prev
            y[:, s] = rho * y_prev + drift[:, s]
            y_prev = y[:, s]
        data = PanelDataset(y, np.concatenate([lag[:, :, None], x_exog], axis=2))
    truth = GroupAssignment(labels, g)
    params = GroupParameters(spec.theta_true, spec.alpha_true, sigma, spec.group_probs)
    return data, truth, params


def misclassification_rate(estimated: GroupAssignment, truth: GroupAssignment):
    """Share of units mislabeled after the best group relabeling.

    Searches all label permutations when there are at most eight groups and
    solves the assignment problem on the confusion matrix otherwise.
    Returns ``(rate, permutation)`` where ``permutation[k]`` is the true
    label matched to estimated label ``k + 1``.
    """
    if estimated.n_groups != truth.n_groups:
        raise GroupCountMismatchError(
            f"assignments declare {estimated.n_groups} and {truth.n_groups} groups"
        )
    if estimated.labels.shape != truth.labels.shape:
        raise ValueError("assignments cover different numbers of units")
    g = estimated.n_groups
    n = estimated.labels.shape[0]
    confusion = np.zeros((g, g), dtype=int)
    np.add.at(confusion, (estimated.labels - 1, truth.labels - 1), 1)
    if g <= 8:
        best_perm, best_hits = None, -1
        for perm in itertools.permutations(range(g)):
            hits = int(confusion[np.arange(g), perm].sum())
            if hits > best_hits:
                best_perm, best_hits = perm, hits
        perm = best_perm
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-confusion)
        order = np.argsort(rows)
        perm = tuple(int(c) for c in cols[order])
        best_hits = int(confusion[rows, cols].sum())
    rate = 1.0 - best_hits / n
    return rate, tuple(p + 1 for p in perm)


class SimpleCaseResult(NamedTuple):
    """Misassignment rates for one unit choosing between two known groups."""

    wgfe_rate: float
    gfe_rate: float
    exact: Optional[float]
    normal_approx: Optional[float]


def simple_case_misclass(
    alpha1, alpha2, sigma1, sigma2, t, n_draws, rng
) -> SimpleCaseResult:
    """Probability of filing a group-1 unit under group 2, two-group case.

    Draws ``n_draws`` error paths at scale ``sigma1`` and applies both
    assignment rules (scale-aware and plain nearest-path) to the same
    draws.  With equal effect paths the scale-aware event reduces to a
    chi-squared region, reported in ``exact``; ``normal_approx`` is the
    central-limit approximation of that region under the unit-variance
    standardization, kept for comparison.  Ties go to group 1.
    """
    if sigma1 <= 0 or sigma2 <= 0:
        raise ValueError("scales must be positive")
    if n_draws < 1 or t < 1:
        raise ValueError("need at least one draw and one period")
    a1 = np.broadcast_to(np.asarray(alpha1, dtype=float), (t,))
    a2 = np.broadcast_to(np.asarray(alpha2, dtype=float), (t,))
    u = sigma1 * rng.standard_normal((n_draws, t))
    own = np.einsum("it,it->i", u, u)
    shifted = u + (a1 - a2)
    other = np.einsum("it,it->i", shifted, shifted)
    wgfe_rate = float(np.mean(other / sigma2 + sigma2 < own / sigma1 + sigma1))
    gfe_rate = float(np.mean(other < own))
    exact = normal_approx = None
    if np.allclose(a1, a2, rtol=0.0, atol=0.0):
        from scipy.stats import chi2, norm

        z = (sigma1 * sigma2 - t) / np.sqrt(2.0 * t)
        if sigma1 == sigma2:
            exact = 0.0
            normal_approx = float(norm.cdf(z))
        elif sigma1 > sigma2:
            exact = float(chi2.cdf(sigma2 / sigma1, df=t))
            normal_approx = float(norm.cdf(z))
        else:
            exact = float(chi2.sf(sigma2 / sigma1, df=t))
            normal_approx = float(norm.sf(z))
    return SimpleCaseResult(wgfe_rate, gfe_rate, exact, normal_approx)


@dataclass(frozen=True)
class StudyReport:
    """Aggregated estimator performance over replications.

    ``rmse_theta`` maps estimator name to per-component slope RMSE;
    misclassification entries are NaN for estimators without groupings and
    for estimators whose replications all failed.
    """

    estimators: tuple
    rmse_theta: dict
    misclass_mean: dict
    misclass_se: dict
    n_replications: int
    n_failures: dict
    runtime_seconds: float

    def __post_init__(self):
        for name in self.estimators:
            if any(r < 0 for r in self.rmse_theta[name]):
                raise ValueError("RMSE entries must be nonnegative")
            rate = self.misclass_mean[name]
            if not np.isnan(rate) and not 0.0 <= rate <= 1.0:
                raise ValueError("misclassification rates must lie in [0, 1]")


STUDY_ESTIMATORS = ("wgfe", "gfe", "two_way_fe")


def _two_way_theta(data: PanelDataset) -> np.ndarray:
    """Pooled slopes after demeaning in both the unit and period directions.

    Raises ``SingularDesignError`` on a rank-deficient design.
    """
    if data.n_covariates == 0:
        return np.zeros(0)
    y, x = _two_way_demeaned(data)
    return _least_squares(x, y)


def run_study(
    spec: SimulationSpec,
    estimators,
    n_replications: int,
    rng: np.random.Generator,
) -> StudyReport:
    """Replicate generation and estimation, aggregating errors and rates.

    Each replication draws a fresh panel from an independent substream and
    fits the requested estimators; grouped ones run the multi-start search
    with a fast plain-descent budget (10 restarts, one Lloyd descent each,
    seeded by the replication index) and the two-way benchmark is a closed
    form.  For another budget, call :func:`wgfe.solvers.multi_start` on
    :func:`generate`'s panels directly.
    Replications where an estimator fails are excluded from its aggregates
    and counted in ``n_failures``.
    """
    names = tuple(estimators)
    if not names:
        raise ValueError("need at least one estimator")
    for name in names:
        if name not in STUDY_ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
        if names.count(name) > 1:
            raise ValueError(f"estimator {name!r} is listed more than once")
    if n_replications < 1:
        raise ValueError("need at least one replication")
    started = time.perf_counter()
    errors = {name: [] for name in names}
    rates = {name: [] for name in names}
    failures = {name: 0 for name in names}
    streams = rng.spawn(n_replications)
    for k, sub in enumerate(streams):
        data, truth, params = generate(spec, sub)
        for name in names:
            try:
                if name == "two_way_fe":
                    theta = _two_way_theta(data)
                    rate = np.nan
                else:
                    cfg = SolverConfig(
                        mode=name, n_groups=spec.n_groups, n_restarts=10,
                        vns_iter_max=1, vns_neigh_max=0, seed=k,
                    )
                    res = multi_start(data, cfg)
                    theta = res.params.theta
                    rate, _ = misclassification_rate(res.assignment, truth)
            except (WgfeError, np.linalg.LinAlgError) as exc:
                failures[name] += 1
                logger.warning("replication %d: %s failed: %s", k, name, exc)
                continue
            errors[name].append(theta - params.theta)
            rates[name].append(rate)
    rmse = {}
    mis_mean = {}
    mis_se = {}
    for name in names:
        errs = np.asarray(errors[name])
        rmse[name] = (
            tuple(np.sqrt(np.mean(errs**2, axis=0)))
            if errs.size
            else tuple([np.nan] * spec.n_covariates)
        )
        vals = np.asarray(rates[name], dtype=float)
        ok = vals[~np.isnan(vals)]
        mis_mean[name] = float(ok.mean()) if ok.size else np.nan
        mis_se[name] = (
            float(ok.std(ddof=1) / np.sqrt(ok.size)) if ok.size > 1 else np.nan
        )
    return StudyReport(
        estimators=names,
        rmse_theta=rmse,
        misclass_mean=mis_mean,
        misclass_se=mis_se,
        n_replications=n_replications,
        n_failures=failures,
        runtime_seconds=time.perf_counter() - started,
    )
