"""Shared fixtures and dataset builders for the test suite."""

import numpy as np
import pytest

from wgfe.model import GroupAssignment, PanelDataset


def make_dataset(rng, n=12, t=5, p=2):
    """Random dense panel with standard normal outcomes and covariates."""
    y = rng.standard_normal((n, t))
    x = rng.standard_normal((n, t, p))
    return PanelDataset(y, x)


def make_grouped_dataset(rng, n=30, t=6, p=1, g=2, *, theta=None, alpha=None,
                         sigma=None, probs=None):
    """Panel drawn from the grouped model; returns (data, truth, params)."""
    theta = np.ones(p) if theta is None else np.asarray(theta, float)
    if alpha is None:
        alpha = 3.0 * rng.standard_normal((g, t))
    else:
        alpha = np.asarray(alpha, float)
    sigma = np.full(g, 0.5) if sigma is None else np.asarray(sigma, float)
    probs = np.full(g, 1.0 / g) if probs is None else np.asarray(probs, float)
    labels = rng.choice(g, size=n, p=probs) + 1
    x = rng.standard_normal((n, t, p))
    noise = rng.standard_normal((n, t)) * sigma[labels - 1][:, None]
    y = (x @ theta if p else np.zeros((n, t))) + alpha[labels - 1] + noise
    data = PanelDataset(y, x)
    truth = GroupAssignment(labels, g)
    return data, truth, {"theta": theta, "alpha": alpha, "sigma": sigma}


def cell_constant_panel(seed=0, n=24, t=5, separation=10.0):
    """Panel whose covariate is a standard normal level per (half of the units, period).

    Grouped by half, the covariate is constant within every (group, period)
    cell, so the group effects absorb it and its slope is unidentified; its
    values are not exact in binary, so the within-group scatter is rounding
    noise rather than zero.  The halves' outcomes sit ``separation`` apart.
    Returns the panel and the grouping by half.
    """
    rng = np.random.default_rng(seed)
    halves = np.repeat([1, 2], n // 2)
    x = rng.standard_normal((2, t))[halves - 1][:, :, None]
    y = separation * (halves[:, None] - 1.0) + rng.standard_normal((n, t))
    return PanelDataset(y, x), GroupAssignment(halves, 2)


def random_assignment(rng, n, g, *, nonempty=True):
    """Uniform random assignment; optionally guarantees no empty group."""
    while True:
        labels = rng.integers(1, g + 1, size=n)
        gamma = GroupAssignment(labels, g)
        if not nonempty or not gamma.empty_groups():
            return gamma


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
