"""Isolated per-layer probes, timed with tracing off.

Each probe calls one public function on the workload's own panel, at a
grouping fitted by one seeded Lloyd run, and reports the median wall time
over a few repetitions.  ``probe.vns_s`` replays, serially, every restart
the traced operations' ``multi_start`` calls run (same panels, configs and
seed substreams), so that dividing the traced ``solvers.vns.mean_s`` by it
isolates the cost of running those restarts on the default thread pool
(plus the tracing overhead).  The session runs one restart per command,
which leaves that pool a single task, so the ``multi_start`` probes also
time two restarts serially and on the default thread count.
"""

import json
import os
import statistics
import time
from dataclasses import replace

import numpy as np

MIN_REPS = 3
MAX_REPS = 15
MIN_TOTAL_S = 0.3
POOL_REPS = 2


def _median_time(fn):
    """Median time of ``fn`` after one untimed call, which may raise."""
    from wgfe import WgfeError

    try:
        fn()
    except WgfeError as exc:
        return {"value": 0.0, "samples": 0, "error": f"{type(exc).__name__}: {exc}"}
    times = []
    while len(times) < MIN_REPS or (len(times) < MAX_REPS and sum(times) < MIN_TOTAL_S):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return {"value": statistics.median(times), "samples": len(times)}


def _panel(source):
    if "csv" in source:
        from wgfe.cli import ingest_csv

        return ingest_csv(source["csv"])
    import design

    data, _, _ = design.study_panel(source["n_units"], source["cli_seed"])
    return data


def run(job):
    from wgfe import (
        SoftAssignment,
        SolverConfig,
        assignment_gradient,
        barycenter_fixed_point,
        group_covariances,
        initialize,
        lloyd,
        solve_theta_fixed_point,
        variance_estimates,
        vns,
        wgfe_assign,
    )

    data = _panel(job["panel"])
    config = SolverConfig(**job["config"])
    init = initialize(data, config, np.random.default_rng(config.seed))
    fit = lloyd(data, config, init)
    gamma = fit.assignment
    theta, alpha, sigma = fit.params.theta, fit.params.alpha, fit.params.sigma
    covs, weights = group_covariances(data, theta, alpha, gamma)
    soft = SoftAssignment.from_hard(gamma)

    out = {
        "probe.lloyd_s": _median_time(lambda: lloyd(data, config, init)),
        "probe.solve_theta_fixed_point_s": _median_time(
            lambda: solve_theta_fixed_point(data, gamma, tol=config.fp_tol)
        ),
        "probe.wgfe_assign_s": _median_time(
            lambda: wgfe_assign(data, theta, alpha, sigma, config.assignment_rule)
        ),
        "probe.variance_estimates_s": _median_time(lambda: variance_estimates(data, fit)),
        "probe.barycenter_fixed_point_s": _median_time(
            lambda: barycenter_fixed_point(covs, weights)
        ),
        "probe.assignment_gradient_s": _median_time(
            lambda: assignment_gradient(data, theta, alpha, soft)
        ),
    }
    times = []
    panels = {}
    for entry in job["replay"]:
        key = json.dumps(entry["panel"], sort_keys=True)
        if key not in panels:
            panels[key] = _panel(entry["panel"])
        cfg = SolverConfig(**entry["config"])
        for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.n_restarts):
            started = time.perf_counter()
            vns(panels[key], cfg, np.random.default_rng(stream))
            times.append(time.perf_counter() - started)
    out["probe.vns_s"] = {"value": statistics.fmean(times) if times else 0.0, "samples": len(times)}
    out.update(_pool_probes(data, config, job.get("pool")))
    return {"probes": out}


def _pool_probes(data, config, pool):
    """``multi_start`` serially and on the CLI's default thread count.

    Same restarts, same seed; alternated so host drift hits both alike.
    """
    from wgfe import multi_start

    names = ("probe.multi_start_serial_s", "probe.multi_start_pool_s")
    if pool is None:
        return {name: {"value": 0.0, "samples": 0} for name in names}
    n_restarts, seed = pool
    cfg = replace(config, n_restarts=n_restarts, seed=seed)
    configs = (replace(cfg, n_threads=1), replace(cfg, n_threads=max(os.cpu_count() or 1, 1)))
    times = ([], [])
    for _ in range(POOL_REPS):
        for k, c in enumerate(configs):
            started = time.perf_counter()
            multi_start(data, c)
            times[k].append(time.perf_counter() - started)
    return {
        name: {"value": statistics.median(t), "samples": len(t)}
        for name, t in zip(names, times)
    }
