"""Command line front end: CSV ingestion, estimation, simulation, JSON output.

Subcommands
-----------
``estimate``
    Fit a grouped panel model to a long-format CSV and emit the fit plus
    slope/effect variances as JSON.
``simulate``
    Run a replication study from a JSON process description and emit the
    aggregated report, optionally with misassignment-probability curves as
    plot-ready CSV.
``select-g``
    Fit every group count up to a maximum and emit the information
    criterion table with the selected count.
``test-homoskedasticity``
    Fit the weighted estimator and emit the common-scale diagnostic.

All randomness flows from the single ``--seed`` flag.  Exit codes: 0 on
success, 2 for input problems, 3 for numeric or solver failures.
"""

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    DuplicateCellError,
    ParseError,
    UnbalancedPanelError,
    WgfeError,
)
from .ggfe import ggfe_descent
from .inference import homoskedasticity_test, select_n_groups, variance_estimates
from .model import PanelDataset
from .simlab import (
    AR1Covariates,
    FixedCovariates,
    SimulationSpec,
    run_study,
    simple_case_misclass,
)
from .solvers import SolverConfig, multi_start

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_CURVE_PERIODS = (2, 4, 8, 16, 32)
CURVE_DRAWS = 20_000


def ingest_csv(path) -> PanelDataset:
    """Read a long-format panel CSV into a balanced dataset.

    The header must start ``unit,time,y``; any further columns are
    covariates in order.  Units keep their order of first appearance and
    periods are sorted ascending.  Missing or repeated (unit, time) cells
    are rejected with the offending cells named.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty file, expected a header row", line=1)
        if len(header) < 3 or header[:3] != ["unit", "time", "y"]:
            raise ParseError(
                "header must start with unit,time,y", line=1
            )
        width = len(header)
        cells = {}
        units = []
        seen = set()
        times = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != width:
                raise ParseError(
                    f"expected {width} fields, found {len(row)}", line=lineno
                )
            unit = row[0].strip()
            if not unit:
                raise ParseError("empty unit identifier", line=lineno, column="unit")
            try:
                t_val = float(row[1])
            except ValueError:
                raise ParseError(
                    f"invalid time value {row[1]!r}", line=lineno, column="time"
                )
            values = []
            for name, raw in zip(header[2:], row[2:]):
                try:
                    values.append(float(raw))
                except ValueError:
                    raise ParseError(
                        f"invalid numeric value {raw!r}", line=lineno, column=name
                    )
            key = (unit, t_val)
            if key in cells:
                raise DuplicateCellError(
                    f"repeated cell for unit {unit!r}, time {row[1].strip()}",
                    line=lineno,
                )
            cells[key] = values
            if unit not in seen:
                seen.add(unit)
                units.append(unit)
            times.add(t_val)
    if not cells:
        raise ParseError("no data rows")
    periods = sorted(times)
    missing = [
        (u, t) for u in units for t in periods if (u, t) not in cells
    ]
    if missing:
        shown = ", ".join(f"({u}, {t:g})" for u, t in missing[:5])
        more = ", ..." if len(missing) > 5 else ""
        raise UnbalancedPanelError(f"missing cells: {shown}{more}")
    n, t, p = len(units), len(periods), width - 3
    y = np.empty((n, t))
    x = np.empty((n, t, p))
    for i, u in enumerate(units):
        for s, tv in enumerate(periods):
            row = cells[(u, tv)]
            y[i, s] = row[0]
            x[i, s] = row[1:]
    return PanelDataset(y, x)


def emit_csv(data: PanelDataset, path):
    """Write a dataset as a long-format CSV with 1-based unit/time labels."""
    p = data.n_covariates
    header = ["unit", "time", "y"] + [f"x{j + 1}" for j in range(p)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n_units):
            for s in range(data.n_periods):
                writer.writerow(
                    [i + 1, s + 1, repr(float(data.outcomes[i, s]))]
                    + [repr(float(v)) for v in data.covariates[i, s]]
                )


def _clean(obj):
    """Make a payload JSON-safe: plain types, non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _meta(command, seed, threads):
    return {
        "command": command,
        "seed": int(seed),
        "threads": int(threads),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _result_dict(res):
    return {
        "mode": res.mode,
        "objective": res.objective,
        "converged": res.converged,
        "n_lloyd_iters": res.n_lloyd_iters,
        "n_restarts_used": res.n_restarts_used,
        "theta": res.params.theta,
        "alpha": res.params.alpha,
        "sigma": res.params.sigma,
        "weights": res.params.weights,
        "labels": res.assignment.labels,
        "trace": list(res.trace),
        "breakdown": {
            "per_group_ssr": res.breakdown.per_group_ssr,
            "weights": res.breakdown.weights,
            "value": res.breakdown.value,
        },
    }


def _inference_dict(inf):
    return {
        "var_theta": inf.var_theta,
        "se_theta": inf.se_theta,
        "sigma2_hat": inf.sigma2_hat,
        "var_alpha": inf.var_alpha,
        "dof_correction": inf.dof_correction,
    }


def _write_payload(payload, out_path):
    text = json.dumps(_clean(payload), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_error(exc, code):
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    snake = "".join(
        "_" + c.lower() if c.isupper() and i else c.lower()
        for i, c in enumerate(name)
    )
    body = {"error": {"code": snake, "message": str(exc), "exit_status": code}}
    if isinstance(exc, ParseError):
        if exc.line is not None:
            body["error"]["line"] = exc.line
        if exc.column is not None:
            body["error"]["column"] = exc.column
    sys.stderr.write(json.dumps(body, sort_keys=True) + "\n")


def _solver_config(args, mode=None):
    return SolverConfig(
        mode=mode or args.mode,
        n_groups=args.groups,
        n_restarts=args.restarts,
        max_lloyd_iters=args.max_iters,
        fp_tol=args.tol,
        seed=args.seed,
        assignment_rule=args.assignment_rule,
        n_threads=args.threads,
    )


def cmd_estimate(args) -> int:
    data = ingest_csv(args.input)
    config = _solver_config(args)
    if config.mode == "ggfe":
        result = ggfe_descent(data, config)
    else:
        result = multi_start(data, config)
    inference = variance_estimates(data, result)
    payload = {
        "meta": _meta("estimate", args.seed, args.threads),
        "result": _result_dict(result),
        "inference": _inference_dict(inference),
    }
    _write_payload(payload, args.out)
    return EXIT_OK


def _spec_from_dict(raw) -> SimulationSpec:
    law_raw = raw.get("covariate_law")
    law = None
    if law_raw is not None:
        kind = law_raw.get("kind")
        if kind == "ar1":
            law = AR1Covariates(
                rho=law_raw["rho"], innovation_sd=law_raw["innovation_sd"]
            )
        elif kind == "fixed":
            law = FixedCovariates(np.asarray(law_raw["values"], dtype=float))
        else:
            raise ValueError(f"unknown covariate law kind {kind!r}")
    return SimulationSpec(
        n_units=raw["n_units"],
        n_periods=raw["n_periods"],
        n_groups=raw["n_groups"],
        theta_true=np.asarray(raw["theta_true"], dtype=float),
        alpha_true=np.asarray(raw["alpha_true"], dtype=float),
        sigma_true=np.asarray(raw["sigma_true"], dtype=float),
        group_probs=np.asarray(raw["group_probs"], dtype=float),
        covariate_law=law,
        dynamic=bool(raw.get("dynamic", False)),
        error_law=raw.get("error_law", "gaussian_grouped"),
    )


def _write_curves(spec, seed, periods, path):
    """Misassignment-probability curves for the two-group benchmark.

    Uses the first two groups' scales and time-averaged effect levels,
    sweeping the panel length; one CSV row per (T, rule).
    """
    if spec.n_groups < 2:
        raise ValueError("curve output needs at least two groups")
    a1 = float(spec.alpha_true[0].mean())
    a2 = float(spec.alpha_true[1].mean())
    s1 = float(max(spec.sigma_true[0], 1e-12))
    s2 = float(max(spec.sigma_true[1], 1e-12))
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "estimator", "probability"])
        for t in periods:
            res = simple_case_misclass(a1, a2, s1, s2, t, CURVE_DRAWS, rng)
            writer.writerow([t, "wgfe", repr(res.wgfe_rate)])
            writer.writerow([t, "gfe", repr(res.gfe_rate)])


def cmd_simulate(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        raw = json.load(fh)
    spec = _spec_from_dict(raw)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    report = run_study(
        spec, estimators, args.replications, np.random.default_rng(args.seed)
    )
    payload = {
        "meta": _meta("simulate", args.seed, args.threads),
        "report": {
            "estimators": list(report.estimators),
            "rmse_theta": {k: list(v) for k, v in report.rmse_theta.items()},
            "misclass_mean": report.misclass_mean,
            "misclass_se": report.misclass_se,
            "n_replications": report.n_replications,
            "n_failures": report.n_failures,
            "runtime_seconds": report.runtime_seconds,
        },
    }
    _write_payload(payload, args.out)
    if args.curves:
        periods = tuple(int(v) for v in args.curve_periods.split(","))
        _write_curves(spec, args.seed, periods, args.curves)
    return EXIT_OK


def cmd_select_g(args) -> int:
    data = ingest_csv(args.input)
    config = _solver_config(args)
    selection = select_n_groups(data, config, g_max=args.gmax)
    payload = {
        "meta": _meta("select-g", args.seed, args.threads),
        "result": {
            "selected": selection.selected,
            "sigma2_base": selection.sigma2_base,
            "rows": [
                {
                    "n_groups": row.n_groups,
                    "objective": row.objective,
                    "ssr": row.ssr,
                    "bic": row.bic,
                    "converged": row.converged,
                    "message": row.message,
                }
                for row in selection.rows
            ],
        },
    }
    _write_payload(payload, args.out)
    return EXIT_OK


def cmd_test_homoskedasticity(args) -> int:
    data = ingest_csv(args.input)
    config = _solver_config(args, mode="wgfe")
    result = multi_start(data, config)
    test = homoskedasticity_test(data, result)
    payload = {
        "meta": _meta("test-homoskedasticity", args.seed, args.threads),
        "result": {
            "tau": test.tau,
            "q_gfe": test.q_gfe,
            "q_wgfe": test.q_wgfe,
            "d_nt": test.d_nt,
        },
    }
    _write_payload(payload, args.out)
    return EXIT_OK


def _add_solver_flags(sub, with_mode=True):
    if with_mode:
        sub.add_argument(
            "--mode", choices=("wgfe", "gfe", "ggfe"), default="wgfe",
            help="criterion to optimize (default wgfe)",
        )
    sub.add_argument("--groups", type=int, default=2, help="number of groups")
    sub.add_argument(
        "--restarts", type=int, default=20, help="multi-start restarts"
    )
    sub.add_argument(
        "--tol", type=float, default=1e-8, help="slope fixed-point tolerance"
    )
    sub.add_argument(
        "--max-iters", type=int, default=100,
        help="cap on assignment/update rounds per run",
    )
    sub.add_argument(
        "--assignment-rule", choices=("alg1", "eq6"), default="alg1",
        help="scale-aware assignment variant",
    )


def _add_common_flags(sub):
    sub.add_argument("--seed", type=int, default=0, help="root random seed")
    sub.add_argument(
        "--threads", type=int, default=max(os.cpu_count() or 1, 1),
        help="worker threads for restarts (default: machine parallelism)",
    )
    sub.add_argument("--out", default=None, help="JSON output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgfe",
        description="Grouped panel estimation with per-group error scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit a model to a panel CSV")
    est.add_argument("input", help="long-format CSV (unit,time,y,x1,...)")
    _add_solver_flags(est)
    _add_common_flags(est)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a replication study")
    sim.add_argument("spec", help="JSON process description")
    sim.add_argument(
        "--estimators", default="wgfe,gfe",
        help="comma-separated subset of wgfe,gfe,two_way_fe",
    )
    sim.add_argument(
        "--replications", type=int, default=200, help="study replications"
    )
    sim.add_argument(
        "--curves", default=None,
        help="also write misassignment probability curves to this CSV path",
    )
    sim.add_argument(
        "--curve-periods", default="2,4,8,16,32",
        help="comma-separated panel lengths for the curves",
    )
    _add_common_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    sel = sub.add_parser("select-g", help="choose the group count by BIC")
    sel.add_argument("input", help="long-format CSV (unit,time,y,x1,...)")
    sel.add_argument("--gmax", type=int, required=True, help="largest count tried")
    _add_solver_flags(sel)
    _add_common_flags(sel)
    sel.set_defaults(func=cmd_select_g)

    tst = sub.add_parser(
        "test-homoskedasticity", help="common-scale diagnostic at the weighted fit"
    )
    tst.add_argument("input", help="long-format CSV (unit,time,y,x1,...)")
    _add_solver_flags(tst, with_mode=False)
    _add_common_flags(tst)
    tst.set_defaults(func=cmd_test_homoskedasticity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, IsADirectoryError) as exc:
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT
    except (WgfeError, np.linalg.LinAlgError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
