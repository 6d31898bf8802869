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
success, 2 for bad input or flags, 3 for numeric or solver failures.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain

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
    SIGMA_CLAMP,
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
    covariates in order.  A leading UTF-8 byte-order mark is ignored, and
    so are empty rows and rows whose fields are all blank (they still
    count as lines).  Every other row has the header's width and a
    nonblank unit id, which is stripped; quoting follows :mod:`csv`, so
    ``"a,b"`` is one id.  ``time``, ``y`` and the covariates are finite
    numbers as ``float`` reads them, so ``1`` and ``1.0`` are one period.
    Units keep their order of first appearance and periods are sorted
    ascending.  A bad field count, an empty unit id, a cell that is not a
    finite number and a repeated (unit, time) cell are reported at their
    line; the first such problem in file order is raised.  Only then are
    missing cells reported, the first five in unit and period order.  A
    row that :mod:`csv` itself rejects, such as one with a field longer
    than its field size limit, is reported at its line before any of these.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty file, expected a header row", line=1)
        except csv.Error as exc:
            raise _malformed(exc, reader) from None
        if len(header) < 3 or header[:3] != ["unit", "time", "y"]:
            raise ParseError(
                "header must start with unit,time,y", line=1
            )
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise _malformed(exc, reader) from None
    width = len(header)
    kept = [row for row in rows if len(row) == width and row[0].strip()]
    # every row left out must be blank; kept rows never are
    if len(kept) < len(rows) and len(kept) + sum(map(_blank, rows)) < len(rows):
        raise _first_problem(header, rows)
    if not kept:
        raise ParseError("no data rows")
    columns = list(zip(*kept))
    try:
        cells = np.fromiter(
            map(float, chain.from_iterable(columns[1:])),
            float, count=len(kept) * (width - 1),
        ).reshape(width - 1, len(kept))
    except ValueError:
        raise _first_problem(header, rows) from None
    if not np.isfinite(cells).all():
        raise _first_problem(header, rows)
    names = list(map(str.strip, columns[0]))
    units = {unit: k for k, unit in enumerate(dict.fromkeys(names))}
    unit_idx = np.fromiter(map(units.__getitem__, names), np.intp, count=len(names))
    times = cells[0]
    _, first, period_idx = np.unique(times, return_index=True, return_inverse=True)
    n_periods = len(first)
    slot = unit_idx * n_periods + period_idx
    counts = np.bincount(slot, minlength=len(units) * n_periods)
    if counts.max() > 1:
        raise _first_problem(header, rows)
    if len(kept) < counts.size:
        ids = list(units)
        missing = np.flatnonzero(counts == 0)
        shown = ", ".join(
            f"({ids[c // n_periods]}, {times[first[c % n_periods]]:g})"
            for c in missing[:5]
        )
        more = ", ..." if len(missing) > 5 else ""
        raise UnbalancedPanelError(f"missing cells: {shown}{more}")
    z = np.empty((counts.size, width - 2))
    z[slot] = cells[1:].T
    z = z.reshape(len(units), n_periods, width - 2)
    return PanelDataset(z[:, :, 0], z[:, :, 1:])


def _malformed(exc, reader):
    """A ``csv.Error`` as a ``ParseError`` at the line the reader had reached."""
    return ParseError(f"malformed CSV: {exc}", line=reader.line_num)


def _blank(row):
    """Whether a CSV row is empty or has only blank fields."""
    return not any(map(str.strip, row))


def _first_problem(header, rows):
    """The first row error in file order, as the exception to raise.

    ``rows`` follow the header, so the first is line 2.  Called only once
    a bulk check in :func:`ingest_csv` has failed, so some row has a
    problem.
    """
    width = len(header)
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        if _blank(row):
            continue
        if len(row) != width:
            return ParseError(
                f"expected {width} fields, found {len(row)}", line=lineno
            )
        unit = row[0].strip()
        if not unit:
            return ParseError("empty unit identifier", line=lineno, column="unit")
        t_val = _finite(row[1])
        if t_val is None:
            return ParseError(
                f"invalid time value {row[1]!r}", line=lineno, column="time"
            )
        for name, raw in zip(header[2:], row[2:]):
            if _finite(raw) is None:
                return ParseError(
                    f"invalid numeric value {raw!r}", line=lineno, column=name
                )
        key = (unit, t_val)
        if key in seen:
            return DuplicateCellError(
                f"repeated cell for unit {unit!r}, time {row[1].strip()}",
                line=lineno,
            )
        seen.add(key)


def _finite(raw):
    """A CSV cell as a finite float, or None if it is not one."""
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


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


def _meta(command, seed):
    return {
        "command": command,
        "seed": int(seed),
        "threads": 1,
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
        "meta": _meta("estimate", args.seed),
        "result": _result_dict(result),
        "inference": asdict(inference),
    }
    _write_payload(payload, args.out)
    return EXIT_OK


def _require(raw, where, keys):
    """Reject a JSON value that is not an object or lacks one of ``keys``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in keys:
        if key not in raw:
            raise ValueError(f"{where} is missing {key!r}")


def _scalar(raw, where, key, kind):
    """``raw[key]`` as a JSON integer (``kind`` int) or number (int, float)."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where} {key!r} must be {noun}, got {value!r}")
    return value


def _numbers(raw, where, key):
    """``raw[key]``, a number or nested arrays of numbers, as a float array."""
    try:
        return np.asarray(raw[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(
            f"{where} {key!r} must be a number or an array of numbers"
        ) from None


def _spec_from_dict(raw) -> SimulationSpec:
    where = "process description"
    _require(raw, where, (
        "n_units", "n_periods", "n_groups", "theta_true", "alpha_true",
        "sigma_true", "group_probs",
    ))
    error_law = raw.get("error_law", "gaussian_grouped")
    if error_law != "gaussian_grouped":
        raise ValueError(f"unknown error law {error_law!r}")
    law_raw = raw.get("covariate_law")
    law = None
    if law_raw is not None:
        _require(law_raw, "covariate_law", ())
        kind = law_raw.get("kind")
        if kind == "ar1":
            _require(law_raw, "covariate_law", ("rho", "innovation_sd"))
            law = AR1Covariates(
                rho=_scalar(law_raw, "covariate_law", "rho", (int, float)),
                innovation_sd=_scalar(
                    law_raw, "covariate_law", "innovation_sd", (int, float)
                ),
            )
        elif kind == "fixed":
            _require(law_raw, "covariate_law", ("values",))
            law = FixedCovariates(_numbers(law_raw, "covariate_law", "values"))
        else:
            raise ValueError(f"unknown covariate law kind {kind!r}")
    dynamic = raw.get("dynamic", False)
    if not isinstance(dynamic, bool):
        raise ValueError(f"{where} 'dynamic' must be true or false, got {dynamic!r}")
    return SimulationSpec(
        n_units=_scalar(raw, where, "n_units", int),
        n_periods=_scalar(raw, where, "n_periods", int),
        n_groups=_scalar(raw, where, "n_groups", int),
        theta_true=_numbers(raw, where, "theta_true"),
        alpha_true=_numbers(raw, where, "alpha_true"),
        sigma_true=_numbers(raw, where, "sigma_true"),
        group_probs=_numbers(raw, where, "group_probs"),
        covariate_law=law,
        dynamic=dynamic,
    )


def _write_curves(spec, seed, periods, path):
    """Misassignment-probability curves for the two-group benchmark.

    Uses the first two groups' scales and time-averaged effect levels,
    sweeping the panel length; one CSV row per (T, rule).
    """
    a1 = float(spec.alpha_true[0].mean())
    a2 = float(spec.alpha_true[1].mean())
    s1 = float(max(spec.sigma_true[0], SIGMA_CLAMP))
    s2 = float(max(spec.sigma_true[1], SIGMA_CLAMP))
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "estimator", "probability"])
        for t in periods:
            res = simple_case_misclass(a1, a2, s1, s2, t, CURVE_DRAWS, rng)
            writer.writerow([t, "wgfe", repr(res.wgfe_rate)])
            writer.writerow([t, "gfe", repr(res.gfe_rate)])


def cmd_simulate(args) -> int:
    with open(args.spec, encoding="utf-8-sig") as fh:
        raw = json.load(fh)
    spec = _spec_from_dict(raw)
    if args.curves and spec.n_groups < 2:
        raise ValueError("curve output needs at least two groups")
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    report = run_study(
        spec, estimators, args.replications, np.random.default_rng(args.seed)
    )
    payload = {
        "meta": _meta("simulate", args.seed),
        "report": asdict(report),
    }
    _write_payload(payload, args.out)
    if args.curves:
        _write_curves(spec, args.seed, args.curve_periods, args.curves)
    return EXIT_OK


def cmd_select_g(args) -> int:
    data = ingest_csv(args.input)
    config = _solver_config(args)
    selection = select_n_groups(data, config, g_max=args.gmax)
    payload = {
        "meta": _meta("select-g", args.seed),
        "result": asdict(selection),
    }
    _write_payload(payload, args.out)
    return EXIT_OK


def cmd_test_homoskedasticity(args) -> int:
    data = ingest_csv(args.input)
    config = _solver_config(args, mode="wgfe")
    result = multi_start(data, config)
    test = homoskedasticity_test(data, result)
    payload = {
        "meta": _meta("test-homoskedasticity", args.seed),
        "result": asdict(test),
    }
    _write_payload(payload, args.out)
    return EXIT_OK


class UsageError(ValueError):
    """A command line the parser rejects, such as an unknown flag or a bad value."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors exit 2 with one JSON line (code ``usage``)."""

    def error(self, message):
        _emit_error(UsageError(message), EXIT_INPUT)
        self.exit(EXIT_INPUT)


def _add_solver_flags(sub, with_mode=True):
    if with_mode:
        sub.add_argument(
            "--mode", choices=("wgfe", "gfe", "ggfe"), default="wgfe",
            help="criterion to optimize (default wgfe)",
        )
    sub.add_argument("--groups", type=_count, default=2, help="number of groups")
    sub.add_argument(
        "--restarts", type=_count, default=20, help="multi-start restarts"
    )
    sub.add_argument(
        "--tol", type=float, default=1e-8, help="slope fixed-point tolerance"
    )
    sub.add_argument(
        "--max-iters", type=_count, default=100,
        help="cap on assignment/update rounds per run",
    )


def _count(text):
    """Parse a count flag (``--groups``, ``--restarts``, ...): a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _curve_periods(text):
    """Parse ``--curve-periods``: a comma-separated list of positive integers."""
    try:
        periods = tuple(int(v) for v in text.split(","))
    except ValueError:
        periods = ()
    if not periods or min(periods) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return periods


def _add_common_flags(sub):
    sub.add_argument("--seed", type=int, default=0, help="root random seed")
    sub.add_argument("--out", default=None, help="JSON output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        "--replications", type=_count, default=200, help="study replications"
    )
    sim.add_argument(
        "--curves", default=None,
        help="also write misassignment probability curves to this CSV path",
    )
    sim.add_argument(
        "--curve-periods", type=_curve_periods, default=DEFAULT_CURVE_PERIODS,
        help="comma-separated positive panel lengths for the curves "
        f"(default {','.join(map(str, DEFAULT_CURVE_PERIODS))})",
    )
    _add_common_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    sel = sub.add_parser("select-g", help="choose the group count by BIC")
    sel.add_argument("input", help="long-format CSV (unit,time,y,x1,...)")
    sel.add_argument("--gmax", type=_count, required=True, help="largest count tried")
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
    if args.seed < 0:
        parser.error(f"argument --seed: expected a non-negative integer, got {args.seed}")
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError, ValueError) as exc:
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT
    except (WgfeError, np.linalg.LinAlgError) as exc:
        _emit_error(exc, EXIT_NUMERIC)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
