"""Benchmark of the wgfe command line tool on the paper's simulation design.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

``session_n90``
    On each of a stream of N=90 panels, ``wgfe select-g --gmax 2`` and then
    ``wgfe estimate --mode wgfe --groups 2``, one restart each: the
    analyst's session.
``study_n2k``
    ``wgfe simulate`` on the design at N=2000 with the default estimators
    (``wgfe,gfe``), one replication per call, one seed per call.
``ggfe_n1000``
    ``wgfe estimate --mode ggfe`` on a stream of N=1000 panels, one call per
    panel.

Inputs are generated from ``--seed`` before any timing, with the public
``simlab.generate`` and ``cli.emit_csv``; the program sees only the CSV and
JSON files.  Commands run through ``wgfe.cli.main`` in fresh worker
processes (``bench/worker.py``), one at a time, with BLAS and OpenMP pinned
to one thread so restart threads alone use the cores.  ``--threads`` is
left at its default.

``--trace 0`` measures for ``--seconds`` seconds across three workers and
reports the end-to-end metrics; the last worker also repeats the first
operation so determinism is checked.  ``--trace 1`` runs a fixed number of
operations per workload, each once untraced and once under the span tracer
(``bench/tracer.py``), then the per-layer probes (``bench/probes.py``) in a
fresh process, and reports the per-layer metrics, the tracing overhead and
the answer metrics.

End-to-end metrics (``--trace 0``):

``op_s``
    Mean time of one operation: the workload's commands on one input.
``setup_s``
    Median, over the run's worker processes, of the time to
    ``import wgfe.cli`` in a fresh process.
``peak_rss_mb``
    Largest peak resident memory of a worker process.
``ok_frac``
    One minus the failed share of the operations attempted: commands (a
    nonzero exit fails), output checks, restarts (``n_restarts`` minus
    ``n_restarts_used``), ``select-g`` rows (a row with a message fails)
    and study fits (``n_failures``).

Times are wall times as measured.  Each is a mean or median over the whole
run, since the search work varies from input to input.  On a shared machine
the speed itself can drift by tens of percent over minutes, which no run
can average away.

Every output is checked (schema, objective recomputation, label coverage,
determinism); see ``bench/checks.py``.  Lines starting with ``#`` describe
the environment and every metric with its unit and sample count; the last
line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

N_WORKERS = 3
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_units: int
    #: panels generated per run; operations cycle through them
    pool: int
    #: operations untraced and traced in a ``--trace 1`` run
    traced_ops: int
    gmax: int = 0
    restarts: int = 0
    replications: int = 0

    def commands(self, inp):
        """``[(name, argv)]`` for one operation on one input, output flags aside."""
        seed = ["--seed", str(inp.cli_seeds[0])]
        if self.name == "session_n90":
            # select-g fits G=2 exactly as estimate does under the same seed;
            # a second seed makes those restarts independent samples
            return [
                ("select-g", ["select-g", inp.path, "--gmax", str(self.gmax),
                              "--restarts", str(self.restarts), *seed]),
                ("estimate", ["estimate", inp.path, "--mode", "wgfe", "--groups", "2",
                              "--restarts", str(self.restarts),
                              "--seed", str(inp.cli_seeds[1])]),
            ]
        if self.name == "study_n2k":
            return [
                ("simulate", ["simulate", inp.path, "--replications",
                              str(self.replications), *seed]),
            ]
        return [
            ("estimate", ["estimate", inp.path, "--mode", "ggfe", "--groups", "2", *seed]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("session_n90", n_units=90, pool=64, traced_ops=4, gmax=2, restarts=1),
        Workload("study_n2k", n_units=2000, pool=64, traced_ops=4, replications=1),
        Workload("ggfe_n1000", n_units=1000, pool=24, traced_ops=4),
    )
}

STUDY_ESTIMATORS = ("wgfe", "gfe")


@dataclass
class Input:
    index: int
    path: str
    cli_seeds: tuple
    data: object = None
    truth: object = None


def _stream(seed, workload, k):
    import numpy as np

    code = list(WORKLOADS).index(workload.name)
    return np.random.SeedSequence([seed, code, k])


def make_inputs(workload, seed, run_dir, count):
    """The run's inputs, generated from ``seed`` outside any timing."""
    import numpy as np

    import design
    from wgfe.cli import emit_csv
    from wgfe.simlab import generate

    inputs = []
    if workload.name == "study_n2k":
        path = run_dir / "process.json"
        path.write_text(json.dumps(design.spec_dict(workload.n_units)), encoding="utf-8")
    else:
        spec = design.spec(workload.n_units)
    for k in range(count):
        ss = _stream(seed, workload, k)
        cli_seeds = tuple(int(v >> 1) for v in ss.generate_state(2))
        if workload.name == "study_n2k":
            inputs.append(Input(k, str(path), cli_seeds))
            continue
        data, truth, _ = generate(spec, np.random.default_rng(ss))
        csv_path = run_dir / f"panel-{k}.csv"
        emit_csv(data, csv_path)
        inputs.append(Input(k, str(csv_path), cli_seeds, data, truth))
    return inputs


def _op(run, inp, tag, **flags):
    """A worker job entry; ``seq`` numbers the run's operations and outputs."""
    seq = run.n_ops
    run.n_ops += 1
    return {
        "index": inp.index,
        "seq": seq,
        "tag": tag,
        "commands": [
            {"name": name, "argv": [*argv, "--out", out], "out": out}
            for name, argv in run.workload.commands(inp)
            for out in [str(run.run_dir / f"{tag}-{seq}-{name}.json")]
        ],
        **flags,
    }


class Run:
    """One benchmark run: workers, their records, checks and tallies."""

    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ, **PINNED)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.started = time.perf_counter()
        self.workers = []
        self.n_ops = 0
        self.n_workers = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def tally(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)

    def worker(self, job):
        n = self.n_workers
        self.n_workers += 1
        job["result_path"] = str(self.run_dir / f"worker-{n}.json")
        job_path = self.run_dir / f"job-{n}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = max(5.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        try:
            subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(job_path)],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            self.tally(1, 1, f"worker {n} timed out after {timeout:.0f} s")
            return None
        try:
            with open(job["result_path"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            self.tally(1, 1, f"worker {n} left no result: {exc}")
            return None
        self.workers.append(result)
        return result

    def ops(self):
        return [op for w in self.workers for op in w.get("ops", [])]


def check_outputs(run, inputs, schemas):
    """Check and tally every command output; returns ``{(seq, name): doc}``."""
    import checks

    wl = run.workload
    docs = {}
    for op in run.ops():
        inp = inputs[op["index"]]
        for cmd in op["commands"]:
            name, path = cmd["name"], cmd["out"]
            run.tally(1, int(cmd["rc"] != 0), f"{path}: exit {cmd['rc']} {cmd.get('error') or ''}")
            if cmd["rc"] != 0:
                continue
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                run.tally(1, 1, f"{path}: {exc}")
                continue
            docs[(op["seq"], name)] = doc
            found = checks.schema_problems(doc, schemas[name])
            run.tally(1, int(bool(found)), f"{path}: {found[:3]}")
            if found:
                continue
            if name == "estimate":
                found = checks.estimate_problems(doc, inp.data)
                if doc["result"]["mode"] != "ggfe":
                    used = doc["result"]["n_restarts_used"]
                    run.tally(wl.restarts, wl.restarts - used, f"{path}: failed restarts")
            elif name == "select-g":
                found = checks.select_g_problems(doc, wl.gmax)
                bad = [r["message"] for r in doc["result"]["rows"] if r["message"] is not None]
                run.tally(len(doc["result"]["rows"]), len(bad), f"{path}: {bad}")
            else:
                found = checks.simulate_problems(doc, STUDY_ESTIMATORS, wl.replications)
                n_fail = sum(doc["report"]["n_failures"].values())
                run.tally(wl.replications * len(STUDY_ESTIMATORS), n_fail, f"{path}: {n_fail} failed fits")
            run.tally(1, int(bool(found)), f"{path}: {found}")
    # deterministic fields agree across every run of one input
    by_input = {}
    for op in run.ops():
        for cmd in op["commands"]:
            doc = docs.get((op["seq"], cmd["name"]))
            if doc is not None:
                view = json.dumps(checks.deterministic_view(doc), sort_keys=True)
                by_input.setdefault((op["index"], cmd["name"]), []).append(view)
    for (index, name), views in by_input.items():
        if len(views) > 1:
            run.tally(1, int(len(set(views)) > 1), f"input {index} {name}: outputs differ between runs")
    return docs


def answer_metrics(run, inputs, docs):
    """Deterministic answers of the untraced operations, averaged over inputs."""
    import numpy as np

    import design
    from wgfe import GroupAssignment
    from wgfe.simlab import misclassification_rate

    theta0 = np.asarray(design.THETA)
    objective, misclass, sq_err, g_err = [], [], [], []
    for op in run.ops():
        if op["tag"] != "untraced":
            continue
        for cmd in op["commands"]:
            doc = docs.get((op["seq"], cmd["name"]))
            if doc is None:
                continue
            if cmd["name"] == "estimate":
                res = doc["result"]
                objective.append(res["objective"])
                est = GroupAssignment(np.asarray(res["labels"]), len(res["alpha"]))
                misclass.append(misclassification_rate(est, inputs[op["index"]].truth)[0])
                sq_err.append(np.mean((np.asarray(res["theta"]) - theta0) ** 2))
            elif cmd["name"] == "select-g":
                g_err.append(abs(doc["result"]["selected"] - design.N_GROUPS))
            else:
                rep = doc["report"]
                misclass.append(rep["misclass_mean"]["wgfe"])
                sq_err.append(np.mean(np.asarray(rep["rmse_theta"]["wgfe"]) ** 2))

    def mean(values, unit):
        return (float(np.mean(values)) if values else 0.0, len(values), unit)

    rmse = float(np.sqrt(np.mean(sq_err))) if sq_err else 0.0
    return {
        "answer.objective": mean(objective, "1"),
        "answer.misclass": mean(misclass, "frac"),
        "answer.theta_rmse": (rmse, len(sq_err), "1"),
        "answer.g_abs_error": mean(g_err, "count"),
    }


def _walls(run, tag):
    """Wall time per operation, and per command name, of the ``tag`` ops."""
    ops = [op for op in run.ops() if op["tag"] == tag]
    per_cmd = {}
    for op in ops:
        for c in op["commands"]:
            per_cmd.setdefault(c["name"], []).append(c["wall_s"])
    return [sum(c["wall_s"] for c in op["commands"]) for op in ops], per_cmd


def timed_run(run, inputs, seconds):
    """Operations for ``seconds``, split across fresh worker processes."""
    next_k = 0
    for w in range(N_WORKERS):
        # the last worker first repeats the first operation, in its own process
        ops = [_op(run, inputs[0], "repeat", always=True)] if w == N_WORKERS - 1 else []
        ops += [_op(run, inputs[k % len(inputs)], "timed") for k in range(next_k, next_k + 4 * len(inputs))]
        result = run.worker({"kind": "ops", "ops": ops, "budget_s": seconds / N_WORKERS})
        if result is not None:
            next_k += sum(op["tag"] == "timed" for op in result["ops"])
    per_op, _ = _walls(run, "timed")
    if not per_op:
        return None
    setup = [w["setup_s"] for w in run.workers]
    rss = [w["rss_mb"] for w in run.workers]
    return {
        "setup_s": (statistics.median(setup), len(setup), "s"),
        "op_s": (statistics.fmean(per_op), len(per_op), "s"),
        "peak_rss_mb": (max(rss), len(rss), "MB"),
    }


PROBE_NAMES = (
    "probe.solve_theta_fixed_point_s",
    "probe.wgfe_assign_s",
    "probe.lloyd_s",
    "probe.vns_s",
    "probe.variance_estimates_s",
    "probe.barycenter_fixed_point_s",
    "probe.assignment_gradient_s",
    "probe.multi_start_serial_s",
    "probe.multi_start_pool_s",
)


def layer_metrics(layers, n_ops):
    """Per-operation layer metrics from the tracer's per-name summary."""

    def get(name, field="total_s"):
        return layers.get(name, {}).get(field, 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def per_op(name, field="total_s", unit="s"):
        return (get(name, field) / n_ops, calls(name), unit)

    def mean_s(name):
        c = calls(name)
        return (get(name) / c if c else 0.0, c, "s")

    vns_calls = calls("solvers.vns")
    return {
        "cli.ingest_csv.total_s": per_op("cli.ingest_csv"),
        "cli.main.self_s": per_op("cli.main", "self_s"),
        "solvers.multi_start.total_s": per_op("solvers.multi_start"),
        "solvers.vns.calls": per_op("solvers.vns", "calls", "count"),
        "solvers.vns.mean_s": mean_s("solvers.vns"),
        "solvers.vns.lloyd_iters": per_op("solvers.vns", "rounds", "count"),
        "solvers.vns.best_hit_frac": (
            get("solvers.vns", "best_hits") / vns_calls if vns_calls else 0.0, vns_calls, "frac"
        ),
        "solvers.initialize.total_s": per_op("solvers.initialize"),
        "model.GroupAssignment.init.calls": per_op("model.GroupAssignment.init", "calls", "count"),
        "model.GroupAssignment.init.total_s": per_op("model.GroupAssignment.init"),
        "model.sigma_floor.calls": per_op("model.sigma_floor", "calls", "count"),
        "model.sigma_floor.total_s": per_op("model.sigma_floor"),
        "model.residual_profiles.calls": per_op("model.residual_profiles", "calls", "count"),
        "model.residual_profiles.total_s": per_op("model.residual_profiles"),
        "inference.select_n_groups.self_s": per_op("inference.select_n_groups", "self_s"),
        "inference.variance_estimates.total_s": per_op("inference.variance_estimates"),
        "simlab.generate.total_s": per_op("simlab.generate"),
        "simlab.misclassification_rate.total_s": per_op("simlab.misclassification_rate"),
        "simlab.run_study.self_s": per_op("simlab.run_study", "self_s"),
        "ggfe.ggfe_descent.rounds": per_op("ggfe.ggfe_descent", "rounds", "count"),
        "ggfe.barycenter_fixed_point.calls": per_op("ggfe.barycenter_fixed_point", "calls", "count"),
        "ggfe.barycenter_fixed_point.mean_s": mean_s("ggfe.barycenter_fixed_point"),
        "ggfe.assignment_gradient.total_s": per_op("ggfe.assignment_gradient"),
        "ggfe.group_covariances.total_s": per_op("ggfe.group_covariances"),
    }


def traced_run(run, inputs):
    """Each input untraced then traced in one worker, then the probes."""
    wl = run.workload
    ops = []
    for inp in inputs:
        ops.append(_op(run, inp, "untraced"))
        ops.append(_op(run, inp, "traced", traced=True))
    trace_path = WORK / f"trace-{wl.name}-s{run.seed}.npz"
    result = run.worker({"kind": "ops", "ops": ops, "trace_path": str(trace_path)})
    probes = run.worker({"kind": "probes", "probes": probe_job(wl, inputs)})
    if result is None or probes is None:
        return None
    untraced, per_cmd = _walls(run, "untraced")
    traced, _ = _walls(run, "traced")
    metrics = layer_metrics(result.get("layers", {}), len(traced))
    for name in PROBE_NAMES:
        p = probes["probes"][name]
        run.tally(1, int("error" in p), f"{name}: {p.get('error')}")
        metrics[name] = (p["value"], p["samples"], "s")
    for cmd, key in (("select-g", "select_g_s"), ("estimate", "estimate_s"), ("simulate", "simulate_s")):
        walls = per_cmd.get(cmd, [])
        metrics[key] = (statistics.median(walls) if walls else 0.0, len(walls), "s")
    overhead = (sum(traced) - sum(untraced)) / len(traced)
    metrics["trace.overhead_s"] = (overhead, len(traced), "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.fmean(untraced), len(traced), "frac")
    metrics["trace.spans"] = (result.get("n_spans", 0) / len(traced), len(traced), "count")
    return metrics


def probe_job(workload, inputs):
    """Probe inputs: a panel and config for the function probes, the restarts
    of every traced ``multi_start`` call for ``probe.vns_s``, and for the
    session the restarts of the thread-pool probes."""
    a, b = inputs[0].cli_seeds
    if workload.name == "study_n2k":
        # run_study's default budgets
        study = {"n_groups": 2, "n_restarts": 10, "vns_iter_max": 1, "vns_neigh_max": 0, "seed": 0}
        panels = [{"n_units": workload.n_units, "cli_seed": inp.cli_seeds[0]} for inp in inputs]
        return {
            "panel": panels[0],
            "config": {"mode": "wgfe", **study},
            # one replication per call: child 0 of the call's seed, solver seed 0
            "replay": [
                {"panel": panel, "config": {"mode": mode, **study}}
                for panel in panels
                for mode in STUDY_ESTIMATORS
            ],
        }
    job = {"panel": {"csv": inputs[0].path}, "config": {"mode": "wgfe", "n_groups": 2, "seed": a}}
    job["replay"] = []
    if workload.name == "session_n90":
        for inp in inputs:
            seeds = [inp.cli_seeds[0]] * workload.gmax + [inp.cli_seeds[1]]
            groups = list(range(1, workload.gmax + 1)) + [2]
            job["replay"] += [
                {"panel": {"csv": inp.path},
                 "config": {"mode": "wgfe", "n_groups": g, "n_restarts": workload.restarts, "seed": s}}
                for g, s in zip(groups, seeds)
            ]
        job["pool"] = [2, b]
    return job


def environment(docs):
    """Machine, versions and source identity, for the report header."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "wgfe").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "threads": ",".join(sorted({str(d["meta"]["threads"]) for d in docs.values()})),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        **{k: os.environ[k] for k in PINNED},
    }


def main(argv=None):
    # a terminated run still stops its worker: subprocess.run kills the
    # child when the exception passes through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


def bench(workload, seed, seconds, trace):
    """Run one benchmark run and print its report; returns the exit code."""
    if not (SRC / "wgfe" / "cli.py").is_file():
        print(f"no wgfe sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    try:
        import jsonschema  # noqa: F401 - needed by the output checks
    except ImportError:
        print("jsonschema is required to check outputs", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    run_dir = WORK / f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, run_dir)
        schemas = checks.load_schemas(str(SRC))
        count = workload.traced_ops if trace else workload.pool
        inputs = make_inputs(workload, seed, run_dir, count)
        if trace:
            metrics = traced_run(run, inputs)
        else:
            metrics = timed_run(run, inputs, seconds)
        docs = check_outputs(run, inputs, schemas)
        if metrics is None:
            print("no operation completed", file=sys.stderr)
            for problem in run.problems[:10]:
                print(f"problem: {problem}", file=sys.stderr)
            return 1
        if trace:
            metrics.update(answer_metrics(run, inputs, docs))
        else:
            metrics["ok_frac"] = (1.0 - run.failed / max(run.attempted, 1), run.attempted, "frac")
        report(run, metrics, trace, docs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def report(run, metrics, trace, docs):
    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    env = environment(docs)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={run.workload.name} seed={run.seed} trace={trace} "
          f"attempted={run.attempted} failed={run.failed}")
    print(f"# {'metric':40s} {'value':>14s} {'unit':6s} samples")
    for name, (value, samples, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit:6s} {samples}")
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
