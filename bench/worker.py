"""Benchmark worker: one fresh process that runs wgfe CLI commands.

Usage: ``python3 bench/worker.py JOB.json``.  The job file names the
commands to run and where to write the result.  The worker times its own
``import wgfe.cli`` (the set-up a user pays on every command), then runs
operations, each a list of CLI argument vectors passed to
``wgfe.cli.main`` and timed one by one.  With a ``budget_s`` the
worker stops starting operations once the next one would likely overrun
the budget; operations marked ``always`` run regardless.  Operations marked
``traced`` run under :class:`tracer.Tracer`, which is removed afterwards.

Job ``"kind": "probes"`` runs the isolated per-layer probes of
:mod:`probes` instead.
"""

import json
import resource
import sys
import time
import traceback


def _run_command(cli, argv):
    started = time.perf_counter()
    error = None
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed command, recorded
        rc = 1
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - started
    return {"rc": int(rc if rc is not None else 0), "wall_s": wall, "error": error}


def run_ops(job, cli, wgfe):
    records = []
    tracer = None
    if any(op.get("traced") for op in job["ops"]):
        from tracer import Tracer

        tracer = Tracer()
    budget = job.get("budget_s")
    started = time.perf_counter()
    spent = []
    for op in job["ops"]:
        if budget is not None and not op.get("always") and spent:
            elapsed = time.perf_counter() - started
            if elapsed + sum(spent) / len(spent) > budget:
                continue
        if op.get("traced"):
            tracer.run_id = op["seq"]
            tracer.install(wgfe)
        op_started = time.perf_counter()
        try:
            commands = [
                dict(_run_command(cli, c["argv"]), name=c["name"], out=c["out"])
                for c in op["commands"]
            ]
        finally:
            if op.get("traced"):
                tracer.uninstall()
        if not op.get("always"):
            spent.append(time.perf_counter() - op_started)
        records.append(
            {
                "index": op["index"],
                "seq": op["seq"],
                "tag": op["tag"],
                "commands": commands,
            }
        )
    result = {"ops": records}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["n_spans"] = len(tracer.spans)
        if job.get("trace_path"):
            tracer.dump(job["trace_path"])
    return result


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    started = time.perf_counter()
    import wgfe.cli as cli

    setup_s = time.perf_counter() - started
    import wgfe

    if job["kind"] == "probes":
        import probes

        result = probes.run(job["probes"])
    else:
        result = run_ops(job, cli, wgfe)
    result.update(
        setup_s=setup_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
