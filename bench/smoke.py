"""Smoke test of the benchmark at tiny panel sizes.

Runs every workload once untraced and once traced, with small panels and a
one-second budget, and checks that each metric BENCHMARK.json names is
emitted with a unit and that every output check passed.  Also checks the
tracer's self time and pool-thread parents, and that the benchmark refuses
to run without the program's sources.

Run with ``python3 bench/smoke.py`` or ``python3 -m pytest bench/smoke.py``
from the root of a source checkout (about a minute on two cores).
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TINY = {"session_n90": 60, "study_n2k": 300, "ggfe_n1000": 60}


def _spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(name, trace):
    workload = dataclasses.replace(
        run.WORKLOADS[name], n_units=TINY[name], pool=4, traced_ops=1
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.bench(workload, seed=0, seconds=1.0, trace=trace)
    assert code == 0, out.getvalue()
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def test_every_metric_is_emitted_with_a_unit():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in run.WORKLOADS:
            result, header = _bench(name, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, header)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], float)
            assert any(line.startswith("# env ") for line in header)


def test_tracer_self_time_and_pool_parent():
    from concurrent.futures import ThreadPoolExecutor

    from tracer import Tracer

    tracer = Tracer()
    leaf = tracer.wrap("solvers.lloyd", lambda: time.sleep(0.02))

    def search():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(2)))

    outer = tracer.wrap("solvers.multi_start", search)
    root = tracer.wrap("cli.main", lambda: (time.sleep(0.01), outer()))
    root()
    a = tracer.arrays()
    names = [tracer.names[k] for k in a["name"]]
    ms = names.index("solvers.multi_start")
    assert [p for n, p in zip(names, a["parent"]) if n == "solvers.lloyd"] == [ms, ms]
    main = tracer.summary()["cli.main"]
    assert main["calls"] == 1
    # self time excludes the child's whole interval, the sleep alone remains
    assert 0.009 < main["self_s"] < main["total_s"] - 0.019


def test_refuses_without_sources():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "session_n90",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60, check=False,
        )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_tracer_self_time_and_pool_parent()
    test_every_metric_is_emitted_with_a_unit()
    test_refuses_without_sources()
    print("smoke test passed")
