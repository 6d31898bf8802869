"""Output checks on the JSON the wgfe CLI writes.

Every check returns a list of problems (empty when the output is correct).
The caller counts each check as one operation, failed when it finds a
problem, so no check is ever dropped.
"""

import json
import math
import os

import numpy as np

OBJECTIVE_RTOL = 1e-9

SCHEMAS = {"estimate": "estimate", "select-g": "select_g", "simulate": "simulate"}


def load_schemas(src_dir):
    out = {}
    for command, stem in SCHEMAS.items():
        path = os.path.join(src_dir, "wgfe", "schemas", f"{stem}.schema.json")
        with open(path, encoding="utf-8") as fh:
            out[command] = json.load(fh)
    return out


def schema_problems(doc, schema):
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema: {e.message}" for e in validator.iter_errors(doc)]


def deterministic_view(doc):
    """The document without its timestamp and measured runtime."""
    doc = json.loads(json.dumps(doc))
    doc.get("meta", {}).pop("timestamp", None)
    doc.get("report", {}).pop("runtime_seconds", None)
    return doc


def estimate_problems(doc, data):
    """Objective recomputes from θ, α and labels; labels cover 1..G."""
    from wgfe import GroupAssignment, ggfe_objective, gfe_objective, wgfe_objective

    res = doc["result"]
    alpha = np.asarray(res["alpha"], dtype=float)
    n_groups = alpha.shape[0]
    labels = np.asarray(res["labels"], dtype=np.int64)
    problems = []
    if sorted(set(labels.tolist())) != list(range(1, n_groups + 1)):
        problems.append(f"labels {sorted(set(labels.tolist()))} do not cover 1..{n_groups}")
        return problems
    gamma = GroupAssignment(labels, n_groups)
    theta = np.asarray(res["theta"], dtype=float)
    if res["mode"] == "wgfe":
        value = wgfe_objective(data, theta, alpha, gamma).value
    elif res["mode"] == "gfe":
        value = gfe_objective(data, theta, alpha, gamma).value
    else:
        value = ggfe_objective(data, theta, alpha, gamma)
    reported = res["objective"]
    if reported is None or not math.isclose(value, reported, rel_tol=OBJECTIVE_RTOL, abs_tol=0.0):
        problems.append(f"objective {reported} does not recompute (got {value})")
    return problems


def select_g_problems(doc, g_max):
    res = doc["result"]
    problems = []
    if [row["n_groups"] for row in res["rows"]] != list(range(1, g_max + 1)):
        problems.append("select-g rows do not cover 1..gmax")
    if res["selected"] not in range(1, g_max + 1):
        problems.append(f"selected count {res['selected']} outside 1..{g_max}")
    return problems


def simulate_problems(doc, estimators, replications):
    rep = doc["report"]
    problems = []
    if rep["estimators"] != list(estimators):
        problems.append(f"estimators {rep['estimators']} != {list(estimators)}")
    if rep["n_replications"] != replications:
        problems.append(f"n_replications {rep['n_replications']} != {replications}")
    for name in estimators:
        rate = rep["misclass_mean"][name]
        if rate is None or not 0.0 <= rate <= 1.0:
            problems.append(f"{name} misclassification {rate} outside [0, 1]")
    return problems
