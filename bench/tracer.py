"""Span tracing of the wgfe package, installed from outside the program.

:class:`Tracer` replaces every public function of the package modules, at
each module attribute that holds it, with a wrapper that records a span:
name, start, end, parent span, run id and thread.  Callers look these
attributes up at call time (``multi_start`` finds ``vns`` in
``wgfe.solvers``, ``cmd_estimate`` finds ``ingest_csv`` in ``wgfe.cli``),
so the wrappers see every call across layer boundaries.
``GroupAssignment.__init__`` is wrapped too, to time container validation.
:meth:`Tracer.uninstall` restores the original attributes.

Spans live in memory and are summarised or written out after the traced
work ends.  A span opened on a thread with no open span of its
own (a restart on the ``multi_start`` thread pool) takes the innermost open
``solvers.multi_start`` span of the main thread as its parent.
"""

import functools
import inspect
import itertools
import json
import threading
import time

import numpy as np

LAYERS = ("cli", "solvers", "model", "inference", "simlab", "ggfe")

#: Spans whose self time is reported: duration minus the union of children.
SELF_TIMED = ("cli.main", "inference.select_n_groups", "simlab.run_study")


def _annotate_result(result):
    """Objective and Lloyd/descent rounds of an ``EstimationResult``."""
    return float(result.objective), float(result.n_lloyd_iters)


#: Spans that also record values from the returned object.
ANNOTATED = {
    "solvers.vns": _annotate_result,
    "ggfe.ggfe_descent": _annotate_result,
}


class Tracer:
    """Records spans around calls into the wgfe modules."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # span id -> [name, parent, run, thread, start, end, objective, rounds]
        self.spans = {}
        self._next_id = itertools.count()
        self.run_id = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopted_parent(self):
        """Parent for a span opened on a pool thread with an empty stack."""
        ms = self._ids.get("solvers.multi_start")
        for sid in reversed(self._main_stack):
            if self.spans[sid][0] == ms:
                return sid
        return self._main_stack[-1] if self._main_stack else -1

    def begin(self, name_id):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not self._main:
            parent = self._adopted_parent()
        else:
            parent = -1
        sid = next(self._next_id)
        record = [name_id, parent, self.run_id, threading.get_ident(), 0.0, np.nan, np.nan, np.nan]
        self.spans[sid] = record
        stack.append(sid)
        record[4] = time.perf_counter()
        return record

    def finish(self, record):
        record[5] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        annotate = ANNOTATED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(record)
            if annotate is not None:
                record[6], record[7] = annotate(out)
            return out

        return wrapper

    def install(self, package):
        """Wrap the public functions of each layer module of ``package``."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        cls = package.model.GroupAssignment
        self._saved.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap("model.GroupAssignment.init", cls.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    # summaries

    def arrays(self):
        """The spans as columns, indexed by span id."""
        rows = [self.spans[sid] for sid in sorted(self.spans)]
        table = np.array(rows, dtype=float).reshape(len(rows), 8)
        ints = table[:, :4].astype(np.int64)
        return {
            "name": ints[:, 0],
            "parent": ints[:, 1],
            "run": ints[:, 2],
            "thread": ints[:, 3],
            "start": table[:, 4],
            "end": table[:, 5],
            "objective": table[:, 6],
            "rounds": table[:, 7],
        }

    def summary(self):
        """Per-name totals: calls, summed duration, self time, annotations.

        Returns ``{name: {"calls", "total_s", "self_s", "rounds"}}`` plus,
        under ``"solvers.vns"``, ``best_hits``: the restarts whose objective
        ties the best of their ``multi_start`` call.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        out = {}
        for k, name in enumerate(self.names):
            mask = a["name"] == k
            rounds = a["rounds"][mask]
            out[name] = {
                "calls": int(calls[k]),
                "total_s": float(total[k]),
                "rounds": float(np.nansum(rounds)) if rounds.size else 0.0,
            }
        for name in SELF_TIMED:
            if name in out:
                out[name]["self_s"] = self._self_time(a, self._ids[name], dur)
        vns_id = self._ids.get("solvers.vns")
        if vns_id is not None:
            out["solvers.vns"]["best_hits"] = self._best_hits(a, vns_id)
        return out

    @staticmethod
    def _self_time(a, name_id, dur):
        """Summed duration of ``name_id`` spans minus what their children cover."""
        owners = np.nonzero(a["name"] == name_id)[0]
        covered = 0.0
        for sid in owners:
            kids = np.nonzero(a["parent"] == sid)[0]
            if kids.size == 0:
                continue
            order = np.argsort(a["start"][kids])
            lo_prev, hi_prev = None, None
            for s, e in zip(a["start"][kids][order], a["end"][kids][order]):
                if hi_prev is None or s > hi_prev:
                    if hi_prev is not None:
                        covered += hi_prev - lo_prev
                    lo_prev, hi_prev = s, e
                else:
                    hi_prev = max(hi_prev, e)
            covered += hi_prev - lo_prev
        return float(dur[owners].sum() - covered)

    @staticmethod
    def _best_hits(a, vns_id):
        vns = np.nonzero(a["name"] == vns_id)[0]
        hits = 0
        for parent in np.unique(a["parent"][vns]):
            obj = a["objective"][vns[a["parent"][vns] == parent]]
            obj = obj[np.isfinite(obj)]
            if obj.size:
                best = obj.min()
                hits += int(np.sum(obj <= best + 1e-9 * (1.0 + abs(best))))
        return hits

    def dump(self, path):
        """Write the spans to ``path`` as a compressed ``.npz`` archive."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())
