"""In-process pass over a workload's CLI invocations, optionally traced.

    python3 perfbench/tracer.py PLAN.json SUMMARY.json SPANS.csv {0|1}

PLAN.json lists the invocations as ``[[label, argv], ...]``.  Every
invocation runs through ``helitube.cli.main`` in this one process, with
its stdout and stderr sent to ``<label>.out`` and ``<label>.err`` next to
the plan.  With tracing on, every public function of the six package
modules is wrapped from outside, in every namespace and module-level
table that holds it, and each call becomes a span (name, start, end,
parent).  Spans stay in memory until the pass ends; then SPANS.csv gets
them all and SUMMARY.json gets per-function calls, total and self time,
and the computed counters below.  Nothing in the package changes.

Counters named ``*_computed`` and ``fill_ratio`` are derived from the call
arguments and result shapes (matrix dimension, dtype, ``n_lowest``), not
measured.  The eigensolve counters cover grid matrices only, and
``oracle.band_sweep.kpoints`` counts only ``ORACLE_FULL`` sweeps.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("geometry", "operators", "bloch", "oracle", "cli", "verify")


class Tracer:
    """Span recorder.  Each thread keeps its own parent stack, so a span
    started in a worker thread is a root span."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.counters = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, count=None):
        spans, ids, local, counters = self.spans, self._ids, self._local, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(counters, name, args, kwargs, result)
            return result

        return traced

    def stats(self) -> dict:
        """{name: {calls, total_s, self_s}}; self = duration - direct children."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(out)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                f.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")


# --------------------------------------------------------------------------
# computed counters


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eigensolve(c, name, args, kwargs, result):
    H = _arg(args, kwargs, 0, "H")
    if H.basis != "GRID_2D":  # the 15-dim ray matrices are not counted
        return
    with_vectors = len(args) > 2 and args[2] or kwargs.get("with_vectors", False)
    n = H.entries.shape[0]
    # LAPACK reduction to tridiagonal form: 4/3 n^3 real flops (sytrd), four
    # times that for complex (hetrd); eigenvectors add the back-transform 2 n^3
    flops = 4.0 / 3.0 * n**3 + (2.0 * n**3 if with_vectors else 0.0)
    if H.entries.dtype.kind == "c":
        flops *= 4.0
    c[f"{name}.flops_computed"] += flops
    c[f"{name}.eigs_computed"] += n
    c[f"{name}.eigs_returned"] += len(result.eigenvalues)
    c[f"{name}.dim_max"] = max(c[f"{name}.dim_max"], n)


def _count_assemble_full(c, name, args, kwargs, result):
    H = result.entries
    # 5-point stencil on the 2-d grid, 3-point on the projected 1-d problem
    per_row = 3 if result.transverse_n is not None else 5
    c[f"{name}.bytes_computed"] += H.nbytes
    c[f"{name}.stencil_nonzeros"] += per_row * H.shape[0]
    c[f"{name}.entries_stored"] += H.size


def _count_band_sweep(c, name, args, kwargs, result):
    if _arg(args, kwargs, 2, "source") == "ORACLE_FULL":  # grid k-points only
        c[f"{name}.kpoints"] += len(result.kpath)


def _count_written(c, name, args, kwargs, result):
    c[f"{name}.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "oracle.eigensolve": _count_eigensolve,
    "oracle.assemble_full": _count_assemble_full,
    "oracle.band_sweep": _count_band_sweep,
    "cli.write_csv": _count_written,
    "cli.write_json": _count_written,
}


def derived_counters(counters: dict) -> dict:
    """Ratios of the raw counts, each with its base kept alongside."""
    out = dict(counters)
    eig = "oracle.eigensolve"
    if counters.get(f"{eig}.eigs_computed"):
        out[f"{eig}.eigs_used_ratio"] = (
            counters[f"{eig}.eigs_returned"] / counters[f"{eig}.eigs_computed"])
    full = "oracle.assemble_full"
    if counters.get(f"{full}.entries_stored"):
        out[f"{full}.fill_ratio"] = (
            counters[f"{full}.stencil_nonzeros"] / counters[f"{full}.entries_stored"])
    return out


# --------------------------------------------------------------------------
# instrumentation from outside the package


def install(tracer: Tracer, modules) -> None:
    """Wrap each public function of `modules` wherever a module binds it.

    Rebinds module attributes (the ``from .x import f`` copies included)
    and the entries of module-level dicts, lists and tuples such as the
    CLI's command table and the verification check list.
    """
    wrapped = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{mod.__name__.rsplit('.', 1)[-1]}.{obj.__name__}"
                wrapped[obj] = tracer.wrap(name, obj, COUNTERS.get(name))

    def swap(obj):
        return wrapped.get(obj, obj) if inspect.isfunction(obj) else obj

    for mod in (*modules, sys.modules[modules[0].__package__]):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, swap(obj))
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    obj[key] = swap(val)
            elif isinstance(obj, list):
                obj[:] = [swap(v) for v in obj]
            elif isinstance(obj, tuple) and any(o in wrapped for o in obj
                                                if inspect.isfunction(o)):
                setattr(mod, attr, tuple(swap(v) for v in obj))


def main(plan_path: str, summary_path: str, spans_path: str, traced: str) -> int:
    t_start = time.perf_counter()
    plan = json.loads(Path(plan_path).read_text())
    workdir = Path(plan_path).parent
    cli = importlib.import_module("helitube.cli")
    modules = [importlib.import_module(f"helitube.{m}") for m in MODULES]
    t_imported = time.perf_counter()
    tracer = Tracer() if traced == "1" else None
    if tracer is not None:
        install(tracer, modules)
    t_ready, ready_epoch = time.perf_counter(), time.time()
    exit_codes = {}
    for label, argv in plan:
        with open(workdir / f"{label}.out", "w") as out, \
                open(workdir / f"{label}.err", "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                exit_codes[label] = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                exit_codes[label] = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught error fails the operation
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                exit_codes[label] = -1
    t_done = time.perf_counter()
    summary = {
        "exit_codes": exit_codes,
        "import_s": t_imported - t_start,
        "ready_epoch": ready_epoch,
        "pass_s": t_done - t_ready,
    }
    if tracer is not None:
        summary["functions"] = tracer.stats()
        summary["counters"] = derived_counters(tracer.counters)
        summary["spans"] = len(tracer.spans)
        tracer.write_spans(Path(spans_path))
    summary["write_s"] = time.perf_counter() - t_done
    Path(summary_path).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
