"""helitube benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the repository root (the package is taken from ./src).  With
``--trace 0`` each pass spawns one fresh CLI process per invocation, one
after another; passes repeat until S seconds have elapsed and the
end-to-end metrics are medians over passes.  ``setup_s`` is the median
of fresh interpreters that import ``helitube.cli`` and validate the
workload's configuration, taken between passes.  With ``--trace 1`` untraced and traced
in-process passes alternate (see tracer.py) and the per-layer metrics are
reported instead.  Every pass's artifacts are checked for correctness.

Metric names and units come from BENCHMARK.json.  The last line of
stdout is the result object; the line before it is a report with the
provenance, the sample counts and the correctness detail, which is also
written to perfbench/_runs/<workload>/report.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread in this process and in every child it starts.  A
# two-thread solve waits for both cores: on a 2-core VM, a 1024^2 complex
# eigvalsh moved 29% between two 40-second windows with two threads, and
# 2% with one.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)

from workloads import PASS_DIR, WORKLOADS, run_checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_REPEATS = 30
CHILD_TIMEOUT_S = 150.0
CLI_LAUNCH = "import sys; from helitube.cli import main; sys.exit(main(sys.argv[1:]))"
# timed inside the child, so that interpreter start-up and exit are left out
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import helitube.cli as cli
for argv in json.loads(sys.argv[1]):
    cli.build_config(cli._build_parser().parse_args(argv))
print(repr(time.perf_counter() - start))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> dict:
    """Run one child to completion: wall time, exit code, its own rusage."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start, start_epoch = time.perf_counter(), time.time()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "start_epoch": start_epoch,
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
    }


def quantile_summary(values: list[float]) -> dict:
    """Median as the value, the samples, and the highest of p90/p99/p99.9
    that has at least ten samples beyond it."""
    out = {"value": statistics.median(values), "n": len(values), "values": values}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


# --------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "helitube").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "lib*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "HELITUBE_THREADS": os.environ.get("HELITUBE_THREADS", "unset (package default 1)"),
    }


# --------------------------------------------------------------------------
# measured runs


def setup_once(workload, workdir: Path) -> float:
    """A fresh interpreter imports helitube.cli and validates every invocation's flags."""
    argvs = json.dumps([inv.argv for inv in workload.invocations])
    res = spawn([sys.executable, "-c", SETUP_CODE, argvs],
                workdir / "setup.out", workdir / "setup.err")
    if res["exit"] != 0:
        raise RuntimeError(f"set-up failed: {(workdir / 'setup.err').read_text()}")
    return float((workdir / "setup.out").read_text().split()[-1])


def fresh_pass_dir(workdir: Path) -> Path:
    """Empty the pass directory, so a check never reads an earlier pass's artifacts."""
    passdir = workdir / PASS_DIR
    shutil.rmtree(passdir, ignore_errors=True)
    passdir.mkdir()
    return passdir


def untraced_pass(workload, workdir: Path) -> dict:
    passdir = fresh_pass_dir(workdir)
    results = {}
    start = time.perf_counter()
    for inv in workload.invocations:
        results[inv.label] = spawn([sys.executable, "-c", CLI_LAUNCH, *inv.argv],
                                   passdir / f"{inv.label}.out", passdir / f"{inv.label}.err")
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": sum(r["cpu_s"] for r in results.values()),
        "rss_mb": max(r["rss_mb"] for r in results.values()),
        "exit": {label: r["exit"] for label, r in results.items()},
    }


def in_process_pass(workload, workdir: Path, traced: bool) -> dict:
    passdir = fresh_pass_dir(workdir)
    plan, summary = passdir / "plan.json", workdir / "summary.json"
    plan.write_text(json.dumps([[inv.label, inv.argv] for inv in workload.invocations]))
    res = spawn([sys.executable, str(HERE / "tracer.py"), str(plan), str(summary),
                 str(workdir / "spans.csv"), "1" if traced else "0"],
                workdir / "trace.out", workdir / "trace.err")
    if res["exit"] != 0:
        raise RuntimeError(f"traced pass failed: {(workdir / 'trace.err').read_text()}")
    info = json.loads(summary.read_text())
    info["wall_s"] = res["wall_s"]
    # interpreter start, imports and wrapping, on the wall clock both processes share
    info["startup_s"] = info["ready_epoch"] - res["start_epoch"]
    return info


def check_pass(workload, exit_codes: dict, tally: dict) -> None:
    """Count each invocation as attempted, and as failed on a bad exit or check."""
    failures, err = run_checks(workload.checks)
    for label, code in exit_codes.items():
        tally["attempted"] += 1
        reason = failures.get(label)
        if code != 0:
            reason = f"exit code {code}" + (f"; {reason}" if reason else "")
        if reason:
            tally["failed"] += 1
            tally["failures"].append(f"{label}: {reason}")
    tally["max_rel_err"] = max(tally["max_rel_err"], err)


def end_to_end(workload, passes: list[dict], setup: list[float]) -> dict:
    walls = [p["wall_s"] for p in passes]
    return {
        "wall_s": quantile_summary(walls),
        "setup_s": quantile_summary(setup),
        "kpoints_per_s": quantile_summary([workload.kpoints / w for w in walls]),
        "cpu_s": quantile_summary([p["cpu_s"] for p in passes]),
        "peak_rss_mb": {"value": max(p["rss_mb"] for p in passes), "n": len(passes),
                        "values": [p["rss_mb"] for p in passes]},
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-function times are medians over traced passes; counts are from the last."""
    traced = [t for _, t in pairs]
    last = traced[-1]
    values = {}
    for name, entry in last["functions"].items():
        values[f"{name}.calls"] = entry["calls"]
        for key in ("total_s", "self_s"):
            values[f"{name}.{key}"] = statistics.median(
                t["functions"].get(name, {}).get(key, 0.0) for t in traced)
    values.update(last["counters"])
    wall = statistics.median(t["wall_s"] for t in traced)
    self_sum = statistics.median(
        sum(f["self_s"] for f in t["functions"].values()) for t in traced)
    startup = statistics.median(t["startup_s"] for t in traced)
    write_s = statistics.median(t["write_s"] for t in traced)
    values.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": statistics.median(u["wall_s"] for u, _ in pairs),
        "trace.import_s": statistics.median(t["import_s"] for t in traced),
        "trace.spans": last["spans"],
        "trace.spans_self_s": self_sum,
        "trace.write_s": write_s,
        "trace.startup_s": startup,
        # glue between CLI calls outside any span, and process exit
        "trace.unaccounted_s": wall - startup - self_sum - write_s,
    })
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def load_metric_specs() -> tuple[list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "helitube" / "cli.py").is_file():
        print(f"error: no helitube package under {SRC}", file=sys.stderr)
        return 2
    e2e_specs, layer_specs = load_metric_specs()

    workdir = RUNS / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tally = {"attempted": 0, "failed": 0, "failures": [], "max_rel_err": 0.0}

    if args.trace:
        start, pairs = time.perf_counter(), []
        while not pairs or time.perf_counter() - start < args.seconds:
            plain = in_process_pass(workload, workdir, traced=False)
            check_pass(workload, plain["exit_codes"], tally)
            traced = in_process_pass(workload, workdir, traced=True)
            check_pass(workload, traced["exit_codes"], tally)
            pairs.append((plain, traced))
        measured = per_layer(pairs)
        measured["check.max_rel_err"] = tally["max_rel_err"]
        measured["check.failed_ratio"] = tally["failed"] / tally["attempted"]
        specs, samples = layer_specs, {"traced_passes": len(pairs)}
    else:
        setup_once(workload, workdir)  # fills the bytecode cache; not counted
        setup, passes, busy = [], [], 0.0
        while not passes or busy < args.seconds:
            passes.append(untraced_pass(workload, workdir))
            busy += passes[-1]["wall_s"]
            check_pass(workload, passes[-1]["exit"], tally)
            # spread the set-up samples over the run, so that one slow spell
            # of the host does not set their median
            due = SETUP_REPEATS if busy >= args.seconds else round(
                SETUP_REPEATS * busy / args.seconds)
            setup.extend(setup_once(workload, workdir) for _ in range(due - len(setup)))
        samples = end_to_end(workload, passes, setup)
        specs, measured = e2e_specs, {name: m["value"] for name, m in samples.items()}
    # a function the workload never calls reports 0 calls and 0 s
    metrics = {s["name"]: {"value": float(measured.get(s["name"], 0.0)), "unit": s["unit"]}
               for s in specs}

    report = {
        "workload": args.workload,
        "params": workload.params,
        "provenance": provenance(args.seed),
        "samples": samples,
        "failed_ratio": tally["failed"] / tally["attempted"],
        "failures": tally["failures"],
        "max_rel_err": tally["max_rel_err"],
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
