"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def _run(cmd, cwd=ROOT):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          env=env)


def test_negative_control_is_counted_as_failed():
    out = _run([sys.executable, str(HERE / "run.py"), "--workload", "negative-control",
                "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    *_, report, result = out.stdout.splitlines()
    result, report = json.loads(result), json.loads(report)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert report["failed_ratio"] > 0
    assert report["failures"][0].startswith("verify: exit code 1;")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    out = _run([sys.executable, "perfbench/run.py", "--workload", "bands-grid",
                "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tracer.stats()
    assert stats["m.inner"]["calls"] == 3
    assert stats["m.outer"]["self_s"] == pytest.approx(
        stats["m.outer"]["total_s"] - stats["m.inner"]["total_s"], abs=1e-12)
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(
        stats["m.outer"]["total_s"], abs=1e-12)


def test_traced_pass_reaches_tables_and_imported_names(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([
        ["bands", ["bands", "--grid=8x8", "--kpath=0:-0.5:3", f"--out={tmp_path}"]],
        ["verify", ["verify", f"--out={tmp_path}"]],
    ]))
    summary, spans = tmp_path / "summary.json", tmp_path / "spans.csv"
    out = _run([sys.executable, str(HERE / "tracer.py"), str(plan), str(summary),
                str(spans), "1"])
    assert out.returncode == 0, out.stderr
    info = json.loads(summary.read_text())
    assert info["exit_codes"] == {"bands": 0, "verify": 0}
    fns = info["functions"]
    # cli._COMMANDS and verify._CHECKS hold direct references
    assert fns["cli.cmd_bands"]["calls"] == 1
    assert fns["verify.check_refinement_order"]["calls"] == 1
    # three sweeps of 3 points; only the ORACLE_FULL one counts its k-points
    assert fns["oracle.band_sweep"]["calls"] == 3
    assert info["counters"]["oracle.band_sweep.kpoints"] == 3
    # cli imports eigensolve by name
    assert fns["oracle.eigensolve"]["calls"] >= 7
    assert info["counters"]["oracle.eigensolve.dim_max"] == 128 * 24  # refinement_order
    # every span descends from a cli.main call, so self times add up to them
    assert sum(f["self_s"] for f in fns.values()) == pytest.approx(
        fns["cli.main"]["total_s"], rel=1e-9)
    assert len(spans.read_text().splitlines()) == info["spans"] + 1
