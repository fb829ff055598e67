"""The benchmark's layer tracer still sees every call it counts.

perfbench/traced_cli.py replaces functions at the module attributes the
program calls them through.  A refactor that calls one of them another way
keeps every test green while the per-layer counts silently drop to zero;
these identities between the counts catch that.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wassbayes as wb

ROOT = Path(__file__).resolve().parents[1]


def load_checks():
    """perfbench/checks.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_layer(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace),
         "run", "--scenario", "pulse-location-quick", "--out", str(tmp_path / "out"),
         "--override", "schedule.total_iters=200", "--override", "schedule.burn_in=100"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    counts = json.loads(trace.read_text())
    n = lambda key: counts.get(f"{key}_n", 0)
    assert n("iterations") == 200
    assert n("forward_chain") > 0
    assert n("misfit") - n("misfit_raised") + n("forward_failures") == n("forward_chain")
    assert n("w2") == n("misfit")


def test_benchmark_w2_check_calls_the_library(tmp_path):
    # the benchmark's W2 check calls w2_distance on two Traces and compares
    # the float it returns with its own reference
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "wassbayes.cli", "run", "--scenario",
         "pulse-location-quick", "--out", str(out),
         "--override", "schedule.total_iters=200", "--override", "schedule.burn_in=100"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    checks = load_checks()
    assert checks.check_w2_pairs(wb, out, wb.builtin_config("pulse-location-quick"), 1) == []
    grid = wb.make_grid(0.0, 1.0, 5)
    got = wb.w2_distance(wb.Trace(grid, np.arange(5.0)), wb.Trace(grid, np.ones(5)),
                         wb.Scaling("linear", None))
    assert type(got) is float
