"""The benchmark's layer tracer still sees every call it counts.

perfbench/traced_cli.py replaces functions at the module attributes the
program calls them through.  A refactor that calls one of them another way
keeps every test green while the per-layer counts silently drop to zero;
these identities between the counts catch that.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
