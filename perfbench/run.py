"""Benchmark of the wassbayes pipeline on four built-in scenario workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root; it needs no installed package.  One
operation is one ``python -m wassbayes.cli run`` child with PYTHONPATH=src,
started by this single process, one child at a time.  Rounds of
operations (two for pulse-location and two-block, one otherwise) repeat
until S seconds have passed, at least one round.  Every operation's
outputs are checked, and the last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --workload all, each
workload in turn prints that object with its name added.

--trace 0 reports the end-to-end metrics: run_s and peak_rss_mb (medians
over the operations) and setup_s (one cold set-up in a fresh child).
--trace 1 alternates an untraced operation with one run through
perfbench/traced_cli.py and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
SRC = Path("src")
OUT_ROOT = Path(".perfbench_out")
# Every run must end within 180 s: no round starts that would end past this.
DEADLINE_S = 165.0
TEN_BLOCK_FULL_ITERS = 80000


@dataclass(frozen=True)
class Workload:
    scenario: str
    overrides: tuple[str, ...]
    checks: tuple[str, ...]
    # Untraced operations per round.  Two for the 8-10 s workloads: with one,
    # a slow first operation would end the round alone and a run would report
    # it unaveraged.
    round_ops: int = 1


WORKLOADS = {
    # W2 misfit dominates, the forward is the cheap analytic pulse.
    "pulse-location": Workload("pulse-location-quick", (), ("w2", "landscape"), 2),
    # The leapfrog forward dominates; the misfit on 82 x 201 traces is the rest.
    "two-block": Workload(
        "two-block-tomography",
        ("schedule.total_iters=150", "schedule.burn_in=100",
         "proposal.adapt_after=50"),
        ("w2", "mirror"), 2),
    # Full-scale acoustic case: set-up and the 16.8 MB gather CSV matter here.
    # The shipped precision prior accepts about 70% of the first steps, so
    # a short chain would accept every step too often.  A prior with mean
    # 1e6 makes the Gibbs draw of s accept a step about when its misfit
    # falls, 40-50% of the time, and 20 steps fail the health check (no
    # accept, or no reject) with probability below 0.6^20 = 4e-5.  Twenty
    # steps keep a --trace 1 run (two operations) well inside 165 s.
    "ten-block": Workload(
        "ten-block-tomography",
        ("schedule.total_iters=20", "schedule.burn_in=10",
         "schedule.thinning=1", "proposal.adapt_after=0",
         "s_prior.shape=1e8", "s_prior.rate=100"),
        ("w2",)),
    # No transport and no solve: the sampler loop and containers dominate.
    "linear-gaussian": Workload("linear-gaussian", (), ("posterior",)),
}

PER_LAYER_UNITS = {
    "scenarios.load_s": "s",
    "scenarios.build_forward_calls": "count",
    "scenarios.synthesize_s": "s",
    "noise.pollute_s": "s",
    "scenarios.run_self_s": "s",
    "scenarios.write_chain_csv_s": "s",
    "signals.write_gather_csv_s": "s",
    "signals.gather_csv_mb": "MiB",
    "forward.calls": "count",
    "forward.s": "s",
    "forward.ms_per_call": "ms",
    "forward.node_updates": "count",
    "forward.node_updates_per_s": "1/s",
    "likelihood.misfit_calls": "count",
    "likelihood.misfit_s": "s",
    "likelihood.trace_pairs_per_s": "1/s",
    "likelihood.self_s": "s",
    "transport.w2_calls": "count",
    "transport.w2_s": "s",
    "transport.l2_calls": "count",
    "transport.l2_s": "s",
    "sampler.iterations": "count",
    "sampler.chain_s": "s",
    "sampler.self_s": "s",
    "sampler.self_us_per_iter": "us",
    "sampler.accepted": "count",
    "sampler.acceptance_rate": "ratio",
    "sampler.prior_rejections": "count",
    "sampler.forward_failures": "count",
    "sampler.forward_calls_per_iter": "ratio",
    "priors.propose_s": "s",
    "priors.gamma_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    out: Path
    traced: bool
    run_s: float
    rss_mb: float
    returncode: int


def spawn(cmd: list[str], log: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run cmd to its end through launch.py; return wall seconds, peak RSS in
    MiB, CPU seconds and exit code.

    The launcher and cmd form their own process group, which is killed if
    it is still running at the deadline or when this process is stopped.
    """
    result = log.with_suffix(".result.json")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "launch.py"), str(log), str(result), *cmd],
        env=dict(os.environ, PYTHONPATH=str(SRC)), start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - started, 1.0), kill)
    timer.start()
    try:
        proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode:
        # Killed at the deadline: only this process's clock saw it.
        return time.perf_counter() - started, 0.0, 0.0, proc.returncode
    r = json.loads(result.read_text())
    return r["wall_s"], r["rss_mb"], r["cpu_s"], r["returncode"]


def cli_args(verb: str, wl: Workload, seed: int, out: Path,
             extra: tuple[str, ...] = ()) -> list[str]:
    args = [verb, "--scenario", wl.scenario, "--seed", str(seed), "--out", str(out)]
    for override in (*wl.overrides, *extra):
        args += ["--override", override]
    return args


def node_updates_per_call(fwd: dict) -> int:
    """Interior nodes x leapfrog steps x sources of one acoustic forward."""
    if fwd["kind"] != "acoustic-2d":
        return 0
    n_side = round(2.0 / fwd["dx"])
    trace_dt = fwd["t_end"] / (fwd["n_samples"] - 1)
    steps = (fwd["n_samples"] - 1) * round(trace_dt / fwd["solver_dt"])
    return (n_side - 1) ** 2 * steps * len(fwd["sources"])


def layer_metrics(t: dict, cfg: dict, gather_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation from its raw totals."""
    s = lambda key: t.get(f"{key}_s", 0.0)
    n = lambda key: t.get(f"{key}_n", 0)
    iters = max(n("iterations"), 1)
    updates = node_updates_per_call(cfg["forward"]) * n("forward")
    sampler_self = (s("chain") - s("forward_chain") - s("misfit")
                    - s("propose") - s("gamma"))
    return {
        "scenarios.load_s": s("load"),
        "scenarios.build_forward_calls": n("build_forward"),
        "scenarios.synthesize_s": s("synthesize"),
        "noise.pollute_s": s("pollute"),
        "scenarios.run_self_s": (s("run_inversion") - s("synthesize")
                                 - s("write_gather_csv") - s("chain")
                                 - s("write_chain_csv")),
        "scenarios.write_chain_csv_s": s("write_chain_csv"),
        "signals.write_gather_csv_s": s("write_gather_csv"),
        "signals.gather_csv_mb": gather_bytes / 2 ** 20,
        "forward.calls": n("forward"),
        "forward.s": s("forward"),
        "forward.ms_per_call": 1e3 * s("forward") / max(n("forward"), 1),
        "forward.node_updates": updates,
        "forward.node_updates_per_s": updates / s("forward") if s("forward") else 0.0,
        "likelihood.misfit_calls": n("misfit"),
        "likelihood.misfit_s": s("misfit"),
        "likelihood.trace_pairs_per_s": (n("misfit_pairs") / s("misfit")
                                         if s("misfit") else 0.0),
        "likelihood.self_s": s("misfit") - s("w2") - s("l2"),
        "transport.w2_calls": n("w2"),
        "transport.w2_s": s("w2"),
        "transport.l2_calls": n("l2"),
        "transport.l2_s": s("l2"),
        "sampler.iterations": n("iterations"),
        "sampler.chain_s": s("chain"),
        "sampler.self_s": sampler_self,
        "sampler.self_us_per_iter": 1e6 * sampler_self / iters,
        "sampler.accepted": n("accepted"),
        "sampler.acceptance_rate": n("accepted") / iters,
        "sampler.prior_rejections": n("prior_rejections"),
        "sampler.forward_failures": n("forward_failures"),
        "sampler.forward_calls_per_iter": n("forward_chain") / iters,
        "priors.propose_s": s("propose"),
        "priors.gamma_s": s("gamma"),
    }


def check_trace(t: dict, manifest: dict) -> list[str]:
    """Totals of the traced run against independent paths."""
    n = lambda key: t.get(f"{key}_n", 0)
    problems = []
    total = manifest["schedule"]["total_iters"]
    if n("iterations") != total:
        problems.append(f"traced {n('iterations')} iterations, schedule has {total}")
    if abs(n("accepted") - manifest["acceptance_rate"] * total) > 0.5:
        problems.append(f"traced {n('accepted')} accepts, manifest gives "
                        f"{manifest['acceptance_rate']} x {total}")
    if n("misfit") - n("misfit_raised") + n("forward_failures") != n("forward_chain"):
        problems.append(f"{n('misfit')} misfit calls and {n('forward_failures')} "
                        f"failures do not add up to {n('forward_chain')} forward calls")
    return problems


def workload_checks(wb, wl: Workload, cfg: dict, seed: int, first: Op,
                    run_dir: Path, deadline: float) -> list[str]:
    problems = []
    if "w2" in wl.checks:
        problems += checks.check_w2_pairs(wb, first.out, cfg, seed)
    if "posterior" in wl.checks:
        problems += checks.check_linear_gaussian(first.out, cfg)
    if "landscape" in wl.checks:
        out = run_dir / "landscape"
        *_, rc = spawn([sys.executable, "-m", "wassbayes.cli",
                        *cli_args("landscape", wl, seed, out)],
                       run_dir / "landscape.log", deadline)
        land = cfg["landscape"]
        problems += ([f"landscape exited {rc}"] if rc else checks.check_landscape(
            out / "landscape.csv", cfg["truth"]["theta"][land["param_index"]]))
    if "mirror" in wl.checks:
        fwd = cfg["forward"]
        theta = cfg["truth"]["theta"]
        paths = []
        for k, th in enumerate((theta, checks.mirror_theta(
                theta, fwd["block_rows"], fwd["block_cols"]))):
            out = run_dir / f"mirror{k}"
            *_, rc = spawn([sys.executable, "-m", "wassbayes.cli",
                            *cli_args("simulate", wl, seed, out,
                                      (f"truth.theta={json.dumps(th)}",))],
                           run_dir / f"mirror{k}.log", deadline)
            if rc:
                return problems + [f"simulate for the mirror check exited {rc}"]
            paths.append(out / "gather_clean.csv")
        problems += checks.check_mirror(fwd, tuple(paths))
    return problems


def info(msg: str) -> None:
    print(msg, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the output directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "wassbayes" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/wassbayes is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wassbayes as wb

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        wl = WORKLOADS[name]
        cfg = wb.scenario_from_config(wb.apply_overrides(
            wb.builtin_config(wl.scenario),
            [*wl.overrides, f"seed={args.seed}"])).config
        run_dir = OUT_ROOT / f"{name}-s{args.seed}-p{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            result = measure(wb, wl, cfg, args, run_dir, deadline)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}),
              flush=True)
    return 0


def measure(wb, wl: Workload, cfg: dict, args, run_dir: Path,
            deadline: float) -> dict:
    problems: list[str] = []
    setup_s = setup_rc = None
    if not args.trace:
        setup_s, _, _, setup_rc = spawn(
            [sys.executable, str(HERE / "setup_child.py"), wl.scenario,
             str(args.seed), *wl.overrides], run_dir / "setup.log", deadline)

    kinds = (False, True) if args.trace else (False,) * wl.round_ops
    ops: list[Op] = []
    traces: list[dict] = []
    digests: set[str] = set()
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            k = len(ops)
            out = run_dir / f"op{k}"
            trace_json = run_dir / f"trace{k}.json"
            prefix = ([str(HERE / "traced_cli.py"), str(trace_json)] if traced
                      else ["-m", "wassbayes.cli"])
            run_s, rss_mb, cpu_s, rc = spawn(
                [sys.executable, *prefix, *cli_args("run", wl, args.seed, out)],
                run_dir / f"op{k}.log", deadline)
            ops.append(Op(out, traced, run_s, rss_mb, rc))
            info(f"op {k}{' traced' if traced else ''}: run_s={run_s:.4f} "
                 f"cpu_s={cpu_s:.4f} peak_rss_mb={rss_mb:.1f} exit={rc}")
            if rc:
                log = run_dir / f"op{k}.log"
                tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
                print(f"operation {k} exited {rc}:\n{tail}", file=sys.stderr)
                continue
            manifest = json.loads((out / "manifest.json").read_text())
            problems += checks.check_chain(out, cfg, manifest)
            digests.add(hashlib.sha256((out / "chain.csv").read_bytes()).hexdigest())
            if traced:
                totals = json.loads(trace_json.read_text())
                problems += check_trace(totals, manifest)
                traces.append(layer_metrics(
                    totals, cfg, (out / "gather_noisy.csv").stat().st_size))
            if k == 0:
                report_chain(out, cfg, manifest)
            else:
                shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        if now - loop_start >= args.seconds or now + (now - round_start) > deadline:
            break

    if len(digests) > 1:
        problems.append(f"chain.csv differs across {len(ops)} operations on one seed")
    first = ops[0]
    if first.returncode == 0:
        problems += workload_checks(wb, wl, cfg, args.seed, first, run_dir, deadline)
        if not args.trace:
            problems += check_setup(setup_rc, run_dir / "setup.log", first.out, cfg)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    plain = ([op for op in ops if not op.traced and not op.returncode]
             or [op for op in ops if not op.traced])
    if args.trace:
        metrics = {name: statistics.median(t[name] for t in traces)
                   for name in traces[0]} if traces else {}
        traced_s = statistics.median(op.run_s for op in ops if op.traced)
        metrics["trace.overhead_s"] = traced_s - statistics.median(op.run_s for op in plain)
        report_shares(metrics, traced_s)
        out_metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
    else:
        out_metrics = {
            "run_s": {"value": statistics.median(op.run_s for op in plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op.rss_mb for op in plain),
                            "unit": "MiB"},
        }
    return {"correct": not problems and not (args.trace and not traces),
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op.returncode),
            "metrics": out_metrics}


def check_setup(rc: int, log: Path, out: Path, cfg: dict) -> list[str]:
    """The set-up child saw the run's trace count and parameter dimension."""
    with open(out / "gather_noisy.csv") as fh:
        n_traces = len(fh.readline().split(",")) - 1
    printed = log.read_text().split()
    if rc or printed != [str(n_traces), str(len(cfg["truth"]["theta"]))]:
        return [f"set-up exited {rc} printing {printed}"]
    return []


def report_chain(out: Path, cfg: dict, manifest: dict) -> None:
    """Reference figures: ESS per parameter and, for ten-block, projected hours."""
    header, chain = checks.read_table(out / "chain.csv")
    names = [h for h in header if h.startswith("theta_") or h == "s"]
    ess = {h: round(float(checks.ess(chain[:, header.index(h)])), 1) for h in names
           if np.ptp(chain[:, header.index(h)]) > 0}
    info(f"ess per parameter over {chain.shape[0]} retained samples: {ess}")
    per_iter = manifest["wall_time_s"] / cfg["schedule"]["total_iters"]
    info(f"chain wall {manifest['wall_time_s']:.3f} s, {1e3 * per_iter:.3f} ms "
         f"per iteration, acceptance {manifest['acceptance_rate']:.3f}")
    if cfg["name"] == "ten-block-tomography":
        info(f"projected {TEN_BLOCK_FULL_ITERS}-iteration chain: "
             f"{per_iter * TEN_BLOCK_FULL_ITERS / 3600:.1f} h")


def report_shares(metrics: dict, run_s: float) -> None:
    """Per-layer shares of the traced run_s, for the reference table."""
    parts = ("scenarios.load_s", "scenarios.synthesize_s", "forward.s",
             "likelihood.misfit_s", "transport.w2_s", "transport.l2_s",
             "sampler.self_s", "priors.propose_s", "priors.gamma_s",
             "scenarios.run_self_s", "signals.write_gather_csv_s",
             "scenarios.write_chain_csv_s")
    info("share of run_s: " + ", ".join(
        f"{p} {100 * metrics.get(p, 0.0) / run_s:.1f}%" for p in parts))


if __name__ == "__main__":
    sys.exit(main())
