"""The wassbayes command line with timers and counters around each layer.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE_JSON run --scenario ...

Replaces public functions at the module attributes through which the
program calls them, runs ``wassbayes.cli.main`` on the remaining
arguments, and writes the totals to TRACE_JSON as one JSON object: for
each span name, ``<name>_s`` (seconds inside) and ``<name>_n`` (calls).
The program's code is not changed.
"""
import dataclasses
import json
import logging
import sys
import time
from collections import defaultdict

import wassbayes.cli as cli
import wassbayes.likelihood as likelihood
import wassbayes.sampler as sampler
import wassbayes.scenarios as scenarios


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.in_chain = False

    def span(self, name, fn):
        """fn, timed and counted under name."""
        def wrapped(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                self.counts[name] += 1
        return wrapped

    def raising_span(self, name, fn):
        """As span, also counting calls that raise under <name>_raised."""
        timed = self.span(name, fn)

        def wrapped(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            except Exception:
                self.counts[name + "_raised"] += 1
                raise
        return wrapped

    def totals(self) -> dict:
        out = {f"{k}_s": v for k, v in self.seconds.items()}
        out.update({f"{k}_n": v for k, v in self.counts.items()})
        return out


def install(tr: Tracer) -> None:
    for name in ("load_scenario", "apply_overrides", "scenario_from_config"):
        setattr(cli, name, tr.span("load", getattr(cli, name)))
    cli.run_inversion = tr.span("run_inversion", cli.run_inversion)

    build_forward = scenarios.build_forward

    def traced_build_forward(fwd):
        tr.counts["build_forward"] += 1
        bundle = build_forward(fwd)
        synth = tr.raising_span("forward", bundle.simulate)
        chain = tr.raising_span("forward_chain", synth)

        def simulate(theta):
            return chain(theta) if tr.in_chain else synth(theta)
        return dataclasses.replace(bundle, simulate=simulate)

    scenarios.build_forward = traced_build_forward
    scenarios.synthesize_observations = tr.span(
        "synthesize", scenarios.synthesize_observations)
    scenarios.pollute = tr.span("pollute", scenarios.pollute)
    scenarios.write_gather_csv = tr.span("write_gather_csv", scenarios.write_gather_csv)
    scenarios.write_chain_csv = tr.span("write_chain_csv", scenarios.write_chain_csv)

    run_chain = tr.span("chain", scenarios.run_chain)

    def traced_run_chain(*args, **kwargs):
        tr.in_chain = True
        try:
            return run_chain(*args, **kwargs)
        finally:
            tr.in_chain = False
    scenarios.run_chain = traced_run_chain

    misfit = tr.raising_span("misfit", sampler.compute_misfits)

    def traced_compute_misfits(*args, **kwargs):
        cache = misfit(*args, **kwargs)
        tr.counts["misfit_pairs"] += len(cache.per_trace)
        return cache
    sampler.compute_misfits = traced_compute_misfits
    likelihood.w2_distance = tr.span("w2", likelihood.w2_distance)
    likelihood.l2_distance = tr.span("l2", likelihood.l2_distance)
    sampler.propose = tr.span("propose", sampler.propose)
    sampler.sample_gamma = tr.span("gamma", sampler.sample_gamma)

    mh_step = sampler.mh_step

    def traced_mh_step(*args, **kwargs):
        before = tr.counts["forward_chain"]
        state, accepted = mh_step(*args, **kwargs)
        tr.counts["iterations"] += 1
        if accepted:
            tr.counts["accepted"] += 1
        elif tr.counts["forward_chain"] == before:
            tr.counts["prior_rejections"] += 1
        return state, accepted
    sampler.mh_step = traced_mh_step

    class FailureCounter(logging.Handler):
        """Counts the warnings mh_step logs for candidates that raised."""

        def emit(self, record):
            if record.funcName == "mh_step":
                tr.counts["forward_failures"] += 1

    logging.getLogger(sampler.__name__).addHandler(FailureCounter(logging.WARNING))


def main(argv: list[str]) -> int:
    tr = Tracer()
    install(tr)
    try:
        return cli.main(argv[1:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(tr.totals(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
