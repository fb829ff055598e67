"""Command line entry points.

Verbs: run (full inversion), landscape, scaling-study, simulate (forward
data only), summarize (post-process an existing chain), validate (config
check).  Every verb takes the same flags; exit codes are 0 on success,
2 for config or validation problems, 3 for numerical failures, and 4
when a finished chain fails its health check.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ComputeError, ConfigError, HealthCheckError
from .scenarios import (KIND_INVERSION, KIND_SCALING_STUDY, Scenario,
                        apply_overrides, builtin_names, check_overrides,
                        load_scenario, run_inversion, run_landscape, run_scaling_study,
                        run_simulate, scenario_from_config, summarize_run)

_VERBS = ("run", "landscape", "scaling-study", "simulate", "summarize", "validate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassbayes",
        description="Bayesian waveform inversion experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "synthesize data, run the sampler, write all artifacts",
        "landscape": "scan both log likelihoods along one parameter",
        "scaling-study": "distance-versus-shift curves for every scaling",
        "simulate": "write clean and polluted forward data only",
        "summarize": "recompute marginals from an existing chain.csv",
        "validate": "check a config and print its fingerprint",
    }
    for verb in _VERBS:
        p = sub.add_parser(verb, help=helps[verb])
        p.add_argument("--scenario", required=True,
                       help="config file path or built-in name "
                            f"({', '.join(builtin_names())})")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's master seed")
        p.add_argument("--out", default=None,
                       help="output directory (default runs/<scenario name>)")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path config override, may repeat")
    return parser


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        scenario = scenario_from_config(apply_overrides(scenario.config, overrides))
        check_overrides(scenario, overrides)
    return scenario


def _dispatch(args: argparse.Namespace, scenario: Scenario) -> dict:
    out = args.out if args.out is not None else f"runs/{scenario.name}"
    if args.command == "validate":
        return {"name": scenario.name, "kind": scenario.kind,
                "fingerprint": scenario.fingerprint, "valid": True}
    if args.command == "run":
        return run_inversion(scenario, out)
    if args.command == "simulate":
        return run_simulate(scenario, out)
    if args.command == "landscape":
        return run_landscape(scenario, out)
    if args.command == "scaling-study":
        return run_scaling_study(scenario, out)
    if args.command == "summarize":
        return summarize_run(scenario, out)
    raise AssertionError(f"unhandled verb {args.command}")


def _check_verb_kind(args: argparse.Namespace, scenario_kind: str) -> None:
    study_verbs = {"scaling-study"}
    if scenario_kind == KIND_SCALING_STUDY and args.command not in study_verbs | {"validate"}:
        raise ConfigError(
            f"a {KIND_SCALING_STUDY} scenario only supports the scaling-study verb")
    if scenario_kind == KIND_INVERSION and args.command in study_verbs:
        raise ConfigError("the scaling-study verb needs a scaling-study scenario")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _resolve_scenario(args)
        _check_verb_kind(args, scenario.kind)
        result = _dispatch(args, scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HealthCheckError as exc:
        print(f"health check failed: {exc}", file=sys.stderr)
        return 4
    except (ComputeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
