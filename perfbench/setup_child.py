"""Cold set-up of one workload, run as its own process.

    PYTHONPATH=src python3 perfbench/setup_child.py SCENARIO SEED [OVERRIDE ...]

Gets to a sampling-ready Problem through public calls only, then prints
the number of observed traces and parameters so that the caller can
check the result.  The caller times this process from spawn to exit.
"""
import sys

import wassbayes as wb


def main(argv: list[str]) -> None:
    name, seed, overrides = argv[0], int(argv[1]), argv[2:]
    cfg = wb.apply_overrides(wb.load_scenario(name).config,
                             [*overrides, f"seed={seed}"])
    scenario = wb.scenario_from_config(cfg)
    _, noisy = wb.synthesize_observations(scenario)
    problem = wb.build_problem(scenario, noisy)
    print(len(problem.observed.labels), problem.theta0.size)


if __name__ == "__main__":
    main(sys.argv[1:])
