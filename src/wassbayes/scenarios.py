"""Declarative experiment scenarios and result persistence.

A scenario is a JSON-compatible config tree that fully determines an
experiment: forward model geometry, the true parameter vector used to
synthesize data, the noise recipe, likelihood, priors, proposal,
schedule, and a master seed.  Built-in scenarios cover the standard
benchmark setups; user files follow the same schema and pass through
the same validation path.

Reproducibility: the master seed fans out through numpy SeedSequence
spawn keys -- (0,) drives data-noise generation, (1,) drives the chain.
Rerunning any scenario with the same seed rewrites byte-identical CSVs
(floats are serialized via repr, which round-trips exactly).

The config fingerprint is the sha256 of the resolved config serialized
as canonical JSON (sorted keys), so key order never matters and omitted
optional fields hash like their explicit defaults.
"""
from __future__ import annotations

import copy
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ComputeError, ConfigError, HealthCheckError
from .forward import (AcousticModel, DalembertModel, acoustic_simulate,
                      dalembert_simulate, inset_positions,
                      surface_lateral_receiver_layout)
from .likelihood import (KIND_EXP_W2, KIND_GAUSS_L2, LikelihoodModel,
                         landscape_scan_1d)
from .noise import NoiseSpec, pollute
from .priors import GammaPrior, ProposalSpec, UniformBoxPrior
from .sampler import Chain, ChainSchedule, Problem, check_adaptation, run_chain
from .signals import Gather, TimeGrid, Trace, make_grid, write_gather_csv
from .transport import Scaling

KIND_INVERSION = "inversion"
KIND_SCALING_STUDY = "scaling-study"

STUDY_SCALINGS = ("linear", "square", "exponential", "absolute", "linexp")


def _fmt(x) -> str:
    return repr(float(x))


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Scenario container and validation

@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated, fully-resolved experiment configuration."""

    name: str
    kind: str
    config: dict

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.config)


def config_fingerprint(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _need(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing required field {where}{key}")
    return cfg[key]


def _as_float_list(value, where: str) -> list[float]:
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a list of numbers: {exc}") from None
    if not out:
        raise ConfigError(f"{where} must not be empty")
    return out


def scenario_from_config(cfg: dict) -> Scenario:
    """The single validation path: every scenario, built-in or file, runs through here."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario config must be a mapping")
    cfg = copy.deepcopy(cfg)
    kind = cfg.setdefault("kind", KIND_INVERSION)
    name = _need(cfg, "name", "")
    if not isinstance(name, str) or not name:
        raise ConfigError("name must be a non-empty string")
    if kind == KIND_SCALING_STUDY:
        _validate_scaling_study(cfg)
    elif kind == KIND_INVERSION:
        _validate_inversion(cfg)
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    return Scenario(name=name, kind=kind, config=cfg)


def _validate_scaling_study(cfg: dict) -> None:
    delta = float(_need(cfg, "delta", ""))
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    cfg["delta"] = delta
    shifts = _need(cfg, "shifts", "")
    for key in ("start", "stop", "step"):
        _need(shifts, key, "shifts.")
    if shifts["step"] <= 0 or shifts["stop"] <= shifts["start"]:
        raise ConfigError("shifts must satisfy start < stop with a positive step")
    grid = cfg.setdefault("grid", {"t_start": 0.0, "t_end": 10.0, "n_samples": 1001})
    _study_grid(grid)  # validates
    cfg.setdefault("c_exponential", 1.0)
    cfg.setdefault("c_linexp", 1.0)
    if cfg["c_exponential"] <= 0 or cfg["c_linexp"] <= 0:
        raise ConfigError("scaling constants must be positive")


def _study_grid(grid_cfg: dict) -> TimeGrid:
    try:
        return make_grid(float(grid_cfg["t_start"]), float(grid_cfg["t_end"]),
                         int(grid_cfg["n_samples"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad study grid: {exc}") from None


def _validate_inversion(cfg: dict) -> None:
    if not isinstance(_need(cfg, "seed", ""), int):
        raise ConfigError("seed must be an integer")
    bundle = build_forward(_need(cfg, "forward", ""))

    theta_true = _as_float_list(_need(_need(cfg, "truth", ""), "theta", "truth."),
                                "truth.theta")
    bounds = _need(_need(cfg, "theta_prior", ""), "bounds", "theta_prior.")
    try:
        prior = UniformBoxPrior(bounds=bounds)
    except ValueError as exc:
        raise ConfigError(f"theta_prior: {exc}") from None

    lik = _need(cfg, "likelihood", "")
    lik_kind = _need(lik, "kind", "likelihood.")
    if lik_kind == KIND_EXP_W2:
        scaling_cfg = _need(lik, "scaling", "likelihood.")
        try:
            _scaling_from_config(scaling_cfg)
        except ValueError as exc:
            raise ConfigError(f"likelihood.scaling: {exc}") from None
    elif lik_kind != KIND_GAUSS_L2:
        raise ConfigError(f"unknown likelihood kind {lik_kind!r}")

    s_update = cfg.setdefault("s_update", "gibbs")
    if s_update not in ("gibbs", "fixed"):
        raise ConfigError(f"s_update must be 'gibbs' or 'fixed', got {s_update!r}")
    s_prior_cfg = cfg.setdefault("s_prior", None)
    if s_update == "gibbs":
        if s_prior_cfg is None:
            raise ConfigError("gibbs precision updates need an s_prior")
        try:
            GammaPrior(shape=float(s_prior_cfg["shape"]),
                       rate=float(s_prior_cfg["rate"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"s_prior: {exc}") from None

    prop = _need(cfg, "proposal", "")
    prop.setdefault("adapt_after", 0)
    prop.setdefault("adapt_scale", None)
    try:
        proposal = _proposal_from_config(prop)
    except ValueError as exc:
        raise ConfigError(f"proposal: {exc}") from None

    init = _need(cfg, "init", "")
    theta0 = _as_float_list(_need(init, "theta", "init."), "init.theta")
    s0 = float(_need(init, "s", "init."))
    if s0 <= 0:
        raise ConfigError(f"init.s must be positive, got {s0}")

    schedule = _schedule_from_config(_need(cfg, "schedule", ""), seed=0)

    dims = {"forward model": bundle.n_params, "truth.theta": len(theta_true),
            "theta_prior": prior.dim, "proposal": proposal.dim,
            "init.theta": len(theta0)}
    if len(set(dims.values())) != 1:
        detail = ", ".join(f"{k}={v}" for k, v in dims.items())
        raise ConfigError(f"parameter dimensions disagree: {detail}")
    check_adaptation(proposal.adapt_after, schedule.burn_in, prior.dim)
    if not prior.contains(np.array(theta_true)):
        raise ConfigError(f"truth.theta {theta_true} lies outside the prior box")
    if not prior.contains(np.array(theta0)):
        raise ConfigError(f"init.theta {theta0} lies outside the prior box")

    noise_cfg = cfg.setdefault("noise", None)
    if noise_cfg is not None:
        try:
            _noise_from_config(noise_cfg)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"noise: {exc}") from None

    land = cfg.get("landscape")
    if land is not None:
        idx = int(_need(land, "param_index", "landscape."))
        if not 0 <= idx < bundle.n_params:
            raise ConfigError(f"landscape.param_index {idx} out of range")
        fixed = _as_float_list(_need(land, "fixed_theta", "landscape."),
                               "landscape.fixed_theta")
        if len(fixed) != bundle.n_params:
            raise ConfigError("landscape.fixed_theta has the wrong dimension")
        for key in ("start", "stop", "step"):
            _need(land, key, "landscape.")
        if land["step"] <= 0 or land["stop"] < land["start"]:
            raise ConfigError("landscape grid must satisfy start <= stop, step > 0")
        lo, hi = prior.bounds[idx]
        if land["start"] < lo or land["stop"] > hi:
            raise ConfigError("landscape grid leaves the prior box")
        if float(_need(land, "s_ref", "landscape.")) <= 0:
            raise ConfigError("landscape.s_ref must be positive")


def load_scenario(source: str | Path) -> Scenario:
    """Resolve a built-in name or read a JSON config file."""
    text_name = str(source)
    if text_name in _BUILTINS:
        return scenario_from_config(builtin_config(text_name))
    path = Path(source)
    if not path.exists():
        known = ", ".join(builtin_names())
        raise ConfigError(
            f"{text_name!r} is neither a config file nor a built-in "
            f"scenario (built-ins: {known})")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from None
    if isinstance(cfg, dict):
        cfg.setdefault("name", path.stem)
    return scenario_from_config(cfg)


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply dotted-path overrides like 'schedule.total_iters=6000'.

    Values parse as JSON where possible and fall back to raw strings, so
    both --override seed=7 and --override likelihood.kind=exp_w2 work.
    """
    cfg = copy.deepcopy(cfg)
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node or node[part] is None:
                raise ConfigError(f"override path {key!r} does not exist in the config")
            node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} does not name a config field")
        node[parts[-1]] = value
    return cfg


# ---------------------------------------------------------------------------
# Compiling a config into model objects

@dataclass(frozen=True, eq=False)
class ForwardBundle:
    """A forward map theta -> Gather plus the geometry it was built from."""

    simulate: Callable[[np.ndarray], Gather]
    n_params: int
    grid: TimeGrid
    block_layout: tuple[int, int] | None = None


def build_forward(fwd: dict) -> ForwardBundle:
    kind = _need(fwd, "kind", "forward.")
    try:
        if kind == "pulse-1d":
            grid = make_grid(0.0, float(_need(fwd, "t_end", "forward.")),
                             int(_need(fwd, "n_samples", "forward.")))
            model = DalembertModel(
                receivers=np.array(_as_float_list(
                    _need(fwd, "receivers", "forward."), "forward.receivers")),
                grid=grid,
                mode=fwd.get("mode", "amplitude"),
                x0_fixed=float(fwd.setdefault("x0_fixed", 0.0)))
            return ForwardBundle(
                simulate=lambda theta: dalembert_simulate(model, theta),
                n_params=model.n_params, grid=grid)
        if kind == "acoustic-2d":
            grid = make_grid(0.0, float(_need(fwd, "t_end", "forward.")),
                             int(_need(fwd, "n_samples", "forward.")))
            model = AcousticModel(
                dx=float(_need(fwd, "dx", "forward.")),
                solver_dt=float(_need(fwd, "solver_dt", "forward.")),
                grid=grid,
                sources=tuple(tuple(s) for s in _need(fwd, "sources", "forward.")),
                receivers=tuple(tuple(r) for r in _need(fwd, "receivers", "forward.")),
                block_rows=int(_need(fwd, "block_rows", "forward.")),
                block_cols=int(_need(fwd, "block_cols", "forward.")))
            return ForwardBundle(
                simulate=lambda theta: acoustic_simulate(model, theta),
                n_params=model.n_params, grid=grid,
                block_layout=(model.block_rows, model.block_cols))
        if kind == "constant":
            grid = make_grid(0.0, float(fwd.setdefault("t_end", 1.0)),
                             int(_need(fwd, "n_samples", "forward.")))

            def simulate(theta: np.ndarray) -> Gather:
                values = np.full((1, grid.n), float(np.asarray(theta)[0]))
                return Gather(grid, values, [(0, 0, 0)])

            return ForwardBundle(simulate=simulate, n_params=1, grid=grid)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"forward: {exc}") from None
    raise ConfigError(f"unknown forward kind {kind!r}")


def _scaling_from_config(sc: dict) -> Scaling:
    c = sc.get("c")
    return Scaling(kind=_need(sc, "kind", "scaling."),
                   c=None if c is None else float(c))


def _noise_from_config(nz: dict) -> NoiseSpec:
    gamma = nz.get("gamma_shape")
    width = nz.get("uniform_width")
    sigma = nz.get("gaussian_sigma")
    return NoiseSpec(gamma_shape=None if gamma is None else float(gamma),
                     uniform_width=None if width is None else float(width),
                     gaussian_sigma=None if sigma is None else float(sigma))


def _proposal_from_config(prop: dict) -> ProposalSpec:
    scale = prop.get("adapt_scale")
    return ProposalSpec(covariance=_need(prop, "covariance", "proposal."),
                        adapt_after=int(prop.get("adapt_after", 0)),
                        adapt_scale=None if scale is None else float(scale))


def _likelihood_from_config(cfg: dict, n_obs: int) -> LikelihoodModel:
    lik = cfg["likelihood"]
    if lik["kind"] == KIND_EXP_W2:
        return LikelihoodModel(kind=KIND_EXP_W2, n_obs=n_obs,
                               scaling=_scaling_from_config(lik["scaling"]))
    return LikelihoodModel(kind=KIND_GAUSS_L2, n_obs=n_obs)


def _schedule_from_config(sched: dict, seed) -> ChainSchedule:
    try:
        return ChainSchedule(total_iters=int(_need(sched, "total_iters", "schedule.")),
                             burn_in=int(_need(sched, "burn_in", "schedule.")),
                             thinning=int(_need(sched, "thinning", "schedule.")),
                             seed=seed)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from None


def data_noise_rng(master_seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(0,)))


def chain_seed_sequence(master_seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(1,))


def synthesize_observations(scenario: Scenario) -> tuple[Gather, Gather]:
    """Forward data at the true parameters, clean and polluted."""
    cfg = scenario.config
    bundle = build_forward(cfg["forward"])
    clean = bundle.simulate(np.array(cfg["truth"]["theta"], dtype=np.float64))
    noise_cfg = cfg.get("noise")
    if noise_cfg is None:
        return clean, clean
    spec = _noise_from_config(noise_cfg)
    noisy = pollute(clean, spec, data_noise_rng(cfg["seed"]))
    return clean, noisy


def build_problem(scenario: Scenario, observed: Gather) -> Problem:
    cfg = scenario.config
    bundle = build_forward(cfg["forward"])
    s_prior_cfg = cfg.get("s_prior")
    return Problem(
        forward=bundle.simulate,
        observed=observed,
        likelihood=_likelihood_from_config(cfg, bundle.grid.n),
        theta_prior=UniformBoxPrior(bounds=cfg["theta_prior"]["bounds"]),
        proposal=_proposal_from_config(cfg["proposal"]),
        theta0=np.array(cfg["init"]["theta"], dtype=np.float64),
        s0=float(cfg["init"]["s"]),
        s_prior=None if s_prior_cfg is None else GammaPrior(
            shape=float(s_prior_cfg["shape"]), rate=float(s_prior_cfg["rate"])),
        s_mode=cfg["s_update"],
    )


# ---------------------------------------------------------------------------
# Artifact writers

def write_chain_csv(path: Path, chain: Chain) -> None:
    m = chain.thetas.shape[1]
    header = "iteration," + ",".join(f"theta_{j + 1}" for j in range(m)) + ",s,accepted"
    rows = []
    for k in range(chain.n_retained):
        it = int(chain.iterations[k])
        row = [str(it)]
        row.extend(_fmt(v) for v in chain.thetas[k])
        row.append(_fmt(chain.s_values[k]))
        row.append(str(int(chain.accepted_flags[it - 1])))
        rows.append(row)
    _write_rows(path, header, rows)


def read_chain_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Back out (iterations, thetas, s, accepted) from a chain CSV."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    if header[0] != "iteration" or header[-2:] != ["s", "accepted"]:
        raise ValueError(f"{path} does not look like a chain CSV")
    m = len(header) - 3
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.ndim != 2 or data.shape[1] != m + 3:
        raise ValueError(f"{path}: malformed rows")
    return (data[:, 0].astype(np.int64), data[:, 1:1 + m], data[:, 1 + m],
            data[:, 2 + m].astype(bool))


def _write_hist_csv(path: Path, values: np.ndarray, bins: int = 40) -> None:
    counts, edges = np.histogram(values, bins=bins)
    rows = [[_fmt(edges[i]), _fmt(edges[i + 1]), str(int(counts[i]))]
            for i in range(len(counts))]
    _write_rows(path, "bin_left,bin_right,count", rows)


def _write_trace_csv(path: Path, iterations: np.ndarray, values: np.ndarray) -> None:
    rows = [[str(int(it)), _fmt(v)] for it, v in zip(iterations, values)]
    _write_rows(path, "iteration,value", rows)


def summarize_blocks(thetas: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-block posterior mean and std laid out as (rows, cols) grids.

    Parameter j belongs to grid cell (j % rows, j // rows): column-major
    with the top row first, matching the forward model's block order.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != rows * cols:
        raise ValueError(f"chain dimension {thetas.shape} does not match "
                         f"a {rows}x{cols} block layout")
    mean = thetas.mean(axis=0).reshape(cols, rows).T
    std = thetas.std(axis=0, ddof=1).reshape(cols, rows).T
    return mean, std


def _write_block_grid(path: Path, grid_values: np.ndarray) -> None:
    header = ",".join(f"col_{c + 1}" for c in range(grid_values.shape[1]))
    rows = [[_fmt(v) for v in row] for row in grid_values]
    _write_rows(path, header, rows)


def _param_names(m: int) -> list[str]:
    return [f"theta_{j + 1}" for j in range(m)] + ["s"]


def _write_marginals(out: Path, iterations: np.ndarray, thetas: np.ndarray,
                     s_values: np.ndarray, bins: int) -> list[str]:
    files = []
    columns = list(thetas.T) + [s_values]
    for name, values in zip(_param_names(thetas.shape[1]), columns):
        hist_name, trace_name = f"hist_{name}.csv", f"trace_{name}.csv"
        _write_hist_csv(out / hist_name, values, bins=bins)
        _write_trace_csv(out / trace_name, iterations, values)
        files.extend([hist_name, trace_name])
    return files


# ---------------------------------------------------------------------------
# Experiment drivers

def run_inversion(scenario: Scenario, out_dir: str | Path,
                  hist_bins: int = 40) -> dict:
    """Synthesize data, run the chain, and persist every artifact.

    Health problems (a chain that never moves or never stays) still write
    all artifacts and the manifest before raising HealthCheckError, so a
    failed run can be inspected.
    """
    if scenario.kind != KIND_INVERSION:
        raise ConfigError(f"scenario {scenario.name!r} is not an inversion scenario")
    cfg = scenario.config
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    clean, noisy = synthesize_observations(scenario)
    write_gather_csv(noisy, out / "gather_noisy.csv")

    problem = build_problem(scenario, noisy)
    schedule = _schedule_from_config(cfg["schedule"],
                                     seed=chain_seed_sequence(cfg["seed"]))
    started = time.perf_counter()
    chain = run_chain(problem, schedule)
    wall = time.perf_counter() - started

    write_chain_csv(out / "chain.csv", chain)
    artifacts = ["chain.csv", "gather_noisy.csv"]
    artifacts += _write_marginals(out, chain.iterations, chain.thetas,
                                  chain.s_values, hist_bins)

    bundle = build_forward(cfg["forward"])
    if bundle.block_layout is not None:
        rows, cols = bundle.block_layout
        mean, std = summarize_blocks(chain.thetas, rows, cols)
        _write_block_grid(out / "blocks_mean.csv", mean)
        _write_block_grid(out / "blocks_std.csv", std)
        artifacts += ["blocks_mean.csv", "blocks_std.csv"]

    from . import __version__
    manifest = {
        "name": scenario.name,
        "kind": scenario.kind,
        "tool_version": __version__,
        "fingerprint": scenario.fingerprint,
        "seeds": {"master": cfg["seed"], "data_spawn_key": [0],
                  "chain_spawn_key": [1]},
        "schedule": dict(cfg["schedule"]),
        "retained_samples": chain.n_retained,
        "acceptance_rate": chain.acceptance_rate,
        "wall_time_s": wall,
        "health_ok": chain.health_ok,
        "posterior": {
            "theta_mean": [float(v) for v in chain.thetas.mean(axis=0)],
            "theta_std": [float(v) for v in chain.thetas.std(axis=0, ddof=1)],
            "s_mean": float(chain.s_values.mean()),
            "s_std": float(chain.s_values.std(ddof=1)),
        },
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       newline="\n")
    if not chain.health_ok:
        raise HealthCheckError(
            f"chain acceptance rate {chain.acceptance_rate:.4f} signals a "
            f"broken run (artifacts in {out})")
    return manifest


def run_simulate(scenario: Scenario, out_dir: str | Path) -> dict:
    """Forward-only: write the clean and polluted gathers for inspection."""
    if scenario.kind != KIND_INVERSION:
        raise ConfigError(f"scenario {scenario.name!r} is not an inversion scenario")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clean, noisy = synthesize_observations(scenario)
    write_gather_csv(clean, out / "gather_clean.csv")
    write_gather_csv(noisy, out / "gather_noisy.csv")
    return {"name": scenario.name, "fingerprint": scenario.fingerprint,
            "artifacts": ["gather_clean.csv", "gather_noisy.csv"],
            "n_traces": len(noisy.labels), "n_samples": noisy.grid.n}


def _parallel_map(fn, items, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_landscape(scenario: Scenario, out_dir: str | Path,
                  threads: int = 1) -> dict:
    """Both log-likelihood curves along one parameter axis, on synthetic data.

    The scan grid, scanned parameter, the frozen remaining parameters, and
    the reference precision come from the scenario's landscape block.
    """
    cfg = scenario.config
    land = cfg.get("landscape")
    if land is None:
        raise ConfigError(f"scenario {scenario.name!r} has no landscape block")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _, noisy = synthesize_observations(scenario)
    bundle = build_forward(cfg["forward"])
    if cfg["likelihood"]["kind"] == KIND_EXP_W2:
        scaling = _scaling_from_config(cfg["likelihood"]["scaling"])
    else:
        scaling = Scaling(kind="linear")
    exp_model = LikelihoodModel(kind=KIND_EXP_W2, n_obs=bundle.grid.n,
                                scaling=scaling)
    norm_model = LikelihoodModel(kind=KIND_GAUSS_L2, n_obs=bundle.grid.n)

    step = float(land["step"])
    n_points = int(round((float(land["stop"]) - float(land["start"])) / step)) + 1
    values = float(land["start"]) + step * np.arange(n_points)
    fixed = np.array(land["fixed_theta"], dtype=np.float64)
    idx = int(land["param_index"])
    s_ref = float(land["s_ref"])

    def scan_one(value: float) -> np.ndarray:
        return landscape_scan_1d((exp_model, norm_model), bundle.simulate,
                                 noisy, idx, [value], fixed, s_ref)[0]

    pairs = _parallel_map(scan_one, values, threads)
    rows = [[_fmt(v), _fmt(e), _fmt(n)] for v, (e, n) in zip(values, pairs)]
    _write_rows(out / "landscape.csv", "param_value,log_exp,log_norm", rows)
    return {"name": scenario.name, "fingerprint": scenario.fingerprint,
            "artifacts": ["landscape.csv"], "n_points": len(values)}


def study_signal(t: np.ndarray, delta: float, shift: float) -> np.ndarray:
    """Three alternating Gaussian bumps of width delta, offset by shift."""
    u = t - shift
    return (np.exp(-((u - 4.0) / delta) ** 2)
            - np.exp(-((u - 5.0) / delta) ** 2)
            + np.exp(-((u - 6.0) / delta) ** 2))


def run_scaling_study(scenario: Scenario, out_dir: str | Path,
                      threads: int = 1) -> dict:
    """Distance-versus-shift curves for every scaling plus the plain L2.

    Each column is rescaled so its value at the first shift equals one,
    which makes the curves comparable on one axis.  A scaling that fails
    at some shift contributes NaN there instead of aborting the study.
    """
    from .transport import l2_distance, w2_distance

    if scenario.kind != KIND_SCALING_STUDY:
        raise ConfigError(f"scenario {scenario.name!r} is not a scaling study")
    cfg = scenario.config
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = _study_grid(cfg["grid"])
    t = grid.times()
    delta = cfg["delta"]
    sh = cfg["shifts"]
    step = float(sh["step"])
    n_points = int(round((float(sh["stop"]) - float(sh["start"])) / step)) + 1
    shifts = float(sh["start"]) + step * np.arange(n_points)

    scalings = {
        "linear": Scaling(kind="linear"),
        "square": Scaling(kind="square"),
        "exponential": Scaling(kind="exponential", c=cfg["c_exponential"]),
        "absolute": Scaling(kind="absolute"),
        "linexp": Scaling(kind="linexp", c=cfg["c_linexp"]),
    }
    f_trace = Trace(grid, study_signal(t, delta, 0.0))

    def distances(shift: float) -> list[float]:
        g_trace = Trace(grid, study_signal(t, delta, shift))
        row = []
        for name in STUDY_SCALINGS:
            try:
                row.append(w2_distance(f_trace, g_trace, scalings[name]))
            except (ValueError, ComputeError):
                row.append(float("nan"))
        row.append(l2_distance(f_trace, g_trace))
        return row

    table = np.array(_parallel_map(distances, shifts, threads))
    first = table[0].copy()
    if np.any(first == 0):
        raise ComputeError("cannot rescale: a distance at the first shift is zero")
    table /= first

    header = "shift," + ",".join(STUDY_SCALINGS) + ",l2"
    rows = [[_fmt(s)] + [_fmt(v) for v in row] for s, row in zip(shifts, table)]
    _write_rows(out / "scaling.csv", header, rows)
    return {"name": scenario.name, "fingerprint": scenario.fingerprint,
            "artifacts": ["scaling.csv"], "n_points": len(shifts)}


def summarize_run(scenario: Scenario, out_dir: str | Path,
                  hist_bins: int = 40) -> dict:
    """Regenerate marginal and block artifacts from an existing chain.csv."""
    out = Path(out_dir)
    chain_path = out / "chain.csv"
    if not chain_path.exists():
        raise ConfigError(f"no chain.csv under {out}")
    iterations, thetas, s_values, _ = read_chain_csv(chain_path)
    artifacts = _write_marginals(out, iterations, thetas, s_values, hist_bins)
    bundle = build_forward(scenario.config["forward"])
    if thetas.shape[1] != bundle.n_params:
        raise ConfigError(
            f"chain has {thetas.shape[1]} parameters but the scenario "
            f"forward model has {bundle.n_params}")
    if bundle.block_layout is not None:
        rows, cols = bundle.block_layout
        mean, std = summarize_blocks(thetas, rows, cols)
        _write_block_grid(out / "blocks_mean.csv", mean)
        _write_block_grid(out / "blocks_std.csv", std)
        artifacts += ["blocks_mean.csv", "blocks_std.csv"]
    return {"name": scenario.name, "artifacts": artifacts,
            "retained_samples": int(thetas.shape[0]),
            "posterior": {
                "theta_mean": [float(v) for v in thetas.mean(axis=0)],
                "theta_std": [float(v) for v in thetas.std(axis=0, ddof=1)],
                "s_mean": float(s_values.mean()),
                "s_std": float(s_values.std(ddof=1)),
            }}


# ---------------------------------------------------------------------------
# Built-in scenarios

def _pulse_amplitude_config(name: str, likelihood_kind: str,
                            total: int, burn: int) -> dict:
    if likelihood_kind == KIND_EXP_W2:
        likelihood = {"kind": KIND_EXP_W2,
                      "scaling": {"kind": "linear", "c": None}}
    else:
        likelihood = {"kind": KIND_GAUSS_L2}
    return {
        "kind": KIND_INVERSION,
        "name": name,
        "seed": 1101,
        "forward": {"kind": "pulse-1d", "mode": "amplitude", "x0_fixed": 0.0,
                    "receivers": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
                    "t_end": 5.0, "n_samples": 101},
        "truth": {"theta": [5.0]},
        "noise": {"gamma_shape": 60.0, "uniform_width": 0.25},
        "likelihood": likelihood,
        "theta_prior": {"bounds": [[2.0, 8.0]]},
        "s_prior": {"shape": 1.0, "rate": 0.1},
        "s_update": "gibbs",
        "proposal": {"covariance": [[0.005]], "adapt_after": 0,
                     "adapt_scale": None},
        "init": {"theta": [3.0], "s": 70.0},
        "schedule": {"total_iters": total, "burn_in": burn, "thinning": 4},
    }


def _pulse_location_config(name: str, total: int, burn: int) -> dict:
    return {
        "kind": KIND_INVERSION,
        "name": name,
        "seed": 1102,
        "forward": {"kind": "pulse-1d", "mode": "location-amplitude",
                    "receivers": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
                    "t_end": 5.0, "n_samples": 101},
        "truth": {"theta": [0.0, 5.0]},
        "noise": {"gaussian_sigma": 0.1},
        "likelihood": {"kind": KIND_EXP_W2,
                       "scaling": {"kind": "linear", "c": None}},
        "theta_prior": {"bounds": [[-3.0, 3.0], [2.0, 8.0]]},
        "s_prior": {"shape": 1.0, "rate": 0.1},
        "s_update": "gibbs",
        "proposal": {"covariance": [[0.005, 0.0], [0.0, 0.005]],
                     "adapt_after": 0, "adapt_scale": None},
        "init": {"theta": [0.6, 3.0], "s": 70.0},
        "schedule": {"total_iters": total, "burn_in": burn, "thinning": 4},
        "landscape": {"param_index": 0, "start": -3.0, "stop": 3.0,
                      "step": 0.05, "fixed_theta": [0.0, 5.0], "s_ref": 70.0},
    }


def _line_receivers(x2: float, start: float, stop: float, step: float) -> list:
    n = int(round((stop - start) / step)) + 1
    return [[round(start + k * step, 10), x2] for k in range(n)]


def _ten_block_config() -> dict:
    receivers = [[x1, x2] for (x1, x2) in
                 inset_positions(surface_lateral_receiver_layout(), 0.02)]
    return {
        "kind": KIND_INVERSION,
        "name": "ten-block-tomography",
        "seed": 1103,
        "forward": {"kind": "acoustic-2d", "dx": 0.02, "solver_dt": 0.00125,
                    "t_end": 4.0, "n_samples": 801,
                    "block_rows": 2, "block_cols": 5,
                    "sources": [[-0.8, -0.2], [-0.4, -0.2], [0.0, -0.2],
                                [0.4, -0.2], [0.8, -0.2]],
                    "receivers": receivers},
        "truth": {"theta": [3.0, 2.0, 3.5, 2.5, 4.0, 3.0, 4.5, 3.5, 5.0, 4.0]},
        "noise": {"gamma_shape": 1000.0, "uniform_width": 0.05},
        "likelihood": {"kind": KIND_EXP_W2,
                       "scaling": {"kind": "linear", "c": None}},
        "theta_prior": {"bounds": [[1.0, 6.0]] * 10},
        "s_prior": {"shape": 1.0, "rate": 0.1},
        "s_update": "gibbs",
        "proposal": {"covariance": np.diag([0.005] * 10).tolist(),
                     "adapt_after": 1000, "adapt_scale": None},
        "init": {"theta": [3.8] * 10, "s": 5000.0},
        "schedule": {"total_iters": 80000, "burn_in": 65000, "thinning": 3},
    }


def _two_block_config() -> dict:
    return {
        "kind": KIND_INVERSION,
        "name": "two-block-tomography",
        "seed": 1104,
        "forward": {"kind": "acoustic-2d", "dx": 0.04, "solver_dt": 0.005,
                    "t_end": 2.0, "n_samples": 201,
                    "block_rows": 1, "block_cols": 2,
                    "sources": [[-0.4, -0.2], [0.4, -0.2]],
                    "receivers": _line_receivers(-0.04, -0.8, 0.8, 0.04)},
        "truth": {"theta": [2.0, 3.0]},
        "noise": {"gamma_shape": 1000.0, "uniform_width": 0.005},
        "likelihood": {"kind": KIND_EXP_W2,
                       "scaling": {"kind": "linear", "c": None}},
        "theta_prior": {"bounds": [[1.0, 4.0], [1.0, 4.0]]},
        "s_prior": {"shape": 1.0, "rate": 0.1},
        "s_update": "gibbs",
        "proposal": {"covariance": [[0.01, 0.0], [0.0, 0.01]],
                     "adapt_after": 500, "adapt_scale": None},
        "init": {"theta": [2.5, 2.5], "s": 2000.0},
        "schedule": {"total_iters": 4000, "burn_in": 2000, "thinning": 2},
    }


def _four_block_config() -> dict:
    return {
        "kind": KIND_INVERSION,
        "name": "four-block-tomography",
        "seed": 1105,
        "forward": {"kind": "acoustic-2d", "dx": 0.04, "solver_dt": 0.005,
                    "t_end": 2.0, "n_samples": 201,
                    "block_rows": 2, "block_cols": 2,
                    "sources": [[-0.4, -0.2], [0.0, -0.2], [0.4, -0.2]],
                    "receivers": _line_receivers(-0.04, -0.8, 0.8, 0.04)},
        "truth": {"theta": [2.0, 2.5, 3.0, 2.0]},
        "noise": {"gamma_shape": 500.0, "uniform_width": 0.0125},
        "likelihood": {"kind": KIND_EXP_W2,
                       "scaling": {"kind": "linear", "c": None}},
        "theta_prior": {"bounds": [[1.0, 4.0]] * 4},
        "s_prior": {"shape": 1.0, "rate": 0.1},
        "s_update": "gibbs",
        "proposal": {"covariance": np.diag([0.005] * 4).tolist(),
                     "adapt_after": 1000, "adapt_scale": None},
        "init": {"theta": [2.5] * 4, "s": 2000.0},
        "schedule": {"total_iters": 10000, "burn_in": 2000, "thinning": 4},
    }


def _linear_gaussian_config() -> dict:
    return {
        "kind": KIND_INVERSION,
        "name": "linear-gaussian",
        "seed": 1106,
        "forward": {"kind": "constant", "n_samples": 25, "t_end": 1.0},
        "truth": {"theta": [1.0]},
        "noise": {"gaussian_sigma": 0.5},
        "likelihood": {"kind": KIND_GAUSS_L2},
        "theta_prior": {"bounds": [[-10.0, 10.0]]},
        "s_prior": None,
        "s_update": "fixed",
        "proposal": {"covariance": [[0.25]], "adapt_after": 0,
                     "adapt_scale": None},
        "init": {"theta": [0.5], "s": 4.0},
        "schedule": {"total_iters": 20000, "burn_in": 2000, "thinning": 10},
    }


def _shift_study_config(name: str, delta: float) -> dict:
    return {
        "kind": KIND_SCALING_STUDY,
        "name": name,
        "delta": delta,
        "shifts": {"start": -3.0, "stop": 3.0, "step": 0.05},
        "grid": {"t_start": 0.0, "t_end": 10.0, "n_samples": 1001},
        "c_exponential": 1.0,
        "c_linexp": 1.0,
    }


_BUILTINS: dict[str, Callable[[], dict]] = {
    "pulse-amplitude": lambda: _pulse_amplitude_config(
        "pulse-amplitude", KIND_EXP_W2, 30000, 10000),
    "pulse-amplitude-quick": lambda: _pulse_amplitude_config(
        "pulse-amplitude-quick", KIND_EXP_W2, 6000, 2000),
    "pulse-amplitude-l2": lambda: _pulse_amplitude_config(
        "pulse-amplitude-l2", KIND_GAUSS_L2, 30000, 10000),
    "pulse-amplitude-l2-quick": lambda: _pulse_amplitude_config(
        "pulse-amplitude-l2-quick", KIND_GAUSS_L2, 6000, 2000),
    "pulse-location": lambda: _pulse_location_config(
        "pulse-location", 25000, 5000),
    "pulse-location-quick": lambda: _pulse_location_config(
        "pulse-location-quick", 10000, 2000),
    "ten-block-tomography": _ten_block_config,
    "two-block-tomography": _two_block_config,
    "four-block-tomography": _four_block_config,
    "linear-gaussian": _linear_gaussian_config,
    "shift-study-wide": lambda: _shift_study_config("shift-study-wide", 1.0),
    "shift-study-narrow": lambda: _shift_study_config("shift-study-narrow", 0.1),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_config(name: str) -> dict:
    if name not in _BUILTINS:
        known = ", ".join(builtin_names())
        raise ConfigError(f"unknown built-in scenario {name!r} (built-ins: {known})")
    return _BUILTINS[name]()
