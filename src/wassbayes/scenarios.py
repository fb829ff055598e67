"""Declarative experiment scenarios and result persistence.

A scenario is a JSON-compatible config tree that fully determines an
experiment: forward model geometry, the true parameter vector used to
synthesize data, the noise recipe, likelihood, priors, proposal,
schedule, and a master seed.  Built-in scenarios cover the standard
benchmark setups; user files follow the same schema and pass through
the same compile path, which checks the config and builds every model
object the stages use, once.

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
from dataclasses import dataclass, field
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
from .transport import Scaling, l2_distance, w2_distance

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
# Scenario container and compilation

@dataclass(frozen=True, eq=False)
class _Landscape:
    """Scan of parameter param_index over values, the others at fixed_theta."""

    param_index: int
    values: np.ndarray
    fixed_theta: np.ndarray
    s_ref: float


@dataclass(frozen=True, eq=False)
class _Inversion:
    """The model objects of an inversion scenario."""

    forward: ForwardBundle
    theta_prior: UniformBoxPrior
    likelihood: LikelihoodModel
    s_update: str
    s_prior: GammaPrior | None
    proposal: ProposalSpec
    theta_true: np.ndarray
    theta0: np.ndarray
    s0: float
    schedule: ChainSchedule  # seeded with chain_seed_sequence(seed)
    noise: NoiseSpec | None
    landscape: _Landscape | None


@dataclass(frozen=True, eq=False)
class _ScalingStudy:
    """The signal grid, the shifts and one Scaling per STUDY_SCALINGS entry."""

    grid: TimeGrid
    delta: float
    shifts: np.ndarray
    scalings: tuple[Scaling, ...]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated, fully-resolved experiment configuration.

    ``compiled`` holds the model objects built from ``config``; every stage
    reads them, so a scenario is parsed and built once.  They carry no
    state from one run to the next.
    """

    name: str
    kind: str
    config: dict
    compiled: _Inversion | _ScalingStudy = field(repr=False)
    # dotted path of every config key compilation looked up, present or not
    reads: frozenset = field(default=frozenset(), repr=False)

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.config)


def config_fingerprint(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _ReadLog(dict):
    """A config mapping that logs the dotted path of every key looked up in it.

    Nested mappings are logs too, and other values are deep copies, so
    compiling through one leaves the caller's config untouched.
    """

    def __init__(self, cfg: dict, log: set, prefix: str = ""):
        super().__init__(
            (k, _ReadLog(v, log, f"{prefix}{k}.") if isinstance(v, dict) else copy.deepcopy(v))
            for k, v in cfg.items())
        self._log, self._prefix = log, prefix

    def __getitem__(self, key):
        self._log.add(f"{self._prefix}{key}")
        return super().__getitem__(key)

    def __contains__(self, key):
        self._log.add(f"{self._prefix}{key}")
        return super().__contains__(key)

    def get(self, key, default=None):
        self._log.add(f"{self._prefix}{key}")
        return super().get(key, default)

    def setdefault(self, key, default=None):
        self._log.add(f"{self._prefix}{key}")
        return super().setdefault(key, default)

    def plain(self) -> dict:
        return {k: v.plain() if isinstance(v, _ReadLog) else v for k, v in self.items()}


def _need(cfg: dict, key: str, where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where.rstrip('.') or 'scenario config'} must be a mapping")
    if key not in cfg:
        raise ConfigError(f"missing required field {where}{key}")
    return cfg[key]


def _number(cfg: dict, key: str, where: str, kind=float):
    """cfg[key] converted by kind; a malformed value names its dotted path."""
    value = _need(cfg, key, where)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}{key} must be a number, got {value!r}") from None


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def _as_float_list(value, where: str) -> list[float]:
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a list of numbers: {exc}") from None
    if not out:
        raise ConfigError(f"{where} must not be empty")
    return out


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _range_fields(cfg: dict, where: str) -> tuple[float, float, float]:
    return tuple(_number(cfg, key, where) for key in ("start", "stop", "step"))


def _range_values(start: float, stop: float, step: float) -> np.ndarray:
    n_points = int(round((stop - start) / step)) + 1
    return _frozen(start + step * np.arange(n_points))


def scenario_from_config(cfg: dict) -> Scenario:
    """The single compile path: every scenario, built-in or file, runs through here.

    Checks the config, fills in its defaults (the resolved config is what
    the fingerprint hashes) and builds the model objects the stages use.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("scenario config must be a mapping")
    reads = set()
    cfg = _ReadLog(cfg, reads)
    kind = cfg.setdefault("kind", KIND_INVERSION)
    name = _need(cfg, "name", "")
    if not isinstance(name, str) or not name:
        raise ConfigError("name must be a non-empty string")
    if kind == KIND_SCALING_STUDY:
        compiled = _compile_scaling_study(cfg)
    elif kind == KIND_INVERSION:
        compiled = _compile_inversion(cfg)
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    return Scenario(name=name, kind=kind, config=cfg.plain(), compiled=compiled,
                    reads=frozenset(reads))


def _compile_scaling_study(cfg: dict) -> _ScalingStudy:
    delta = _number(cfg, "delta", "")
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    cfg["delta"] = delta
    start, stop, step = _range_fields(_need(cfg, "shifts", ""), "shifts.")
    if step <= 0 or stop <= start:
        raise ConfigError("shifts must satisfy start < stop with a positive step")
    grid_cfg = cfg.setdefault("grid", {"t_start": 0.0, "t_end": 10.0, "n_samples": 1001})
    try:
        grid = make_grid(float(grid_cfg["t_start"]), float(grid_cfg["t_end"]),
                         int(grid_cfg["n_samples"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad study grid: {exc}") from None
    cfg.setdefault("c_exponential", 1.0)
    cfg.setdefault("c_linexp", 1.0)
    consts = {"exponential": _number(cfg, "c_exponential", ""),
              "linexp": _number(cfg, "c_linexp", "")}
    if not all(c > 0 for c in consts.values()):
        raise ConfigError("scaling constants must be positive")
    return _ScalingStudy(
        grid=grid, delta=delta, shifts=_range_values(start, stop, step),
        scalings=tuple(Scaling(kind, consts.get(kind)) for kind in STUDY_SCALINGS))


def _compile_inversion(cfg: dict) -> _Inversion:
    seed = _need(cfg, "seed", "")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
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
            scaling = Scaling(kind=_need(scaling_cfg, "kind", "scaling."),
                              c=_optional_float(scaling_cfg.get("c")))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"likelihood.scaling: {exc}") from None
        likelihood = LikelihoodModel(KIND_EXP_W2, bundle.grid.n, scaling)
    elif lik_kind == KIND_GAUSS_L2:
        likelihood = LikelihoodModel(KIND_GAUSS_L2, bundle.grid.n)
    else:
        raise ConfigError(f"unknown likelihood kind {lik_kind!r}")

    s_update = cfg.setdefault("s_update", "gibbs")
    if s_update not in ("gibbs", "fixed"):
        raise ConfigError(f"s_update must be 'gibbs' or 'fixed', got {s_update!r}")
    s_prior_cfg = cfg.setdefault("s_prior", None)
    s_prior = None
    if s_update == "gibbs":
        if s_prior_cfg is None:
            raise ConfigError("gibbs precision updates need an s_prior")
        try:
            s_prior = GammaPrior(shape=float(s_prior_cfg["shape"]),
                                 rate=float(s_prior_cfg["rate"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"s_prior: {exc}") from None

    prop = _need(cfg, "proposal", "")
    covariance = _need(prop, "covariance", "proposal.")
    prop.setdefault("adapt_after", 0)
    prop.setdefault("adapt_scale", None)
    try:
        proposal = ProposalSpec(covariance=covariance,
                                adapt_after=int(prop["adapt_after"]),
                                adapt_scale=_optional_float(prop["adapt_scale"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"proposal: {exc}") from None

    init = _need(cfg, "init", "")
    theta0 = _as_float_list(_need(init, "theta", "init."), "init.theta")
    s0 = _number(init, "s", "init.")
    if not s0 > 0:
        raise ConfigError(f"init.s must be positive, got {s0}")

    sched = _need(cfg, "schedule", "")
    try:
        schedule = ChainSchedule(total_iters=int(_need(sched, "total_iters", "schedule.")),
                                 burn_in=int(_need(sched, "burn_in", "schedule.")),
                                 thinning=int(_need(sched, "thinning", "schedule.")),
                                 seed=chain_seed_sequence(seed))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from None

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
    noise = None
    if noise_cfg is not None:
        try:
            noise = NoiseSpec(gamma_shape=_optional_float(noise_cfg.get("gamma_shape")),
                              uniform_width=_optional_float(noise_cfg.get("uniform_width")),
                              gaussian_sigma=_optional_float(noise_cfg.get("gaussian_sigma")))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"noise: {exc}") from None

    land = cfg.get("landscape")
    landscape = None
    if land is not None:
        idx = _number(land, "param_index", "landscape.", int)
        if not 0 <= idx < bundle.n_params:
            raise ConfigError(f"landscape.param_index {idx} out of range")
        fixed = _as_float_list(_need(land, "fixed_theta", "landscape."),
                               "landscape.fixed_theta")
        if len(fixed) != bundle.n_params:
            raise ConfigError("landscape.fixed_theta has the wrong dimension")
        start, stop, step = _range_fields(land, "landscape.")
        if step <= 0 or stop < start:
            raise ConfigError("landscape grid must satisfy start <= stop, step > 0")
        lo, hi = prior.bounds[idx]
        if start < lo or stop > hi:
            raise ConfigError("landscape grid leaves the prior box")
        s_ref = _number(land, "s_ref", "landscape.")
        if s_ref <= 0:
            raise ConfigError("landscape.s_ref must be positive")
        landscape = _Landscape(param_index=idx, values=_range_values(start, stop, step),
                               fixed_theta=_frozen(fixed), s_ref=s_ref)

    return _Inversion(
        forward=bundle, theta_prior=prior, likelihood=likelihood,
        s_update=s_update, s_prior=s_prior, proposal=proposal,
        theta_true=_frozen(theta_true), theta0=_frozen(theta0), s0=s0,
        schedule=schedule, noise=noise, landscape=landscape)


def _inversion(scenario: Scenario) -> _Inversion:
    if scenario.kind != KIND_INVERSION:
        raise ConfigError(f"scenario {scenario.name!r} is not an inversion scenario")
    return scenario.compiled


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


def check_overrides(scenario: Scenario, assignments: list[str]) -> None:
    """Reject an override that sets a field the scenario's compilation never reads.

    The assigned dotted path, and every key inside a mapping value, must be
    one that compiling ``scenario`` looked up; anything else (a misspelt
    ``schedule.total_iter``) would be silently ignored.
    """
    for assignment in assignments:
        key = assignment.partition("=")[0]
        node = scenario.config
        for part in key.split("."):
            node = node[part]
        pending = [(key, node)]
        while pending:
            path, value = pending.pop()
            if path not in scenario.reads:
                raise ConfigError(f"override path {path!r} is not a field this "
                                  f"{scenario.kind} scenario reads")
            if isinstance(value, dict):
                pending.extend((f"{path}.{k}", v) for k, v in value.items())


# ---------------------------------------------------------------------------
# Compiling a forward config into a model

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

            labels = ((0, 0, 0),)

            def simulate(theta: np.ndarray) -> Gather:
                values = np.full((1, grid.n), float(np.asarray(theta)[0]))
                values.setflags(write=False)  # owned and frozen: kept without a copy
                return Gather(grid, values, labels)

            return ForwardBundle(simulate=simulate, n_params=1, grid=grid)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"forward: {exc}") from None
    raise ConfigError(f"unknown forward kind {kind!r}")


def data_noise_rng(master_seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(0,)))


def chain_seed_sequence(master_seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(1,))


def synthesize_observations(scenario: Scenario) -> tuple[Gather, Gather]:
    """Forward data at the true parameters, clean and polluted."""
    inv = _inversion(scenario)
    clean = inv.forward.simulate(inv.theta_true)
    if inv.noise is None:
        return clean, clean
    noisy = pollute(clean, inv.noise, data_noise_rng(scenario.config["seed"]))
    return clean, noisy


def build_problem(scenario: Scenario, observed: Gather) -> Problem:
    inv = _inversion(scenario)
    return Problem(forward=inv.forward.simulate, observed=observed,
                   likelihood=inv.likelihood, theta_prior=inv.theta_prior,
                   proposal=inv.proposal, theta0=inv.theta0, s0=inv.s0,
                   s_prior=inv.s_prior, s_mode=inv.s_update)


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
    """Back out (iterations, thetas, s, accepted) from a chain CSV.

    A file that is not a chain CSV, or holds a malformed or non-finite
    entry, is a ConfigError.
    """
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    if header[0] != "iteration" or header[-2:] != ["s", "accepted"]:
        raise ConfigError(f"{path} does not look like a chain CSV")
    m = len(header) - 3
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed rows: {exc}") from None
    if data.ndim != 2 or data.shape[1] != m + 3 or not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: malformed rows")
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


def _write_summaries(out: Path, bundle: ForwardBundle, iterations: np.ndarray,
                     thetas: np.ndarray, s_values: np.ndarray, bins: int) -> list[str]:
    """Marginals per parameter and for s, plus the block maps of a block model."""
    files = []
    names = [f"theta_{j + 1}" for j in range(thetas.shape[1])] + ["s"]
    for name, values in zip(names, list(thetas.T) + [s_values]):
        hist_name, trace_name = f"hist_{name}.csv", f"trace_{name}.csv"
        _write_hist_csv(out / hist_name, values, bins=bins)
        _write_trace_csv(out / trace_name, iterations, values)
        files.extend([hist_name, trace_name])
    if bundle.block_layout is not None:
        mean, std = summarize_blocks(thetas, *bundle.block_layout)
        _write_block_grid(out / "blocks_mean.csv", mean)
        _write_block_grid(out / "blocks_std.csv", std)
        files += ["blocks_mean.csv", "blocks_std.csv"]
    return files


def _posterior(thetas: np.ndarray, s_values: np.ndarray) -> dict:
    return {"theta_mean": [float(v) for v in thetas.mean(axis=0)],
            "theta_std": [float(v) for v in thetas.std(axis=0, ddof=1)],
            "s_mean": float(s_values.mean()),
            "s_std": float(s_values.std(ddof=1))}


# ---------------------------------------------------------------------------
# Experiment drivers

def run_inversion(scenario: Scenario, out_dir: str | Path,
                  hist_bins: int = 40) -> dict:
    """Synthesize data, run the chain, and persist every artifact.

    Health problems (a chain that never moves or never stays) still write
    all artifacts and the manifest before raising HealthCheckError, so a
    failed run can be inspected.
    """
    inv = _inversion(scenario)
    cfg = scenario.config
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _, noisy = synthesize_observations(scenario)
    write_gather_csv(noisy, out / "gather_noisy.csv")

    problem = build_problem(scenario, noisy)
    started = time.perf_counter()
    chain = run_chain(problem, inv.schedule)
    wall = time.perf_counter() - started

    write_chain_csv(out / "chain.csv", chain)
    artifacts = ["chain.csv", "gather_noisy.csv"]
    artifacts += _write_summaries(out, inv.forward, chain.iterations, chain.thetas,
                                  chain.s_values, hist_bins)

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
        "posterior": _posterior(chain.thetas, chain.s_values),
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
    _inversion(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clean, noisy = synthesize_observations(scenario)
    write_gather_csv(clean, out / "gather_clean.csv")
    write_gather_csv(noisy, out / "gather_noisy.csv")
    return {"name": scenario.name, "fingerprint": scenario.fingerprint,
            "artifacts": ["gather_clean.csv", "gather_noisy.csv"],
            "n_traces": len(noisy.labels), "n_samples": noisy.grid.n}


def run_landscape(scenario: Scenario, out_dir: str | Path) -> dict:
    """Both log-likelihood curves along one parameter axis, on synthetic data.

    The scan grid, scanned parameter, the frozen remaining parameters, and
    the reference precision come from the scenario's landscape block.  The
    transport curve uses the scenario's scaling, or the linear one when
    the scenario's likelihood is gauss_l2.
    """
    inv = _inversion(scenario)
    land = inv.landscape
    if land is None:
        raise ConfigError(f"scenario {scenario.name!r} has no landscape block")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _, noisy = synthesize_observations(scenario)
    n_obs = inv.forward.grid.n
    models = (LikelihoodModel(KIND_EXP_W2, n_obs,
                              inv.likelihood.scaling or Scaling(kind="linear")),
              LikelihoodModel(KIND_GAUSS_L2, n_obs))
    table = landscape_scan_1d(models, inv.forward.simulate, noisy, land.param_index,
                              land.values, land.fixed_theta, land.s_ref)
    rows = [[_fmt(v), _fmt(e), _fmt(n)] for v, (e, n) in zip(land.values, table)]
    _write_rows(out / "landscape.csv", "param_value,log_exp,log_norm", rows)
    return {"name": scenario.name, "fingerprint": scenario.fingerprint,
            "artifacts": ["landscape.csv"], "n_points": len(land.values)}


def study_signal(t: np.ndarray, delta: float, shift: float) -> np.ndarray:
    """Three alternating Gaussian bumps of width delta, offset by shift."""
    u = t - shift
    return (np.exp(-((u - 4.0) / delta) ** 2)
            - np.exp(-((u - 5.0) / delta) ** 2)
            + np.exp(-((u - 6.0) / delta) ** 2))


def run_scaling_study(scenario: Scenario, out_dir: str | Path) -> dict:
    """Distance-versus-shift curves for every scaling plus the plain L2.

    Each column is rescaled so its value at the first shift equals one,
    which makes the curves comparable on one axis.  A scaling that fails
    at some shift contributes NaN there instead of aborting the study.
    """
    if scenario.kind != KIND_SCALING_STUDY:
        raise ConfigError(f"scenario {scenario.name!r} is not a scaling study")
    study = scenario.compiled
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t = study.grid.times()
    f_trace = Trace(study.grid, study_signal(t, study.delta, 0.0))
    table = np.full((len(study.shifts), len(study.scalings) + 1), np.nan)
    for i, shift in enumerate(study.shifts):
        g_trace = Trace(study.grid, study_signal(t, study.delta, shift))
        for j, scaling in enumerate(study.scalings):
            try:
                table[i, j] = w2_distance(f_trace, g_trace, scaling)
            except (ValueError, ComputeError):
                pass
        table[i, -1] = l2_distance(f_trace, g_trace)
    first = table[0].copy()
    if np.any(first == 0):
        raise ComputeError("cannot rescale: a distance at the first shift is zero")
    table /= first

    header = "shift," + ",".join(STUDY_SCALINGS) + ",l2"
    rows = [[_fmt(s)] + [_fmt(v) for v in row] for s, row in zip(study.shifts, table)]
    _write_rows(out / "scaling.csv", header, rows)
    return {"name": scenario.name, "fingerprint": scenario.fingerprint,
            "artifacts": ["scaling.csv"], "n_points": len(study.shifts)}


def summarize_run(scenario: Scenario, out_dir: str | Path,
                  hist_bins: int = 40) -> dict:
    """Regenerate marginal and block artifacts from an existing chain.csv.

    The chain's parameter count is checked against the scenario before
    any file is written.
    """
    inv = _inversion(scenario)
    out = Path(out_dir)
    chain_path = out / "chain.csv"
    if not chain_path.exists():
        raise ConfigError(f"no chain.csv under {out}")
    iterations, thetas, s_values, _ = read_chain_csv(chain_path)
    if thetas.shape[1] != inv.forward.n_params:
        raise ConfigError(
            f"chain has {thetas.shape[1]} parameters but the scenario "
            f"forward model has {inv.forward.n_params}")
    artifacts = _write_summaries(out, inv.forward, iterations, thetas, s_values,
                                 hist_bins)
    return {"name": scenario.name, "artifacts": artifacts,
            "retained_samples": int(thetas.shape[0]),
            "posterior": _posterior(thetas, s_values)}


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
