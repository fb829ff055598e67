"""Misfit-driven likelihoods for waveform data.

Two models share one interface.  With s the precision hyperparameter and
N the per-trace sample count:

  exp_w2   : L(g | theta, s) = s^N exp(-s * sum_r d_W,r)
  gauss_l2 : L(g | theta, s) = s^(N/2) (2 pi)^(-N/2) exp(-(s/2) * sum_r d_2,r)

d_W is the scaled quadratic Wasserstein distance per trace, d_2 the raw
sum of squared sample differences.  Everything is evaluated in the log
domain, so large misfits and precisions stay finite.

Both models are conjugate with a Gamma(a, b) prior on s; the posterior
increments (delta shape, delta rate) are (N, total) for exp_w2 and
(N/2, total/2) for gauss_l2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ComputeError
from .signals import Gather
from .transport import Scaling, l2_distance, w2_distance

KIND_EXP_W2 = "exp_w2"
KIND_GAUSS_L2 = "gauss_l2"
LIKELIHOOD_KINDS = (KIND_EXP_W2, KIND_GAUSS_L2)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LikelihoodModel:
    kind: str
    n_obs: int                     # samples per trace
    scaling: Scaling | None = None  # required for exp_w2

    def __post_init__(self):
        if self.kind not in LIKELIHOOD_KINDS:
            raise ValueError(f"unknown likelihood kind {self.kind!r}")
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be positive, got {self.n_obs}")
        if self.kind == KIND_EXP_W2 and self.scaling is None:
            raise ValueError("exp_w2 likelihood needs a scaling")


@dataclass(frozen=True, eq=False)
class MisfitCache:
    """Per-trace misfits and their total, kept alongside the chain state."""

    per_trace: np.ndarray
    total: float

    def __post_init__(self):
        p = np.asarray(self.per_trace, dtype=np.float64)
        p.setflags(write=False)
        object.__setattr__(self, "per_trace", p)


def compute_misfits(model: LikelihoodModel, sim: Gather, obs: Gather) -> MisfitCache:
    """Label-matched per-trace misfits of simulated against observed data.

    The observed rows are reordered to the simulated labels when the two
    label tuples differ; the result follows the simulated order.
    """
    if sim.grid.n != model.n_obs:
        raise ValueError(f"model expects {model.n_obs} samples per trace, "
                         f"gather has {sim.grid.n}")
    if sim.labels != obs.labels:
        if set(sim.labels) != set(obs.labels):
            raise ValueError("gathers carry different trace labels")
        obs = obs.select(sim.labels)
    if model.kind == KIND_EXP_W2:
        per = w2_distance(sim, obs, model.scaling)
    else:
        per = l2_distance(sim, obs)
    return MisfitCache(per_trace=per, total=float(per.sum()))


def log_likelihood_from_misfit(model: LikelihoodModel, total_misfit: float,
                               s: float) -> float:
    if not s > 0:
        raise ValueError(f"precision s must be positive, got {s}")
    n = model.n_obs
    if model.kind == KIND_EXP_W2:
        return n * math.log(s) - s * total_misfit
    return 0.5 * n * math.log(s) - 0.5 * n * _LOG_2PI - 0.5 * s * total_misfit


def log_likelihood(model: LikelihoodModel, sim: Gather, obs: Gather,
                   s: float) -> tuple[float, MisfitCache]:
    cache = compute_misfits(model, sim, obs)
    return log_likelihood_from_misfit(model, cache.total, s), cache


def conjugate_gamma_increments(model: LikelihoodModel,
                               total_misfit: float) -> tuple[float, float]:
    """(delta shape, delta rate) added to the Gamma prior by this likelihood."""
    if model.kind == KIND_EXP_W2:
        return float(model.n_obs), float(total_misfit)
    return 0.5 * model.n_obs, 0.5 * total_misfit


def landscape_scan_1d(models: Sequence[LikelihoodModel],
                      forward: Callable[[np.ndarray], Gather],
                      obs: Gather,
                      param_index: int,
                      grid: Sequence[float],
                      fixed_theta: np.ndarray,
                      s_ref: float) -> np.ndarray:
    """Log likelihoods along one parameter axis, everything else held fixed.

    Returns shape (len(grid), len(models)); every model is evaluated on the
    one forward run made per grid point.  A ComputeError in the forward
    model at a grid point yields NaN for every model there, one in a
    likelihood NaN for that model, rather than aborting the scan; any other
    exception propagates.
    """
    fixed_theta = np.asarray(fixed_theta, dtype=np.float64)
    out = np.full((len(grid), len(models)), np.nan)
    for k, value in enumerate(grid):
        theta = fixed_theta.copy()
        theta[param_index] = value
        try:
            sim = forward(theta)
        except ComputeError:
            continue
        for j, model in enumerate(models):
            try:
                out[k, j], _ = log_likelihood(model, sim, obs, s_ref)
            except ComputeError:
                pass
    return out
