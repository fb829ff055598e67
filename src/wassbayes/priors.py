"""Priors and the random-walk proposal for the parameter chain."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class UniformBoxPrior:
    """Independent uniform prior on a box; log density is -inf outside."""

    bounds: np.ndarray  # shape (m, 2), rows (low, high)

    def __post_init__(self):
        b = np.array(self.bounds, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValueError(f"bounds must have shape (m, 2), got {b.shape}")
        if not np.all(b[:, 1] > b[:, 0]):
            raise ValueError("each bound must satisfy high > low")
        if not np.all(np.isfinite(b)):
            raise ValueError("bounds must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "_inside_log_density", float(-np.sum(np.log(b[:, 1] - b[:, 0]))))

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta must have shape ({self.dim},), got {theta.shape}")
        return bool(((theta >= self.bounds[:, 0]) & (theta <= self.bounds[:, 1])).all())

    def log_density(self, theta: np.ndarray) -> float:
        return self._inside_log_density if self.contains(theta) else -np.inf


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior for the likelihood precision."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError(f"gamma prior needs shape, rate > 0, got "
                             f"({self.shape}, {self.rate})")


def sample_gamma(shape: float, rate: float, rng: np.random.Generator) -> float:
    """One Gamma(shape, rate) draw (rate parameterization, mean = shape/rate)."""
    if not (shape > 0 and rate > 0):
        raise ValueError(f"gamma draw needs shape, rate > 0, got ({shape}, {rate})")
    return float(rng.gamma(shape=shape, scale=1.0 / rate))


@dataclass(frozen=True, eq=False)
class ProposalSpec:
    """Symmetric Gaussian random-walk proposal with covariance Sigma.

    adapt_after > 0 requests a one-time covariance rebuild from the first
    adapt_after chain states; adapt_scale defaults to 2.38^2 / m.
    """

    covariance: np.ndarray
    adapt_after: int = 0
    adapt_scale: float | None = None
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.array(self.covariance, dtype=np.float64)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=0):
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"covariance is not positive definite: {exc}") from exc
        if self.adapt_after < 0:
            raise ValueError(f"adapt_after must be >= 0, got {self.adapt_after}")
        if self.adapt_scale is not None and not self.adapt_scale > 0:
            raise ValueError(f"adapt_scale must be positive, got {self.adapt_scale}")
        cov.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "chol", chol)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def effective_scale(self) -> float:
        return self.adapt_scale if self.adapt_scale is not None else 2.38 ** 2 / self.dim


def propose(theta: np.ndarray, spec: ProposalSpec, rng: np.random.Generator) -> np.ndarray:
    """theta + L z with z ~ N(0, I) and L the Cholesky factor of Sigma."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.dim,):
        raise ValueError(f"theta must have shape ({spec.dim},), got {theta.shape}")
    z = rng.standard_normal(spec.dim)
    return theta + spec.chol @ z


def adapt_covariance(history: np.ndarray, scale: float,
                     jitter: float | None = None) -> np.ndarray:
    """scale * SampleCov(history) + jitter * I from early chain states.

    jitter defaults to 1e-10 * trace(SampleCov) / m, which keeps the result
    positive definite when the sample covariance is merely semidefinite.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 2:
        raise ValueError(f"history must be 2-D (samples, params), got {history.shape}")
    n, m = history.shape
    if n < m + 2:
        raise ValueError(f"need at least m + 2 = {m + 2} history rows, got {n}")
    cov = np.atleast_2d(np.cov(history, rowvar=False, ddof=1))
    if jitter is None:
        jitter = 1e-10 * float(np.trace(cov)) / m
    return scale * cov + jitter * np.eye(m)
