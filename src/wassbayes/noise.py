"""Synthetic measurement noise: g = eps1 * f + eps2, sample by sample.

The multiplicative field eps1 is Gamma(k, k) distributed (unit mean,
variance 1/k), the additive field eps2 is either Uniform(-w, w) or
Normal(0, sigma).  Either part can be switched off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import Gather


@dataclass(frozen=True)
class NoiseSpec:
    gamma_shape: float | None = None     # multiplicative Gamma(k, k); None disables
    uniform_width: float | None = None   # additive Uniform(-w, w)
    gaussian_sigma: float | None = None  # additive Normal(0, sigma)

    def __post_init__(self):
        if self.uniform_width is not None and self.gaussian_sigma is not None:
            raise ValueError("choose one additive noise kind, not both")
        if self.gamma_shape is not None and not self.gamma_shape > 0:
            raise ValueError(f"gamma shape must be positive, got {self.gamma_shape}")
        if self.uniform_width is not None and not self.uniform_width > 0:
            raise ValueError(f"uniform width must be positive, got {self.uniform_width}")
        if self.gaussian_sigma is not None and not self.gaussian_sigma > 0:
            raise ValueError(f"gaussian sigma must be positive, got {self.gaussian_sigma}")

    @property
    def is_identity(self) -> bool:
        return (self.gamma_shape is None and self.uniform_width is None
                and self.gaussian_sigma is None)


def pollute(gather: Gather, spec: NoiseSpec, rng: np.random.Generator) -> Gather:
    """Noisy copy of a gather; draw order is multiplicative field then additive."""
    clean = gather.values
    if spec.gamma_shape is not None:
        k = spec.gamma_shape
        eps1 = rng.gamma(shape=k, scale=1.0 / k, size=clean.shape)
    else:
        eps1 = 1.0
    if spec.uniform_width is not None:
        w = spec.uniform_width
        eps2 = rng.uniform(-w, w, size=clean.shape)
    elif spec.gaussian_sigma is not None:
        eps2 = rng.normal(0.0, spec.gaussian_sigma, size=clean.shape)
    else:
        eps2 = 0.0
    return gather.with_values(eps1 * clean + eps2)

