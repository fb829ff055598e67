"""Discrete quadratic Wasserstein distance between time signals.

A signal is turned into a probability density on its own time grid by a
positivity scaling followed by normalization.  The distance between two
such densities is

    d_W(f, g) = sum_i |t_i - T_i|^2 ftilde_i,      T_i = Ginv(F_i),

where F and G are the discrete CDFs of the normalized signals and Ginv is
the piecewise-linear inverse of G.  The map T = Ginv o F is the 1-D
optimal transport (monotone rearrangement) between the two densities.

Inverse-CDF convention: the graph {(G_i, t_i)} is augmented with the
anchor point (0, t_1) and interpolated linearly; where the CDF repeats a
value (zero-weight samples) the smallest time attaining that level is
returned, and probabilities clamp to [t_1, t_n].  Exact CDF level hits
return the grid time exactly, which makes d_W(f, f) = 0 bit-for-bit.

Every distance runs through one row-wise kernel: a pair of traces is its
one-row case, a pair of gathers is processed a block of rows at a time.
Sums run along each row, so a gather row gets the same bits as the same
samples passed as a single trace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputeError
from .signals import Gather, TimeGrid, Trace

SCALING_KINDS = ("linear", "square", "exponential", "absolute", "linexp")

# exp(710) overflows float64; stay a little below.
_EXP_ARG_LIMIT = 700.0

# Samples per block of gather rows in one kernel pass (see _rowwise).  The
# kernel keeps about a dozen block-sized float64 temporaries alive.  At 2^13
# samples (64 KiB each) they stay in a 2 MiB L2 cache, where 2^15 ran 1.7x
# slower on a 995 x 801 gather, and the 82 x 201 gather's peak resident
# size grew 0.4 MiB against 1.9 MiB at 2^14.
_BLOCK_SAMPLES = 1 << 13


@dataclass(frozen=True)
class Scaling:
    """Positivity scaling applied to a signal before normalization.

    kind "linear"      : f + c       (c > -min f; c=None means choose per pair)
    kind "square"      : f^2
    kind "exponential" : exp(c * f)  (c > 0)
    kind "absolute"    : |f|
    kind "linexp"      : exp(c * f) where f < 0, else f + 1/c   (c > 0)
    """

    kind: str
    c: float | None = None

    def __post_init__(self):
        if self.kind not in SCALING_KINDS:
            raise ValueError(f"unknown scaling kind {self.kind!r}, expected one of {SCALING_KINDS}")
        if self.kind in ("exponential", "linexp"):
            if self.c is None or not self.c > 0:
                raise ValueError(f"{self.kind} scaling needs a constant c > 0, got {self.c}")
        if self.kind == "linear" and self.c is not None and not np.isfinite(self.c):
            raise ValueError(f"linear shift constant must be finite, got {self.c}")


def _row_margin(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    amp = np.maximum(np.maximum(np.abs(fv).max(axis=1), np.abs(gv).max(axis=1)), 1.0)
    return 1e-2 * amp


def _row_shift(fv: np.ndarray, gv: np.ndarray, margin) -> np.ndarray:
    low = np.minimum(fv.min(axis=1), gv.min(axis=1))
    return np.where(low <= 0, margin - low, margin)


def auto_shift_constant(f: Trace, g: Trace, margin: float) -> float:
    """Shift constant for the linear scaling of the pair (f, g).

    Returns margin - min(min f, min g) when that minimum is <= 0, else just
    margin, so both shifted signals stay >= margin > 0.
    """
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    return float(_row_shift(f.values[None], g.values[None], margin)[0])


def default_margin(f: Trace, g: Trace) -> float:
    """Default positivity margin: 1% of the larger amplitude, at least 0.01."""
    return float(_row_margin(f.values[None], g.values[None])[0])


def _scaled_rows(values: np.ndarray, kind: str, c) -> np.ndarray:
    """Scaled samples; c is a number or, for the linear kind, one shift per row."""
    if kind == "linear":
        out = values + c
        low = out.min()
        if low <= 0:
            raise ComputeError(
                f"linear shift leaves non-positive samples (min f + c = {low:.3g})"
            )
        return out
    if kind == "square":
        return values * values
    if kind == "exponential":
        arg = c * values
        if arg.max() > _EXP_ARG_LIMIT:
            raise ComputeError(
                f"exponential scaling overflows: max c*f = {arg.max():.3g} > {_EXP_ARG_LIMIT}"
            )
        return np.exp(arg)
    if kind == "absolute":
        return np.abs(values)
    # linexp: exponential below zero, shifted linear above
    neg = values < 0
    out = values + 1.0 / c
    out[neg] = np.exp(c * values[neg])
    return out


def apply_scaling(trace: Trace, scaling: Scaling) -> Trace:
    """New trace holding the scaled samples."""
    if scaling.kind == "linear" and scaling.c is None:
        raise ValueError("linear scaling with c=None must be resolved per pair first")
    return Trace(trace.grid, _scaled_rows(trace.values[None], scaling.kind, scaling.c)[0])


def _normalize_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass weights and their CDF for each row of nonnegative samples."""
    if v.min() < 0:
        raise ComputeError(
            f"cannot normalize a signal with negative samples (min {v.min():.3g}); "
            "apply a positivity scaling first"
        )
    total = v.sum(axis=1)
    if not np.all(total > 0):
        raise ComputeError("cannot normalize a signal with zero total mass")
    if not np.all(np.isfinite(total)):
        raise ComputeError("cannot normalize a signal whose total mass overflows")
    weights = v / total[:, None]
    cdf = np.cumsum(weights, axis=1)
    if (np.abs(weights.sum(axis=1) - 1.0).max() > 1e-12
            or np.abs(cdf[:, -1] - 1.0).max() > 1e-12):
        raise ComputeError("normalized weights do not sum to one")
    return weights, cdf


@dataclass(frozen=True, eq=False)
class NormalizedDensity:
    """Nonnegative weights summing to one on a time grid, with their CDF."""

    grid: TimeGrid
    weights: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        c = np.asarray(self.cdf, dtype=np.float64)
        if w.shape != (self.grid.n,) or c.shape != (self.grid.n,):
            raise ValueError("weights/cdf shape must match the grid")
        if w.min() < 0:
            raise ValueError(f"negative weight {w.min()}")
        if abs(float(w.sum()) - 1.0) > 1e-12 or abs(float(c[-1]) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cdf", c)


def normalize(trace: Trace) -> NormalizedDensity:
    """Normalize nonnegative samples to unit total mass and accumulate the CDF."""
    weights, cdf = _normalize_rows(trace.values[None])
    return NormalizedDensity(grid=trace.grid, weights=weights[0], cdf=cdf[0])


def _quantile_rows(times: np.ndarray, cdf: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Inverse of each row of cdf (shape (k, n)) at that row of ps (shape (k, m))."""
    # Accumulated CDFs can overshoot 1 by a few ulp; only reject real misuse.
    if ps.size and (ps.min() < -1e-9 or ps.max() > 1 + 1e-9):
        raise ValueError(f"probabilities must lie in [0, 1], got range "
                         f"[{ps.min()}, {ps.max()}]")
    ps = np.clip(ps, 0.0, None)
    levels = np.concatenate((np.zeros((cdf.shape[0], 1)), cdf), axis=1)
    knots = np.concatenate(([times[0]], times))
    # The accumulated CDF can fall a few ulp short of 1; clamp from above.
    p_eff = np.minimum(ps, levels[:, -1:])
    idx = np.empty(p_eff.shape, dtype=np.intp)
    # One search per row: searching all rows at once on row-offset levels
    # would round the offset sums and could move a level hit.
    for r in range(levels.shape[0]):
        idx[r] = np.searchsorted(levels[r], p_eff[r], side="left")
    width = levels.shape[1]
    np.minimum(idx, width - 1, out=idx)
    lo = np.maximum(idx - 1, 0)
    row_start = np.arange(0, levels.size, width)[:, None]
    at_idx = levels.ravel()[idx + row_start]
    at_lo = levels.ravel()[lo + row_start]
    knot_idx, knot_lo = knots[idx], knots[lo]
    span = at_idx - at_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(span > 0, (p_eff - at_lo) / span, 0.0)
    out = np.where(at_idx == p_eff, knot_idx, knot_lo + frac * (knot_idx - knot_lo))
    return np.clip(out, times[0], times[-1])


def quantiles(density: NormalizedDensity, ps) -> np.ndarray:
    """Piecewise-linear inverse CDF evaluated at probabilities ps.

    Exact level hits return the smallest grid time attaining the level;
    probabilities between levels interpolate linearly; results clamp to
    the grid span.
    """
    ps = np.asarray(ps, dtype=np.float64)
    out = _quantile_rows(density.grid.times(), density.cdf[None], ps.reshape(1, -1))
    return out.reshape(ps.shape)


def _w2_rows(fv: np.ndarray, gv: np.ndarray, times: np.ndarray,
             scaling: Scaling) -> np.ndarray:
    c = scaling.c
    if scaling.kind == "linear" and c is None:
        c = _row_shift(fv, gv, _row_margin(fv, gv))[:, None]
    f_scaled = _scaled_rows(fv, scaling.kind, c)
    g_scaled = _scaled_rows(gv, scaling.kind, c)
    f_weights, f_cdf = _normalize_rows(f_scaled)
    _, g_cdf = _normalize_rows(g_scaled)
    diff = times - _quantile_rows(times, g_cdf, f_cdf)
    return np.sum(diff * diff * f_weights, axis=1)


def _l2_rows(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    diff = fv - gv
    return np.sum(diff * diff, axis=1)


def _rowwise(kernel, f: Trace | Gather, g: Trace | Gather, what: str):
    """Apply a row kernel to a Trace pair (float) or a Gather pair ((R,) array).

    Gather rows go through in blocks of about _BLOCK_SAMPLES samples, so
    the kernel's temporaries stay small whatever the gather size.
    """
    if f.grid != g.grid:
        raise ValueError(f"{what} needs both signals on the same time grid")
    if isinstance(f, Trace) and isinstance(g, Trace):
        return float(kernel(f.values[None], g.values[None])[0])
    if not (isinstance(f, Gather) and isinstance(g, Gather)):
        raise TypeError(f"{what} takes two Traces or two Gathers")
    if f.labels != g.labels:
        raise ValueError("gathers carry different trace labels or orders")
    fv, gv = f.values, g.values
    out = np.empty(fv.shape[0])
    step = max(1, _BLOCK_SAMPLES // fv.shape[1])
    for lo in range(0, fv.shape[0], step):
        rows = slice(lo, lo + step)
        out[rows] = kernel(fv[rows], gv[rows])
    return out


def w2_distance(f: Trace | Gather, g: Trace | Gather, scaling: Scaling):
    """Quadratic Wasserstein distance after scaling, per trace.

    Two traces give a float; two gathers with equal label tuples give one
    distance per row.  f plays the role of the transported (simulated)
    signal: its weights carry the sum.  A linear scaling with c=None picks
    the shift constant per pair of rows via auto_shift_constant with the
    default margin.
    """
    times = f.grid.times()
    return _rowwise(lambda fv, gv: _w2_rows(fv, gv, times, scaling), f, g, "w2_distance")


def l2_distance(f: Trace | Gather, g: Trace | Gather):
    """Plain sum of squared sample differences (no dt weighting), per trace.

    Two traces give a float; two gathers with equal label tuples give one
    sum per row.
    """
    return _rowwise(_l2_rows, f, g, "l2_distance")
