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
The W2 kernel stacks the f and g rows of a block into one (2R, n) array
and scales and normalizes that stack in one pass.  Sums run along each
row, so a gather row gets the same bits as the same samples passed as a
single trace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputeError
from .signals import Gather, Trace

SCALING_KINDS = ("linear", "square", "exponential", "absolute", "linexp")

# exp(710) overflows float64; stay a little below.
_EXP_ARG_LIMIT = 700.0

# Stacked samples per block in one kernel pass: f and g rows together, so
# a block holds _BLOCK_SAMPLES // (2n) row pairs (see _rowwise).  The
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


def _normalize_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass weights and their CDF for each row of nonnegative samples."""
    if v.min() < 0:
        raise ComputeError(
            f"cannot normalize a signal with negative samples (min {v.min():.3g}); "
            "apply a positivity scaling first"
        )
    total = v.sum(axis=1)
    if not (total > 0).all():
        raise ComputeError("cannot normalize a signal with zero total mass")
    if not np.isfinite(total).all():
        raise ComputeError("cannot normalize a signal whose total mass overflows")
    weights = v / total[:, None]
    cdf = np.cumsum(weights, axis=1)
    if (np.abs(weights.sum(axis=1) - 1.0).max() > 1e-12
            or np.abs(cdf[:, -1] - 1.0).max() > 1e-12):
        raise ComputeError("normalized weights do not sum to one")
    return weights, cdf


def _quantile_rows(times: np.ndarray, cdf: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Inverse of each row of cdf (shape (k, n)) at that row of ps (shape (k, m))."""
    # Accumulated CDFs can overshoot 1 by a few ulp; only reject real misuse.
    # Written as a negated in-range test so that NaN fails it too.
    if ps.size and not (ps.min() >= -1e-9 and ps.max() <= 1 + 1e-9):
        raise ValueError(f"probabilities must lie in [0, 1], got range "
                         f"[{ps.min()}, {ps.max()}]")
    rows, width = cdf.shape[0], cdf.shape[1] + 1
    levels = np.zeros((rows, width))
    levels[:, 1:] = cdf
    knots = np.empty(width)
    knots[0] = times[0]
    knots[1:] = times
    # The accumulated CDF can fall a few ulp short of 1; clamp from above.
    p_eff = np.minimum(np.maximum(ps, 0.0), cdf[:, -1:])
    idx = np.empty(p_eff.shape, dtype=np.intp)
    # One search per row: searching all rows at once on row-offset levels
    # would round the offset sums and could move a level hit.
    for r in range(rows):
        idx[r] = levels[r].searchsorted(p_eff[r], side="left")
    np.minimum(idx, width - 1, out=idx)
    lo = np.maximum(idx - 1, 0)
    row_start = np.arange(0, levels.size, width)[:, None]
    at_idx = levels.ravel()[idx + row_start]
    at_lo = levels.ravel()[lo + row_start]
    knot_idx, knot_lo = knots[idx], knots[lo]
    span = at_idx - at_lo
    frac = np.zeros(span.shape)
    np.divide(p_eff - at_lo, span, out=frac, where=span > 0)
    out = np.where(at_idx == p_eff, knot_idx, knot_lo + frac * (knot_idx - knot_lo))
    np.maximum(out, times[0], out=out)
    return np.minimum(out, times[-1], out=out)


def _w2_rows(fv: np.ndarray, gv: np.ndarray, times: np.ndarray,
             scaling: Scaling) -> np.ndarray:
    """W2 per row pair: the (2R, n) stack of f over g is scaled and normalized once."""
    rows = fv.shape[0]
    stack = np.concatenate((fv, gv))
    c = scaling.c
    if scaling.kind == "linear" and c is None:
        # Per pair with samples in [low, high]: margin = 1% of max(high, -low),
        # at least 0.01; shift = margin - min(low, 0), so both rows end >= margin.
        lows, highs = stack.min(axis=1), stack.max(axis=1)
        low = np.minimum(lows[:rows], lows[rows:])
        high = np.maximum(highs[:rows], highs[rows:])
        margin = 1e-2 * np.maximum(np.maximum(high, -low), 1.0)
        shift = margin - np.minimum(low, 0.0)
        c = np.concatenate((shift, shift))[:, None]
    weights, cdf = _normalize_rows(_scaled_rows(stack, scaling.kind, c))
    diff = times - _quantile_rows(times, cdf[rows:], cdf[:rows])
    return np.sum(diff * diff * weights[:rows], axis=1)


def _l2_rows(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    diff = fv - gv
    return np.sum(diff * diff, axis=1)


def _rowwise(kernel, f: Trace | Gather, g: Trace | Gather, what: str):
    """Apply a row kernel to a Trace pair (float) or a Gather pair ((R,) array).

    Gather rows go through in blocks of about _BLOCK_SAMPLES samples of f
    and g together, so the kernel's temporaries stay small whatever the
    gather size.
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
    step = max(1, _BLOCK_SAMPLES // (2 * fv.shape[1]))
    for lo in range(0, fv.shape[0], step):
        rows = slice(lo, lo + step)
        out[rows] = kernel(fv[rows], gv[rows])
    return out


def w2_distance(f: Trace | Gather, g: Trace | Gather, scaling: Scaling):
    """Quadratic Wasserstein distance after scaling, per trace.

    Two traces give a float; two gathers with equal label tuples give one
    distance per row.  f plays the role of the transported (simulated)
    signal: its weights carry the sum.  A linear scaling with c=None picks
    a shift per pair of rows whose samples span [low, high]: with margin =
    1% of max(high, -low), at least 0.01, the shift is margin - min(low, 0),
    so both shifted rows stay >= margin > 0.
    """
    times = f.grid.times()
    return _rowwise(lambda fv, gv: _w2_rows(fv, gv, times, scaling), f, g, "w2_distance")


def l2_distance(f: Trace | Gather, g: Trace | Gather):
    """Plain sum of squared sample differences (no dt weighting), per trace.

    Two traces give a float; two gathers with equal label tuples give one
    sum per row.
    """
    return _rowwise(_l2_rows, f, g, "l2_distance")
