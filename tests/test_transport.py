import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassbayes as wb
from wassbayes import transport
from wassbayes.transport import (_BLOCK_SAMPLES, _normalize_rows,
                                 _quantile_rows, _scaled_rows)


def trace_on(grid, values):
    return wb.Trace(grid, values)


def scaled(values, scaling):
    """The row kernel's scaling of one row of samples."""
    return _scaled_rows(np.array([values], dtype=np.float64), scaling.kind, scaling.c)[0]


def normalized(values):
    """The row kernel's (weights, cdf) of one row of nonnegative samples."""
    weights, cdf = _normalize_rows(np.array([values], dtype=np.float64))
    return weights[0], cdf[0]


def quantiles(times, cdf, ps):
    """The row kernel's inverse of one CDF row at probabilities ps."""
    ps = np.asarray(ps, dtype=np.float64)
    return _quantile_rows(times, cdf[None], ps.reshape(1, -1)).reshape(ps.shape)


def auto_shift(f, g):
    """The shift a linear scaling with c=None picks for the pair (f, g)."""
    grid = wb.make_grid(0, 1, len(f))
    with mock.patch.object(transport, "_scaled_rows", wraps=_scaled_rows) as spy:
        wb.w2_distance(trace_on(grid, f), trace_on(grid, g), wb.Scaling("linear"))
    c = spy.call_args.args[2]
    assert c.shape == (2, 1) and c[0, 0] == c[1, 0]  # one shift for f and g
    return float(c[0, 0])


def independent_quantile_fn(times, cdf):
    """Reference inverse CDF built on np.interp over deduplicated knots.

    Keeping only the first occurrence of each CDF level realizes the
    smallest-attaining-time rule through a separate code path.
    """
    levels = np.concatenate(([0.0], cdf))
    knots = np.concatenate(([times[0]], times))
    keep = np.concatenate(([True], np.diff(levels) > 0))
    lv, kn = levels[keep], knots[keep]
    return lambda ps: np.interp(np.minimum(np.asarray(ps), lv[-1]), lv, kn)


def reference_w2(grid, f, g, scaling):
    """The per-trace W2 the row kernel replaced: scale, normalize, invert, sum.

    One trace at a time with 1-D reductions, as the library computed it
    before gathers became matrices.  Inputs must not trip the library's
    regime checks, which this copy leaves out.
    """
    c = scaling.c
    if scaling.kind == "linear" and c is None:
        amp = max(float(np.abs(f).max()), float(np.abs(g).max()), 1.0)
        margin = 1e-2 * amp
        low = min(float(f.min()), float(g.min()))
        c = margin - low if low <= 0 else margin

    def scaled(v):
        if scaling.kind == "linear":
            return v + c
        if scaling.kind == "square":
            return v * v
        if scaling.kind == "exponential":
            return np.exp(c * v)
        if scaling.kind == "absolute":
            return np.abs(v)
        neg = v < 0
        out = v + 1.0 / c
        out[neg] = np.exp(c * v[neg])
        return out

    def normalized(v):
        w = v / float(v.sum())
        return w, np.cumsum(w)

    def inverse(cdf, ps):
        t = grid.times()
        levels = np.concatenate(([0.0], cdf))
        knots = np.concatenate(([t[0]], t))
        p_eff = np.minimum(np.clip(ps, 0.0, None), levels[-1])
        idx = np.minimum(np.searchsorted(levels, p_eff, side="left"), len(levels) - 1)
        lo = np.maximum(idx - 1, 0)
        span = levels[idx] - levels[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(span > 0, (p_eff - levels[lo]) / span, 0.0)
        out = knots[lo] + frac * (knots[idx] - knots[lo])
        out = np.where(levels[idx] == p_eff, knots[idx], out)
        return np.clip(out, t[0], t[-1])

    f_weights, f_cdf = normalized(scaled(np.asarray(f, dtype=np.float64)))
    _, g_cdf = normalized(scaled(np.asarray(g, dtype=np.float64)))
    diff = grid.times() - inverse(g_cdf, f_cdf)
    return float(np.sum(diff * diff * f_weights))


def reference_l2(f, g):
    diff = np.asarray(f, dtype=np.float64) - np.asarray(g, dtype=np.float64)
    return float(np.sum(diff * diff))


ALL_SCALINGS = (wb.Scaling("linear"), wb.Scaling("linear", 10.0),
                wb.Scaling("square"), wb.Scaling("exponential", 1.0),
                wb.Scaling("absolute"), wb.Scaling("linexp", 1.0))


def oracle_rows(rng, n_rows, n, integer):
    """Signal pairs with runs of zeros, shared rows and equal-mass rows.

    Zero runs make flat CDF segments; identical rows and integer rows
    that are permutations of each other make exact CDF level hits.  Every
    row keeps one nonzero sample, so no scaling meets a zero-mass row.
    """
    if integer:
        f = rng.integers(0, 4, size=(n_rows, n)).astype(np.float64)
        g = rng.permuted(f, axis=1)
    else:
        f, g = rng.normal(size=(2, n_rows, n))
    for v in (f, g):
        for r in range(n_rows):
            if rng.random() < 0.5:
                a = int(rng.integers(0, n))
                v[r, a:int(rng.integers(a, n + 1))] = 0.0
    same = rng.random(n_rows) < 0.2
    g[same] = f[same]
    for v in (f, g):
        v[np.all(v == 0.0, axis=1), 0] = 1.0
    return f, g


def gather_pair(grid, f, g):
    labels = [(0, r, 0) for r in range(f.shape[0])]
    return wb.Gather(grid, f, labels), wb.Gather(grid, g, labels)


def quadrature_w2(times, f, g, n_nodes=200_000):
    """Dense midpoint quadrature of the squared quantile difference.

    f and g are positive samples on times; their CDFs are built here with
    plain numpy, not by the library.
    """
    def cdf(v):
        w = v / v.sum()
        return np.cumsum(w)

    p = (np.arange(n_nodes) + 0.5) / n_nodes
    d = (independent_quantile_fn(times, cdf(f))(p)
         - independent_quantile_fn(times, cdf(g))(p))
    return float(np.mean(d * d))


class TestScalings:
    def test_linear(self):
        out = scaled([-1.0, 0.0, 2.0], wb.Scaling("linear", 2.0))
        np.testing.assert_allclose(out, [1.0, 2.0, 4.0])

    def test_linear_shift_too_small(self):
        with pytest.raises(wb.ComputeError):
            scaled([-1.0, 0.0, 2.0], wb.Scaling("linear", 0.5))

    def test_square(self):
        np.testing.assert_allclose(
            scaled([-1.0, 0.0, 2.0], wb.Scaling("square")), [1.0, 0.0, 4.0])

    def test_exponential(self):
        np.testing.assert_allclose(
            scaled([-1.0, 0.0, 2.0], wb.Scaling("exponential", 1.0)),
            [math.exp(-1.0), 1.0, math.exp(2.0)])

    def test_exponential_overflow_guard(self):
        with pytest.raises(wb.ComputeError):
            scaled([0.0, 800.0], wb.Scaling("exponential", 1.0))

    def test_absolute(self):
        np.testing.assert_allclose(
            scaled([-1.0, 0.0, 2.0], wb.Scaling("absolute")), [1.0, 0.0, 2.0])

    def test_linexp(self):
        np.testing.assert_allclose(
            scaled([-1.0, 2.0], wb.Scaling("linexp", 1.0)), [math.exp(-1.0), 3.0])

    def test_linexp_continuous_at_zero_for_unit_constant(self):
        # both branches meet at 1 when c = 1: exp(0) = 1 = 0 + 1/1
        out = scaled([-1e-12, 0.0, 1e-12], wb.Scaling("linexp", 1.0))
        np.testing.assert_allclose(out, 1.0, rtol=1e-9)

    def test_needs_constant(self):
        with pytest.raises(ValueError):
            wb.Scaling("exponential")
        with pytest.raises(ValueError):
            wb.Scaling("linexp", -1.0)
        with pytest.raises(ValueError):
            wb.Scaling("bogus")


class TestShiftConstant:
    def test_negative_minimum(self):
        # margin 0.01 (amplitude 1), shifted by 0.3 more to lift -0.3
        assert auto_shift([-0.3, 1.0], [0.1, 0.5]) == pytest.approx(0.31)

    def test_zero_traces(self):
        assert auto_shift([0.0, 0.0], [0.0, 0.0]) == 0.01

    def test_already_positive(self):
        assert auto_shift([0.5, 1.0], [0.5, 1.0]) == 0.01

    def test_default_margin_floor(self):
        # the margin is 1% of the amplitude max(high, -low), at least 0.01
        assert auto_shift([0.001, 0.002], [0.001, 0.002]) == pytest.approx(0.01)
        assert auto_shift([5.0, 2.0], [3.0, 1.0]) == pytest.approx(0.05)
        assert auto_shift([5.0, -5.0], [5.0, -5.0]) == pytest.approx(5.05)
        assert auto_shift([-5.0, 2.0], [1.0, 0.0]) == pytest.approx(5.05)


class TestNormalize:
    def test_uniform(self):
        weights, cdf = normalized(np.ones(4))
        np.testing.assert_allclose(weights, 0.25)
        np.testing.assert_allclose(cdf, [0.25, 0.5, 0.75, 1.0])

    def test_mass_one(self):
        rng = np.random.default_rng(0)
        weights, cdf = normalized(rng.uniform(0.1, 2.0, 50))
        assert abs(weights.sum() - 1.0) < 1e-12
        assert abs(cdf[-1] - 1.0) < 1e-12
        assert np.all(np.diff(cdf) >= 0)

    def test_rejects_negative(self):
        with pytest.raises(wb.ComputeError):
            normalized([1.0, -0.1, 1.0])

    def test_rejects_zero_mass(self):
        with pytest.raises(wb.ComputeError):
            normalized([0.0, 0.0, 0.0])


class TestInverseCdf:
    def test_two_point_uniform_convention(self):
        # Exact level hits return the smallest attaining grid time; the
        # level 0.5 is hit exactly at t = 0, and values just above it
        # interpolate toward t = 1.
        times, (_, cdf) = wb.make_grid(0, 1, 2).times(), normalized([0.5, 0.5])
        assert quantiles(times, cdf, [0.0])[0] == 0.0
        assert quantiles(times, cdf, [0.5])[0] == 0.0
        assert quantiles(times, cdf, [0.75])[0] == pytest.approx(0.5)
        assert quantiles(times, cdf, [1.0])[0] == 1.0

    def test_flat_segment_returns_smallest_time(self):
        times, (_, cdf) = wb.make_grid(0, 2, 3).times(), normalized([0.5, 0.0, 0.5])
        # cdf = (0.5, 0.5, 1.0): the level 0.5 is first attained at t = 0
        assert quantiles(times, cdf, [0.5])[0] == 0.0
        # above the flat level, interpolation restarts from the last flat time
        assert quantiles(times, cdf, [0.6])[0] == pytest.approx(1.2)

    def test_clamps_to_grid_span(self):
        times, (_, cdf) = wb.make_grid(1, 3, 5).times(), normalized(np.ones(5))
        assert quantiles(times, cdf, [0.0])[0] == 1.0
        assert quantiles(times, cdf, [1.0])[0] == 3.0

    def test_out_of_range_rejected(self):
        times, (_, cdf) = wb.make_grid(0, 1, 3).times(), normalized(np.ones(3))
        with pytest.raises(ValueError):
            quantiles(times, cdf, [1.5])
        with pytest.raises(ValueError):
            quantiles(times, cdf, [-0.2])

    def test_nan_probability_rejected(self):
        times, (_, cdf) = wb.make_grid(0, 1, 3).times(), normalized(np.ones(3))
        with pytest.raises(ValueError):
            _quantile_rows(times, cdf[None], np.array([[np.nan, 0.5]]))

    def test_matches_independent_interpolation(self):
        rng = np.random.default_rng(11)
        times = wb.make_grid(0, 7, 37).times()
        for _ in range(20):
            _, cdf = normalized(rng.uniform(0.05, 2.0, 37))
            ps = rng.uniform(0, 1, 200)
            ref = independent_quantile_fn(times, cdf)(ps)
            np.testing.assert_allclose(quantiles(times, cdf, ps), ref,
                                       rtol=1e-10, atol=1e-12)


class TestW2Distance:
    def test_identity_is_exact_zero(self):
        rng = np.random.default_rng(5)
        tr = trace_on(wb.make_grid(0, 5, 101), rng.uniform(-1, 1, 101))
        for sc in [wb.Scaling("linear"), wb.Scaling("square"),
                   wb.Scaling("exponential", 1.0), wb.Scaling("absolute"),
                   wb.Scaling("linexp", 1.0)]:
            assert wb.w2_distance(tr, tr, sc) == 0.0

    def test_one_hot_masses(self):
        g = wb.make_grid(0, 4, 5)
        f = trace_on(g, [0, 1, 0, 0, 0])
        h = trace_on(g, [0, 0, 1, 0, 0])
        assert wb.w2_distance(f, h, wb.Scaling("absolute")) == pytest.approx(1.0)

    def test_one_hot_squared_time_gap(self):
        g = wb.make_grid(0, 8, 9)
        t = g.times()
        for i, j in [(0, 5), (2, 7), (6, 1)]:
            fv = np.zeros(9); fv[i] = 1.0
            gv = np.zeros(9); gv[j] = 1.0
            d = wb.w2_distance(trace_on(g, fv), trace_on(g, gv), wb.Scaling("absolute"))
            assert d == pytest.approx((t[i] - t[j]) ** 2)

    def test_pure_shift_of_positive_pulse(self):
        grid = wb.make_grid(0, 10, 101)
        t = grid.times()
        pulse = lambda s: trace_on(grid, np.exp(-((t - 3.5 - s) / 0.8) ** 2))
        for shift in [0.5, 1.0, 2.0]:
            d = wb.w2_distance(pulse(0.0), pulse(shift), wb.Scaling("absolute"))
            assert d == pytest.approx(shift ** 2, rel=0.05)

    def test_pure_shift_with_small_linear_constant(self):
        grid = wb.make_grid(0, 10, 101)
        t = grid.times()
        pulse = lambda s: trace_on(grid, np.exp(-((t - 3.5 - s) / 0.8) ** 2))
        d = wb.w2_distance(pulse(0.0), pulse(1.0), wb.Scaling("linear", 1e-3))
        assert d == pytest.approx(1.0, rel=0.05)

    def test_grid_mismatch_rejected(self):
        f = trace_on(wb.make_grid(0, 1, 5), np.ones(5))
        h = trace_on(wb.make_grid(0, 2, 5), np.ones(5))
        with pytest.raises(ValueError):
            wb.w2_distance(f, h, wb.Scaling("absolute"))

    def test_transport_map_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = wb.make_grid(0, 5, 64)
            f = trace_on(g, rng.uniform(0.05, 1.0, 64))
            h = trace_on(g, rng.uniform(0.05, 1.0, 64))
            _, f_cdf = normalized(f.values)
            _, h_cdf = normalized(h.values)
            transport_map = quantiles(g.times(), h_cdf, f_cdf)
            assert np.all(np.diff(transport_map) >= -1e-12)
            assert wb.w2_distance(f, h, wb.Scaling("absolute")) >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=4, max_value=80))
    def test_identity_and_nonnegativity_property(self, seed, n):
        rng = np.random.default_rng(seed)
        g = wb.make_grid(0, 3, n)
        f = trace_on(g, rng.uniform(-2, 2, n))
        h = trace_on(g, rng.uniform(-2, 2, n))
        sc = wb.Scaling("linear")
        assert wb.w2_distance(f, f, sc) == 0.0
        assert wb.w2_distance(f, h, sc) >= 0.0


class TestGatherDistances:
    def _pair(self):
        g = wb.make_grid(0, 5, 51)
        t = g.times()
        rows = lambda *cs: np.array([np.exp(-((t - c) ** 2)) for c in cs])
        labels = ((0, 0, 0), (0, 1, 0))
        return wb.Gather(g, rows(1.0, 2.0), labels), wb.Gather(g, rows(1.5, 2.5), labels)

    def test_gather_rows_match_trace_distances(self):
        fa, gb = self._pair()
        sc = wb.Scaling("absolute")
        per_row = wb.w2_distance(fa, gb, sc)
        parts = [wb.w2_distance(wb.Trace(fa.grid, fa.values[r]),
                                wb.Trace(gb.grid, gb.values[r]), sc)
                 for r in range(len(fa.labels))]
        assert per_row.shape == (2,)
        assert per_row.tolist() == parts

    def test_label_mismatch_rejected(self):
        fa, gb = self._pair()
        other = wb.Gather(gb.grid, gb.values, ((0, 0, 0), (0, 2, 0)))
        with pytest.raises(ValueError):
            wb.w2_distance(fa, other, wb.Scaling("absolute"))
        with pytest.raises(ValueError):
            wb.l2_distance(fa, other)

    def test_mixed_trace_and_gather_rejected(self):
        fa, _ = self._pair()
        with pytest.raises(TypeError):
            wb.w2_distance(fa, wb.Trace(fa.grid, fa.values[0]), wb.Scaling("absolute"))

    def test_failing_row_raises_for_the_gather(self):
        g = wb.make_grid(0, 1, 4)
        labels = ((0, 0, 0), (0, 1, 0))
        ok = wb.Gather(g, np.ones((2, 4)), labels)
        dead = wb.Gather(g, [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]], labels)
        with pytest.raises(wb.ComputeError):
            wb.w2_distance(ok, dead, wb.Scaling("absolute"))
        with pytest.raises(wb.ComputeError):
            wb.w2_distance(ok, dead, wb.Scaling("linear", -0.5))

    def test_l2_constant_offset(self):
        g = wb.make_grid(0, 5, 101)
        f = wb.Trace(g, np.zeros(101))
        h = wb.Trace(g, np.ones(101))
        assert wb.l2_distance(f, h) == pytest.approx(101.0)

    def test_l2_grid_mismatch(self):
        f = wb.Trace(wb.make_grid(0, 1, 5), np.zeros(5))
        h = wb.Trace(wb.make_grid(0, 2, 5), np.zeros(5))
        with pytest.raises(ValueError):
            wb.l2_distance(f, h)


class TestRowKernelOracle:
    """Gather distances equal the per-trace reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=2, max_value=300),
           st.sampled_from(ALL_SCALINGS),
           st.booleans())
    def test_w2_matches_reference(self, seed, n_rows, n, scaling, integer):
        rng = np.random.default_rng(seed)
        grid = wb.make_grid(0.0, 3.0, n)
        f, g = oracle_rows(rng, n_rows, n, integer)
        got = wb.w2_distance(*gather_pair(grid, f, g), scaling)
        ref = [reference_w2(grid, f[r], g[r], scaling) for r in range(n_rows)]
        assert got.tolist() == ref
        assert wb.w2_distance(wb.Trace(grid, f[0]), wb.Trace(grid, g[0]),
                              scaling) == ref[0]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=2, max_value=300))
    def test_l2_matches_reference(self, seed, n_rows, n):
        rng = np.random.default_rng(seed)
        grid = wb.make_grid(0.0, 3.0, n)
        f, g = oracle_rows(rng, n_rows, n, integer=False)
        got = wb.l2_distance(*gather_pair(grid, f, g))
        assert got.tolist() == [reference_l2(f[r], g[r]) for r in range(n_rows)]

    @pytest.mark.parametrize("scaling", ALL_SCALINGS, ids=lambda sc: f"{sc.kind}-{sc.c}")
    def test_more_than_one_block(self, scaling):
        n_rows, n = 130, 300
        assert n_rows > _BLOCK_SAMPLES // (2 * n)  # more rows than one stacked block holds
        rng = np.random.default_rng(17)
        grid = wb.make_grid(0.0, 3.0, n)
        f, g = oracle_rows(rng, n_rows, n, integer=False)
        fa, gb = gather_pair(grid, f, g)
        ref = [reference_w2(grid, f[r], g[r], scaling) for r in range(n_rows)]
        assert wb.w2_distance(fa, gb, scaling).tolist() == ref
        assert wb.l2_distance(fa, gb).tolist() == [
            reference_l2(f[r], g[r]) for r in range(n_rows)]
