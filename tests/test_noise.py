import numpy as np
import pytest

import wassbayes as wb


def flat_gather(value=1.0, n_traces=4, n=500):
    g = wb.make_grid(0, 5, n)
    labels = tuple((0, r, 0) for r in range(n_traces))
    return wb.Gather(g, np.full((n_traces, n), value), labels)


class TestNoiseSpec:
    def test_rejects_two_additive_kinds(self):
        with pytest.raises(ValueError):
            wb.NoiseSpec(uniform_width=0.1, gaussian_sigma=0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            wb.NoiseSpec(gamma_shape=0.0)
        with pytest.raises(ValueError):
            wb.NoiseSpec(uniform_width=-1.0)


class TestPollute:
    def test_identity_passthrough(self):
        ga = flat_gather()
        out = wb.pollute(ga, wb.NoiseSpec(), np.random.default_rng(0))
        np.testing.assert_array_equal(out.values, ga.values)
        assert out.labels == ga.labels

    def test_deterministic_given_seed(self):
        ga = flat_gather()
        spec = wb.NoiseSpec(gamma_shape=60.0, uniform_width=0.25)
        a = wb.pollute(ga, spec, np.random.default_rng(123))
        b = wb.pollute(ga, spec, np.random.default_rng(123))
        np.testing.assert_array_equal(a.values, b.values)

    def test_no_nan_for_sane_params(self):
        ga = flat_gather()
        out = wb.pollute(ga, wb.NoiseSpec(gamma_shape=1000.0, uniform_width=0.05),
                         np.random.default_rng(7))
        assert np.all(np.isfinite(out.values))

    def test_gamma_moments(self):
        # Gamma(k, k) has mean 1 and variance 1/k
        ga = flat_gather(value=2.0, n_traces=40, n=1000)
        k = 60.0
        out = wb.pollute(ga, wb.NoiseSpec(gamma_shape=k), np.random.default_rng(42))
        ratio = out.values / 2.0
        n = ratio.size
        assert ratio.mean() == pytest.approx(1.0, abs=4.0 / np.sqrt(k * n))
        assert ratio.var(ddof=1) == pytest.approx(1.0 / k, rel=0.05)

    def test_uniform_bounds_and_moments(self):
        ga = flat_gather(value=0.0, n_traces=40, n=1000)
        w = 0.25
        out = wb.pollute(ga, wb.NoiseSpec(uniform_width=w), np.random.default_rng(9))
        vals = out.values
        assert vals.min() >= -w and vals.max() <= w
        assert vals.var(ddof=1) == pytest.approx(w * w / 3.0, rel=0.05)

    def test_gaussian_sigma(self):
        ga = flat_gather(value=0.0, n_traces=40, n=1000)
        out = wb.pollute(ga, wb.NoiseSpec(gaussian_sigma=0.1),
                         np.random.default_rng(3))
        assert out.values.std(ddof=1) == pytest.approx(0.1, rel=0.05)


class TestMoments:
    def test_recovers_gamma_and_uniform_structure(self):
        ga = flat_gather(value=3.0, n_traces=100, n=2000)
        spec = wb.NoiseSpec(gamma_shape=60.0, uniform_width=0.25)
        noisy = wb.pollute(ga, spec, np.random.default_rng(2))
        ratio = (noisy.values / ga.values).ravel()
        resid = (noisy.values - ga.values).ravel()
        # ratio = eps1 + eps2/3: mean 1, var 1/60 + (0.25^2/3)/9
        assert ratio.mean() == pytest.approx(1.0, abs=5e-3)
        expected_var = 1.0 / 60.0 + (0.25 ** 2 / 3.0) / 9.0
        assert ratio.var(ddof=1) == pytest.approx(expected_var, rel=0.1)
        # residual = (eps1 - 1) * 3 + eps2: mean 0, var 9/60 + 0.25^2/3
        assert resid.mean() == pytest.approx(0.0, abs=2e-3)
        assert resid.var(ddof=1) == pytest.approx(9.0 / 60.0 + 0.25 ** 2 / 3.0,
                                                  rel=0.05)
