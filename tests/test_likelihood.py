import math

import numpy as np
import pytest

import wassbayes as wb


def flat_gather(values, n=101, labels=None):
    grid = wb.make_grid(0.0, 5.0, n)
    if labels is None:
        labels = [(0, r, 0) for r in range(len(values))]
    return wb.Gather(grid, np.array([np.full(n, v) for v in values]), labels)


class TestLogLikelihoodValues:
    def test_exp_w2_zero_misfit(self):
        # simulated equals observed: log L = N log s exactly
        model = wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=101,
                                   scaling=wb.Scaling(kind="square"))
        g = flat_gather([1.0, 2.0])
        ll, cache = wb.log_likelihood(model, g, g, s=70.0)
        assert cache.total == 0.0
        assert ll == pytest.approx(101 * math.log(70.0), rel=0, abs=1e-12)

    def test_exp_w2_frozen_formula(self):
        model = wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=3,
                                   scaling=wb.Scaling(kind="square"))
        ll = wb.log_likelihood_from_misfit(model, total_misfit=0.5, s=2.0)
        assert ll == pytest.approx(3 * math.log(2.0) - 1.0, abs=1e-14)

    def test_gauss_l2_zero_misfit(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=2)
        ll = wb.log_likelihood_from_misfit(model, total_misfit=0.0, s=1.0)
        assert ll == pytest.approx(-math.log(2.0 * math.pi), abs=1e-14)

    def test_gauss_l2_matches_gaussian_density(self):
        # one trace, n samples: log L must equal the sum of normal log pdfs
        from scipy import stats
        rng = np.random.default_rng(5)
        n = 17
        grid = wb.make_grid(0.0, 1.0, n)
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        sim = wb.Gather(grid, f[None], [(0, 0, 0)])
        obs = wb.Gather(grid, g[None], [(0, 0, 0)])
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=n)
        s = 2.5
        ll, _ = wb.log_likelihood(model, sim, obs, s=s)
        expected = stats.norm.logpdf(g, loc=f, scale=1.0 / math.sqrt(s)).sum()
        assert ll == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_precision_rejected(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=4)
        with pytest.raises(ValueError):
            wb.log_likelihood_from_misfit(model, 1.0, s=0.0)

    def test_exp_w2_requires_scaling(self):
        with pytest.raises(ValueError):
            wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=10)


class TestMisfits:
    def test_multi_trace_total_is_sum(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=101)
        sim = flat_gather([0.0, 0.0, 0.0])
        obs = flat_gather([1.0, 2.0, 3.0])
        cache = wb.compute_misfits(model, sim, obs)
        np.testing.assert_allclose(cache.per_trace, [101.0, 404.0, 909.0])
        assert cache.total == pytest.approx(1414.0)

    def test_label_mismatch_rejected(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=101)
        sim = flat_gather([1.0], labels=[(0, 0, 0)])
        obs = flat_gather([1.0], labels=[(0, 1, 0)])
        with pytest.raises(ValueError):
            wb.compute_misfits(model, sim, obs)

    def test_wrong_sample_count_rejected(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=50)
        g = flat_gather([1.0])
        with pytest.raises(ValueError):
            wb.compute_misfits(model, g, g)

    def test_misfit_order_follows_sim_labels(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=101)
        sim = flat_gather([0.0, 0.0], labels=[(0, 5, 0), (0, 1, 0)])
        obs_traces = {(0, 5, 0): 1.0, (0, 1, 0): 2.0}
        obs = flat_gather([obs_traces[(0, 5, 0)], obs_traces[(0, 1, 0)]],
                          labels=[(0, 5, 0), (0, 1, 0)])
        cache = wb.compute_misfits(model, sim, obs)
        np.testing.assert_allclose(cache.per_trace, [101.0, 404.0])

    def test_observed_rows_reordered_to_sim_labels(self):
        grid = wb.make_grid(0.0, 5.0, 41)
        rng = np.random.default_rng(8)
        labels = [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
        sim = wb.Gather(grid, rng.normal(size=(3, 41)), labels)
        obs = wb.Gather(grid, rng.normal(size=(3, 41)), labels)
        shuffled = obs.select([labels[2], labels[0], labels[1]])
        for model in (wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=41),
                      wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=41,
                                         scaling=wb.Scaling(kind="linear"))):
            matched = wb.compute_misfits(model, sim, obs)
            reordered = wb.compute_misfits(model, sim, shuffled)
            np.testing.assert_array_equal(reordered.per_trace, matched.per_trace)
            assert reordered.total == matched.total


class TestConjugateIncrements:
    def test_exp_w2_increments(self):
        model = wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=101,
                                   scaling=wb.Scaling(kind="square"))
        assert wb.conjugate_gamma_increments(model, 0.4) == (101.0, 0.4)

    def test_gauss_l2_increments(self):
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=100)
        assert wb.conjugate_gamma_increments(model, 0.8) == (50.0, 0.4)

    def test_increments_consistent_with_density(self):
        # The conjugate increments must reproduce the s-dependence of the
        # log likelihood: log L(s) - log L(s') = da*(log s - log s')
        #                                        - db*(s - s')
        for kind, scaling in [(wb.KIND_EXP_W2, wb.Scaling(kind="square")),
                              (wb.KIND_GAUSS_L2, None)]:
            model = wb.LikelihoodModel(kind=kind, n_obs=37, scaling=scaling)
            total = 1.7
            da, db = wb.conjugate_gamma_increments(model, total)
            s1, s2 = 3.0, 11.0
            lhs = (wb.log_likelihood_from_misfit(model, total, s1)
                   - wb.log_likelihood_from_misfit(model, total, s2))
            rhs = da * (math.log(s1) - math.log(s2)) - db * (s1 - s2)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLandscape:
    def test_quadratic_landscape_peaks_at_truth(self):
        grid = wb.make_grid(0.0, 1.0, 11)

        def forward(theta):
            return wb.Gather(grid, np.full((1, 11), theta[0]), [(0, 0, 0)])

        obs = forward(np.array([4.0]))
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=11)
        scan = np.linspace(2.0, 6.0, 21)
        vals = wb.landscape_scan_1d([model], forward, obs, 0, scan,
                                    np.array([0.0]), s_ref=1.0)[:, 0]
        assert np.isfinite(vals).all()
        assert scan[np.argmax(vals)] == pytest.approx(4.0)

    def test_forward_failure_yields_nan(self):
        grid = wb.make_grid(0.0, 1.0, 11)

        def forward(theta):
            if theta[0] > 3.0:
                raise wb.ComputeError("unstable")
            return wb.Gather(grid, np.full((1, 11), theta[0]), [(0, 0, 0)])

        obs = forward(np.array([2.0]))
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=11)
        w2 = wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=11,
                                scaling=wb.Scaling("linear", 1.0))
        vals = wb.landscape_scan_1d([model, w2], forward, obs, 0, [2.0, 5.0],
                                    np.array([0.0]), s_ref=1.0)
        assert vals.shape == (2, 2)
        assert np.isfinite(vals[0]).all()
        assert np.isnan(vals[1]).all()

    def test_programming_errors_propagate(self):
        grid = wb.make_grid(0.0, 1.0, 11)

        def forward(theta):
            if theta[0] > 3.0:
                raise TypeError("forward called with the wrong argument")
            return wb.Gather(grid, np.full((1, 11), theta[0]), [(0, 0, 0)])

        obs = forward(np.array([2.0]))
        model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=11)
        with pytest.raises(TypeError, match="wrong argument"):
            wb.landscape_scan_1d([model], forward, obs, 0, [2.0, 5.0],
                                 np.array([0.0]), s_ref=1.0)
        # observed traces under other labels: a caller's bug, not a NaN point
        other = wb.Gather(grid, obs.values, [(0, 1, 0)])
        with pytest.raises(ValueError, match="labels"):
            wb.landscape_scan_1d([model], forward, other, 0, [2.0],
                                 np.array([0.0]), s_ref=1.0)

    def test_likelihood_failure_yields_nan_for_that_model_only(self):
        grid = wb.make_grid(0.0, 1.0, 11)

        def forward(theta):
            return wb.Gather(grid, np.full((1, 11), theta[0]), [(0, 0, 0)])

        obs = forward(np.array([2.0]))
        l2 = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=11)
        # a linear shift of 1 leaves -3 negative: the W2 scaling fails
        w2 = wb.LikelihoodModel(kind=wb.KIND_EXP_W2, n_obs=11,
                                scaling=wb.Scaling("linear", 1.0))
        vals = wb.landscape_scan_1d([w2, l2], forward, obs, 0, [-3.0],
                                    np.array([0.0]), s_ref=1.0)
        assert np.isnan(vals[0, 0])
        assert np.isfinite(vals[0, 1])
