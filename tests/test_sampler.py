import numpy as np
import pytest

import wassbayes as wb
from wassbayes.sampler import _evaluate


def constant_forward(grid, n):
    def forward(theta):
        return wb.Gather(grid, np.full((1, n), theta[0]), [(0, 0, 0)])
    return forward


def make_problem(theta_true=4.0, s0=2.0, n=11, s_mode=wb.S_MODE_GIBBS,
                 proposal_var=0.25, bounds=((-10.0, 10.0),), theta0=(3.0,)):
    grid = wb.make_grid(0.0, 1.0, n)
    forward = constant_forward(grid, n)
    obs = forward(np.array([theta_true]))
    model = wb.LikelihoodModel(kind=wb.KIND_GAUSS_L2, n_obs=n)
    return wb.Problem(
        forward=forward,
        observed=obs,
        likelihood=model,
        theta_prior=wb.UniformBoxPrior(bounds=list(bounds)),
        proposal=wb.ProposalSpec(covariance=np.diag([proposal_var])),
        theta0=np.array(theta0),
        s0=s0,
        s_prior=wb.GammaPrior(shape=1.0, rate=0.1),
        s_mode=s_mode,
    )


class TestSchedule:
    def test_retained_counts(self):
        assert wb.ChainSchedule(30000, 10000, 4).retained_count == 5000
        assert wb.ChainSchedule(25000, 5000, 4).retained_count == 5000
        assert wb.ChainSchedule(80000, 65000, 3).retained_count == 5000
        assert wb.ChainSchedule(10, 0, 1).retained_count == 10
        assert wb.ChainSchedule(10, 3, 2).retained_count == 3

    def test_validation(self):
        with pytest.raises(wb.ConfigError):
            wb.ChainSchedule(0, 0, 1)
        with pytest.raises(wb.ConfigError):
            wb.ChainSchedule(10, 10, 1)
        with pytest.raises(wb.ConfigError):
            wb.ChainSchedule(10, -1, 1)
        with pytest.raises(wb.ConfigError):
            wb.ChainSchedule(10, 0, 0)


class TestGibbsUpdate:
    def test_posterior_params_exact(self):
        prior = wb.GammaPrior(shape=1.0, rate=0.1)
        assert wb.gibbs_posterior_params(prior, 101.0, 0.4) == (102.0, 0.5)

    def test_posterior_params_additive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(0.1, 100.0, size=2)
            n, t = rng.uniform(0.0, 1000.0, size=2)
            prior = wb.GammaPrior(shape=a, rate=b)
            assert wb.gibbs_posterior_params(prior, n, t) == (a + n, b + t)

    def test_negative_misfit_rejected(self):
        with pytest.raises(ValueError):
            wb.gibbs_posterior_params(wb.GammaPrior(shape=1.0, rate=1.0), 5.0, -0.1)

    def test_update_concentrates_on_posterior_mean(self):
        prior = wb.GammaPrior(shape=1.0, rate=0.1)
        rng = np.random.default_rng(44)
        draws = np.array([wb.gibbs_update_s(prior, 101.0, 0.4, rng)
                          for _ in range(20000)])
        assert draws.mean() == pytest.approx(102.0 / 0.5, rel=0.01)
        assert draws.var(ddof=1) == pytest.approx(102.0 / 0.25, rel=0.05)


class TestAcceptDecision:
    def test_certain_accept(self):
        rng = np.random.default_rng(0)
        assert all(wb.accept_decision(0.0, rng) for _ in range(100))
        assert all(wb.accept_decision(3.5, rng) for _ in range(100))

    def test_certain_reject(self):
        rng = np.random.default_rng(0)
        assert not any(wb.accept_decision(-np.inf, rng) for _ in range(100))

    def test_nan_rejects(self):
        rng = np.random.default_rng(0)
        assert not wb.accept_decision(float("nan"), rng)

    def test_empirical_rate_matches_alpha(self):
        rng = np.random.default_rng(11)
        n = 100000
        hits = sum(wb.accept_decision(np.log(0.5), rng) for _ in range(n))
        assert hits / n == pytest.approx(0.5, abs=0.01)

    def test_always_consumes_one_uniform(self):
        # the stream position must not depend on the decision outcome
        for log_alpha in (0.0, -np.inf, -0.7, float("nan")):
            rng = np.random.default_rng(99)
            twin = np.random.default_rng(99)
            wb.accept_decision(log_alpha, rng)
            twin.uniform()
            assert rng.uniform() == twin.uniform()


class TestMhStep:
    def test_equal_likelihood_always_accepts(self):
        # a forward model that ignores theta gives log_alpha == 0 for every
        # in-box candidate, so each step must accept
        grid = wb.make_grid(0.0, 1.0, 11)
        fixed = wb.Gather(grid, np.ones((1, 11)), [(0, 0, 0)])
        problem = make_problem()
        problem = wb.Problem(
            forward=lambda theta: fixed, observed=fixed,
            likelihood=problem.likelihood, theta_prior=problem.theta_prior,
            proposal=problem.proposal, theta0=problem.theta0, s0=problem.s0,
            s_prior=problem.s_prior)
        state = _evaluate(problem, problem.theta0, problem.s0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            state, accepted = wb.mh_step(state, problem, problem.proposal, rng)
            assert accepted

    def test_out_of_box_rejected_and_stream_advances(self):
        problem = make_problem(bounds=((2.9, 3.1),), theta0=(3.0,),
                               proposal_var=100.0)
        state = _evaluate(problem, problem.theta0, problem.s0)
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        new_state, accepted = wb.mh_step(state, problem, problem.proposal, rng)
        assert not accepted
        assert new_state is state
        # m normals + 1 uniform were consumed even on the early rejection
        twin.standard_normal(1)
        twin.uniform()
        assert rng.uniform() == twin.uniform()

    def test_forward_failure_rejects_and_stream_advances(self):
        grid = wb.make_grid(0.0, 1.0, 11)
        base = constant_forward(grid, 11)

        def flaky(theta):
            if abs(theta[0] - 3.0) > 1e-12:
                raise RuntimeError("solver blew up")
            return base(theta)

        problem = make_problem()
        problem = wb.Problem(
            forward=flaky, observed=problem.observed,
            likelihood=problem.likelihood, theta_prior=problem.theta_prior,
            proposal=problem.proposal, theta0=problem.theta0, s0=problem.s0,
            s_prior=problem.s_prior)
        state = _evaluate(problem, problem.theta0, problem.s0)
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        _, accepted = wb.mh_step(state, problem, problem.proposal, rng)
        assert not accepted
        twin.standard_normal(1)
        twin.uniform()
        assert rng.uniform() == twin.uniform()

    def test_non_finite_forward_output_rejects(self):
        grid = wb.make_grid(0.0, 1.0, 11)
        base = constant_forward(grid, 11)

        def nan_forward(theta):
            if abs(theta[0] - 3.0) > 1e-12:
                return wb.Gather(grid, np.full((1, 11), np.nan), [(0, 0, 0)])
            return base(theta)

        problem = make_problem()
        problem = wb.Problem(
            forward=nan_forward, observed=problem.observed,
            likelihood=problem.likelihood, theta_prior=problem.theta_prior,
            proposal=problem.proposal, theta0=problem.theta0, s0=problem.s0,
            s_prior=problem.s_prior)
        state = _evaluate(problem, problem.theta0, problem.s0)
        new_state, accepted = wb.mh_step(state, problem, problem.proposal,
                                         np.random.default_rng(5))
        assert not accepted
        assert new_state is state

    def test_state_cache_stays_coherent(self):
        problem = make_problem(theta_true=4.0, proposal_var=1.0)
        state = _evaluate(problem, problem.theta0, problem.s0)
        rng = np.random.default_rng(13)
        model = problem.likelihood
        for _ in range(100):
            state, _ = wb.mh_step(state, problem, problem.proposal, rng)
            fresh = wb.compute_misfits(model, problem.forward(state.theta),
                                       problem.observed)
            assert state.misfit.total == pytest.approx(fresh.total, abs=1e-12)
            expected_ll = wb.log_likelihood_from_misfit(model, fresh.total, state.s)
            assert state.log_lik == pytest.approx(expected_ll, abs=1e-12)


class TestRunChain:
    def test_deterministic(self):
        problem = make_problem()
        schedule = wb.ChainSchedule(300, 100, 2, seed=42)
        a = wb.run_chain(problem, schedule)
        b = wb.run_chain(problem, schedule)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.s_values, b.s_values)
        np.testing.assert_array_equal(a.accepted_flags, b.accepted_flags)

    def test_seed_changes_chain(self):
        problem = make_problem()
        a = wb.run_chain(problem, wb.ChainSchedule(300, 100, 2, seed=42))
        b = wb.run_chain(problem, wb.ChainSchedule(300, 100, 2, seed=43))
        assert not np.array_equal(a.thetas, b.thetas)

    def test_retention_bookkeeping(self):
        problem = make_problem()
        chain = wb.run_chain(problem, wb.ChainSchedule(50, 10, 4, seed=1))
        assert chain.n_retained == 10
        np.testing.assert_array_equal(chain.iterations, np.arange(14, 51, 4))

    def test_fixed_s_mode_keeps_s(self):
        problem = make_problem(s_mode=wb.S_MODE_FIXED, s0=4.0)
        chain = wb.run_chain(problem, wb.ChainSchedule(200, 50, 1, seed=3))
        np.testing.assert_array_equal(chain.s_values, np.full(150, 4.0))

    def test_gibbs_s_varies(self):
        problem = make_problem()
        chain = wb.run_chain(problem, wb.ChainSchedule(200, 50, 1, seed=3))
        assert np.unique(chain.s_values).size > 100

    def test_samples_respect_prior_box(self):
        problem = make_problem(bounds=((2.0, 8.0),), theta0=(3.0,),
                               proposal_var=4.0)
        chain = wb.run_chain(problem, wb.ChainSchedule(500, 0, 1, seed=9))
        assert chain.thetas.min() >= 2.0
        assert chain.thetas.max() <= 8.0

    def test_adapt_after_validation(self):
        problem = make_problem()
        spec = wb.ProposalSpec(covariance=np.diag([0.25]), adapt_after=200)
        bad = wb.Problem(
            forward=problem.forward, observed=problem.observed,
            likelihood=problem.likelihood, theta_prior=problem.theta_prior,
            proposal=spec, theta0=problem.theta0, s0=problem.s0,
            s_prior=problem.s_prior)
        with pytest.raises(wb.ConfigError):
            wb.run_chain(bad, wb.ChainSchedule(300, 100, 1, seed=0))
        spec2 = wb.ProposalSpec(covariance=np.diag([0.25]), adapt_after=2)
        bad2 = wb.Problem(
            forward=problem.forward, observed=problem.observed,
            likelihood=problem.likelihood, theta_prior=problem.theta_prior,
            proposal=spec2, theta0=problem.theta0, s0=problem.s0,
            s_prior=problem.s_prior)
        with pytest.raises(wb.ConfigError):
            wb.run_chain(bad2, wb.ChainSchedule(300, 100, 1, seed=0))

    def test_adaptation_changes_trajectory_after_cutoff(self):
        problem = make_problem(proposal_var=1e-4)
        spec = wb.ProposalSpec(covariance=np.diag([1e-4]), adapt_after=50)
        adapted = wb.Problem(
            forward=problem.forward, observed=problem.observed,
            likelihood=problem.likelihood, theta_prior=problem.theta_prior,
            proposal=spec, theta0=problem.theta0, s0=problem.s0,
            s_prior=problem.s_prior)
        plain = wb.run_chain(problem, wb.ChainSchedule(200, 60, 1, seed=21))
        tuned = wb.run_chain(adapted, wb.ChainSchedule(200, 60, 1, seed=21))
        assert not np.array_equal(plain.thetas, tuned.thetas)

    def test_health_flags(self):
        problem = make_problem()
        good = wb.run_chain(problem, wb.ChainSchedule(200, 50, 1, seed=3))
        assert good.health_ok
        # with every candidate outside the box nothing is ever accepted
        stuck_problem = make_problem(bounds=((2.999, 3.001),), theta0=(3.0,),
                                     proposal_var=100.0)
        stuck = wb.run_chain(stuck_problem, wb.ChainSchedule(100, 10, 1, seed=3))
        assert stuck.acceptance_rate == 0.0
        assert not stuck.health_ok


class TestPosteriorSummary:
    def test_moments(self, tmp_path):
        # summarize_run reports the sample mean and std (ddof=1) of each
        # marginal and writes its histogram
        rng = np.random.default_rng(6)
        values = rng.normal(2.0, 0.5, size=5000)
        chain = wb.Chain(thetas=values[:, None], s_values=np.full(5000, 4.0),
                         iterations=np.arange(1, 5001),
                         accepted_flags=np.ones(5000, dtype=bool),
                         schedule=wb.ChainSchedule(5000, 0, 1))
        wb.write_chain_csv(tmp_path / "chain.csv", chain)
        summ = wb.summarize_run(wb.load_scenario("linear-gaussian"), tmp_path,
                                hist_bins=30)
        assert summ["posterior"]["theta_mean"] == [pytest.approx(values.mean())]
        assert summ["posterior"]["theta_std"] == [pytest.approx(values.std(ddof=1))]
        hist = np.loadtxt(tmp_path / "hist_theta_1.csv", delimiter=",", skiprows=1)
        assert hist.shape == (30, 3)
        assert hist[:, 2].sum() == 5000
