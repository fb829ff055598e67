"""Metropolis-Hastings within Gibbs for (theta, s).

Each iteration first redraws the precision s from its conjugate Gamma
posterior given the cached misfit, then performs one symmetric Gaussian
random-walk step on theta at the new s.

Reproducibility contract: a single Generator drives the whole chain and
every iteration consumes exactly the same draws in the same order --
one Gamma draw for s (skipped entirely in fixed-s mode), m standard
normals for the proposal, then one uniform for the accept decision.  The
uniform is consumed even when the candidate is rejected outright (prior
zero or forward-model failure), so the stream never depends on data
values.  Identical (problem, schedule, seed) triples therefore yield
bit-identical chains.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ComputeError, ConfigError
from .likelihood import (LikelihoodModel, MisfitCache, compute_misfits,
                         conjugate_gamma_increments, log_likelihood_from_misfit)
from .priors import (GammaPrior, ProposalSpec, UniformBoxPrior,
                     adapt_covariance, propose, sample_gamma)
from .signals import Gather

logger = logging.getLogger(__name__)

S_MODE_GIBBS = "gibbs"
S_MODE_FIXED = "fixed"


@dataclass(frozen=True)
class ChainSchedule:
    """Iteration budget: total_iters steps, drop burn_in, keep every thinning-th."""

    total_iters: int
    burn_in: int
    thinning: int
    seed: object = 0  # int or numpy SeedSequence

    def __post_init__(self):
        if self.total_iters < 1:
            raise ConfigError(f"total_iters must be positive, got {self.total_iters}")
        if not 0 <= self.burn_in < self.total_iters:
            raise ConfigError(f"burn_in must lie in [0, total_iters), got {self.burn_in}")
        if self.thinning < 1:
            raise ConfigError(f"thinning must be >= 1, got {self.thinning}")

    @property
    def retained_count(self) -> int:
        return (self.total_iters - self.burn_in) // self.thinning


@dataclass(frozen=True, eq=False)
class Problem:
    """Everything run_chain needs: data, model, priors, proposal, start point."""

    forward: Callable[[np.ndarray], Gather]
    observed: Gather
    likelihood: LikelihoodModel
    theta_prior: UniformBoxPrior
    proposal: ProposalSpec
    theta0: np.ndarray
    s0: float
    s_prior: GammaPrior | None = None
    s_mode: str = S_MODE_GIBBS

    def __post_init__(self):
        theta0 = np.array(self.theta0, dtype=np.float64)
        theta0.setflags(write=False)
        object.__setattr__(self, "theta0", theta0)
        if self.s_mode not in (S_MODE_GIBBS, S_MODE_FIXED):
            raise ConfigError(f"unknown s_mode {self.s_mode!r}")
        if self.s_mode == S_MODE_GIBBS and self.s_prior is None:
            raise ConfigError("gibbs precision updates need an s_prior")
        if not self.s0 > 0:
            raise ConfigError(f"initial precision must be positive, got {self.s0}")
        if not self.theta_prior.contains(theta0):
            raise ConfigError(f"theta0 {theta0.tolist()} lies outside the prior box")
        if self.proposal.dim != self.theta_prior.dim:
            raise ConfigError("proposal and prior dimensions differ")


@dataclass
class ChainState:
    theta: np.ndarray
    s: float
    misfit: MisfitCache
    log_lik: float
    log_prior: float


@dataclass(frozen=True, eq=False)
class Chain:
    """Retained samples plus per-iteration acceptance flags."""

    thetas: np.ndarray          # (M, m)
    s_values: np.ndarray        # (M,)
    iterations: np.ndarray      # (M,) 1-based iteration index of each sample
    accepted_flags: np.ndarray  # (total_iters,) bool
    schedule: ChainSchedule
    fingerprint: str = ""

    @property
    def n_retained(self) -> int:
        return self.thetas.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted_flags.mean())

    @property
    def health_ok(self) -> bool:
        """A chain that never moves, or never stays, is broken."""
        rate = self.acceptance_rate
        return 0.0 < rate < 1.0 and bool(np.all(np.isfinite(self.thetas)))


def gibbs_posterior_params(prior: GammaPrior, n_obs: float,
                           total_misfit: float) -> tuple[float, float]:
    """Conjugate Gamma posterior parameters (a + n_obs, b + total_misfit)."""
    if total_misfit < 0:
        raise ValueError(f"misfit must be nonnegative, got {total_misfit}")
    return prior.shape + n_obs, prior.rate + total_misfit


def gibbs_update_s(prior: GammaPrior, n_obs: float, total_misfit: float,
                   rng: np.random.Generator) -> float:
    a_star, b_star = gibbs_posterior_params(prior, n_obs, total_misfit)
    return sample_gamma(a_star, b_star, rng)


def accept_decision(log_alpha: float, rng: np.random.Generator) -> bool:
    """Accept iff log Unif(0,1) <= log_alpha; always consumes one uniform."""
    u = rng.uniform()
    if not log_alpha > -np.inf:
        return False
    if log_alpha >= 0:
        return True
    return math.log(u) <= log_alpha if u > 0 else True


def _evaluate(problem: Problem, theta: np.ndarray, s: float,
              log_prior: float) -> ChainState:
    sim = problem.forward(theta)
    cache = compute_misfits(problem.likelihood, sim, problem.observed)
    ll = log_likelihood_from_misfit(problem.likelihood, cache.total, s)
    return ChainState(theta=theta, s=s, misfit=cache, log_lik=ll, log_prior=log_prior)


def mh_step(state: ChainState, problem: Problem, proposal: ProposalSpec,
            rng: np.random.Generator) -> tuple[ChainState, bool]:
    """One random-walk step on theta at fixed s.

    Candidates outside the prior box are rejected without running the
    forward model; a ComputeError at the candidate (an unstable solve, a
    non-finite forward output, a failed scaling) also counts as a rejection,
    with a warning, rather than killing the chain.  Any other exception is
    a programming error and propagates.
    """
    cand_theta = propose(state.theta, proposal, rng)
    cand_log_prior = problem.theta_prior.log_density(cand_theta)
    if cand_log_prior == -np.inf:
        accept_decision(-np.inf, rng)
        return state, False
    try:
        cand = _evaluate(problem, cand_theta, state.s, cand_log_prior)
    except ComputeError as exc:
        logger.warning("forward model failed at candidate %s: %s",
                       np.array2string(cand_theta, precision=6), exc)
        accept_decision(-np.inf, rng)
        return state, False
    log_alpha = (cand.log_lik + cand.log_prior) - (state.log_lik + state.log_prior)
    if accept_decision(log_alpha, rng):
        return cand, True
    return state, False


def check_adaptation(adapt_after: int, burn_in: int, m: int) -> None:
    """Reject an adaptation point other than 0 (off) or one in [m + 2, burn_in]."""
    if adapt_after > 0:
        if adapt_after > burn_in:
            raise ConfigError(
                f"adapt_after={adapt_after} exceeds burn_in={burn_in}; "
                "adapting after burn-in has no agreed meaning"
            )
        if adapt_after < m + 2:
            raise ConfigError(
                f"adapt_after={adapt_after} is too small to estimate an "
                f"{m}-parameter covariance (need >= {m + 2})"
            )


def run_chain(problem: Problem, schedule: ChainSchedule) -> Chain:
    rng = np.random.default_rng(schedule.seed)
    proposal = problem.proposal
    m = problem.theta_prior.dim

    adapt_after = proposal.adapt_after
    check_adaptation(adapt_after, schedule.burn_in, m)

    state = _evaluate(problem, problem.theta0, problem.s0,
                      problem.theta_prior.log_density(problem.theta0))
    n_retained = schedule.retained_count
    thetas = np.empty((n_retained, m))
    s_values = np.empty(n_retained)
    iterations = np.empty(n_retained, dtype=np.int64)
    accepted_flags = np.zeros(schedule.total_iters, dtype=bool)
    adapt_history = np.empty((adapt_after, m)) if adapt_after > 0 else None

    keep = 0
    for i in range(1, schedule.total_iters + 1):
        if problem.s_mode == S_MODE_GIBBS:
            da, db = conjugate_gamma_increments(problem.likelihood, state.misfit.total)
            s_new = gibbs_update_s(problem.s_prior, da, db, rng)
            state.s = s_new
            state.log_lik = log_likelihood_from_misfit(
                problem.likelihood, state.misfit.total, s_new)

        state, accepted = mh_step(state, problem, proposal, rng)
        accepted_flags[i - 1] = accepted

        if adapt_history is not None and i <= adapt_after:
            adapt_history[i - 1] = state.theta
            if i == adapt_after:
                cov = adapt_covariance(adapt_history, proposal.effective_scale())
                try:
                    proposal = ProposalSpec(covariance=cov, adapt_after=0,
                                            adapt_scale=proposal.adapt_scale)
                except ValueError as exc:
                    logger.warning("covariance adaptation failed (%s); keeping "
                                   "the initial proposal", exc)

        if i > schedule.burn_in and (i - schedule.burn_in) % schedule.thinning == 0:
            thetas[keep] = state.theta
            s_values[keep] = state.s
            iterations[keep] = i
            keep += 1

    assert keep == n_retained
    return Chain(thetas=thetas, s_values=s_values, iterations=iterations,
                 accepted_flags=accepted_flags, schedule=schedule)

