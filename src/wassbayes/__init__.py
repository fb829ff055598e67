"""Bayesian waveform inversion driven by the quadratic Wasserstein distance."""

__version__ = "0.1.0"

from .errors import ComputeError, ConfigError, HealthCheckError
from .signals import (Gather, TimeGrid, Trace, make_grid, read_gather_csv,
                      write_gather_csv)
from .transport import Scaling, l2_distance, w2_distance
from .noise import NoiseSpec, pollute
from .priors import (GammaPrior, ProposalSpec, UniformBoxPrior,
                     adapt_covariance, propose, sample_gamma)
from .likelihood import (KIND_EXP_W2, KIND_GAUSS_L2, LikelihoodModel,
                         MisfitCache, compute_misfits,
                         conjugate_gamma_increments, landscape_scan_1d,
                         log_likelihood, log_likelihood_from_misfit)
from .sampler import (Chain, ChainSchedule, ChainState, Problem, S_MODE_FIXED,
                      S_MODE_GIBBS, accept_decision, gibbs_posterior_params,
                      gibbs_update_s, mh_step, run_chain)
from .forward import (AcousticModel, DalembertModel, SolveResult,
                      acoustic_simulate, dalembert_simulate, face_coefficients,
                      inset_positions, leapfrog_solve, pulse_profile,
                      ricker_wavelet, surface_lateral_receiver_layout)
from .scenarios import (ForwardBundle, Scenario, apply_overrides,
                        build_forward, build_problem, builtin_config,
                        builtin_names, chain_seed_sequence, config_fingerprint,
                        data_noise_rng, load_scenario, read_chain_csv,
                        run_inversion, run_landscape, run_scaling_study,
                        run_simulate, scenario_from_config, study_signal,
                        summarize_blocks, summarize_run,
                        synthesize_observations, write_chain_csv)

__all__ = [
    "ComputeError", "ConfigError", "HealthCheckError",
    "Gather", "TimeGrid", "Trace", "make_grid", "read_gather_csv",
    "write_gather_csv",
    "Scaling", "l2_distance", "w2_distance",
    "NoiseSpec", "pollute",
    "GammaPrior", "ProposalSpec", "UniformBoxPrior", "adapt_covariance",
    "propose", "sample_gamma",
    "KIND_EXP_W2", "KIND_GAUSS_L2", "LikelihoodModel", "MisfitCache",
    "compute_misfits", "conjugate_gamma_increments", "landscape_scan_1d",
    "log_likelihood", "log_likelihood_from_misfit",
    "Chain", "ChainSchedule", "ChainState", "Problem", "S_MODE_FIXED",
    "S_MODE_GIBBS", "accept_decision", "gibbs_posterior_params",
    "gibbs_update_s", "mh_step", "run_chain",
    "AcousticModel", "DalembertModel", "SolveResult", "acoustic_simulate",
    "dalembert_simulate", "face_coefficients", "inset_positions",
    "leapfrog_solve", "pulse_profile", "ricker_wavelet",
    "surface_lateral_receiver_layout",
    "ForwardBundle", "Scenario", "apply_overrides", "build_forward",
    "build_problem", "builtin_config", "builtin_names",
    "chain_seed_sequence", "config_fingerprint", "data_noise_rng",
    "load_scenario", "read_chain_csv", "run_inversion", "run_landscape",
    "run_scaling_study", "run_simulate", "scenario_from_config",
    "study_signal", "summarize_blocks", "summarize_run",
    "synthesize_observations", "write_chain_csv",
]
