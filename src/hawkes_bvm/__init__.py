"""Bayesian semiparametric inference for multivariate Hawkes processes:
simulation, LAN statistics, Palm-calculus efficiency machinery,
random-series priors, reversible-jump MCMC and a BvM verification
harness."""

from .grids import Direction
from .model import ModelParams, spectral_radius, stationary_rates
from .stream import EventStream
from .simulate import simulate_cluster, simulate_thinning
from .pathstats import (RenewalDecomposition, renewal_decomposition,
                        stochastic_distance_dT)
from .likelihood import (LanEstimator, LikelihoodCache, grad_loglik_nu,
                         log_likelihood, w_statistic)
from .volterra import (MomentDensity, empirical_pair_density,
                       solve_moment_density)
from .palm import (PalmEstimates, bias_term, efficient_estimate,
                   estimate_palm, info_operator_apply, info_operator_invert,
                   optimal_variance)
from .functionals import (FunctionalSpec, eval_functional,
                          parse_functional, riesz_representor)
from .priors import (BasisFamily, PriorSpec, haar_basis, histogram_basis,
                     log_prior, rate_schedule, sample_prior)
from .mcmc import (ChainState, PosteriorDraws, ess, mcmc_step,
                   posterior_functional, run_chain)
from .harness import (ExperimentConfig, bvm_distance, emit_outputs,
                      load_config, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily", "ChainState", "Direction", "EventStream",
    "ExperimentConfig", "FunctionalSpec", "LanEstimator",
    "LikelihoodCache", "ModelParams", "MomentDensity", "PalmEstimates",
    "PosteriorDraws", "PriorSpec", "RenewalDecomposition", "bias_term",
    "bvm_distance", "efficient_estimate", "emit_outputs",
    "empirical_pair_density", "ess", "estimate_palm",
    "eval_functional", "grad_loglik_nu", "haar_basis", "histogram_basis",
    "info_operator_apply", "info_operator_invert", "load_config",
    "log_likelihood", "log_prior", "mcmc_step", "optimal_variance",
    "parse_functional", "posterior_functional", "rate_schedule",
    "renewal_decomposition", "riesz_representor", "run_chain",
    "run_experiment", "sample_prior", "simulate_cluster",
    "simulate_thinning", "solve_moment_density", "spectral_radius",
    "stationary_rates", "stochastic_distance_dT", "w_statistic",
]
