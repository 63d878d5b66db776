"""Exact and Monte Carlo tools for a directed polymer in a signed random
environment on Z^1 and Z^2 under weak-disorder scaling."""

from . import engine, environment, fluctuation, harness, moments, stats, walk
from .engine import (
    PolymerObservables,
    brute_force_observables,
    evolve_density,
    evolve_replicas,
    observables,
)
from .environment import EnvironmentField, EnvironmentTable, derive_replica_seed
from .fluctuation import ScalingRule, limit_variance, scaling
from .harness import ExperimentConfig, run_replicas
from .moments import (
    centered_moments,
    ek2_pairwalk,
    ez2_pairwalk,
    ez2_renewal,
    weighted_fourth_sum,
)
from .walk import TransitionKernel, build_kernel, return_probability

__all__ = [
    "EnvironmentField",
    "EnvironmentTable",
    "ExperimentConfig",
    "PolymerObservables",
    "ScalingRule",
    "TransitionKernel",
    "brute_force_observables",
    "build_kernel",
    "centered_moments",
    "derive_replica_seed",
    "engine",
    "environment",
    "evolve_density",
    "evolve_replicas",
    "ez2_pairwalk",
    "ez2_renewal",
    "ek2_pairwalk",
    "fluctuation",
    "harness",
    "limit_variance",
    "moments",
    "observables",
    "return_probability",
    "run_replicas",
    "scaling",
    "stats",
    "walk",
]
