"""Exact and Monte Carlo tools for a directed polymer in a signed random
environment on Z^1 and Z^2 under weak-disorder scaling."""

from . import engine, environment, fluctuation, harness, moments, stats, walk
from .engine import PolymerObservables, evolve_density, evolve_replicas, observables
from .environment import EnvironmentField, EnvironmentTable, derive_replica_seed
from .fluctuation import ScalingRule, limit_variance, scaling
from .harness import ExperimentConfig, run_replicas
from .moments import ExactMoments, centered_moments

__all__ = [
    "EnvironmentField",
    "EnvironmentTable",
    "ExactMoments",
    "ExperimentConfig",
    "PolymerObservables",
    "ScalingRule",
    "centered_moments",
    "derive_replica_seed",
    "engine",
    "environment",
    "evolve_density",
    "evolve_replicas",
    "fluctuation",
    "harness",
    "limit_variance",
    "moments",
    "observables",
    "run_replicas",
    "scaling",
    "stats",
    "walk",
]
