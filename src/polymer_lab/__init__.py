"""Exact and Monte Carlo tools for a directed polymer in a signed random
environment on Z^1 and Z^2 under weak-disorder scaling."""

from . import engine, environment, fluctuation, harness, moments, stats, walk
