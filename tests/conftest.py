"""Shared test configuration.

Property tests run under one fixed ``hypothesis`` profile: examples are
derived from the test itself rather than a random seed, their number is
capped, and no per-example deadline applies, so every run draws the same
bounded set of inputs.
"""
from hypothesis import settings

settings.register_profile("projsum", derandomize=True, max_examples=20, deadline=None)
settings.load_profile("projsum")
