"""Shared test configuration.

Hypothesis is pinned to a deterministic profile so failures reproduce
across runs, and deadlines are disabled because some properties build
moderately large structure tensors.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tensor_builds(monkeypatch):
    """The dimensions of the structure tensors that algebra._semigroup
    builds from tables during the test, in order."""
    from diffalg import algebra

    built = []
    semigroup = algebra._semigroup

    def counted(table):
        built.append(len(table))
        return semigroup(table)

    monkeypatch.setattr(algebra, "_semigroup", counted)
    return built
