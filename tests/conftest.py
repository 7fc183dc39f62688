"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.service import soa


@pytest.fixture
def rng():
    """A deterministic RNG for statistical tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def exp_delay():
    """The paper's Section 7 delay distribution: exponential, mean 0.02."""
    return ExponentialDelay(0.02)


@pytest.fixture
def const_delay():
    """A deterministic delay for exact-trace tests."""
    return ConstantDelay(0.1)


@pytest.fixture
def monitor_path(monkeypatch):
    """Context manager choosing the monitor hosts of the services.

    ``monitor_path("soa")`` is the shipped selection: NFD-S/U/E senders
    live on the SoA engine.  ``monitor_path("object")`` makes the
    selection predicate refuse every detector, so both services build
    the object reference hosts (``DetectorHost``/``LiveDetectorHost``)
    that the identity suites compare the shipped path against.
    """

    @contextlib.contextmanager
    def use(kind):
        if kind not in ("object", "soa"):
            raise ValueError(f"unknown monitor path {kind!r}")
        with monkeypatch.context() as patch:
            if kind == "object":
                patch.setattr(soa, "supports_detector", lambda d: False)
            yield kind

    return use


@pytest.fixture(params=["object", "soa"])
def each_path(request, monitor_path):
    """Run the test once on the reference hosts and once shipped."""
    with monitor_path(request.param):
        yield request.param


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: statistically heavy test (seconds, not ms)"
    )
    config.addinivalue_line(
        "markers",
        "live: wall-clock live-runtime test (runs a real event loop for "
        "seconds to minutes; excluded from the default run via addopts)",
    )
