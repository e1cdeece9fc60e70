"""Shared fixtures for the XRBench reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core import Harness, HarnessConfig
from repro.hardware import build_accelerator


@pytest.fixture(scope="session")
def shared_harness() -> Harness:
    """A default harness."""
    return Harness()


@pytest.fixture(scope="session")
def short_harness() -> Harness:
    """A harness with a short duration for fast runtime tests."""
    return Harness(config=HarnessConfig(duration_s=0.5))


@pytest.fixture(scope="session")
def fda_ws_4k():
    return build_accelerator("A", 4096)


@pytest.fixture(scope="session")
def hda_j_4k():
    return build_accelerator("J", 4096)


@pytest.fixture(scope="session")
def quad_h_4k():
    return build_accelerator("H", 4096)
