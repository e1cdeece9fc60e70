"""Shared fixtures for the XRBench reproduction test suite."""

from __future__ import annotations

import pytest

from repro.hardware import build_accelerator


@pytest.fixture(scope="session")
def fda_ws_4k():
    return build_accelerator("A", 4096)


@pytest.fixture(scope="session")
def hda_j_4k():
    return build_accelerator("J", 4096)


@pytest.fixture(scope="session")
def quad_h_4k():
    return build_accelerator("H", 4096)
