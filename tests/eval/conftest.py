"""Full-size eval-driver runs, built once per test session.

The figure tests and the output digests in ``test_output_digests.py``
read the same runs, so the 182-run Figure 5 grid and the observation
sweep are simulated once however many tests inspect them.
"""

from __future__ import annotations

import pytest

from repro.eval import run_figure5, run_figure6, verify_observations
from repro.eval.figure3 import run_figure3


@pytest.fixture(scope="session")
def figure3():
    return run_figure3()


@pytest.fixture(scope="session")
def figure5_grid():
    return run_figure5()


@pytest.fixture(scope="session")
def figure6_results():
    return run_figure6()


@pytest.fixture(scope="session")
def observations():
    return verify_observations()
