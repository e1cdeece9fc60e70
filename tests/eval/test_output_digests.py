"""sha256 pins of what the eval commands print.

Each digest is of a command's whole stdout (the trailing newline
included; Figure 3 has no command, so its pin is of
``format_figure3(*run_figure3())``).  Any change to the drivers, the
runner or the scoring that moves one printed digit fails here by name.
Pinned on CPython 3.11.7 with numpy 2.4.6; CI runs this file in its
golden steps, under two fixed hash seeds as well.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.eval import format_figure5, format_figure6, format_observations
from repro.eval.figure3 import format_figure3

FIGURE3 = "17fbf6f120baff0d4177622347208ef266c809555b5766db106e74c194bc70b5"
FIGURE5 = "790f1fb64e92693b7427585996c97f625f1c478d9665437132aaf11f5b37a0e8"
FIGURE6 = "71bbe4a76faf1180f77e704e8de185fe89ef240d93c0aec9300a08c40b438a5e"
OBSERVATIONS = (
    "81ebf909dc396626329d87a53cb15d395791c845f7e6309f4353248bd8213499"
)

#: argv -> sha256 of its stdout, for commands no shared fixture covers.
COMMANDS = {
    ("figure7", "--trials", "3"): (
        "1b1ab6dc8c5382e3011285573d76ab09364d24b23bd332687af081bf943975f7"
    ),
    ("pareto",): (
        "89efa62e15e5b284d3c654efc1899088b04c5be7a8d1e46911cd9a9e46e45762"
    ),
    ("ablations", "--which", "scheduler"): (
        "a2afcf4acdc6f21854d61b9bf11c63a7f6bda0179c1c4164df32d24766c46cff"
    ),
    ("ablations", "--which", "jitter"): (
        "763d0b29d7b26aa3476455eb43786e4bfd630d254e6680272600b4a6e06b035c"
    ),
    ("ablations", "--which", "k"): (
        "2d59f100f58e1acdd0b67ece66297584b4988df14b8f1f5102a44ba0a5d5767a"
    ),
    ("ablations", "--which", "enmax"): (
        "b41e14f0fcfd52b95acd131d7d29101bc223d1fe92b78f69c3b18cc212df7754"
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _printed(text: str) -> str:
    """The digest of ``print(text)``'s output."""
    return _sha256(text + "\n")


class TestEvalOutputDigests:
    def test_figure3(self, figure3):
        assert _sha256(format_figure3(*figure3)) == FIGURE3

    def test_figure5(self, figure5_grid):
        assert _printed(format_figure5(figure5_grid)) == FIGURE5

    def test_figure6(self, figure6_results):
        assert _printed(format_figure6(figure6_results)) == FIGURE6

    def test_observations(self, observations):
        assert _printed(format_observations(observations)) == OBSERVATIONS

    @pytest.mark.parametrize("argv", list(COMMANDS), ids=" ".join)
    def test_command(self, argv, capsys):
        assert main(list(argv)) == 0
        assert _sha256(capsys.readouterr().out) == COMMANDS[argv]
