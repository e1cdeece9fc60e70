"""The external-tool gate: mypy ratchet semantics, and real mypy/ruff
runs when those tools are present (CI installs them; the dev container
does not, so those cases skip)."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys

import pytest

RATCHET = "tools/mypy_ratchet.py"


def _ratchet(repo_root, stdin: str, *args: str, pin: str | None = None, tmp_path=None):
    """Run the ratchet script with a throw-away pin file."""
    import shutil as _shutil

    workdir = tmp_path / "tools"
    workdir.mkdir(parents=True)
    script = workdir / "mypy_ratchet.py"
    _shutil.copy(repo_root / RATCHET, script)
    if pin is not None:
        (workdir / "mypy_ratchet.txt").write_text(pin)
    return subprocess.run(
        [sys.executable, str(script), *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


MYPY_OK = "Success: no issues found in 80 source files\n"
MYPY_TWO_ERRORS = (
    "src/repro/eval/tables.py:10: error: thing  [misc]\n"
    "src/repro/eval/tables.py:20: error: other thing  [misc]\n"
    "Found 2 errors in 1 file (checked 80 source files)\n"
)
MYPY_STRICT_ERROR = (
    "src/repro/api/spec.py:12: error: strict-tier breakage  [misc]\n"
    "Found 1 error in 1 file (checked 80 source files)\n"
)


def test_ratchet_passes_at_or_below_ceiling(repo_root, tmp_path):
    proc = _ratchet(repo_root, MYPY_TWO_ERRORS, pin="2\n", tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stdout
    proc = _ratchet(repo_root, MYPY_OK, pin="2\n", tmp_path=tmp_path / "b")
    assert proc.returncode == 0
    assert "ratchet the pin down" in proc.stdout


def test_ratchet_fails_above_ceiling(repo_root, tmp_path):
    proc = _ratchet(repo_root, MYPY_TWO_ERRORS, pin="1\n", tmp_path=tmp_path)
    assert proc.returncode == 1
    assert "exceeds the pinned ceiling" in proc.stdout


def test_ratchet_strict_tier_errors_always_fail(repo_root, tmp_path):
    # Even in bootstrap mode, strict-tier modules get zero grace.
    proc = _ratchet(repo_root, MYPY_STRICT_ERROR, pin="bootstrap\n", tmp_path=tmp_path)
    assert proc.returncode == 1
    assert "strict-tier" in proc.stdout


def test_ratchet_bootstrap_mode_reports_and_passes(repo_root, tmp_path):
    proc = _ratchet(repo_root, MYPY_TWO_ERRORS, pin="bootstrap\n", tmp_path=tmp_path)
    assert proc.returncode == 0
    assert "observed 2 error(s)" in proc.stdout


def test_ratchet_update_rewrites_pin(repo_root, tmp_path):
    proc = _ratchet(repo_root, MYPY_TWO_ERRORS, "--update", pin="9\n", tmp_path=tmp_path)
    assert proc.returncode == 0
    assert (tmp_path / "tools" / "mypy_ratchet.txt").read_text() == "2\n"


# ---------------------------------------------------------------------------
# Real tool runs (CI only — skipped where the tools are absent)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean(repo_root):
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "examples", "tools"],
        capture_output=True,
        text=True,
        cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_mypy_strict_tier_clean(repo_root):
    mypy_proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        capture_output=True,
        text=True,
        cwd=repo_root,
    )
    gate = subprocess.run(
        [sys.executable, RATCHET],
        input=mypy_proc.stdout,
        capture_output=True,
        text=True,
        cwd=repo_root,
    )
    assert gate.returncode == 0, gate.stdout + mypy_proc.stdout
