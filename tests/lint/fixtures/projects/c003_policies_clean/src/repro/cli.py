"""C003 policy-clean fixture: choices read from the runtime tuples."""

import argparse

from repro.api import ADMISSION_POLICIES, DVFS_POLICIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dvfs", choices=list(DVFS_POLICIES))
    parser.add_argument("--admission", choices=list(ADMISSION_POLICIES))
    return parser
