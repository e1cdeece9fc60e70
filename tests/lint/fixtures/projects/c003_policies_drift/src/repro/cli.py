"""C003 policy-drift fixture: CLI choices drift both ways."""

import argparse

from repro.api import ADMISSION_POLICIES, DVFS_POLICIES

WRONG_NAME = ADMISSION_POLICIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dvfs", choices=["static", "turbo"])
    parser.add_argument("--admission", choices=list(WRONG_NAME))
    parser.add_argument("--verbose", choices=list(DVFS_POLICIES))
    return parser
