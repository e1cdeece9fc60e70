"""Every Markdown file the code, tests and examples name must exist.

A docstring or comment that sends the reader to a missing document
explains nothing, so a name that matches no ``.md`` file of the
repository fails here by name.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CITING = ("src", "tests", "examples")
SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


def repo_files(root: Path) -> list[Path]:
    return [
        path for path in sorted(root.rglob("*"))
        if path.is_file() and not SKIPPED.intersection(path.parts)
    ]


def test_every_named_markdown_file_exists():
    documents = [
        path.relative_to(REPO).as_posix()
        for path in repo_files(REPO) if path.suffix == ".md"
    ]
    missing = []
    for directory in CITING:
        for path in repo_files(REPO / directory):
            if path == Path(__file__).resolve():
                continue  # the pattern's own examples below
            text = path.read_text(encoding="utf-8", errors="replace")
            for line_no, line in enumerate(text.splitlines(), 1):
                for name in MARKDOWN_NAME.findall(line):
                    name = name.removeprefix("./")
                    if not any(
                        doc == name or doc.endswith("/" + name)
                        for doc in documents
                    ):
                        where = path.relative_to(REPO).as_posix()
                        missing.append(f"{where}:{line_no}: {name}")
    assert missing == []


def test_pattern_finds_names_and_paths():
    line = "see README.md, docs/design-notes.md and ./ROADMAP.md; not *.md"
    assert MARKDOWN_NAME.findall(line) == [
        "README.md", "docs/design-notes.md", "./ROADMAP.md",
    ]
