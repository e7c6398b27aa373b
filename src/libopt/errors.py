"""The package's base error, the one reader of outside text files, and
the one line rule of the directive and list files."""
from __future__ import annotations

from pathlib import Path
from typing import Iterator


class LiboptError(Exception):
    """Base class for all errors raised by this package."""


def read_text(
    path: Path | str, what: str, error: type[LiboptError] = LiboptError
) -> str:
    """The text of a file; a file that cannot be read or decoded raises
    ``error`` naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line with more than blanks and
    a comment. Only "\n" ends a line: other line breaks are blank space in
    it, and a '#' comment runs to the end of the line."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
