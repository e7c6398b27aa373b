"""The package's base error, and the one reader of outside text files."""
from __future__ import annotations

from pathlib import Path


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
