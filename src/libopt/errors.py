"""The package's base error, the one reader of outside text files, the
one writer of the files libopt replaces (the store and both plot files),
and the one line rule of every line-based file: blanks and '#' comments."""
from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable, Iterator, TextIO


class LiboptError(Exception):
    """Base class for all errors raised by this package."""


class OutputError(LiboptError):
    """A write to standard output failed: the call stops."""

    def __init__(self, exc: OSError):
        super().__init__(f"cannot write standard output: {exc}")


def read_text(
    path: Path | str, what: str, error: type[LiboptError] = LiboptError
) -> str:
    """The text of a file; a file that cannot be read or decoded raises
    ``error`` naming it."""
    with open_text(path, what, error) as handle:
        return handle.read()


@contextmanager
def open_text(
    path: Path | str, what: str, error: type[LiboptError] = LiboptError
) -> Iterator[TextIO]:
    """A text handle on a file that fails as if read whole first: a
    LiboptError of its reader goes on once the rest is read, and a read
    or decode error is ``error`` with the whole file's message."""
    try:
        with open(path) as handle:
            try:
                yield handle
            except LiboptError:
                while handle.read(1 << 16):
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        try:
            Path(path).read_text()
        except (OSError, UnicodeDecodeError) as whole:
            exc = whole
        raise error(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def replaced(path: Path | str, mode: int = 0o666) -> Iterator[TextIO]:
    """A text handle on a fresh temp file beside ``path``, created with
    ``mode`` (less the umask). On a clean exit the file is synced and
    renamed over ``path``, then the directory is synced: ``path`` holds
    its old bytes or all the new ones, also after a crash. On any
    exception the temp file is removed. An error creating it names
    ``path``, not the temp name."""
    # a fresh name that O_EXCL keeps from any other writer's file
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, mode)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    fd = os.open(os.path.dirname(tmp) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def content_lines(lines: str | Iterable[str], raw: bool = False) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line with more than blanks and a '#'
    comment, from a text or a stream of lines: the text before the comment,
    stripped, or with ``raw`` the line as read, less its "\n". Only "\n"
    ends a line: other line breaks are blank space in it."""
    for lineno, line in enumerate(lines.split("\n") if isinstance(lines, str) else lines, 1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, line.rstrip("\n") if raw else text
