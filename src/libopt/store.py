"""Keyed results store with duplicate detection and wildcard deletion.

Each entry maps the triple key ``solver[.tag]%collection%problem`` to the
result's token-number pairs. On disk the store is plain text, one entry
per line (the result line minus the sentinel field), sorted by key, so
it diffs cleanly and ports anywhere. Writes go through a temp file plus
rename, and an advisory lock file serializes concurrent writers.
"""
from __future__ import annotations

import fcntl
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import LiboptError
from .record import (
    SENTINEL,
    LiboptRecord,
    RecordError,
    TokenConfig,
    TokenPair,
    check_name,
    format_number,
    iter_result_lines,
    parse_fields,
    split_solver_field,
    validate_tokens,
)

ADDED = "added"
REPLACED = "replaced"


class StoreError(LiboptError):
    pass


class DuplicateEntryError(StoreError):
    """The key is already present and replacement was not requested."""


class SelectionError(StoreError):
    pass


class StoreKey(NamedTuple):
    solver_with_tag: str
    collection: str
    problem: str

    def text(self) -> str:
        return f"{self.solver_with_tag}%{self.collection}%{self.problem}"


@dataclass(frozen=True)
class Selection:
    """Triple pattern: a None field matches anything."""

    solver: str | None = None
    collection: str | None = None
    problem: str | None = None

    def matches(self, key: StoreKey) -> bool:
        if self.solver is not None and key.solver_with_tag != self.solver:
            return False
        if self.collection is not None and key.collection != self.collection:
            return False
        if self.problem is not None and key.problem != self.problem:
            return False
        return True


def parse_selection(text: str) -> Selection | Path:
    """A trailing '%' makes the text a triple pattern, otherwise it names a
    file of result lines whose triples are to be deleted."""
    if not text:
        raise SelectionError("empty selection")
    if not text.endswith("%"):
        return Path(text)
    fields = text[:-1].split("%")
    if len(fields) > 3:
        raise SelectionError(f"selection {text!r} has more than three fields")
    fields += [""] * (3 - len(fields))
    solver, collection, problem = (f.strip(" \t") or None for f in fields)
    if solver is not None:
        split_solver_field(solver)
    if collection is not None:
        check_name(collection, "collection")
    if problem is not None:
        check_name(problem, "problem")
    return Selection(solver, collection, problem)


@dataclass
class DeleteResult:
    deleted: int
    missing: int = 0


@dataclass
class ImportReport:
    added: int = 0
    replaced: int = 0
    duplicates: int = 0
    invalid: int = 0
    details: list[str] = field(default_factory=list)


class Store:
    """In-memory key/value map with deterministic text persistence."""

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, tuple[StoreKey, tuple[TokenPair, ...]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: StoreKey) -> bool:
        return key.text() in self._entries

    @classmethod
    def open(cls, path: Path | str) -> Store:
        """Load a store file; a missing file is an empty store."""
        store = cls(Path(path))
        if not store.path.exists():
            return store
        for lineno, raw in iter_result_lines(_read_text(path, "store")):
            try:
                solver, _, _, collection, problem, pairs = parse_fields(
                    f"{SENTINEL}%{raw}"
                )
            except RecordError as exc:
                raise StoreError(f"{path}:{lineno}: corrupt entry: {exc}") from exc
            key_text = f"{solver}%{collection}%{problem}"
            if key_text in store._entries:
                raise StoreError(f"{path}:{lineno}: duplicate key {key_text}")
            store._entries[key_text] = (StoreKey(solver, collection, problem), pairs)
        return store

    def save(self) -> None:
        """Atomically rewrite the backing file, entries sorted by key."""
        if self.path is None:
            raise StoreError("store has no backing path")
        lines = []
        for key_text in sorted(self._entries):
            _, pairs = self._entries[key_text]
            body = "%".join(
                [key_text] + [f"{p.token}={format_number(p.value)}" for p in pairs]
            )
            lines.append(body + "\n")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(lines)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def add(
        self,
        record: LiboptRecord,
        *,
        replace: bool = False,
        config: TokenConfig | None = None,
    ) -> str:
        """Insert one record; a present key is only overwritten with replace."""
        key = StoreKey(record.solver_with_tag, record.collection, record.problem)
        return self._put(key, record.pairs, replace, config)

    def _put(
        self,
        key: StoreKey,
        pairs: tuple[TokenPair, ...],
        replace: bool,
        config: TokenConfig | None,
    ) -> str:
        key_text = key.text()
        if config is not None:
            problems = validate_tokens(pairs, key_text, config)
            if problems:
                raise StoreError("; ".join(problems))
        if key_text in self._entries:
            if not replace:
                raise DuplicateEntryError(f"entry already present: {key_text}")
            self._entries[key_text] = (key, pairs)
            return REPLACED
        self._entries[key_text] = (key, pairs)
        return ADDED

    def entries(self) -> Iterable[tuple[StoreKey, tuple[TokenPair, ...]]]:
        """Every entry, in no particular order."""
        return self._entries.values()

    def query(
        self, selection: Selection | None = None
    ) -> list[tuple[StoreKey, tuple[TokenPair, ...]]]:
        """Entries matching the selection, in canonical key order."""
        selection = selection if selection is not None else Selection()
        return [
            self._entries[key_text]
            for key_text in sorted(self._entries)
            if selection.matches(self._entries[key_text][0])
        ]

    def delete(self, target: Selection | Path) -> DeleteResult:
        """Remove matching entries (pattern) or the exact triples named by a
        file of result lines."""
        if isinstance(target, Selection):
            hits = [
                key_text
                for key_text, (key, _) in self._entries.items()
                if target.matches(key)
            ]
            for key_text in hits:
                del self._entries[key_text]
            return DeleteResult(len(hits))
        deleted = missing = 0
        for key in self._keys_from_file(target):
            if key.text() in self._entries:
                del self._entries[key.text()]
                deleted += 1
            else:
                missing += 1
        return DeleteResult(deleted, missing)

    def _keys_from_file(self, path: Path) -> Iterator[StoreKey]:
        for lineno, raw in iter_result_lines(_read_text(path, "selection file")):
            try:
                solver, _, _, collection, problem, _ = parse_fields(raw)
            except RecordError as exc:
                raise StoreError(f"{path}:{lineno}: {exc}") from exc
            yield StoreKey(solver, collection, problem)

    def import_file(
        self,
        path: Path | str,
        *,
        replace: bool = False,
        config: TokenConfig | None = None,
    ) -> ImportReport:
        """Add every result line of a file; bad lines are reported, never fatal."""
        report = ImportReport()
        for lineno, raw in iter_result_lines(_read_text(path, "result file")):
            try:
                solver, _, _, collection, problem, pairs = parse_fields(raw)
                key = StoreKey(solver, collection, problem)
                outcome = self._put(key, pairs, replace, config)
            except DuplicateEntryError as exc:
                report.duplicates += 1
                report.details.append(f"{path}:{lineno}: {exc}")
            except (RecordError, StoreError) as exc:
                report.invalid += 1
                report.details.append(f"{path}:{lineno}: {exc}")
            else:
                if outcome == REPLACED:
                    report.replaced += 1
                else:
                    report.added += 1
        return report


def _read_text(path: Path | str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def locked(path: Path | str):
    """Exclusive advisory lock for a read-modify-write cycle on a store."""
    lock_path = Path(f"{path}.lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
