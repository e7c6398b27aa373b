"""Keyed results store with duplicate detection and wildcard deletion.

Each entry maps the triple key ``solver[.tag]%collection%problem`` to the
result's token-number pairs. On disk the store is plain text, one entry
per line (the result line minus the sentinel field), sorted by key, so
it diffs cleanly and ports anywhere. Writes go through a temp file plus
rename, and an advisory lock file serializes concurrent writers.

In memory the store is a map from each key text to its canonical pairs
text ``%token=number...``: the two halves of the line ``save`` writes,
so ``save`` is a sorted join. Keys and values are parsed only when
read, and ``entries(match, tokens)`` is the one reader: the entries
whose key ``match`` accepts, with the values of the tokens asked for,
each from one split of its pairs text. ``query()`` is its sorted view.
No name holds a '%', so ``key_text.split("%")`` is the key's triple.
Every stored token layout was checked as its entry came in, so
``entries`` reads it unchecked.

``Store.open`` reads the whole file with ``record.ENTRY_RE``, which takes
each line in the canonical form ``save`` writes, numbers included, and
keeps its pairs text as matched. Every other line (blank, comment,
padded, a number such as ``1.50`` or ``1e3`` in another spelling,
corrupt) goes through ``parse_fields`` as a result line would, so a
corrupt store fails on the same line with the same message; its values
are formatted once, so it saves in canonical form. A record inserted by
``add`` or ``import_file`` is formatted once, on insert.
"""
from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from itertools import chain, compress
from pathlib import Path
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .errors import LiboptError, read_text
from .record import (
    ENTRY_RE,
    SENTINEL,
    LiboptRecord,
    RecordError,
    TokenConfig,
    TokenPair,
    check_name,
    format_pairs,
    is_blank,
    iter_result_lines,
    pairs_of,
    parse_fields,
    split_solver_field,
    text_layout,
    token_layout,
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


def _pick(
    layout: tuple[str, ...], tokens: Collection[str] | None
) -> tuple[tuple[str, ...], list[bool]]:
    """The tokens of a layout that are read (all without ``tokens``), and
    the mask of their values over the split ``["", t1, v1, t2, v2, ...]``."""
    read = [tokens is None or t in tokens for t in layout]
    names = layout if all(read) else tuple(compress(layout, read))
    return names, [False, *chain.from_iterable((False, r) for r in read)]


def _parse_entry(line: str) -> tuple[str, tuple[str, ...], tuple[float, ...]]:
    """(key text, tokens, values) of a result line; raises RecordError."""
    solver, _, _, collection, problem, tokens, values = parse_fields(line)
    return f"{solver}%{collection}%{problem}", tokens, values


class Selection(NamedTuple):
    """Triple pattern: a None field matches anything."""

    solver: str | None = None
    collection: str | None = None
    problem: str | None = None

    def matches(self, key: Sequence[str]) -> bool:
        """Whether a (solver[.tag], collection, problem) triple fits."""
        solver, collection, problem = key
        return (
            (self.solver is None or solver == self.solver)
            and (self.collection is None or collection == self.collection)
            and (self.problem is None or problem == self.problem)
        )


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


class DeleteResult(NamedTuple):
    deleted: int
    missing: int = 0


class ImportReport:
    def __init__(self) -> None:
        self.added = self.replaced = self.duplicates = self.invalid = 0
        self.details: list[str] = []


class Store:
    """In-memory key/value map with deterministic text persistence."""

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        # key text -> canonical pairs text
        self._entries: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def open(cls, path: Path | str) -> Store:
        """Load a store file; a missing file is an empty store."""
        store = cls(Path(path))
        if not store.path.exists():
            return store
        entries = store._entries
        text = read_text(path, "store", StoreError)
        for lineno, match in enumerate(ENTRY_RE.finditer(text), 1):
            key_text, pairs, line = match.groups()
            try:
                if pairs is not None:
                    text_layout(pairs)
                elif is_blank(line):
                    continue
                else:
                    key_text, tokens, values = _parse_entry(f"{SENTINEL}%{line}")
                    pairs = format_pairs(tokens, values)
            except RecordError as exc:
                raise StoreError(f"{path}:{lineno}: corrupt entry: {exc}") from exc
            if key_text in entries:
                raise StoreError(f"{path}:{lineno}: duplicate key {key_text}")
            entries[key_text] = pairs
        return store

    def save(self) -> None:
        """Atomically rewrite the backing file, entries sorted by key."""
        if self.path is None:
            raise StoreError("store has no backing path")
        entries = self._entries
        text = "".join([f"{k}{entries[k]}\n" for k in sorted(entries)])
        # a fresh name that O_EXCL keeps from any other writer's file
        tmp = Path(f"{self.path}.{os.urandom(8).hex()}.tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, self.path)
            except BaseException:
                with suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise StoreError(f"cannot save store {self.path}: {exc}") from exc

    def add(
        self,
        record: LiboptRecord,
        *,
        replace: bool = False,
        config: TokenConfig | None = None,
    ) -> str:
        """Insert one record; a present key is only overwritten with replace.
        A value that is not finite raises StoreError: no store line could
        carry it back."""
        tokens = token_layout(tuple(pair.token for pair in record.pairs))
        values = tuple(pair.value for pair in record.pairs)
        return self._put(record.key_text(), tokens, values, replace, config)

    def _put(
        self,
        key_text: str,
        tokens: tuple[str, ...],
        values: tuple[float, ...],
        replace: bool,
        config: TokenConfig | None,
    ) -> str:
        if config is not None:
            problems = validate_tokens(tokens, key_text, config)
            if problems:
                raise StoreError("; ".join(problems))
        outcome = ADDED
        if key_text in self._entries:
            if not replace:
                raise DuplicateEntryError(f"entry already present: {key_text}")
            outcome = REPLACED
        try:
            pairs = format_pairs(tokens, values)
        except RecordError as exc:
            raise StoreError(f"{exc} in {key_text}") from exc
        self._entries[key_text] = pairs
        return outcome

    def entries(
        self,
        match: Callable[[list[str]], bool],
        tokens: Collection[str] | None = None,
    ) -> Iterator[tuple[list[str], tuple[str, ...], tuple[float, ...]]]:
        """(key, tokens, values) of every entry whose split key text, the
        list [solver[.tag], collection, problem], ``match`` accepts, in no
        particular order, each from one split of its pairs text.

        Without ``tokens`` every pair is read; with ``tokens``, only the
        pairs of those tokens (an entry may lack some). Which items of the
        split to read is worked out once per token layout, and the entries
        of one layout share one tokens tuple.
        """
        picks: dict[tuple[str, ...], tuple[tuple[str, ...], list[bool]]] = {}
        for key_text, pairs in self._entries.items():
            key = key_text.split("%")
            if not match(key):
                continue
            # "%t1=v1%t2=v2..." -> ["", t1, v1, t2, v2, ...]
            items = pairs.replace("=", "%").split("%")
            layout = tuple(items[1::2])
            pick = picks.get(layout)
            if pick is None:
                pick = picks[layout] = _pick(layout, tokens)
            names, mask = pick
            yield key, names, tuple(map(float, compress(items, mask)))

    def query(
        self, selection: Selection | None = None
    ) -> list[tuple[StoreKey, tuple[TokenPair, ...]]]:
        """Entries matching the selection, in canonical key order: the
        sorted view of ``entries``."""
        selection = selection if selection is not None else Selection()
        # by key text: a tag may hold a character that sorts below '%'
        found = sorted(self.entries(selection.matches), key=lambda e: "%".join(e[0]))
        return [
            (StoreKey._make(key), pairs_of(tokens, values))
            for key, tokens, values in found
        ]

    def delete(self, target: Selection | Path) -> DeleteResult:
        """Remove matching entries (pattern) or the exact triples named by a
        file of result lines."""
        if isinstance(target, Selection):
            hits = [k for k in self._entries if target.matches(k.split("%"))]
            for key_text in hits:
                del self._entries[key_text]
            return DeleteResult(len(hits))
        deleted = missing = 0
        for key_text in self._key_texts_from_file(target):
            if self._entries.pop(key_text, None) is not None:
                deleted += 1
            else:
                missing += 1
        return DeleteResult(deleted, missing)

    def _key_texts_from_file(self, path: Path) -> Iterator[str]:
        text = read_text(path, "selection file", StoreError)
        for lineno, raw in iter_result_lines(text):
            try:
                key_text = _parse_entry(raw)[0]
            except RecordError as exc:
                raise StoreError(f"{path}:{lineno}: {exc}") from exc
            yield key_text

    def import_file(
        self,
        path: Path | str,
        *,
        replace: bool = False,
        config: TokenConfig | None = None,
    ) -> ImportReport:
        """Add every result line of a file; bad lines are reported, never fatal."""
        report = ImportReport()
        text = read_text(path, "result file", StoreError)
        for lineno, raw in iter_result_lines(text):
            try:
                outcome = self._put(*_parse_entry(raw), replace, config)
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


@contextmanager
def locked(path: Path | str):
    """Exclusive advisory lock for a read-modify-write cycle on a store."""
    import fcntl  # only a locked change needs it

    lock_path = Path(f"{path}.lock")
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError as exc:
        raise StoreError(f"cannot lock store {path}: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
