"""Keyed results store with duplicate detection and wildcard deletion.

Each entry maps the triple key ``solver[.tag]%collection%problem`` to the
result's token-number pairs. On disk the store is plain text, one entry
per line (the result line minus the sentinel field), sorted by key, so
it diffs cleanly and ports anywhere. Writes go through a synced temp
file plus rename, and an advisory lock file serializes concurrent writers.

A store file is read by one scan, line by line. A line in the canonical
form ``save`` writes, numbers included, costs one ``record.ENTRY_RE``
match and one split of its pairs text, whose token layout is checked
once per distinct layout. Every other line (blank, comment, padded, a
number such as ``1.50`` in another spelling, corrupt) goes through
``parse_fields`` as a result line would, so a corrupt store fails on the
same line with the same message, and its values are formatted
canonically once. Store, result and selection files are read through
``errors.open_text``: each fails as if read whole first, so a byte that
does not decode, anywhere, wins over a corrupt line or a duplicate key.
An ``import_file`` that fails so may leave the ``Store`` partly changed.

The scan holds the one duplicate rule of ``Store.open``, ``StoreReader``
and ``add``: while the keys ascend, as ``save`` writes them, a key is
checked against the one before it (no key set is held), and from the
first key out of order on against a set of the keys read. There the
scan seeks its one handle back to the start and fills the set from the
lines before, yielding none twice: a reader sees one file, even when an
``add`` renames another over the path. ``Store.open`` keeps, per key
text, the canonical pairs text ``%token=number...``; ``StoreReader``, which
``profile`` reads, keeps no entry. Both have the one reader
``entries(match, tokens)``: the entries whose key ``match`` accepts, each
from one split of its pairs text (for ``StoreReader``, the scan's own).
With ``tokens`` it is the one projection: each entry's values come in
the order of ``tokens``, NaN for a token it lacks, worked out once per
token layout. ``query()`` is its sorted view. No name holds a '%', so
``key_text.split("%")`` is the key's triple. A record that ``add`` or
``import_file`` inserts is formatted once, on insert; a result line's
number keeps its text when that is already canonical.

Store files have one writer, ``_write``: 512 lines at a time into
``errors.replaced``, the one writer of every file libopt replaces, plot
files too: a fresh ``O_EXCL`` owner-only temp file beside the store,
synced, renamed over it, then the directory synced. A write that fails
leaves the old store and no temp file. ``libopt add`` is the
``merge`` module: it shares ``_write``, and ``Store`` imports its
readers of result and selection files.
"""
from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from itertools import chain, compress, islice, repeat
from math import nan
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import LiboptError, content_lines, open_text, replaced
from .record import (
    ENTRY_RE,
    SENTINEL,
    LiboptRecord,
    RecordError,
    TokenConfig,
    TokenPair,
    check_finite,
    check_name,
    format_pairs,
    pairs_of,
    parse_entry,
    split_solver_field,
    token_layout,
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


def _scan(path: Path | str, seen: set[str] | None = None) -> Iterator[tuple[str, str, list[str]]]:
    """(key text, pairs text, split items) of each entry of a store file,
    read through one handle; a missing file has none. A corrupt entry, or
    a key read before, raises StoreError naming the line: a key is checked
    against the one before it while the keys ascend, and in set mode (from
    the start when given ``seen``) against the set of keys read. The first
    key out of order rewinds the handle: set mode reads again the lines
    before it, which are not yielded again."""
    if not Path(path).exists():
        return
    with open_text(path, "store", StoreError) as handle:
        previous, lineno, done = "", 0, 0  # done: the lines yielded before a rewind
        for match in map(ENTRY_RE.match, handle):
            lineno += 1
            key_text, pairs, line = match.groups()
            try:
                if pairs is None:
                    if not any(content_lines((line,))):  # blank or a comment
                        continue
                    key_text, _, pairs = parse_entry(f"{SENTINEL}%{line}")
                # "%t1=v1%t2=v2..." -> ["", t1, v1, t2, v2, ...]
                items = pairs.replace("=", "%").split("%")
                token_layout(tuple(items[1::2]))
            except RecordError as exc:
                raise StoreError(f"{path}:{lineno}: corrupt entry: {exc}") from exc
            if seen is None and key_text < previous:
                # rewind: set mode reads the lines before again, into the set
                handle.seek(0)
                seen, previous, lineno, done = set(), "", 0, lineno - 1
                continue
            if key_text == previous or seen is not None and key_text in seen:
                raise StoreError(f"{path}:{lineno}: duplicate key {key_text}")
            if seen is not None:
                seen.add(key_text)
            previous = key_text
            if lineno > done:
                yield key_text, pairs, items


def _read(
    rows: Iterable[tuple[str, str, list[str] | None]],
    match: Callable[[list[str]], bool],
    tokens: tuple[str, ...] | None,
) -> Iterator[tuple[list[str], tuple[str, ...], tuple[float, ...]]]:
    """``Store.entries`` of rows (key text, pairs text, its split items or
    None); the items read and their order are worked out once per layout."""
    picks: dict[tuple[str, ...], tuple] = {}
    for key_text, pairs, items in rows:
        key = key_text.split("%")
        if not match(key):
            continue
        if items is None:
            items = pairs.replace("=", "%").split("%")
        layout = tuple(items[1::2])
        pick = picks.get(layout)
        if pick is None:
            names = layout if tokens is None else tokens
            read = [t in names for t in layout]
            mask = [False, *chain.from_iterable((False, r) for r in read)]
            # a token the layout lacks reads the NaN put after the values
            held = list(compress(layout, read))
            at = [held.index(t) if t in held else len(held) for t in names]
            # at is [0] for one token, [] for none: a slice keeps a tuple
            get = itemgetter(*at) if len(at) > 1 else itemgetter(slice(len(at)))
            pick = picks[layout] = names, mask, get
        names, mask, get = pick
        yield key, names, get((*map(float, compress(items, mask)), nan))


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


def _write(path: Path, lines: Iterator[str]) -> None:
    """Replace the file at ``path`` by ``lines``, joined 512 at a time,
    through ``errors.replaced``, as an owner-only file. A write that fails
    leaves the old file and no temp file, and reads the rest of ``lines``
    first: an error of the store they come from wins."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with replaced(path, 0o600) as handle:
            handle.writelines(iter(lambda: "".join(islice(lines, 512)), ""))
    except OSError as exc:
        deque(lines, 0)
        raise StoreError(f"cannot save store {path}: {exc}") from exc


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
        store._entries = {key_text: pairs for key_text, pairs, _ in _scan(path)}
        return store

    def save(self) -> None:
        """Atomically rewrite the backing file, entries sorted by key."""
        if self.path is None:
            raise StoreError("store has no backing path")
        entries = self._entries
        _write(self.path, (f"{k}{entries[k]}\n" for k in sorted(entries)))

    def add(self, record: LiboptRecord, *, replace: bool = False) -> str:
        """Insert one record; a present key is only overwritten with replace.
        A value that is not finite raises StoreError: no store line could
        carry it back."""
        tokens = token_layout(tuple(pair.token for pair in record.pairs))
        values = tuple(pair.value for pair in record.pairs)
        key_text = record.key_text()
        try:
            check_finite(tokens, values)
        except RecordError as exc:
            raise StoreError(f"{exc} in {key_text}") from exc
        outcome = ADDED
        if key_text in self._entries:
            if not replace:
                raise DuplicateEntryError(f"entry already present: {key_text}")
            outcome = REPLACED
        self._entries[key_text] = format_pairs(tokens, values)
        return outcome

    def entries(
        self,
        match: Callable[[list[str]], bool],
        tokens: tuple[str, ...] | None = None,
    ) -> Iterator[tuple[list[str], tuple[str, ...], tuple[float, ...]]]:
        """(key, tokens, values) of every entry whose split key text, the
        list [solver[.tag], collection, problem], ``match`` accepts, in no
        particular order, each from one split of its pairs text. Without
        ``tokens`` every pair is read, and the entries of one token layout
        share one tokens tuple; with ``tokens``, that tuple comes back, and
        the values in its order, NaN for a token the entry lacks."""
        entries = self._entries
        return _read(zip(entries, entries.values(), repeat(None)), match, tokens)

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
        from .merge import _listed  # the reader that add uses

        keys, lines = _listed(target)
        deleted = sum(self._entries.pop(k, None) is not None for k in keys)
        return DeleteResult(deleted, lines - deleted)

    def import_file(
        self, path: Path | str, *, replace: bool = False, config: TokenConfig | None = None,
    ) -> ImportReport:
        """Add every result line of a file, each as it is read; bad lines
        are reported, never fatal."""
        from .merge import _reported, _valid  # the reader that add uses

        report, details, before, lines = ImportReport(), [], len(self._entries), 0
        for lines, (lineno, key_text, pairs) in enumerate(_valid(path, config, report, details), 1):
            if replace or key_text not in self._entries:
                self._entries[key_text] = pairs
            else:
                details.append((lineno, f"{path}:{lineno}: entry already present: {key_text}"))
        return _reported(report, details, lines, len(self._entries) - before)


class StoreReader(NamedTuple):
    """A store file whose ``entries`` are read as it is scanned: each entry
    is checked as ``Store.open`` checks it, and none is kept."""

    path: Path | str

    def entries(
        self,
        match: Callable[[list[str]], bool],
        tokens: tuple[str, ...] | None = None,
    ) -> Iterator[tuple[list[str], tuple[str, ...], tuple[float, ...]]]:
        return _read(_scan(self.path), match, tokens)


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
