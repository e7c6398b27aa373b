"""``libopt add`` as one streamed merge of a result or selection file
into the store file: its memory follows that file, not the store. It
reads that file first and holds each valid result line as one string,
its key text, a tab, its line number in ten digits and its pairs text,
in a list sorted in place. The sort orders the lines by key, then by
line: no key and no pairs text holds a tab, and a key that extends
another goes on with a name character, which sorts above the tab. So
the lines of one key sit next to each other, the first of the file
first, and the merge finds repeats there, in one pass with one scan of
the store as it writes the store back. Each line's outcome comes from
the keys met before it: a key read before, in the store or earlier in
the file, is present (a duplicate, or replaced with ``-r``), any other
is added. Only a store out of order, which only a hand edit makes, is
read whole: its rows are sorted, then merged the same way. That read is
a scan in set mode from the start, so the store's head, read twice by
the scan that met the key out of order, is read three times in all. Its
duplicate error is the scan's, as for every reader, the first in file
order. The errors come as if the whole store were read first: a store
error (a corrupt line, a duplicate key, a byte that does not decode)
wins over a result or selection file that cannot be read or holds a bad
line, and over a write that fails. The readers of result and selection
files live here, apart from ``store``, which ``profile`` loads too: a
call that compiles a module from source peaks with its size."""
from __future__ import annotations

import re
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import open_text
from .record import RecordError, TokenConfig, iter_result_lines, parse_entry, validate_tokens
from .store import DeleteResult, ImportReport, Selection, StoreError, _scan, _write


def _valid(
    path: Path | str, config: TokenConfig | None, report: ImportReport, details: list,
) -> Iterator[tuple[int, str, str]]:
    """(line number, key text, canonical pairs text) of each valid line of
    a result file, as it is read: the one reader of ``add`` and of
    ``Store.import_file``. Each other line counts in ``report`` as invalid,
    with its detail in ``details`` as (line number, detail)."""
    with open_text(path, "result file", StoreError) as handle:
        for lineno, raw in iter_result_lines(handle):
            try:
                key_text, tokens, pairs = parse_entry(raw)
                if config is not None and (problems := validate_tokens(tokens, key_text, config)):
                    raise StoreError("; ".join(problems))
            except (RecordError, StoreError) as exc:
                report.invalid += 1
                details.append((lineno, f"{path}:{lineno}: {exc}"))
            else:
                yield lineno, key_text, pairs


def _reported(report: ImportReport, details: list, lines: int, added: int) -> ImportReport:
    """``report`` of ``lines`` valid lines, ``added`` of them added: each
    other one is a duplicate with its detail in ``details``, or replaced.
    The details come in line order."""
    report.added = added
    report.duplicates = len(details) - report.invalid
    report.replaced = lines - added - report.duplicates
    report.details = [detail for _, detail in sorted(details)]
    return report


def _listed(path: Path | str) -> tuple[set[str], int]:
    """The keys of the result lines of a selection file, and the number of
    lines; a line that does not parse raises StoreError."""
    keys: set[str] = set()
    lines = 0
    with open_text(path, "selection file", StoreError) as handle:
        for lines, (lineno, raw) in enumerate(iter_result_lines(handle), 1):
            try:
                keys.add(parse_entry(raw)[0])
            except RecordError as exc:
                raise StoreError(f"{path}:{lineno}: {exc}") from exc
    return keys, lines


class _Unsorted(Exception):
    """A store key below the one before it: only a hand edit makes one."""


def _read_first(path: Path | str, read: Callable[[], Any]) -> Any:
    """``read()`` of a result or selection file; when it fails, an error
    of the store at ``path`` wins, as if the store were read first."""
    try:
        return read()
    except StoreError:
        deque(_scan(path), 0)
        raise


def _update(
    path: Path | str, new: list[str], replace: bool, drop: Callable[[str], object] | None,
    save: bool, show: Callable[[str], None] | None = None,
) -> list:
    """Merge ``new``, result lines held and sorted as ``import_into`` holds
    them, into one scan of the store file at ``path``, written back with
    ``save``. Each run of lines of one key writes one line: with the pairs
    of the store's entry when the scan meets the key, unless ``replace``;
    else with those of the run's first line, or with ``replace`` its last.
    The position in ``new`` of each line whose key was met before, in the
    store or earlier in the file, goes into the list returned; so does
    each key text that ``drop`` accepts, whose row is left out (True in
    its place without ``show``). ``show`` is called with each item once
    the whole store is read. A store out of order is read whole and
    sorted first."""
    found: list = []
    new.append("{")  # above every key text, whose first character is a name's

    def merged(rows: Iterable[tuple[str, str, object]]) -> Iterator[str]:
        found.clear()
        at, previous, key = 0, "", new[0].partition("\t")[0]

        def take(pairs: str | None = None) -> str:
            # the line of the run of key at new[at], with the store's pairs
            # unless replace; at and key move on to the next run. A held
            # line's pairs follow the key, the tab and ten digits
            nonlocal at, key
            start, cut = at, len(key) + 11
            at += 1
            while (after := new[at].partition("\t")[0]) == key:
                found.append(at)
                at += 1
            if pairs is None or replace:
                pairs = new[at - 1 if replace else start][cut:]
            line, key = f"{key}{pairs}\n", after
            return line

        for key_text, pairs, _ in rows:
            if key_text < previous:
                raise _Unsorted
            previous = key_text
            if key <= key_text:  # one test for a row no key of new reaches
                while key < key_text:
                    yield take()
                if key == key_text:
                    found.append(at)
                    yield take(pairs)
                    continue
            if drop is not None and drop(key_text):
                found.append(show is None or key_text)
                continue
            yield f"{key_text}{pairs}\n"
        while at < len(new) - 1:
            yield take()
        for hit in found if show is not None else ():
            show(hit)

    write = (lambda lines: _write(Path(path), lines)) if save else (lambda lines: deque(lines, 0))
    try:
        write(merged(_scan(path)))
    except _Unsorted:
        write(merged(sorted((key, pairs, None) for key, pairs, _ in _scan(path, set()))))
    return found


def import_into(
    path: Path | str, resfile: Path | str, *, replace: bool = False,
    config: TokenConfig | None = None, save: bool = True,
) -> ImportReport:
    """A store's ``import_file`` streamed through the store file at ``path``.
    Each valid line of the result file is held as one string, its key
    text, a tab, its line number in ten digits and its pairs text, in a
    list sorted in place: by key, then by line."""
    report, details = ImportReport(), []
    new = _read_first(path, lambda: [
        f"{key}\t{n:010d}{pairs}" for n, key, pairs in _valid(resfile, config, report, details)])
    new.sort()
    lines = len(new)
    found = _update(path, new, replace, None, save)
    if not replace:
        details += [(int(rest[:10]), f"{resfile}:{int(rest[:10])}: entry already present: {key}")
                    for key, _, rest in (new[at].partition("\t") for at in found)]
    return _reported(report, details, lines, lines - len(found))


def delete_from(
    path: Path | str, target: Selection | Path, *, save: bool = True,
    show: Callable[[str], None] | None = None,
) -> DeleteResult:
    """A store's ``delete`` streamed through the store file at ``path``; with a
    pattern, ``show`` is called with each key deleted, in key order."""
    if isinstance(target, Selection):
        # one match per key text: a field the pattern leaves empty is any name
        drop = re.compile("%".join("[^%]*" if f is None else re.escape(f) for f in target)).fullmatch
        return DeleteResult(len(_update(path, [], False, drop, save, show)))
    keys, lines = _read_first(path, lambda: _listed(target))
    deleted = len(_update(path, [], False, keys.__contains__, save))
    return DeleteResult(deleted, lines - deleted)
