"""``libopt add`` as one streamed merge of a result or selection file
into the store file: its memory follows that file, not the store. It
reads that file first, key text -> pairs text, sorts those keys, and
merges them into one scan of the store as it writes the store back.
Each line's outcome comes from the keys the scan met: a key read before,
in the store or earlier in the file, is present (a duplicate, or
replaced with ``-r``), any other is added. Only a store out of order,
which only a hand edit makes, is read whole: its rows are sorted, then
merged the same way. That read is a scan in set mode from the start, so
the store's head, read twice by the scan that met the key out of order,
is read three times in all. Its duplicate error is the scan's, as for
every reader, the first in file order. The errors come as
if the whole store were read first: a store error (a corrupt line, a
duplicate key, a byte that does not decode) wins over a result or
selection file that cannot be read or holds a bad line, and over a
write that fails. The readers of result and selection files live here,
apart from ``store``, which ``profile`` loads too: a call that compiles
a module from source peaks with its size."""
from __future__ import annotations

import re
from collections import deque
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import open_text
from .record import RecordError, TokenConfig, iter_result_lines, parse_entry, validate_tokens
from .store import DeleteResult, ImportReport, Selection, StoreError, _scan, _write


def _import(
    path: Path | str, entries: dict[str, str], replace: bool,
    config: TokenConfig | None, firsts: list[int],
) -> tuple[ImportReport, list[tuple[int, str]]]:
    """Put the valid lines of a result file into ``entries`` (key text ->
    canonical pairs text): a key in it already is a duplicate, or with
    ``replace`` is replaced. Returns the report, its details apart as
    (line number, detail). The line of each key added goes into ``firsts``
    as the step from the one before: a small int, which Python shares."""
    report, details, last = ImportReport(), [], 0
    with open_text(path, "result file", StoreError) as handle:
        for lineno, raw in iter_result_lines(handle):
            try:
                key_text, tokens, pairs = parse_entry(raw)
                if config is not None and (problems := validate_tokens(tokens, key_text, config)):
                    raise StoreError("; ".join(problems))
            except (RecordError, StoreError) as exc:
                report.invalid += 1
                details.append((lineno, f"{path}:{lineno}: {exc}"))
                continue
            if key_text not in entries:
                report.added += 1
                firsts.append(lineno - last)
                last = lineno
            elif replace:
                report.replaced += 1
            else:
                report.duplicates += 1
                details.append((lineno, f"{path}:{lineno}: entry already present: {key_text}"))
                continue
            entries[key_text] = pairs
    return report, details


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


def _read_first(path: Path | str, read: Callable[[], tuple]) -> tuple:
    """``read()`` of a result or selection file; when it fails, an error
    of the store at ``path`` wins, as if the store were read first."""
    try:
        return read()
    except StoreError:
        deque(_scan(path), 0)
        raise


def _update(
    path: Path | str, new: dict[str, str], replace: bool, drop: Callable[[str], object] | None,
    save: bool, show: Callable[[str], None] | None = None,
) -> list:
    """Merge ``new`` (key text -> pairs text) into one scan of the store
    file at ``path``, written back with ``save``. Each key of ``new`` met
    keeps the store's entry unless ``replace``, and goes into the list
    returned; so does each key text that ``drop`` accepts, whose row is
    left out (True in its place without ``show``). ``show`` is called with
    each item once the whole store is read. A store out of order is read
    whole and sorted first."""
    found: list = []

    def merged(rows: Iterable[tuple[str, str, object]]) -> Iterator[str]:
        found.clear()
        # "{" sorts above every key text, whose first character is a name's
        keys, at, previous = [*sorted(new), "{"], 0, ""
        for key_text, pairs, _ in rows:
            if key_text < previous:
                raise _Unsorted
            previous = key_text
            if keys[at] <= key_text:  # one test for a row no key of new reaches
                while keys[at] < key_text:
                    yield f"{keys[at]}{new[keys[at]]}\n"
                    at += 1
                if keys[at] == key_text:
                    at += 1
                    found.append(key_text)
                    yield f"{key_text}{new[key_text] if replace else pairs}\n"
                    continue
            if drop is not None and drop(key_text):
                found.append(show is None or key_text)
                continue
            yield f"{key_text}{pairs}\n"
        yield from (f"{key}{new[key]}\n" for key in keys[at:-1])
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
    """A store's ``import_file`` streamed through the store file at ``path``."""
    new: dict[str, str] = {}
    firsts: list[int] = []
    report, details = _read_first(path, lambda: _import(resfile, new, replace, config, firsts))
    found = set(_update(path, new, replace, None, save))
    report.added -= len(found)
    if replace:
        report.replaced += len(found)
    else:
        report.duplicates += len(found)
        details += [(n, f"{resfile}:{n}: entry already present: {k}")
                    for k, n in zip(new, accumulate(firsts)) if k in found]
    report.details = [detail for _, detail in sorted(details)]
    return report


def delete_from(
    path: Path | str, target: Selection | Path, *, save: bool = True,
    show: Callable[[str], None] | None = None,
) -> DeleteResult:
    """A store's ``delete`` streamed through the store file at ``path``; with a
    pattern, ``show`` is called with each key deleted, in key order."""
    if isinstance(target, Selection):
        # one match per key text: a field the pattern leaves empty is any name
        drop = re.compile("%".join("[^%]*" if f is None else re.escape(f) for f in target)).fullmatch
        return DeleteResult(len(_update(path, {}, False, drop, save, show)))
    keys, lines = _read_first(path, lambda: _listed(target))
    deleted = len(_update(path, {}, False, keys.__contains__, save))
    return DeleteResult(deleted, lines - deleted)
