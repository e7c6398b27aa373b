"""Result-line grammar: parsing, validation, serialization, stream tagging.

A solver run condenses its comparable results on one stdout line:

    libopt%solver[.tag]%collection%problem%token=number%token=number...

Fields are separated by ``%``, the first four are positional, the rest
are token-number pairs. Blanks (space/tab) around fields and around the
``=`` sign are ignored, and a ``#`` starts a comment running to the end
of the line. Every line must carry at least two pairs, exactly one of
which is ``info`` (value 0 means the solver succeeded).

Names match ``[A-Za-z0-9_]+``, a tag is any run of characters other
than ``%``, ``#`` and whitespace (``TAG_RE`` is that rule alone), and
numbers are decimal with optional sign, point and exponent. ``LINE_RE``
is this whole grammar in one compiled pattern, so ``parse_fields``
checks each field once, then what a pattern cannot, in ``split_pairs``:
the token sequence goes through ``token_layout`` (at least two pairs,
no duplicate token, an ``info`` pair), and every value must be finite.
``_diagnose`` names the first bad field of a line that does not match.
``ENTRY_RE`` matches the canonical store entry, the same grammar
without blanks, comment or sentinel, and with each number spelled as
``format_number`` writes it. The record types are plain carriers: the
parser vouches for their contents.

A list file (``parse_list``, ``read_list``) holds names of the same
grammar, separated by whitespace, one '#' comment per line.
"""
from __future__ import annotations

import math
import re
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn

from .errors import LiboptError, content_lines, read_text

SENTINEL = "libopt"
INFO_TOKEN = "info"

_BLANKS = " \t"
_B = f"[{_BLANKS}]*"
_NAME = "[A-Za-z0-9_]+"
_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TAG = r"[^%#\s]+"
# A number as format_number writes it in fixed notation: "-" the only
# sign, ASCII digits only (float() also reads other Unicode digits), no
# leading zero, no trailing zero after the point, at most 15 digits
# (DBL_DIG, so float() keeps them all) and at most three zeros after
# "0." (below that repr switches to an exponent). Such a text is finite,
# and format_number(float(text)) gives it back unchanged.
_CANONICAL_NUMBER = (
    r"-?(?![0-9.]{17})(?![0-9]{16})"
    r"(?:0(?:\.(?!0000)[0-9]*[1-9])?|[1-9][0-9]*(?:\.[0-9]*[1-9])?)"
)
_CANONICAL_RE = re.compile(_CANONICAL_NUMBER + r"\Z")
_PAIR = rf"%{_B}{_NAME}{_B}={_B}{_NUMBER}{_B}"
_SENTINEL_FIELD = rf"{_B}{SENTINEL}{_B}%"

# solver/collection/problem/token names are "words"
NAME_RE = re.compile(_NAME + r"\Z")
# optional sign, decimal digits with optional point, optional e/E exponent
NUMBER_RE = re.compile(_NUMBER + r"\Z")
TAG_RE = re.compile(_TAG + r"\Z")
# a line that starts as a result line does, whatever follows
SENTINEL_RE = re.compile(_SENTINEL_FIELD)
# groups: solver[.tag], solver, tag, collection, problem, all pairs
LINE_RE = re.compile(
    rf"{_SENTINEL_FIELD}{_B}(({_NAME})(?:\.({_TAG}))?){_B}%{_B}({_NAME}){_B}"
    rf"%{_B}({_NAME}){_B}((?:{_PAIR})*)(?:#[^\n\r]*)?\Z"
)
# Matched on each store line as the scan reads it, its "\n" included:
# the canonical entry ``solver[.tag]%collection%problem%token=number...``
# as Store.save writes it, split into the key text and the pairs text,
# or any other line whole in the last group.
# groups: key text, all pairs; other line
ENTRY_RE = re.compile(
    rf"^(?:({_NAME}(?:\.{_TAG})?%{_NAME}%{_NAME})"
    rf"((?:%{_NAME}={_CANONICAL_NUMBER})+)$|(.*))"
)


class RecordError(LiboptError):
    """A malformed result line, or a record invariant violation."""


class HierarchyError(LiboptError):
    """An unreadable list file, or an unusable hierarchy around it."""


def check_name(text: str, what: str = "name") -> str:
    if not NAME_RE.match(text):
        raise RecordError(f"invalid {what} {text!r} (must match [A-Za-z0-9_]+)")
    return text


def check_tag(text: str) -> str:
    """Tags may contain anything except '%', '#', and whitespace."""
    if not TAG_RE.match(text):
        raise RecordError(f"invalid tag {text!r} (nonempty, no '%', '#', or blanks)")
    return text


def split_solver_field(text: str) -> tuple[str, str | None]:
    """Split ``solv[.tag]`` at the first dot only; the tag keeps later dots."""
    name, sep, tag = text.partition(".")
    if sep:
        return check_name(name, "solver"), check_tag(tag)
    return check_name(name, "solver"), None


def split_collection_field(text: str) -> tuple[str, str | None]:
    """Split ``coll[.subc]`` at the first dot; both parts are names."""
    coll, sep, subc = text.partition(".")
    return check_name(coll, "collection"), check_name(subc, "subcollection") if sep else None


def format_number(value: float) -> str:
    """Shortest decimal text that parses back to exactly the same float."""
    return repr(value).removesuffix(".0")


class TokenPair(NamedTuple):
    token: str
    value: float


# TokenPair from a (token, value) tuple, without the Python-level __new__
_new_pair = partial(tuple.__new__, TokenPair)


def pairs_of(
    tokens: tuple[str, ...], values: tuple[float, ...]
) -> tuple[TokenPair, ...]:
    """The (token, value) pairs of a token layout and its values."""
    return tuple(map(_new_pair, zip(tokens, values)))


# every token sequence token_layout has passed: a line of a layout seen
# before is checked with one set lookup
_LAYOUTS: set[tuple[str, ...]] = set()


def token_layout(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """A line's token sequence, checked: raises RecordError unless it has
    at least two tokens, no duplicate and an ``info``."""
    if tokens in _LAYOUTS:
        return tokens
    if len(tokens) < 2:
        raise RecordError("a result needs at least two token-number pairs")
    if len(set(tokens)) < len(tokens):
        dup = next(t for i, t in enumerate(tokens) if t in tokens[:i])
        raise RecordError(f"duplicate token {dup!r}")
    if INFO_TOKEN not in tokens:
        raise RecordError(f"missing mandatory {INFO_TOKEN!r} pair")
    _LAYOUTS.add(tokens)
    return tokens


def split_pairs(text: str) -> tuple[tuple[str, ...], tuple[float, ...], list[str]]:
    """The (token layout, values, number texts) of the pairs part of a
    matched line; raises RecordError for a bad layout or a non-finite value."""
    # the matched pairs hold '%' and '=' only as separators: split them apart
    items = text.replace("=", "%").split("%")
    if " " in text or "\t" in text:
        items = [item.strip(_BLANKS) for item in items]
    tokens = token_layout(tuple(items[1::2]))
    numbers = items[2::2]
    values = tuple(map(float, numbers))
    check_finite(tokens, values)
    return tokens, values, numbers


def check_finite(tokens: tuple[str, ...], values: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, values)):
        bad = next(t for t, v in zip(tokens, values) if not math.isfinite(v))
        raise RecordError(f"non-finite value for token {bad!r}")


def format_pairs(tokens: tuple[str, ...], values: tuple[float, ...]) -> str:
    """The canonical pairs text ``%token=number...`` of finite values."""
    return "".join([f"%{t}={format_number(v)}" for t, v in zip(tokens, values)])


class LiboptRecord(NamedTuple):
    """One parsed result: who ran what, plus the measured token values."""

    solver: str
    collection: str
    problem: str
    pairs: tuple[TokenPair, ...]
    tag: str | None = None

    @property
    def solver_with_tag(self) -> str:
        return self.solver if self.tag is None else f"{self.solver}.{self.tag}"

    def key_text(self) -> str:
        return f"{self.solver_with_tag}%{self.collection}%{self.problem}"


def parse_fields(
    text: str,
) -> tuple[str, str, str | None, str, str, tuple[str, ...], tuple[float, ...]]:
    """Parse one result line into (solver[.tag], solver, tag, collection,
    problem, tokens, values); raises RecordError when malformed."""
    match = LINE_RE.match(text)
    if match is None:
        _diagnose(text)
    return match.group(1, 2, 3, 4, 5) + split_pairs(match[6])[:2]


def parse_entry(text: str) -> tuple[str, tuple[str, ...], str]:
    """(key text, tokens, canonical pairs text) of a result line, checked
    as ``parse_fields`` checks it; a number keeps its text when that is
    canonical, and only the others are formatted."""
    match = LINE_RE.match(text) or _diagnose(text)
    tokens, values, numbers = split_pairs(match[6])
    pairs = [f"%{t}={n if _CANONICAL_RE.match(n) else format_number(v)}"
             for t, n, v in zip(tokens, numbers, values)]
    return f"{match[1]}%{match[4]}%{match[5]}", tokens, "".join(pairs)


def _diagnose(text: str) -> NoReturn:
    """Raise a RecordError naming the first bad field LINE_RE rejected."""
    if "\n" in text or "\r" in text:
        raise RecordError("result line must be a single line")
    fields = [f.strip(_BLANKS) for f in text.split("#", 1)[0].split("%")]
    if fields[0] != SENTINEL:
        raise RecordError(f"line does not start with the {SENTINEL!r} sentinel")
    if len(fields) < 4:
        raise RecordError(
            "expected positional fields 'libopt%solver%collection%problem'"
        )
    split_solver_field(fields[1])
    check_name(fields[2], "collection")
    check_name(fields[3], "problem")
    for raw in fields[4:]:
        token, sep, number = (part.strip(_BLANKS) for part in raw.partition("="))
        if not sep:
            raise RecordError(f"pair {raw!r} has no '='")
        if not token:
            raise RecordError(f"pair {raw!r} has an empty token")
        check_name(token, "token")
        if not NUMBER_RE.match(number):
            raise RecordError(f"unparseable number {number!r}")
    raise RecordError(f"malformed result line {text!r}")


def parse_line(text: str) -> LiboptRecord:
    """Parse one result line into a record; raises RecordError when malformed."""
    _, solver, tag, collection, problem, tokens, values = parse_fields(text)
    return LiboptRecord(solver, collection, problem, pairs_of(tokens, values), tag)


def serialize(record: LiboptRecord) -> str:
    """Canonical writer: no padding blanks, pairs in stored order; raises
    RecordError for a record no line could carry back, as ``parse_line``
    would for its line: a bad token layout or a non-finite value."""
    tokens = token_layout(tuple(pair.token for pair in record.pairs))
    values = tuple(pair.value for pair in record.pairs)
    check_finite(tokens, values)
    return f"{SENTINEL}%{record.key_text()}{format_pairs(tokens, values)}"


class TokenConfig(NamedTuple):
    """Effective token settings resolved from the startup file."""

    valid_tokens: frozenset[str] | None = None
    performance_tokens: frozenset[str] | None = None


def validate_tokens(
    tokens: tuple[str, ...], key_text: str, config: TokenConfig
) -> list[str]:
    """Check the tokens of the result keyed ``key_text`` against the
    configured sets.

    Without a configured set there is no verification. Violations are
    returned as a list, one message per offending token, never raised
    mid-scan.
    """
    errors: list[str] = []
    if config.valid_tokens is not None:
        for token in tokens:
            if token not in config.valid_tokens:
                errors.append(f"unknown token {token!r} in {key_text}")
    if config.performance_tokens is not None:
        if config.performance_tokens.isdisjoint(tokens):
            errors.append(f"no performance token in {key_text}")
    return errors


def filter_stream(
    lines: Iterable[str],
    tag: str | None = None,
    records: list[LiboptRecord] | None = None,
    warnings: list[str] | None = None,
) -> Iterator[str]:
    """Pass lines through, tagging and harvesting the ones that parse.

    Result lines get ``.tag`` appended to their solver field (when a tag
    is given) and are collected into ``records``; every other line passes
    through untouched. A line that carries the sentinel but fails to
    parse is forwarded unchanged and noted in ``warnings`` so one bad
    printout cannot abort a long batch.
    """
    if tag is not None:
        check_tag(tag)
    for line in lines:
        try:
            record = parse_line(line)
        except RecordError as exc:
            if warnings is not None and SENTINEL_RE.match(line):
                warnings.append(f"unparseable result line {line!r}: {exc}")
            yield line
            continue
        if tag is not None:
            # ".tag" goes right after solver[.old_tag], before any padding
            cut = LINE_RE.match(line).end(1)
            line = f"{line[:cut]}.{tag}{line[cut:]}"
            joined = tag if record.tag is None else f"{record.tag}.{tag}"
            record = record._replace(tag=joined)
        if records is not None:
            records.append(record)
        yield line


def iter_result_lines(lines: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for the non-blank, non-comment lines of a result
    file read in universal-newline mode, from its text or from a text
    handle on it: only "\\n" ends a line, and no line keeps it."""
    return content_lines(lines, raw=True)


class ProblemList(NamedTuple):
    names: tuple[str, ...]
    source: Path | None = None


def parse_list(
    text: str, source: Path | None = None, warn: Callable[[str], None] | None = None
) -> ProblemList:
    """Parse list-file text; duplicates keep their first occurrence."""
    names: list[str] = []
    seen: set[str] = set()
    for _, line in content_lines(text):
        for word in line.split():
            check_name(word, f"list entry in {source or '<list>'}")
            if word in seen:
                if warn is not None:
                    warn(f"duplicate entry {word!r} in {source or '<list>'}")
                continue
            seen.add(word)
            names.append(word)
    return ProblemList(tuple(names), source)


def read_list(path: Path, warn: Callable[[str], None] | None = None) -> ProblemList:
    text = read_text(path, "list file", HierarchyError)
    return parse_list(text, source=path, warn=warn)
