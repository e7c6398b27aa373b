"""Result-line grammar: parsing, validation, serialization, stream tagging.

A solver run condenses its comparable results on one stdout line:

    libopt%solver[.tag]%collection%problem%token=number%token=number...

Fields are separated by ``%``, the first four are positional, the rest
are token-number pairs. Blanks (space/tab) around fields and around the
``=`` sign are ignored, and a ``#`` starts a comment running to the end
of the line. Every line must carry at least two pairs, exactly one of
which is ``info`` (value 0 means the solver succeeded).

Names match ``[A-Za-z0-9_]+``, a tag is any run of characters other
than ``%``, ``#`` and whitespace, and numbers are decimal with optional
sign, point and exponent. ``LINE_RE`` is this whole grammar in one
compiled pattern, so ``parse_fields`` checks each field once, then what
a pattern cannot, in ``split_pairs``: the token sequence goes through
``token_layout`` (at least two pairs, no duplicate token, an ``info``
pair), and every value must be finite. ``_diagnose`` names the first
bad field of a line that does not match. ``ENTRY_RE`` matches the
canonical store entry, the same grammar without blanks, comment or
sentinel, and with each number spelled as ``format_number`` writes it.
The record types are plain carriers: the parser vouches for
their contents.

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
_PAIR = rf"%{_B}{_NAME}{_B}={_B}{_NUMBER}{_B}"

# solver/collection/problem/token names are "words"
NAME_RE = re.compile(_NAME + r"\Z")
# optional sign, decimal digits with optional point, optional e/E exponent
NUMBER_RE = re.compile(_NUMBER + r"\Z")
# groups: solver[.tag], solver, tag, collection, problem, all pairs
LINE_RE = re.compile(
    rf"{_B}{SENTINEL}{_B}%{_B}(({_NAME})(?:\.({_TAG}))?){_B}%{_B}({_NAME}){_B}"
    rf"%{_B}({_NAME}){_B}((?:{_PAIR})*)(?:#[^\n\r]*)?\Z"
)
# Over a whole store text (re.M), one match per "\n"-separated line: the
# canonical entry ``solver[.tag]%collection%problem%token=number...`` as
# Store.save writes it, split into the key text and the pairs text, or
# any other line whole in the last group.
# groups: key text, all pairs; other line
ENTRY_RE = re.compile(
    rf"^(?:({_NAME}(?:\.{_TAG})?%{_NAME}%{_NAME})"
    rf"((?:%{_NAME}={_CANONICAL_NUMBER})+)$|(.*))",
    re.M,
)


class RecordError(LiboptError):
    """A malformed result line, or a record invariant violation."""


class HierarchyError(LiboptError):
    """An unreadable list file, or an unusable hierarchy around it."""


def is_name(text: str) -> bool:
    return bool(NAME_RE.match(text))


def check_name(text: str, what: str = "name") -> str:
    if not NAME_RE.match(text):
        raise RecordError(f"invalid {what} {text!r} (must match [A-Za-z0-9_]+)")
    return text


def check_tag(text: str) -> str:
    """Tags may contain anything except '%', '#', and whitespace."""
    if not text or any(c in "%#" or c.isspace() for c in text):
        raise RecordError(f"invalid tag {text!r} (nonempty, no '%', '#', or blanks)")
    return text


def split_solver_field(text: str) -> tuple[str, str | None]:
    """Split ``solv[.tag]`` at the first dot only; the tag keeps later dots."""
    name, sep, tag = text.partition(".")
    if sep:
        return check_name(name, "solver"), check_tag(tag)
    return check_name(name, "solver"), None


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


# every token sequence token_layout has passed, each kept once: entries
# with the same tokens in the same order share one tuple
_LAYOUTS: dict[tuple[str, ...], tuple[str, ...]] = {}


def token_layout(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """The shared copy of a line's token sequence; raises RecordError
    unless it has at least two tokens, no duplicate and an ``info``."""
    layout = _LAYOUTS.get(tokens)
    if layout is not None:
        return layout
    if len(tokens) < 2:
        raise RecordError("a result needs at least two token-number pairs")
    if len(set(tokens)) < len(tokens):
        dup = next(t for i, t in enumerate(tokens) if t in tokens[:i])
        raise RecordError(f"duplicate token {dup!r}")
    if INFO_TOKEN not in tokens:
        raise RecordError(f"missing mandatory {INFO_TOKEN!r} pair")
    _LAYOUTS[tokens] = tokens
    return tokens


def split_pairs(text: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The (shared token layout, values) of the pairs part of a matched
    line; raises RecordError for a bad layout or a non-finite value."""
    # the matched pairs hold '%' and '=' only as separators: split them apart
    items = text.replace("=", "%").split("%")
    if " " in text or "\t" in text:
        items = [item.strip(_BLANKS) for item in items]
    tokens = token_layout(tuple(items[1::2]))
    values = tuple(map(float, items[2::2]))
    check_finite(tokens, values)
    return tokens, values


def check_finite(tokens: tuple[str, ...], values: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, values)):
        bad = next(t for t, v in zip(tokens, values) if not math.isfinite(v))
        raise RecordError(f"non-finite value for token {bad!r}")


def format_pairs(tokens: tuple[str, ...], values: tuple[float, ...]) -> str:
    """The canonical pairs text ``%token=number...``; raises RecordError
    for a non-finite value, which no line could carry back."""
    check_finite(tokens, values)
    return "".join([f"%{t}={format_number(v)}" for t, v in zip(tokens, values)])


def text_layout(pairs: str) -> tuple[str, ...]:
    """The shared token layout of canonical pairs text (see token_layout)."""
    return token_layout(tuple(pairs.replace("=", "%").split("%")[1::2]))


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
    return match.group(1, 2, 3, 4, 5) + split_pairs(match[6])


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
    """Canonical writer: no padding blanks, pairs in stored order."""
    parts = [SENTINEL, record.solver_with_tag, record.collection, record.problem]
    parts += [f"{p.token}={format_number(p.value)}" for p in record.pairs]
    return "%".join(parts)


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


def _looks_like_result_line(line: str) -> bool:
    body = line.split("#", 1)[0]
    head, sep, _ = body.partition("%")
    return bool(sep) and head.strip(_BLANKS) == SENTINEL


def _append_tag(line: str, tag: str) -> str:
    # textual rewrite of the solver field only, preserving padding and comment
    body, sep, comment = line.partition("#")
    fields = body.split("%")
    solver = fields[1]
    stripped = solver.strip(_BLANKS)
    left = solver[: len(solver) - len(solver.lstrip(_BLANKS))]
    right = solver[len(left) + len(stripped):]
    fields[1] = f"{left}{stripped}.{tag}{right}"
    return "%".join(fields) + sep + comment


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
            if warnings is not None and _looks_like_result_line(line):
                warnings.append(f"unparseable result line {line!r}: {exc}")
            yield line
            continue
        if tag is not None:
            line = _append_tag(line, tag)
            # the rewritten solver field is solver.old_tag.tag, or solver.tag
            joined = tag if record.tag is None else f"{record.tag}.{tag}"
            record = LiboptRecord(
                record.solver, record.collection, record.problem, record.pairs, joined
            )
        if records is not None:
            records.append(record)
        yield line


def iter_result_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for the non-blank, non-comment lines of a result
    file read in universal-newline mode: only "\\n" ends a line."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        if not is_blank(raw):
            yield lineno, raw


def is_blank(line: str) -> bool:
    """True for a line of whitespace and an optional comment only."""
    return not line.split("#", 1)[0].strip()


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
