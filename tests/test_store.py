from __future__ import annotations

import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import libopt
from libopt.errors import open_text
from libopt.merge import delete_from
from libopt.plot import write_outputs
from libopt.record import (
    ENTRY_RE,
    LiboptRecord,
    RecordError,
    TokenPair,
    format_number,
    iter_result_lines,
    parse_fields,
    parse_line,
)
from libopt.store import (
    DuplicateEntryError,
    Selection,
    Store,
    StoreError,
    StoreKey,
    StoreReader,
    locked,
    parse_selection,
)


def rec(text: str):
    return parse_line(text)


R1 = rec("libopt%a%c%p%info=0%n=1")
R2 = rec("libopt%b%c%p%info=0%n=2")
R3 = rec("libopt%a%d%p1%info=1%n=3")


def test_open_missing_file_is_empty_store(tmp_path):
    store = Store.open(tmp_path / "dtbopt")
    assert len(store) == 0
    assert list(StoreReader(tmp_path / "dtbopt").entries(lambda key: True)) == []


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "dtbopt"
    store = Store.open(path)
    store.add(R1)
    store.add(R2)
    store.save()
    again = Store.open(path)
    assert len(again) == 2
    assert again.query() == store.query()
    again.save()
    assert path.read_text() == "a%c%p%info=0%n=1\nb%c%p%info=0%n=2\n"


def test_open_rejects_line_missing_info(tmp_path):
    path = tmp_path / "dtbopt"
    path.write_text("a%c%p%n=1%m=2\n")
    with pytest.raises(StoreError) as err:
        Store.open(path)
    assert ":1:" in str(err.value)


def test_open_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dtbopt"
    path.write_text("a%c%p%info=0%n=1\na%c%p%info=0%n=2\n")
    with pytest.raises(StoreError):
        Store.open(path)


def test_open_non_utf8_store_is_store_error(tmp_path):
    path = tmp_path / "dtbopt"
    path.write_bytes(b"a%c%p%info=0%n=1\n\xff\xfe%c%p%info=0%n=1\n")
    with pytest.raises(StoreError) as err:
        Store.open(path)
    assert str(path) in str(err.value)


def test_import_and_delete_non_utf8_file_is_store_error(tmp_path):
    path = tmp_path / "r.lbt"
    path.write_bytes(b"libopt%a%c%p%info=0%n=1 # caf\xe9\n")
    store = Store()
    with pytest.raises(StoreError) as err:
        store.import_file(path)
    assert str(path) in str(err.value)
    with pytest.raises(StoreError) as err:
        store.delete(path)
    assert str(path) in str(err.value)


# bytes near the store format: entry fragments, separators, stray bytes
store_like = st.lists(
    st.sampled_from(
        [b"a", b"b.t", b"%", b"c", b"p", b"info", b"n", b"=", b"0", b"2.5", b"1e999",
         b" ", b"#", b"\n", b"\r", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8"]
    )
).map(b"".join)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary() | store_like)
def test_open_arbitrary_bytes_returns_store_or_raises_store_error(tmp_path, data):
    path = tmp_path / "dtbopt"
    path.write_bytes(data)
    try:
        store = Store.open(path)
    except StoreError:
        return
    store.save()
    assert Store.open(path).query() == store.query()


def reference_open(path: Path):
    """Store.open as one parse_fields call per line: the query() entries,
    or the StoreError message."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        return f"cannot read store {path}: {exc}"
    entries = {}
    for lineno, raw in iter_result_lines(text):
        try:
            solver, _, _, collection, problem, tokens, values = parse_fields(
                f"libopt%{raw}"
            )
        except RecordError as exc:
            return f"{path}:{lineno}: corrupt entry: {exc}"
        key_text = f"{solver}%{collection}%{problem}"
        if key_text in entries:
            return f"{path}:{lineno}: duplicate key {key_text}"
        pairs = tuple(zip(tokens, map(repr, values)))
        entries[key_text] = (StoreKey(solver, collection, problem), pairs)
    return [entries[key_text] for key_text in sorted(entries)]


def every_entry(store: Store | StoreReader):
    return sorted(store.entries(lambda key: True), key=lambda entry: entry[0])


def opened(path: Path):
    """What Store.open makes of a file, in reference_open's terms; a
    StoreReader of the file must read the same entries, or fail alike."""
    try:
        store = Store.open(path)
    except StoreError as exc:
        with pytest.raises(StoreError) as err:
            every_entry(StoreReader(path))
        assert str(err.value) == str(exc)
        return str(exc)
    assert every_entry(StoreReader(path)) == every_entry(store)
    return [
        (key, tuple((token, repr(value)) for token, value in pairs))
        for key, pairs in store.query()
    ]


# text near the store format, including blanks, comments and line breaks
# other than "\n" that a canonical entry never holds
store_text = st.lists(
    st.sampled_from(
        ["a", "b.t", "b.t.2", "%", "c", "p", "info", "n", "=", "0", "-.5", "1e999",
         " ", "\t", "#", "\n", "\r", "\x85", "\u00a0", "\u2028", "\u0663", "."]
    )
).map("".join)


canonical_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=6,
)
canonical_tags = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-=!$", min_size=1, max_size=6
)


@st.composite
def canonical_entries(draw):
    solver = draw(canonical_names)
    tag = draw(st.none() | canonical_tags)
    key = "%".join(
        [solver if tag is None else f"{solver}.{tag}", draw(canonical_names),
         draw(canonical_names)]
    )
    tokens = draw(st.lists(canonical_names, min_size=1, max_size=5, unique=True))
    tokens = [t for t in tokens if t != "info"] or ["n"]
    tokens.insert(draw(st.integers(0, len(tokens))), "info")
    numbers = [
        format_number(draw(st.floats(allow_nan=False, allow_infinity=False)))
        for _ in tokens
    ]
    return key, "%".join(f"{t}={v}" for t, v in zip(tokens, numbers))


# canonical entries in any order, repeated keys included, some lines
# ending in a character the canonical form does not allow
line_ends = st.sampled_from(
    ["", "", "", " ", "\t", "#c", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028"]
)
canonical_stores = st.lists(st.tuples(canonical_entries(), line_ends), max_size=20).map(
    lambda lines: "".join(
        f"{key}%{pairs}{end}\n" for (key, pairs), end in lines
    ).encode()
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary() | store_like | store_text.map(str.encode) | canonical_stores)
def test_open_matches_per_line_parse_fields_reference(tmp_path, data):
    path = tmp_path / "dtbopt"
    path.write_bytes(data)
    assert opened(path) == reference_open(path)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("\n# a comment\na%c%p%info=0%n=1\n \t\n", ["a%c%p"]),
        (" a % c % p % info = 0 % n = 1 # padded\n", ["a%c%p"]),
        ("a%c%p%info=0%n=1\r\nb%c%p%info=0%n=2\r\n", ["a%c%p", "b%c%p"]),
        ("a%c%p%info=0%n=1\rb%c%p%info=0%n=2\n", ["a%c%p", "b%c%p"]),
        ("a.v1.2%c%p%info=0%n=1\na%c%p%info=0%n=1\n", ["a%c%p", "a.v1.2%c%p"]),
        ("a%c%p%info=0%n=1\nbad\na%c%p%info=0%n=2\n", ":2: corrupt entry: expected positional fields"),
        ("a%c%p%info=0%n=1\na%c%p%info=0%n=2\nbad\n", ":2: duplicate key a%c%p"),
        ("a%c%p%info=0%n=1\nb%c%p%info=0%n=1e999\n", ":2: corrupt entry: non-finite"),
        ("a%c%p%info=0%n=1%n=2\n", ":1: corrupt entry: duplicate token 'n'"),
        ("a%c%p%n=1%m=2\n", ":1: corrupt entry: missing mandatory 'info'"),
        ("a%c%p%info=0\n", ":1: corrupt entry: a result needs at least two"),
        ("a%c%p%info=0%n=1 \n", ["a%c%p"]),
        ("a%c%p%info=0%n=1\x85\n", ":1: corrupt entry: unparseable number"),
        ("a%c%p%info=0%n=1\na%c%p%info=0%n=1\n", ":2: duplicate key a%c%p"),
    ],
)
def test_open_pinned_cases_match_the_reference(tmp_path, text, expected):
    path = tmp_path / "dtbopt"
    path.write_bytes(text.encode())
    got = opened(path)
    assert got == reference_open(path)
    if isinstance(expected, list):
        assert [key.text() for key, _ in got] == expected
    else:
        assert got.startswith(f"{path}{expected}")


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(canonical_entries(), max_size=30, unique_by=lambda entry: entry[0]))
def test_save_after_open_is_byte_identical_for_canonical_stores(tmp_path, entries):
    path = tmp_path / "dtbopt"
    data = "".join(f"{key}%{pairs}\n" for key, pairs in sorted(entries)).encode()
    path.write_bytes(data)
    Store.open(path).save()
    assert path.read_bytes() == data


def fast_path_takes(number: str) -> bool:
    """Whether Store.open keeps a line holding ``number`` as it is."""
    return ENTRY_RE.match(f"a%c%p%info=0%n={number}")[2] is not None


@pytest.mark.parametrize(
    "number,taken",
    [
        ("999999999999999", True),  # 15 digits
        ("9999999999999999", False),  # 16 digits: 1e+16
        ("99999999999999.9", True),
        ("0.0001", True),
        ("0.00001", False),  # 1e-05
        ("0.000123456789012", False),  # 16 digits, though 12 significant
        ("-0", True),
        ("0", True),
        ("-12.5", True),
        ("0.0", False),
        ("1.0", False),
        ("00", False),
        ("+1", False),
        ("1.50", False),
        ("1e3", False),
        (".5", False),
        ("5.", False),
        ("-", False),
        ("1\u0660", False),  # an Arabic-Indic zero: float() reads it, repr writes "0"
    ],
)
def test_canonical_number_boundaries(number, taken):
    assert fast_path_takes(number) is taken
    if taken:
        assert format_number(float(number)) == number


@given(
    st.from_regex(r"-?\d{1,18}(\.\d{1,18})?", fullmatch=True)
    | st.floats(allow_nan=False, allow_infinity=False).map(format_number)
    | st.integers(-(10**16), 10**16).map(str)
)
def test_canonical_number_reads_back_unchanged(number):
    if fast_path_takes(number):
        assert format_number(float(number)) == number


@given(st.integers(-(10**15) + 1, 10**15 - 1) | st.decimals(-1e6, 1e6, places=6))
def test_short_fixed_numbers_take_the_fast_path(value):
    number = format_number(float(value))
    if "e" not in number and len(number.lstrip("-").replace(".", "")) <= 15:
        assert fast_path_takes(number)


def test_open_then_save_writes_non_canonical_numbers_canonically(tmp_path):
    path = tmp_path / "dtbopt"
    spellings = {
        "1.50": "1.5",
        "1E3": "1000",
        "+5": "5",
        ".5": "0.5",
        "5.": "5",
        "007": "7",
        "0.10000000000000001": "0.1",
        "1e-05": "1e-05",
        "-0.0": "-0",
        "1\u0660": "10",
    }
    path.write_text(
        "".join(f"a%c%p{i}%info=0%n={text}\n" for i, text in enumerate(spellings))
    )
    store = Store.open(path)
    store.save()
    assert path.read_text() == "".join(
        f"a%c%p{i}%info=0%n={text}\n" for i, text in enumerate(spellings.values())
    )
    assert [pairs[1].value for _, pairs in store.query()] == [
        float(text) for text in spellings
    ]


def reference_save(path: Path) -> str:
    """The text save() writes after open(), from reference_open's values."""
    return "".join(
        "%".join([key.text()] + [f"{t}={format_number(float(v))}" for t, v in pairs])
        + "\n"
        for key, pairs in reference_open(path)
    )


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


# store numbers in other spellings than the canonical one
@st.composite
def spelled_numbers(draw):
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    text = format_number(value)
    return draw(
        st.sampled_from(
            [text, repr(value), f"{value:.6e}", f"{value:E}", f"{value:.17g}",
             text.translate(ARABIC_INDIC_DIGITS)]
            + ([f"+{text}", f"00{text}"] if value >= 0 else [])
        )
    )


@st.composite
def spelled_stores(draw):
    lines = []
    for key, pairs in draw(st.lists(canonical_entries(), max_size=10)):
        items = [item.partition("=")[0] for item in pairs.split("%")]
        lines.append("%".join([key] + [f"{t}={draw(spelled_numbers())}" for t in items]))
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spelled_stores() | canonical_stores | store_like | store_text.map(str.encode))
def test_save_after_open_matches_the_reference_text(tmp_path, data):
    path = tmp_path / "dtbopt"
    path.write_bytes(data)
    expected = reference_open(path)
    try:
        store = Store.open(path)
    except StoreError as exc:
        assert str(exc) == expected
        return
    text = reference_save(path)
    store.save()
    assert path.read_text() == text


def test_entries_parses_only_the_solvers_asked_for():
    store = Store()
    for line in [
        "libopt%a%c%p1%info=0%n=1.5",
        "libopt%a.v2%c%p1%info=0%n=2",
        "libopt%b%c%p1%info=1%n=3",
        "libopt%a%d%p2%n=1e-05%info=0",
    ]:
        store.add(rec(line))
    got = sorted(
        (tuple(key), tuple(zip(tokens, values)))
        for key, tokens, values in store.entries(lambda key: key[0] == "a")
    )
    want = [(key, tuple(pairs)) for key, pairs in store.query(Selection(solver="a"))]
    assert got == want
    assert ["%".join(key) for key, _ in got] == ["a%c%p1", "a%d%p2"]
    assert list(store.entries(lambda key: key[0] == "x")) == []


def test_query_is_in_key_text_order():
    # '!' sorts below the '%' that ends the solver field: the order of the
    # key texts is not the order of their [solver, collection, problem] lists
    store = Store()
    for solver in ["a.!", "a", "a.!!"]:
        store.add(rec(f"libopt%{solver}%c%p%info=0%n=1"))
    assert [key.text() for key, _ in store.query()] == ["a%c%p", "a.!!%c%p", "a.!%c%p"]


def test_entries_of_one_token_layout_share_one_tokens_tuple(tmp_path):
    path = tmp_path / "dtbopt"
    path.write_text("a%c%p1%info=0%n=1\na%c%p2%info=1%n=2.5\n")
    (_, first, _), (_, second, _) = Store.open(path).entries(lambda key: key[0] == "a")
    assert first == ("info", "n")
    assert first is second


NAN = math.nan


@pytest.mark.parametrize("reader", [Store.open, StoreReader])
@pytest.mark.parametrize(
    "tokens,want",
    [
        # a repeated token is read twice; p3 lacks nfc, the performance token
        (("nfc", "info", "n", "nfc"),
         {"p1": (2.0, 0.0, 1.0, 2.0), "p2": (3.0, 1.0, NAN, 3.0), "p3": (NAN, 0.0, 4.0, NAN)}),
        # one token: still a tuple, over three layouts
        (("n",), {"p1": (1.0,), "p2": (NAN,), "p3": (4.0,)}),
        (("x", "y"), {"p1": (NAN, NAN), "p2": (NAN, NAN), "p3": (NAN, NAN)}),
        ((), {"p1": (), "p2": (), "p3": ()}),
    ],
    ids=["repeated-and-missing", "one-token", "none-held", "no-token"],
)
def test_entries_with_tokens_give_values_in_token_order(tmp_path, reader, tokens, want):
    path = tmp_path / "dtbopt"
    path.write_text(
        "a%c%p1%info=0%n=1%nfc=2\na%c%p2%nfc=3%info=1\na%c%p3%info=0%n=4\nb%c%p1%info=0%n=9\n"
    )
    got = list(reader(path).entries(lambda key: key[0] == "a", tokens))
    # reprs are equal where the values are, and NaN's is "nan"
    assert {key[2]: repr(values) for key, _, values in got} == {p: repr(v) for p, v in want.items()}
    # the tokens tuple asked for is every entry's names
    assert all(names is tokens for _, names, _ in got)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_add_rejects_a_non_finite_value(tmp_path, value):
    record = LiboptRecord("a", "c", "p", (TokenPair("info", 0.0), TokenPair("n", value)))
    store = Store(tmp_path / "dtbopt")
    with pytest.raises(StoreError, match="non-finite value for token 'n' in a%c%p"):
        store.add(record)
    assert len(store) == 0
    store.save()
    assert len(Store.open(tmp_path / "dtbopt")) == 0


def test_add_duplicate_is_an_error():
    store = Store()
    assert store.add(R1) == "added"
    with pytest.raises(DuplicateEntryError):
        store.add(R1)
    assert len(store) == 1


def test_add_replace():
    store = Store()
    store.add(R1)
    replaced = rec("libopt%a%c%p%info=0%n=42")
    assert store.add(replaced, replace=True) == "replaced"
    ((_, pairs),) = store.query(Selection(solver="a"))
    assert [(p.token, p.value) for p in pairs] == [("info", 0.0), ("n", 42.0)]


def test_add_example_record_query_back():
    store = Store()
    store.add(rec("libopt%m1qn3%modulopt%u1mt1%n=1875%nfc=143%nga=143%info=0"))
    ((key, pairs),) = store.query()
    assert key.text() == "m1qn3%modulopt%u1mt1"
    assert [(p.token, p.value) for p in pairs] == [
        ("n", 1875.0),
        ("nfc", 143.0),
        ("nga", 143.0),
        ("info", 0.0),
    ]


def test_tagged_solver_is_a_distinct_key():
    store = Store()
    store.add(rec("libopt%goya%c%p%info=0%n=1"))
    store.add(rec("libopt%goya.v2%c%p%info=0%n=2"))
    assert len(store) == 2


@pytest.mark.parametrize(
    "text,expected",
    [
        ("goya%", Selection("goya", None, None)),
        ("goya%%%", Selection("goya", None, None)),
        ("%coll%prob%", Selection(None, "coll", "prob")),
        ("%", Selection(None, None, None)),
        ("a%c%p%", Selection("a", "c", "p")),
    ],
)
def test_parse_selection_patterns(text, expected):
    assert parse_selection(text) == expected


def test_parse_selection_file_path():
    assert parse_selection("results.lbt") == Path("results.lbt")


def test_parse_selection_too_many_fields():
    with pytest.raises(StoreError):
        parse_selection("a%b%c%d%")


def test_delete_by_problem_wildcard():
    store = Store()
    store.add(R1)
    store.add(R2)
    result = store.delete(Selection(None, "c", "p"))
    assert result.deleted == 2
    assert store.query() == []


def test_delete_by_solver():
    store = Store()
    store.add(R1)
    store.add(R2)
    result = store.delete(Selection("a", None, None))
    assert result.deleted == 1
    ((key, _),) = store.query()
    assert key.text() == "b%c%p"


def test_delete_matching_nothing():
    store = Store()
    store.add(R1)
    assert store.delete(Selection("zzz", None, None)).deleted == 0
    assert len(store) == 1


def test_delete_selection_then_query_is_empty():
    store = Store()
    for r in (R1, R2, R3):
        store.add(r)
    sel = Selection(None, "c", None)
    store.delete(sel)
    assert store.query(sel) == []
    assert len(store) == 1


def test_delete_by_file_reports_missing(tmp_path):
    store = Store()
    store.add(R1)
    listing = tmp_path / "gone.lbt"
    listing.write_text("libopt%a%c%p%info=0%n=1\nlibopt%nope%c%p%info=0%n=1\n")
    result = store.delete(listing)
    assert result.deleted == 1
    assert result.missing == 1
    assert len(store) == 0


def test_query_solver_collection():
    store = Store()
    store.add(rec("libopt%a%c%p1%info=0%n=1"))
    store.add(rec("libopt%a%d%p1%info=0%n=1"))
    assert len(store.query(Selection("a", "c", None))) == 1


def test_query_solver_field_matches_full_tagged_name():
    store = Store()
    store.add(rec("libopt%goya.v2%c%p%info=0%n=1"))
    assert store.query(Selection("goya", None, None)) == []
    assert len(store.query(Selection("goya.v2", None, None))) == 1


def test_import_file(tmp_path):
    path = tmp_path / "r.lbt"
    path.write_text(
        "# harvested\n"
        "libopt%a%c%p1%info=0%n=1\n"
        "libopt%a%c%p2%info=0%n=2\n"
        "libopt%a%c%p3%info=0%n=3\n"
    )
    store = Store()
    report = store.import_file(path)
    assert (report.added, report.duplicates, report.invalid) == (3, 0, 0)
    report = store.import_file(path)
    assert (report.added, report.duplicates, report.invalid) == (0, 3, 0)
    report = store.import_file(path, replace=True)
    assert (report.added, report.replaced) == (0, 3)


def test_import_file_with_bad_line(tmp_path):
    path = tmp_path / "r.lbt"
    path.write_text(
        "libopt%a%c%p1%info=0%n=1\n"
        "libopt%a%c%p2%info=0%n=oops\n"
        "libopt%a%c%p3%info=0%n=3\n"
    )
    store = Store()
    report = store.import_file(path)
    assert (report.added, report.invalid) == (2, 1)
    assert any(":2:" in d for d in report.details)


def test_save_is_atomic_no_leftover_tmp(tmp_path):
    path = tmp_path / "dtbopt"
    store = Store.open(path)
    store.add(R1)
    store.save()
    leftovers = [p for p in tmp_path.iterdir() if p.name != "dtbopt"]
    assert leftovers == []


def test_save_writes_an_owner_only_file(tmp_path):
    path = tmp_path / "dtbopt"
    store = Store(path)
    store.add(R1)
    store.save()
    assert path.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("where", ["under a regular file", "at a directory"])
def test_save_that_fails_is_a_store_error_and_leaves_no_temp_file(tmp_path, where):
    blocker = tmp_path / "x"
    if where == "at a directory":
        blocker.mkdir()
        path = blocker
    else:
        blocker.write_text("")
        path = blocker / "dtbopt"
    store = Store(path)
    store.add(R1)
    with pytest.raises(StoreError, match=re.escape(f"cannot save store {path}: ")):
        store.save()
    assert [p.name for p in tmp_path.iterdir()] == ["x"]


def test_locked_serializes_writers(tmp_path):
    path = tmp_path / "dtbopt"
    with locked(path):
        store = Store.open(path)
        store.add(R1)
        store.save()
    assert Store.open(path).query()[0][0].text() == "a%c%p"


def test_two_adds_at_once_keep_every_key(tmp_path):
    # two real processes of disjoint keys, each reading the store, merging
    # and renaming its own temp file over it while the other runs
    (tmp_path / "dtbopt").write_text(
        "".join(f"z%c%q{i:05d}%info=0%n={i}\n" for i in range(20000))
    )
    (tmp_path / "rc").write_text("")
    for solver in "ab":
        (tmp_path / f"{solver}.lbt").write_text(
            "".join(f"libopt%{solver}%c%p{i:04d}%info=0%n={i}\n" for i in range(2000))
        )
    src = str(Path(libopt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    adds = [
        subprocess.Popen(
            [sys.executable, "-m", "libopt.cli", "add", "--config", "rc", "-b", "dtbopt", f"{solver}.lbt"],
            cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True,
        )
        for solver in "ab"
    ]
    errors = [add.communicate(timeout=60)[1] for add in adds]
    assert [add.returncode for add in adds] == [0, 0], errors
    store = Store.open(tmp_path / "dtbopt")
    assert len(store) == 24000
    assert {key.solver_with_tag for key, _ in store.query()} == {"a", "b", "z"}


def test_save_and_write_outputs_sync_each_file_then_its_directory(tmp_path, monkeypatch):
    calls = []  # ("fsync" or "replace", the inode of the file or directory)
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def record_replace(src, dst):
        replace(src, dst)
        calls.append(("replace", os.stat(dst).st_ino))

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    store = Store(tmp_path / "dtbopt")
    store.add(R1)
    store.save()
    write_outputs([], False, tmp_path / "perf")
    renames = [at for at, (call, _) in enumerate(calls) if call == "replace"]
    assert len(renames) == 3
    directory = ("fsync", tmp_path.stat().st_ino)
    bounds = [-1, *renames, len(calls)]
    for before, at, after in zip(bounds, bounds[1:], bounds[2:]):
        # the renamed file synced before its rename, the directory after it
        assert ("fsync", calls[at][1]) in calls[before + 1:at]
        assert directory in calls[at + 1:after]


# About 50 kB of entries: a byte after them lies past the first chunk a
# text handle decodes, so a streamed reader that reported the position
# it met the byte at would not give the whole file's.
FILLER = "".join(f"z%c%q{i:05d}%info=0%n={i}\n" for i in range(2000))


@pytest.mark.parametrize(
    "text",
    [
        "a%c%p%info=0%n=1\nbad\n",  # a corrupt line
        "a%c%p%info=0%n=1\na%c%p%info=0%n=2\n",  # a duplicate key
        "b%c%p%info=0%n=1\na%c%p%info=0%n=2\nb%c%p%info=0%n=3\n",  # one out of order
    ],
    ids=["corrupt", "duplicate", "unsorted-duplicate"],
)
@pytest.mark.parametrize("gap", ["", FILLER], ids=["near", "far"])
def test_open_an_undecodable_byte_wins_over_an_earlier_bad_line(tmp_path, text, gap):
    # as when the store is decoded whole before any line is parsed
    path = tmp_path / "dtbopt"
    path.write_bytes((text + gap).encode() + b"\xff\n")
    got = opened(path)
    assert got == reference_open(path)
    assert got.startswith(f"cannot read store {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("a%c%p%info=0%n=1\na%c%p%info=0%n=2\nb%c%p%info=0%n=3\n", 2),
        ("a%c%p%info=0%n=1\nb%c%p%info=0%n=2\nb%c%p%info=0%n=3\n", 3),
        (" a%c%p%info=0%n=1\n\n# x\na % c % p % info = 0 % n = 2\n", 4),
        # unsorted: the duplicate is of a key read before the first key
        # out of order, and is not next to it
        ("a%c%p%info=0%n=1\nc%c%p%info=0%n=2\nb%c%p%info=0%n=3\na%c%p%info=0%n=4\n", 4),
        ("b%c%p%info=0%n=1\na%c%p%info=0%n=2\nc%c%p%info=0%n=3\nb%c%p%info=0%n=4\n", 4),
        ("c%c%p%info=0%n=1\nb%c%p%info=0%n=2\na%c%p%info=0%n=3\nb%c%p%info=0%n=4\n", 4),
    ],
    ids=["first-two", "last-two", "padded", "unsorted-1", "unsorted-2", "descending"],
)
def test_open_names_the_duplicate_line_wherever_it_is(tmp_path, text, lineno):
    path = tmp_path / "dtbopt"
    path.write_text(text)
    got = opened(path)  # through StoreReader too, which keeps no key set here
    assert got == reference_open(path)
    assert got.startswith(f"{path}:{lineno}: duplicate key ")


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8))
def test_open_checks_keys_in_any_order(tmp_path, problems):
    path = tmp_path / "dtbopt"
    path.write_text("".join(f"s%c%{p}%info=0%n={i}\n" for i, p in enumerate(problems)))
    assert opened(path) == reference_open(path)


def test_a_scan_reads_the_file_it_opened(tmp_path):
    # profile reads without the lock: an add may rename a sorted store over
    # the path while a scan of the reversed one is under way
    path = tmp_path / "dtbopt"
    lines = [f"s%c%p{i}%info=0%n={i}\n" for i in range(5)]
    path.write_text("".join(reversed(lines)))
    (tmp_path / "new").write_text("".join(lines))
    renamed = []

    def match(key):
        if not renamed:
            renamed.append(os.replace(tmp_path / "new", path))
        return True

    got = ["%".join(key) for key, _, _ in StoreReader(path).entries(match)]
    assert got == [line.split("%info")[0] for line in reversed(lines)]


@pytest.fixture
def opens(monkeypatch):
    """The store files opened, one item per open."""
    paths = []

    def counted(path, *args):
        paths.append(path)
        return open_text(path, *args)

    monkeypatch.setattr("libopt.store.open_text", counted)
    return paths


@pytest.mark.parametrize(
    "reader", [Store.open, lambda path: list(StoreReader(path).entries(lambda key: True))],
    ids=["Store.open", "StoreReader"],
)
def test_a_store_out_of_order_is_opened_once(tmp_path, opens, reader):
    path = tmp_path / "dtbopt"
    path.write_text("".join(f"s%c%p{i}%info=0%n={i}\n" for i in reversed(range(5))))
    reader(path)
    assert opens == [path]


def test_delete_on_two_keys_swapped_opens_the_store_twice(tmp_path, opens):
    # the merge's scan meets the swap, then a scan in set mode reads it whole
    path = tmp_path / "dtbopt"
    keys = [f"p{i:02}" for i in range(20)]
    keys[17], keys[18] = keys[18], keys[17]
    path.write_text("".join(f"s%c%{k}%info=0%n=1\n" for k in keys))
    assert delete_from(path, Selection(solver="z"), save=False) == (0, 0)
    assert opens == [path, path]


@pytest.mark.parametrize("flag", [[], ["-r"], ["-d"]], ids=["add", "add-r", "add-d"])
def test_add_of_a_file_ending_in_an_undecodable_byte_exits_two(tmp_path, monkeypatch, capsys, flag):
    from libopt.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))  # no startup file
    monkeypatch.delenv("LIBOPT_RC", raising=False)
    store = tmp_path / "dtbopt"
    store.write_text("a%c%p%info=0%n=1\n")
    before = store.read_bytes()
    lines = "".join(f"libopt%a%c%p{i}%info=0%n={i}\n" for i in range(500))
    (tmp_path / "r.lbt").write_bytes(f"libopt%a%c%p%info=0%n=2\n{lines}".encode() + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        (tmp_path / "r.lbt").read_text()
    what = "selection file" if flag == ["-d"] else "result file"
    assert main(["add", "-b", "dtbopt", *flag, "r.lbt"]) == 2
    assert capsys.readouterr().err == f"error: cannot read {what} r.lbt: {whole.value}\n"
    assert store.read_bytes() == before


def test_add_d_of_a_bad_line_then_an_undecodable_byte_reports_the_byte(tmp_path):
    path = tmp_path / "gone.lbt"
    path.write_bytes(b"libopt%a%c%p%info=0%n=1\nbad\n" + FILLER.encode() + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text()
    store = Store()
    with pytest.raises(StoreError) as err:
        store.delete(path)
    assert str(err.value) == f"cannot read selection file {path}: {whole.value}"


# the memory guards: a sorted store of 20,000 entries, about 1 MB
BIG_ENTRIES = 20_000


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "dtbopt"
    path.write_text(
        "".join(
            f"solver{i % 7}%collection%problem{i:06d}%info=0%nfc={i}%time=0.25\n"
            for i in sorted(range(BIG_ENTRIES), key=lambda i: (i % 7, i))
        )
    )
    return path


@contextmanager
def tracing():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def traced(call):
    """What ``call()`` returns, with the traced memory before it, after it
    and at its peak; what was allocated before tracing is not counted."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    result = call()
    end, peak = tracemalloc.get_traced_memory()
    return result, start, end, peak


def test_save_holds_no_copy_of_the_store_text(big_store, tmp_path):
    with tracing():
        store = Store.open(big_store)
        store.path = tmp_path / "dtbopt"
        _, start, _, peak = traced(store.save)
    assert store.path.read_bytes() == big_store.read_bytes()
    assert peak - start < big_store.stat().st_size / 2


def test_open_holds_no_copy_of_the_store_text(big_store):
    with tracing():
        store, _, end, peak = traced(lambda: Store.open(big_store))
    assert len(store) == BIG_ENTRIES
    assert peak - end < big_store.stat().st_size / 4


def test_reader_holds_neither_the_text_nor_the_keys(big_store):
    with tracing():
        read, start, _, peak = traced(
            lambda: list(StoreReader(big_store).entries(lambda key: False))
        )
    assert read == []
    assert peak - start < big_store.stat().st_size / 4


def test_import_holds_no_copy_of_the_result_file(big_store, tmp_path):
    # every other entry of the store, as result lines
    resfile = tmp_path / "r.lbt"
    with open(big_store) as lines, open(resfile, "w") as out:
        out.writelines(f"libopt%{line}" for line in islice(lines, 0, None, 2))
    with tracing():
        store = Store.open(big_store)
        report, start, _, peak = traced(lambda: store.import_file(resfile, replace=True))
    assert (report.added, report.replaced, report.invalid) == (0, BIG_ENTRIES // 2, 0)
    assert peak - start < resfile.stat().st_size / 2


def traced_add(big_store, argv):
    """``add`` on a copy of the big store, traced as ``traced`` traces;
    an untraced call first compiles and fills what every call shares."""
    from libopt.cli import main

    Path("rc").write_text("")
    for trace in (False, True):
        shutil.copyfile(big_store, "dtbopt")
        if trace:
            with tracing():
                return traced(lambda: main(["add", "--config", "rc", *argv]))
        main(["add", "--config", "rc", *argv])


def test_add_holds_neither_the_store_text_nor_its_entries(big_store, tmp_path, monkeypatch):
    # 200 result lines: 100 keys of the store, and 100 new ones
    monkeypatch.chdir(tmp_path)
    with open(big_store) as lines, open("r.lbt", "w") as out:
        out.writelines(f"libopt%{line}" for line in islice(lines, 0, BIG_ENTRIES, 200))
        out.writelines(f"libopt%new%c%p{i}%info=0%n={i}\n" for i in range(100))
    code, start, _, peak = traced_add(big_store, ["-r", "r.lbt"])
    assert code == 0
    assert peak - start < big_store.stat().st_size / 4
    assert len(Store.open("dtbopt")) == BIG_ENTRIES + 100


def test_add_holds_little_per_result_line(big_store, tmp_path, monkeypatch):
    # 5,000 fresh lines: what add holds of each sets the peak, not the store
    monkeypatch.chdir(tmp_path)
    lines = 5_000
    Path("r.lbt").write_text("".join(f"libopt%new%c%p{i:05d}%info=0%n={i}\n" for i in range(lines)))
    code, start, _, peak = traced_add(big_store, ["r.lbt"])
    assert code == 0
    assert (peak - start) / lines < 160
    assert len(Store.open("dtbopt")) == BIG_ENTRIES + lines


def test_add_d_pattern_holds_neither_the_store_text_nor_its_entries(big_store, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, start, _, peak = traced_add(big_store, ["-d", "solver3%"])
    assert code == 0
    assert peak - start < big_store.stat().st_size / 4
    assert len(Store.open("dtbopt")) == BIG_ENTRIES - len(range(3, BIG_ENTRIES, 7))


@pytest.mark.parametrize(
    "number,stored",
    [
        ("1.50", "1.5"),
        ("1E3", "1000"),
        ("+5", "5"),
        ("007", "7"),
        ("0.00001", "1e-05"),
        ("9007199254740993", "9007199254740992"),  # 16 digits: a float cannot keep them
        ("٣", "3"),
    ],
)
def test_a_number_not_in_canonical_form_is_respelled(tmp_path, number, stored):
    from libopt.record import parse_entry

    assert format_number(float(number)) == stored
    assert parse_entry(f"libopt%a%c%p%info=0%n={number}")[2] == f"%info=0%n={stored}"
    (tmp_path / "r.lbt").write_text(f"libopt%a%c%p%info=0%n={number}\n")
    store = Store(tmp_path / "dtbopt")
    store.import_file(tmp_path / "r.lbt")
    store.save()
    assert (tmp_path / "dtbopt").read_text() == f"a%c%p%info=0%n={stored}\n"


def test_a_number_in_canonical_form_keeps_its_text(monkeypatch):
    from libopt import record

    def unused(value):
        raise AssertionError(f"{value!r} formatted")

    monkeypatch.setattr(record, "format_number", unused)
    assert record.parse_entry("libopt%a%c%p%info=0%n=-0%t=0.0001")[2] == "%info=0%n=-0%t=0.0001"
