from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from libopt.record import TokenConfig, parse_line
from libopt.store import (
    DuplicateEntryError,
    Selection,
    Store,
    StoreError,
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


def test_add_validates_against_config():
    store = Store()
    config = TokenConfig(valid_tokens=frozenset({"info"}))
    with pytest.raises(StoreError):
        store.add(R1, config=config)


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


def test_locked_serializes_writers(tmp_path):
    path = tmp_path / "dtbopt"
    with locked(path):
        store = Store.open(path)
        store.add(R1)
        store.save()
    assert Store.open(path).query()[0][0].text() == "a%c%p"
