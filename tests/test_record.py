from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from libopt.record import (
    LiboptRecord,
    RecordError,
    TokenConfig,
    TokenPair,
    filter_stream,
    format_number,
    iter_result_lines,
    parse_line,
    serialize,
    validate_tokens,
)

EXAMPLE = "libopt%m1qn3%modulopt%u1mt1%n=1875%nfc=143%nga=143%info=0"


def test_parse_example_line():
    record = parse_line(EXAMPLE)
    assert record.solver == "m1qn3"
    assert record.tag is None
    assert record.collection == "modulopt"
    assert record.problem == "u1mt1"
    assert [(p.token, p.value) for p in record.pairs] == [
        ("n", 1875.0),
        ("nfc", 143.0),
        ("nga", 143.0),
        ("info", 0.0),
    ]


def test_serialize_example_is_byte_exact():
    assert serialize(parse_line(EXAMPLE)) == EXAMPLE


def test_parse_strips_blanks_and_comment():
    record = parse_line("libopt % a % b % c % info=0 % t=1  # comment")
    assert (record.solver, record.tag, record.collection, record.problem) == (
        "a",
        None,
        "b",
        "c",
    )
    assert [(p.token, p.value) for p in record.pairs] == [("info", 0.0), ("t", 1.0)]


def test_parse_tagged_solver():
    record = parse_line("libopt%goya.quatro-de-junio%coll%prob%info=0%time=2")
    assert record.solver == "goya"
    assert record.tag == "quatro-de-junio"
    assert record.solver_with_tag == "goya.quatro-de-junio"


def test_tag_splits_at_first_dot_only():
    record = parse_line("libopt%s.t1.t2%c%p%info=0%x=1")
    assert record.solver == "s"
    assert record.tag == "t1.t2"
    assert parse_line(serialize(record)) == record


@pytest.mark.parametrize(
    "line",
    [
        "m1qn3%modulopt%u1mt1%n=1%info=0",  # missing sentinel
        "libopt%solv%coll",  # fewer than 4 positional fields
        "libopt%so-lv%coll%prob%info=0%n=1",  # invalid solver name
        "libopt%solv%coll%prob%info=0%n",  # pair with no '='
        "libopt%solv%coll%prob%info=0%=3",  # empty token
        "libopt%solv%coll%prob%info=0%n=abc",  # unparseable number
        "libopt%solv%coll%prob%info=0",  # fewer than 2 pairs
        "libopt%solv%coll%prob%n=1%m=2",  # missing info
        "libopt%solv%coll%prob%info=0%n=1%n=2",  # duplicate token
        "libopt%.tag%coll%prob%info=0%n=1",  # empty solver before the dot
        "libopt%solv%coll%prob%info=0%n=1e999",  # non-finite after float()
        "libopt%solv.t\u00a0ag%coll%prob%info=0%n=1",  # non-ASCII space in the tag
        "libopt%solv%coll%pr\rob%info=0%n=1",  # embedded carriage return
        "libopt%solv%coll%prob%info=0%n=1 # a\rb",  # carriage return in a comment
    ],
)
def test_parse_rejects(line):
    with pytest.raises(RecordError):
        parse_line(line)


@pytest.mark.parametrize(
    "line,solver,tag,pairs",
    [
        ("libopt%s%c%p%info=0%x=5.", "s", None, [("info", 0.0), ("x", 5.0)]),
        ("libopt%s%c%p%info=0%x=.5", "s", None, [("info", 0.0), ("x", 0.5)]),
        ("libopt%s%c%p%info=0%x=+1E+3", "s", None, [("info", 0.0), ("x", 1000.0)]),
        (" \tlibopt \t%s%c%p%info = 0%x\t=\t-2", "s", None, [("info", 0.0), ("x", -2.0)]),
        ("libopt%s.v1.2.rc%c%p%info=1%x=3", "s", "v1.2.rc", [("info", 1.0), ("x", 3.0)]),
    ],
)
def test_parse_accepts(line, solver, tag, pairs):
    record = parse_line(line)
    assert (record.solver, record.tag, record.collection, record.problem) == (
        solver,
        tag,
        "c",
        "p",
    )
    assert [(p.token, p.value) for p in record.pairs] == pairs
    assert parse_line(serialize(record)) == record


def test_serialize_minimal_record():
    record = LiboptRecord("a", "b", "c", (TokenPair("info", 0.0), TokenPair("x", 1.0)))
    assert serialize(record) == "libopt%a%b%c%info=0%x=1"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_serialize_rejects_a_non_finite_value(value):
    # no line could carry the value back: parse_line rejects it
    record = LiboptRecord("a", "b", "c", (TokenPair("info", 0.0), TokenPair("x", value)))
    with pytest.raises(RecordError, match="non-finite value for token 'x'"):
        serialize(record)


@pytest.mark.parametrize(
    "pairs,message",
    [
        ((("n", 1.0),), "a result needs at least two token-number pairs"),
        ((("info", 0.0), ("n", 1.0), ("n", 2.0)), "duplicate token 'n'"),
        ((("n", 1.0), ("m", 2.0)), "missing mandatory 'info' pair"),
    ],
    ids=["one pair", "duplicate token", "no info"],
)
def test_serialize_rejects_a_token_layout_parse_line_rejects(pairs, message):
    # the line serialize would write is one parse_line rejects, so no line
    # could carry the record back
    record = LiboptRecord("a", "c", "p", tuple(TokenPair(t, v) for t, v in pairs))
    line = "libopt%a%c%p" + "".join(f"%{t}={format_number(v)}" for t, v in pairs)
    with pytest.raises(RecordError, match=message):
        parse_line(line)
    with pytest.raises(RecordError, match=message):
        serialize(record)


@pytest.mark.parametrize(
    "value,text",
    [(1875.0, "1875"), (0.5, "0.5"), (-3.0, "-3"), (1e20, "1e+20"), (2.5e-10, "2.5e-10")],
)
def test_format_number_shortest_form(value, text):
    assert format_number(value) == text
    assert float(text) == value


names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=10,
)
tags = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=12
)
values = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    tokens = draw(
        st.lists(names, min_size=1, max_size=6, unique=True).filter(
            lambda ts: "info" not in ts
        )
    )
    pairs = [TokenPair(t, draw(values)) for t in tokens]
    pairs.insert(draw(st.integers(0, len(pairs))), TokenPair("info", draw(values)))
    return LiboptRecord(
        solver=draw(names),
        collection=draw(names),
        problem=draw(names),
        pairs=tuple(pairs),
        tag=draw(st.none() | tags),
    )


@settings(max_examples=300)
@given(records())
def test_round_trip_identity(record):
    assert parse_line(serialize(record)) == record


@settings(max_examples=200)
@given(records(), st.data())
def test_blank_and_comment_insensitivity(record, data):
    fields = serialize(record).split("%")
    blanks = st.text(alphabet=" \t", max_size=3)
    padded = "%".join(data.draw(blanks) + f + data.draw(blanks) for f in fields)
    if data.draw(st.booleans()):
        padded += "#" + data.draw(st.text(st.characters(blacklist_characters="\n\r")))
    assert parse_line(padded) == record


# text near the grammar: fragments of valid lines, stray blanks and separators
line_like = st.lists(
    st.sampled_from(
        ["libopt", "%", "s", "s.t", "c", "p", "info", "n", "=", "0", "1e5", "-.5",
         "1e999", " ", "\t", "#", "\r", "\n", "\u00a0", "\u0663", "."]
    )
).map("".join)


@settings(max_examples=500)
@given(st.text() | line_like)
def test_parse_line_returns_record_or_raises_record_error(text):
    try:
        record = parse_line(text)
    except RecordError:
        return
    assert parse_line(serialize(record)) == record


def tokens_of(record):
    return tuple(pair.token for pair in record.pairs)


def test_validate_tokens_subset_ok():
    record = parse_line("libopt%s%c%p%n=1%nfc=2%info=0")
    config = TokenConfig(valid_tokens=frozenset({"n", "nfc", "nga", "info"}))
    assert validate_tokens(tokens_of(record), record.key_text(), config) == []


def test_validate_tokens_reports_unknown():
    record = parse_line("libopt%s%c%p%nfg=2%info=0")
    config = TokenConfig(valid_tokens=frozenset({"nfc", "info"}))
    errors = validate_tokens(tokens_of(record), record.key_text(), config)
    assert len(errors) == 1
    assert "nfg" in errors[0]


def test_validate_tokens_no_config_no_verification():
    record = parse_line("libopt%s%c%p%weird=2%info=0")
    assert validate_tokens(tokens_of(record), record.key_text(), TokenConfig()) == []


def test_validate_tokens_requires_performance_pair_when_configured():
    config = TokenConfig(
        valid_tokens=frozenset({"n", "nfc", "info"}),
        performance_tokens=frozenset({"nfc"}),
    )
    good = parse_line("libopt%s%c%p%nfc=2%info=0")
    assert validate_tokens(tokens_of(good), good.key_text(), config) == []
    bad = parse_line("libopt%s%c%p%n=10%info=0")
    errors = validate_tokens(tokens_of(bad), bad.key_text(), config)
    assert any("performance" in e for e in errors)


def test_filter_stream_tags_result_lines():
    records_out, warnings = [], []
    lines = list(
        filter_stream(
            ["libopt%goya%c%p%info=0%t=1"],
            tag="quatro-de-junio",
            records=records_out,
            warnings=warnings,
        )
    )
    assert lines == ["libopt%goya.quatro-de-junio%c%p%info=0%t=1"]
    assert records_out[0].solver == "goya"
    assert records_out[0].tag == "quatro-de-junio"
    assert warnings == []


def test_filter_stream_passes_other_lines_unchanged():
    lines = ["iteration 12: f=3.4", "", "# libopt%notaline"]
    assert list(filter_stream(lines, tag="x")) == lines


def test_filter_stream_without_tag_harvests_unchanged():
    records_out = []
    line = "libopt%s%c%p%info=0%n=2"
    assert list(filter_stream([line], records=records_out)) == [line]
    assert records_out[0] == parse_line(line)


def test_filter_stream_preserves_padding_when_tagging():
    line = "libopt % goya % c % p % n=3 % info=0  # note"
    (out,) = filter_stream([line], tag="v2")
    assert out == "libopt % goya.v2 % c % p % n=3 % info=0  # note"
    assert parse_line(out).tag == "v2"


def test_filter_stream_warns_on_malformed_sentinel_line():
    warnings = []
    bad = "libopt%only%three"
    assert list(filter_stream([bad], warnings=warnings)) == [bad]
    assert len(warnings) == 1


def test_filter_stream_modifies_iff_line_parses():
    # sentinel uniqueness: a line is rewritten exactly when it parses
    lines = [
        "libopt%s%c%p%info=0%n=1",
        "libopt%s%c%p%info=0",  # too few pairs: passes through untouched
        "libopt stuff",
    ]
    out = list(filter_stream(lines, tag="z"))
    assert out[0] != lines[0]
    assert out[1:] == lines[1:]


# each line with its tagged form, TAG standing for the tag: ".TAG" goes
# right after the solver field, before its padding
TAGGED = {
    # untagged
    "libopt%goya%c%p%info=0%t=1": "libopt%goya.TAG%c%p%info=0%t=1",
    # already tagged
    "libopt%goya.old%c%p%info=0%t=1": "libopt%goya.old.TAG%c%p%info=0%t=1",
    # tag with a later dot
    "libopt%goya.a.b%c%p%info=0%t=1": "libopt%goya.a.b.TAG%c%p%info=0%t=1",
    # padded
    " libopt % goya\t% c % p % n=3 % info=0  ":
        " libopt % goya.TAG\t% c % p % n=3 % info=0  ",
    # commented: the comment's '%' and '=' stay as they are
    "libopt%goya%c%p%info=0%t=1 # comment % with = signs":
        "libopt%goya.TAG%c%p%info=0%t=1 # comment % with = signs",
    "libopt % goya.old % c%p%info=1%t=2.5e3# tight comment":
        "libopt % goya.old.TAG % c%p%info=1%t=2.5e3# tight comment",
}


@pytest.mark.parametrize("line", list(TAGGED))
@pytest.mark.parametrize("tag", ["v2", "x.y"])
def test_filter_stream_tagged_record_equals_reparse(line, tag):
    records_out = []
    (out,) = filter_stream([line], tag=tag, records=records_out)
    assert out == TAGGED[line].replace("TAG", tag)
    assert records_out == [parse_line(out)]


def test_iter_result_lines_skips_blanks_and_comments():
    text = "# header\n\nlibopt%a%b%c%info=0%n=1\n   \n# x\nlibopt%d%e%f%info=1%n=2\n"
    assert [lineno for lineno, _ in iter_result_lines(text)] == [3, 6]


def test_iter_result_lines_breaks_only_at_newline():
    # \x85, \v, \f, \x1c-\x1e, \u2028 and \u2029 stay inside their line
    for char in "\x85\v\f\x1c\x1d\x1e\u2028\u2029":
        text = f"libopt%a%c%p%info=0%n=1 # note{char}more\nlibopt%a%c%q%info=0%n=1\n"
        assert [lineno for lineno, _ in iter_result_lines(text)] == [1, 2]
