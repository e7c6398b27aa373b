from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from libopt.errors import LiboptError
from libopt.config import (
    ConfigError,
    StartupFile,
    load_startup,
    parse_startup,
    resolve_store_path,
    token_config,
)


def test_parse_token_directives():
    startup = parse_startup("tokens = n nfc nga info\nperformance_tokens = nfc nga\n")
    assert startup.tokens == ("n", "nfc", "nga", "info")
    assert startup.performance_tokens == ("nfc", "nga")
    assert startup.data_base is None


def test_parse_empty_file_means_no_verification():
    startup = parse_startup("")
    assert startup == StartupFile()
    config = token_config(startup)
    assert config.valid_tokens is None and config.performance_tokens is None


def test_parse_comments_and_blank_lines():
    text = "# header\n\ntokens = a info  # inline\n\ndata_base = mydb\n"
    startup = parse_startup(text)
    assert startup.tokens == ("a", "info")
    assert startup.data_base == Path("mydb")


def test_performance_tokens_must_be_among_tokens():
    with pytest.raises(ConfigError):
        parse_startup("tokens = n info\nperformance_tokens = time\n")


@pytest.mark.parametrize(
    "text",
    [
        "colour = blue\n",  # unknown directive
        "tokens = a\ntokens = b\n",  # duplicate directive
        "tokens\n",  # no '='
        "data_base = one two\n",  # multiple paths
        "tokens =\n",  # empty value
        "tokens = bad-name\n",  # invalid token name
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_startup(text)


startup_text = st.lists(
    st.sampled_from(
        ["tokens", "performance_tokens", "data_base", "=", " ", "\t", "\n", "\r",
         "\x85", "#", "n", "info", "nfc", "a-b", "db/x", "\x00", "\xa0", "\u0663"]
    )
).map("".join)


@settings(max_examples=300)
@given(st.text() | startup_text)
def test_parse_startup_returns_settings_or_raises_a_libopt_error(text):
    try:
        startup = parse_startup(text)
    except LiboptError:
        return
    assert startup.data_base is None or "\0" not in str(startup.data_base)


def test_parse_rejects_a_data_base_name_holding_a_nul():
    with pytest.raises(ConfigError, match="<startup>:2: data_base file name holds a NUL"):
        parse_startup("tokens = n info\ndata_base = a\0b\n")



def test_parse_startup_counts_lines_at_newlines_only():
    # a form feed is not a line break: line 2 is the bad directive
    with pytest.raises(ConfigError, match="<startup>:2: unknown directive 'bogus'"):
        parse_startup("tokens = nfc info\x0c\nbogus = 1\n")
    startup = parse_startup("tokens = nfc\u2028info\n")
    assert startup.tokens == ("nfc", "info")

def test_store_path_cli_beats_startup():
    startup = StartupFile(data_base=Path("other"))
    assert resolve_store_path("mydb", startup, Path("/w")) == Path("mydb")


def test_store_path_startup_beats_default():
    startup = StartupFile(data_base=Path("other"))
    assert resolve_store_path(None, startup, Path("/w")) == Path("other")


def test_store_path_default():
    assert resolve_store_path(None, None, Path("/w")) == Path("/w/dtbopt")
    assert resolve_store_path(None, StartupFile(), Path("/w")) == Path("/w/dtbopt")


def test_load_startup_priority(tmp_path, monkeypatch):
    # the command line, then a non-empty $LIBOPT_RC, then ~/.liboptrc
    monkeypatch.setenv("HOME", str(tmp_path))
    for name, token in (("rc", "a"), ("envrc", "b"), (".liboptrc", "c")):
        (tmp_path / name).write_text(f"tokens = {token} info\n")
    monkeypatch.setenv("LIBOPT_RC", str(tmp_path / "envrc"))
    assert load_startup(tmp_path / "rc").tokens == ("a", "info")
    assert load_startup().tokens == ("b", "info")
    monkeypatch.setenv("LIBOPT_RC", "")
    assert load_startup().tokens == ("c", "info")
    monkeypatch.delenv("LIBOPT_RC")
    assert load_startup().tokens == ("c", "info")
    # a named file must exist; the default may be absent
    (tmp_path / ".liboptrc").unlink()
    assert load_startup() is None
    with pytest.raises(ConfigError, match="startup file not found"):
        load_startup(tmp_path / "absent")
    monkeypatch.setenv("LIBOPT_RC", str(tmp_path / "absent"))
    with pytest.raises(ConfigError, match="startup file not found"):
        load_startup()


def test_load_startup_missing_explicit_is_an_error(tmp_path):
    with pytest.raises(ConfigError):
        load_startup(tmp_path / "absent")


def test_load_startup_reads_file(tmp_path):
    rc = tmp_path / "rc"
    rc.write_text("tokens = n info\n")
    startup = load_startup(rc)
    assert startup.tokens == ("n", "info")


def test_shipped_sample_startup_parses():
    sample = Path(__file__).resolve().parents[1] / "docs" / "liboptrc_optim"
    startup = parse_startup(sample.read_text(), source_path=sample)
    assert startup.tokens is not None
    assert set(startup.performance_tokens) <= set(startup.tokens)
