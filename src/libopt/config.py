"""Startup file parsing and effective-settings resolution.

The startup file (``~/.liboptrc`` by default) carries three directives:

    tokens = list-of-tokens
    performance_tokens = list-of-performance-tokens
    data_base = DBFile

A database name given on the command line has priority over ``data_base``,
which in turn has priority over the default ``dtbopt`` in the working
directory.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .errors import LiboptError, content_lines, read_text
from .record import RecordError, TokenConfig, check_name

ROOT_ENV_VAR = "LIBOPT_DIR"
RC_ENV_VAR = "LIBOPT_RC"
DEFAULT_RC_NAME = ".liboptrc"
DEFAULT_STORE_NAME = "dtbopt"

_LIST_DIRECTIVES = ("tokens", "performance_tokens")
_DIRECTIVES = _LIST_DIRECTIVES + ("data_base",)


class ConfigError(LiboptError):
    pass


class StartupFile(NamedTuple):
    tokens: tuple[str, ...] | None = None
    performance_tokens: tuple[str, ...] | None = None
    data_base: Path | None = None


def parse_startup(text: str, source_path: Path | None = None) -> StartupFile:
    """Parse startup-file text; unknown or duplicated directives are errors."""
    seen: dict[str, object] = {}
    for lineno, line in content_lines(text):
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        where = f"{source_path or '<startup>'}:{lineno}"
        if not sep:
            raise ConfigError(f"{where}: malformed directive line {line!r}")
        if name not in _DIRECTIVES:
            raise ConfigError(f"{where}: unknown directive {name!r}")
        if name in seen:
            raise ConfigError(f"{where}: duplicate directive {name!r}")
        if not value:
            raise ConfigError(f"{where}: empty value for directive {name!r}")
        if name in _LIST_DIRECTIVES:
            try:
                seen[name] = tuple(check_name(t, "token") for t in value.split())
            except RecordError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        else:
            words = value.split()
            if len(words) != 1:
                raise ConfigError(f"{where}: data_base takes a single file name")
            if "\0" in words[0]:
                raise ConfigError(f"{where}: data_base file name holds a NUL")
            seen[name] = Path(words[0])
    tokens = seen.get("tokens")
    performance = seen.get("performance_tokens")
    if tokens is not None and performance is not None:
        stray = set(performance) - set(tokens)
        if stray:
            raise ConfigError(
                f"performance tokens not among the tokens: {sorted(stray)}"
            )
    return StartupFile(
        tokens=tokens,
        performance_tokens=performance,
        data_base=seen.get("data_base"),
    )


def load_startup(explicit: Path | str | None = None) -> StartupFile | None:
    """The startup file named on the command line, else by a non-empty
    ``$LIBOPT_RC``, else ``~/.liboptrc``: a named file must exist, the
    home-directory default may be absent (None)."""
    named = explicit if explicit is not None else os.environ.get(RC_ENV_VAR) or None
    path = Path.home() / DEFAULT_RC_NAME if named is None else Path(named)
    if not path.is_file():
        if named is not None:
            raise ConfigError(f"startup file not found: {path}")
        return None
    return parse_startup(read_text(path, "startup file", ConfigError), source_path=path)


def token_config(startup: StartupFile | None) -> TokenConfig:
    if startup is None:
        return TokenConfig()
    return TokenConfig(
        valid_tokens=frozenset(startup.tokens) if startup.tokens is not None else None,
        performance_tokens=(
            frozenset(startup.performance_tokens)
            if startup.performance_tokens is not None
            else None
        ),
    )


def resolve_store_path(
    cli_arg: Path | str | None,
    startup: StartupFile | None,
    working_dir: Path | str,
) -> Path:
    """Command line beats startup file beats the working-directory default."""
    if cli_arg is not None:
        return Path(cli_arg)
    if startup is not None and startup.data_base is not None:
        return startup.data_base
    return Path(working_dir) / DEFAULT_STORE_NAME
