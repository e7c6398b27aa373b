from __future__ import annotations

import ast
import errno
import gc
import io
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import libopt
from libopt.cli import build_parser, main
from libopt.config import load_startup, resolve_store_path, token_config
from libopt.errors import LiboptError
from libopt.profile import (
    compute_profiles,
    compute_ratios,
    emit_gnuplot,
    emit_matlab,
    parse_spec,
    select,
)
from libopt.store import Selection, Store, StoreError, StoreReader, parse_selection
from libopt.toys import generate_fixture
from test_store import canonical_stores, spelled_stores, store_like, store_text


@pytest.fixture
def env(tmp_path, monkeypatch):
    """Fixture hierarchy plus an empty working directory, cwd switched."""
    root = tmp_path / "root"
    wd = tmp_path / "wd"
    wd.mkdir()
    spec = generate_fixture(root, seed=1)
    monkeypatch.chdir(wd)
    monkeypatch.setenv("LIBOPT_DIR", str(root))
    monkeypatch.delenv("LIBOPT_RC", raising=False)
    monkeypatch.delenv("LIBOPT_PLAT", raising=False)
    return spec, wd


def test_help_exits_zero(capsys):
    assert main(["run", "-h"]) == 0
    assert "usage" in capsys.readouterr().out


def test_every_subcommand_has_help(capsys):
    for sub in ("run", "add", "profile", "install"):
        assert main([sub, "-h"]) == 0
        assert "usage" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_aliases_map_to_subcommands(env, capsys):
    assert main(["-h"], prog="addopt") == 0
    out = capsys.readouterr().out
    assert "ResFile" in out


def test_run_requires_root(env, monkeypatch, capsys):
    monkeypatch.delenv("LIBOPT_DIR")
    assert main(["run"]) == 2
    assert "LIBOPT_DIR" in capsys.readouterr().err


def test_run_refuses_working_dir_inside_root(env, monkeypatch, capsys):
    spec, _ = env
    monkeypatch.chdir(spec.root)
    assert main(["run"]) == 2
    assert "refusing" in capsys.readouterr().err


def test_run_from_stdin(env, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys alpha\n"))
    assert main(["run"]) == 0
    out = capsys.readouterr().out
    assert "libopt%fakea%toys%alpha%" in out


def test_run_reads_a_command_file_as_it_reads_stdin(env, monkeypatch, capsys):
    # only "\n" ends a command line: the comment runs past the "\x85"
    _, wd = env
    text = "fakea toys alpha # then\x85fakeb toys alpha\n"
    (wd / "cmds").write_text(text)
    assert main(["run", "cmds"]) == 0
    from_file = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["run"]) == 0
    assert capsys.readouterr() == from_file
    assert "libopt%fakeb%" not in from_file.out
    assert from_file.err.endswith("commands: 1, runs: 1, skips: 0, failures: 0\n")


def test_run_skip_exits_one(env, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys.nosuch\n"))
    assert main(["run"]) == 1
    assert "ignored" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"alpha b-d\n", b"alpha \xff\n"])
def test_run_skips_a_command_whose_list_file_is_bad(env, monkeypatch, capsys, content):
    _, wd = env
    (wd / "toys.bad.lst").write_bytes(content)
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys.bad\nfakea toys\n"))
    assert main(["run"]) == 1
    out, err = capsys.readouterr()
    assert "libopt%fakea%toys%" in out
    skipped = [line for line in err.splitlines() if line.startswith("skipping")]
    assert len(skipped) == 1
    assert skipped[0].startswith("skipping command 'fakea toys.bad': ")
    assert "toys.bad.lst" in skipped[0]
    assert "commands: 2," in err and "skips: 1," in err


def test_run_stops_at_a_solver_without_all_list(env, monkeypatch, capsys):
    spec, _ = env
    (spec.root / "solvers/fakea/toys/all.lst").unlink()
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys\nfakeb toys\n"))
    assert main(["run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: hierarchy inconsistency: missing ")


def test_run_names_a_solver_all_list_that_is_a_directory(env, monkeypatch, capsys):
    # an all.lst that exists but cannot be read is not "missing": its
    # reader's error skips the command, and the batch goes on
    spec, _ = env
    solver_all = spec.root / "solvers/fakea/toys/all.lst"
    solver_all.unlink()
    solver_all.mkdir()
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys\nfakeb toys\n"))
    assert main(["run"]) == 1
    out, err = capsys.readouterr()
    assert "libopt%fakeb%toys%" in out and "libopt%fakea%" not in out
    skipped = [line for line in err.splitlines() if line.startswith("skipping")]
    assert skipped == [
        f"skipping command 'fakea toys': cannot read list file {solver_all}:"
        f" [Errno 21] Is a directory: '{solver_all}'"
    ]
    assert "missing" not in err


class FailingStdout(io.StringIO):
    """A standard output whose first write, or only its flush, fails."""

    def __init__(self, exc: OSError, on_flush: bool = False):
        super().__init__()
        self.exc, self.on_flush = exc, on_flush

    def write(self, text):
        if self.on_flush:
            return super().write(text)
        raise self.exc

    def flush(self):
        if self.on_flush:
            raise self.exc


@pytest.mark.parametrize(
    "exc,on_flush",
    [
        (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), False),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), False),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), True),
    ],
    ids=["broken-pipe", "no-space", "no-space-on-flush"],
)
def test_run_whose_stdout_fails_stops_and_exits_two(env, monkeypatch, capsys, exc, on_flush):
    # the driver prints a result line, then would sleep: a batch that goes
    # on, or a driver left running or unreaped, shows. When only the flush
    # fails, the drivers finish and the flush before the summary fails.
    spec, wd = env
    lines = [
        "#!/bin/sh",
        f"echo $$ > {wd / 'driver.pid'}",
        'echo "libopt%fakea%toys%$1%info=0%nfc=1"',
        *([] if on_flush else ["exec sleep 30"]),
    ]
    (spec.root / "solvers/fakea/toys/fakea_toys").write_text("\n".join(lines) + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys alpha\nfakea toys bravo\n"))
    monkeypatch.setattr("sys.stdout", FailingStdout(exc, on_flush))
    assert main(["run"]) == 2
    assert capsys.readouterr().err == f"error: cannot write standard output: {exc}\n"
    with pytest.raises(ProcessLookupError):
        os.kill(int((wd / "driver.pid").read_text()), 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def into_a_full_device(wd, argv, stdin=None):
    """``libopt argv`` in a real process whose standard output is /dev/full."""
    src = str(Path(libopt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        return subprocess.run(
            [sys.executable, "-m", "libopt.cli", *argv],
            cwd=wd,
            env={**os.environ, "PYTHONPATH": path},
            input=stdin,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )


def test_run_into_a_full_device_ends_in_one_line(env):
    # a real process: Python's own flush of stdout at exit must stay quiet
    _, wd = env
    done = into_a_full_device(wd, ["run"], "fakea toys\n")
    assert done.returncode == 2
    assert done.stderr == "error: cannot write standard output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv", [["-h"], ["--version"]], ids=["help", "version"])
def test_help_or_version_into_a_full_device_exits_two(env, argv):
    # argparse's own writer drops a failed write; the text sits in the
    # buffer until the flush, which must fail before main returns 0
    _, wd = env
    done = into_a_full_device(wd, argv)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write standard output: [Errno 28] No space left on device\n"


class FailingStderr(io.StringIO):
    """A standard error whose every write fails."""

    def __init__(self, exc: OSError):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "argv,exc",
    [
        (["run"], NO_SPACE),
        (["add", "r.lbt"], NO_SPACE),
        (["add", "-d", "a%"], NO_SPACE),
        (["profile"], NO_SPACE),
        (["install"], NO_SPACE),
        (["add", "r.lbt"], BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))),
    ],
    ids=["run", "add", "add-d", "profile", "install", "add-broken-pipe"],
)
def test_a_standard_error_that_fails_exits_two(env, monkeypatch, argv, exc):
    # each call writes its summary to standard error, which fails: the
    # OSError must end in main, with exit status 2
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%nfc=1%info=0\nlibopt%b%c%p%nfc=2%info=0\n")
    assert main(["add", "r.lbt"]) == 0
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys\n"))
    monkeypatch.setattr("sys.stderr", FailingStderr(exc))
    assert main(argv) == 2


class FailingAfter(io.StringIO):
    """A standard stream that takes ``k`` characters; the write that would
    go past them fails, and so does every write after it, or, when not
    ``sticky``, only each write that would go past them, as a file on a
    nearly full disk can."""

    def __init__(self, k: int, exc: OSError, sticky: bool = True):
        super().__init__()
        self.k, self.exc, self.sticky, self.failed = k, exc, sticky, False

    def write(self, text):
        if self.failed and self.sticky or self.tell() + len(text) > self.k:
            self.failed = True
            raise self.exc
        return super().write(text)


STREAM_CALLS = [
    ["run"], ["run", "-v"], ["add", "r.lbt"], ["add", "-r", "r.lbt"], ["add", "-d", "fakea%", "-v"],
    ["profile", "-v"], ["install", "-v"], ["install", "-t"], ["-h"], ["--version"], ["--no-such-option"],
    ["profile", "--bogus"],
]
USAGE_ERRORS = [["--no-such-option"], ["profile", "--bogus"]]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.sampled_from(STREAM_CALLS),
    name=st.sampled_from(["stdout", "stderr"]),
    exc=st.sampled_from([BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), NO_SPACE]),
    k=st.sampled_from([0, 1, 10, 50, 200, 1000]) | st.integers(0, 1000),
    sticky=st.booleans(),
    closed=st.sampled_from([None, "stdin", "stdout", "stderr"]),
)
# a long write fails, and the short error line after it is taken
@example(argv=["run", "-v"], name="stderr", exc=NO_SPACE, k=50, sticky=False, closed=None)
@example(argv=["install", "-v"], name="stderr", exc=NO_SPACE, k=50, sticky=False, closed=None)
@example(argv=["run"], name="stderr", exc=NO_SPACE, k=1000, sticky=True, closed="stdout")
# help and version go to standard error when standard output is closed
@example(argv=["-h"], name="stderr", exc=BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
         k=0, sticky=True, closed="stdout")
@example(argv=["--version"], name="stderr", exc=NO_SPACE, k=0, sticky=True, closed="stdout")
@example(argv=["-h"], name="stdout", exc=NO_SPACE, k=0, sticky=True, closed=None)
@example(argv=["--version"], name="stdout", exc=NO_SPACE, k=0, sticky=True, closed=None)
# a usage error with standard error closed: its usage does not go to
# standard output, and the call exits 2
@example(argv=["--no-such-option"], name="stdout", exc=NO_SPACE, k=1000, sticky=True, closed="stderr")
@example(argv=["profile", "--bogus"], name="stdout", exc=NO_SPACE, k=1000, sticky=True, closed="stderr")
def test_no_failing_standard_stream_escapes_main(env, argv, name, exc, k, sticky, closed):
    # whatever the call and wherever the stream fails, main returns; a
    # failed standard error, or a failed stdout of run, -h or --version,
    # exits 2. A closed stream (`<&-`, `>&-`) is None; run exits 2 on a
    # closed stdin or stdout. A usage error writes nothing to stdout
    _, wd = env
    (wd / "dtbopt").write_text("fakea%toys%alpha%info=0%nfc=1\nfakeb%toys%alpha%info=0%nfc=2\n")
    (wd / "r.lbt").write_text(
        "libopt%fakea%toys%bravo%nfc=1%info=0\nlibopt%fakeb%toys%bravo%nfc=3%info=0\n"
    )
    (wd / "perfopt.spc").write_text("solver fakea fakeb\nperformance nfc\n")
    stream = FailingAfter(k, exc, sticky)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO("fakea toys alpha\n")
    setattr(sys, name, stream)
    if closed is not None:
        setattr(sys, closed, None)
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    assert code in (0, 1, 2)
    if stream.failed and (name == "stderr" or argv[0] in ("run", "-h", "--version")):
        assert code == 2
    if closed in ("stdin", "stdout") and argv[0] == "run":
        assert code == 2
    if argv in USAGE_ERRORS:
        assert code == 2
        if name == "stdout":
            assert stream.getvalue() == ""


@pytest.mark.parametrize(
    "argv", [["add", "r.lbt"], ["add", "-d", "a%"], ["profile"], ["run"]],
    ids=["add", "add-d", "profile", "run"],
)
def test_a_removed_working_directory_exits_two(env, monkeypatch, capsys, argv):
    # Path.cwd() fails with an OSError: one error line, and nothing
    # leaves main
    _, wd = env
    gone = wd / "gone"
    gone.mkdir()
    os.chdir(gone)  # the env fixture's monkeypatch restores the cwd
    gone.rmdir()
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys alpha\n"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_run_on_standard_input_that_does_not_decode_exits_two(env, monkeypatch, capsys):
    # as with a command file, one error line and exit 2; the run read
    # before the bad byte stays made (the padding fills the first chunk)
    data = b"fakea toys alpha\n#" + b"." * 9000 + b"\nfakeb toys alpha\n\xff\n"
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["run"]) == 2
    out, err = capsys.readouterr()
    assert "libopt%fakea%toys%alpha%" in out
    assert "libopt%fakeb%" not in out
    assert err.startswith("error: cannot read standard input: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


def test_run_on_a_closed_standard_input_exits_two(env, monkeypatch, capsys):
    # `libopt run <&-` leaves sys.stdin None: one error line, as for a
    # standard input that cannot be read, and no traceback
    monkeypatch.setattr("sys.stdin", None)
    assert main(["run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot read standard input: [Errno 9] Bad file descriptor\n"


@pytest.mark.parametrize("argv", [["run"], ["run", "-v", "cmds"]])
def test_run_into_a_closed_standard_output_runs_nothing_and_exits_two(env, monkeypatch, capsys, argv):
    # `libopt run cmds >&-` leaves sys.stdout None: every result line would
    # be lost, so the call stops before the first run
    spec, wd = env
    (spec.root / "solvers/fakea/toys/fakea_toys").write_text(f"#!/bin/sh\necho ran >> {wd / 'ran'}\n")
    (wd / "cmds").write_text("fakea toys alpha\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("fakea toys alpha\n"))
    monkeypatch.setattr("sys.stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write standard output: [Errno 9] Bad file descriptor\n"
    assert not (wd / "ran").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_add_with_a_full_standard_error_exits_two(env):
    # a real process: the store is saved, then the summary cannot be
    # written, and Python's own flush of stderr at exit must not fail
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%nfc=1%info=0\n")
    (wd / "rc").write_text("")
    src = str(Path(libopt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "libopt.cli", "add", "--config", "rc", "-b", "db", "r.lbt"],
            cwd=wd, env={**os.environ, "PYTHONPATH": path}, stderr=full, timeout=60,
        )
    assert done.returncode == 2
    assert (wd / "db").read_text() == "a%c%p%nfc=1%info=0\n"


def test_run_missing_command_file(env, capsys):
    assert main(["run", "absent.cmds"]) == 2


def test_add_then_delete_roundtrip(env, capsys):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "r.lbt"]) == 0
    assert Path("dtbopt").exists()
    assert main(["add", "-d", "a%"]) == 0
    err = capsys.readouterr().err
    assert "deleted 1" in err
    assert len(Store.open(wd / "dtbopt")) == 0


def test_add_ignores_a_root_that_is_not_a_directory(env, monkeypatch, capsys):
    # add never reads the hierarchy
    _, wd = env
    monkeypatch.setenv("LIBOPT_DIR", str(wd / "nonexistent"))
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "r.lbt"]) == 0
    assert main(["add", "-d", "a%"]) == 0
    assert "error" not in capsys.readouterr().err


def test_profile_checks_the_root_after_the_startup_file(env, monkeypatch, capsys):
    _, wd = env
    monkeypatch.setenv("LIBOPT_DIR", str(wd / "nonexistent"))
    assert main(["profile", "--config", "absent.rc"]) == 2
    assert "startup file not found" in capsys.readouterr().err
    assert main(["profile"]) == 2
    assert "is not a directory" in capsys.readouterr().err


def test_add_duplicate_reports_and_exits_one(env, capsys):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "r.lbt"]) == 0
    assert main(["add", "r.lbt"]) == 1
    assert "duplicates 1" in capsys.readouterr().err
    assert main(["add", "-r", "r.lbt"]) == 0


def test_add_explicit_db_flag(env):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "-b", "other.db", "r.lbt"]) == 0
    assert not (wd / "dtbopt").exists()
    assert len(Store.open(wd / "other.db")) == 1


def test_add_uses_startup_file_tokens(env, capsys):
    _, wd = env
    rc = wd / "rc"
    rc.write_text("tokens = n info\n")
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%typo=1\n")
    assert main(["add", "--config", str(rc), "r.lbt"]) == 1
    assert "typo" in capsys.readouterr().err


def test_add_startup_data_base(env, monkeypatch):
    _, wd = env
    rc = wd / "rc"
    rc.write_text("data_base = fromrc.db\n")
    monkeypatch.setenv("LIBOPT_RC", str(rc))
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "r.lbt"]) == 0
    assert (wd / "fromrc.db").exists()


def test_add_test_mode_leaves_store_untouched(env, capsys):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "-t", "r.lbt"]) == 0
    assert not (wd / "dtbopt").exists()
    assert "test mode" in capsys.readouterr().err


def test_add_delete_test_mode(env, capsys):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    main(["add", "r.lbt"])
    before = (wd / "dtbopt").read_bytes()
    assert main(["add", "-t", "-d", "a%"]) == 0
    assert "would delete 1" in capsys.readouterr().err
    assert (wd / "dtbopt").read_bytes() == before


def test_non_utf8_store_exits_two_with_one_line(env, capsys):
    _, wd = env
    (wd / "dtbopt").write_bytes(b"\xff%c%p%info=0%n=1\n")
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "r.lbt"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dtbopt" in err


def test_add_comment_with_unicode_line_break_is_one_line(env, capsys):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1 # note\x85more\n")
    assert main(["add", "r.lbt"]) == 0
    assert "added 1, replaced 0, duplicates 0, invalid 0" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_garbage_collector_state(env, enabled):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert main(["add", "r.lbt"]) == 0
        assert gc.isenabled() is enabled
        assert main(["add", "missing.lbt"]) == 2  # a LiboptError exit
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_startup_data_base_with_a_nul_exits_two(env, capsys):
    _, wd = env
    (wd / "rc").write_text("data_base = a\0b\n")
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "--config", "rc", "r.lbt"]) == 2
    assert capsys.readouterr().err == "error: rc:1: data_base file name holds a NUL\n"


@pytest.mark.parametrize(
    "output,message",
    [
        ("x\0y", "perfopt.spc:3: output file name holds a NUL"),
        # the file the user named, not the temp file beside it
        ("nodir/x", "cannot write plot data: [Errno 2] No such file or directory: '{wd}/nodir/x.gnu'"),
    ],
)
def test_profile_output_that_cannot_be_written_exits_two(env, capsys, output, message):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%nfc=1%info=0\nlibopt%b%c%p%nfc=2%info=0\n")
    assert main(["add", "r.lbt"]) == 0
    (wd / "perfopt.spc").write_text(f"solver a b\nperformance nfc\noutput {output}\n")
    capsys.readouterr()
    assert main(["profile"]) == 2
    assert capsys.readouterr().err == f"error: {message.format(wd=wd)}\n"
    assert not list(wd.rglob("*.tmp"))



def test_profile_checks_the_entries_of_solvers_it_does_not_compare(env, capsys):
    _, wd = env
    (wd / "dtbopt").write_text(
        "a%cA%p1%info=0%nfc=1\nc9%cA%p1%n=1%m=2\nb%cA%p1%info=0%nfc=2\n"
    )
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    assert main(["profile"]) == 2
    assert capsys.readouterr().err == (
        f"error: {wd / 'dtbopt'}:2: corrupt entry: missing mandatory 'info' pair\n"
    )
    assert not (wd / "perf.gnu").exists()


def _lines(*problems: str, canonical: bool = False) -> str:
    """A store text of a%c%<problem> entries; a '+' problem, the '+'
    dropped, holds n=1.50, padded as no save writes it unless canonical."""
    return "".join(
        f"a%c%{p}%info=0%n=1\n" if not p.startswith("+")
        else f"a%c%{p[1:]}%info=0%n=1.5\n" if canonical
        else f"  a % c % {p[1:]} % info = 0 % n = 1.50  \n"
        for p in problems
    )


# (store text, the error every reader gives, or the store sorted)
HAND_EDITED = {
    "out-of-order-on-line-2": (_lines("p2", "p1", "p3", "p4"), _lines("p1", "p2", "p3", "p4")),
    "out-of-order-in-the-middle": (_lines("p1", "p2", "p4", "p3", "p5"), _lines("p1", "p2", "p3", "p4", "p5")),
    "out-of-order-on-the-last-line": (_lines("p2", "p3", "p4", "p1"), _lines("p1", "p2", "p3", "p4")),
    "repeat-before-it": (_lines("p1", "p2", "p2", "p4", "p3"), "dtbopt:3: duplicate key a%c%p2"),
    "repeat-at-it": (_lines("p1", "p2", "p4", "p5", "p2"), "dtbopt:5: duplicate key a%c%p2"),
    "repeat-after-it": (_lines("p1", "p3", "p2", "p4", "p3"), "dtbopt:5: duplicate key a%c%p3"),
    "repeat-after-it-far": (_lines("p1", "p4", "p3", "p2", "p5", "p1"), "dtbopt:6: duplicate key a%c%p1"),
    "non-canonical-before-it": (_lines("+p1", "p3", "p2"), _lines("+p1", "p2", "p3", canonical=True)),
    "non-canonical-after-it": (_lines("p1", "p3", "p2", "+p4"), _lines("p1", "p2", "p3", "+p4", canonical=True)),
    "non-canonical-repeat-after-it": (_lines("p2", "p1", "p3", "+p2"), "dtbopt:4: duplicate key a%c%p2"),
}


@pytest.mark.parametrize("name", list(HAND_EDITED))
def test_every_reader_of_a_hand_edited_store_agrees(env, capsys, name):
    # Store.open, StoreReader and the three forms of add give one error
    # text, or one sorted store
    _, wd = env
    text, want = HAND_EDITED[name]
    (wd / "new.lbt").write_text("libopt%b%c%p1%info=0%n=1\n")
    (wd / "listed.lbt").write_text("libopt%a%c%p9%info=0%n=1\n")
    readers = {
        "Store.open": lambda: Store.open("dtbopt").save(),
        "StoreReader": lambda: list(StoreReader("dtbopt").entries(lambda key: True)),
        "add": lambda: main(["add", "-b", "dtbopt", "new.lbt"]),
        "add -d FILE": lambda: main(["add", "-b", "dtbopt", "-d", "listed.lbt"]),
        "add -d PATTERN": lambda: main(["add", "-b", "dtbopt", "-d", "z%"]),
    }
    for reader, call in readers.items():
        (wd / "dtbopt").write_text(text)
        capsys.readouterr()
        if want.startswith("dtbopt:"):
            if reader.startswith("add"):
                assert call() == 2, reader
                assert capsys.readouterr().err == f"error: {want}\n", reader
            else:
                with pytest.raises(StoreError) as caught:
                    call()
                assert str(caught.value) == want, reader
            assert (wd / "dtbopt").read_text() == text, reader
        elif reader == "StoreReader":
            (wd / "sorted").write_text(want)
            assert sorted(call()) == list(StoreReader("sorted").entries(lambda key: True))
        else:
            assert call() in (None, 0), reader
            added = "b%c%p1%info=0%n=1\n" if reader == "add" else ""
            assert (wd / "dtbopt").read_text() == want + added, reader


def test_profile_builds_no_store(env, monkeypatch, capsys):
    # profile reads the store file as it scans it: Store.open is never called
    _, wd = env
    (wd / "dtbopt").write_text(
        "a%c%p1%info=0%nfc=1\nb%c%p1%info=0%nfc=2.50\nb%c%p2%info=1%nfc=3\n"
        "a%c%p2%info=0%nfc=4\nc%c%p1%info=0%nfc=1\n"
    )
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    expected = compute_profiles(compute_ratios(
        select(parse_spec("solver a b\nperformance nfc\n"), Store.open(wd / "dtbopt")),
        "nfc",
    ))

    def refuse(*args, **kwargs):
        raise AssertionError("profile opened a Store")

    monkeypatch.setattr(Store, "open", refuse)
    assert main(["profile", "-v"]) == 0
    assert "compared 2 solvers on 2 problems" in capsys.readouterr().err
    assert (wd / "perf.gnu").read_text() == emit_gnuplot(expected)
    assert (wd / "perf.m").read_text() == emit_matlab(expected)


# positive numbers in several spellings, extremes included: a/b overflows
# when a is 1e308 and b is 1e-308
store_numbers = st.integers(1, 99).map(str) | st.sampled_from(
    ["2.50", "3e2", "0.5", "+7", "007", "\u0663", "1e308", "1e-308"]
)


@st.composite
def profile_stores(draw):
    """A store text of the strategies of test_store, or none, with entries
    of the solvers a, b and c on a few shared problems put in among its
    lines, and at times one line repeated."""
    data = draw(
        st.just(b"") | spelled_stores() | spelled_stores() | canonical_stores
        | store_like | store_text.map(str.encode)
    )
    lines = data.split(b"\n")
    for solver in draw(st.sampled_from(["ab", "ab", "ab", "abc", "bc"])):
        problems = st.lists(st.sampled_from(["p1", "p2", "p3"]), min_size=1, unique=True)
        for problem in draw(problems):
            info = draw(st.sampled_from(["0", "0", "2"]))
            entry = f"{solver}%c%{problem}%info={info}%n={draw(store_numbers)}"
            lines.insert(draw(st.integers(0, len(lines))), entry.encode())
    if draw(st.sampled_from([False, False, False, False, True])):
        # a line twice: a duplicate key, if it is an entry
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return b"\n".join(lines)


@st.composite
def spec_texts(draw):
    """A solver line, most often a performance line, and at times one more
    directive."""
    lines = [
        draw(st.sampled_from(
            ["solver a b", "solver a b", "solver a b c", "solver b a", "solver a"]
        )),
        draw(st.sampled_from(["performance n", "performance n", "performance n", ""])),
    ]
    lines += draw(st.lists(st.sampled_from(
        ["rho_max 3", "rho_max 1e300", "problem n >= 1", "problem info = 0", "solver a",
         "bogus"]
    ), max_size=1))
    return "\n".join(lines)


def plot_numbers(gnu: str, m: str):
    """The number tokens of the plot files: the data rows of both, and the
    axis of perf.m."""
    for line in gnu.splitlines():
        if not line.startswith("#"):
            yield from line.split()
    for line in m.splitlines():
        if line.startswith("  "):
            yield from line.split()
        elif line.startswith("axis(["):
            yield from line[len("axis(["):-len("]);")].split()


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    data=profile_stores(),
    spec_text=spec_texts(),
    flags=st.sets(st.sampled_from(["-v", "-log"])),
    ptok=st.sampled_from([None, None, None, "n", "info", "x"]),
)
def test_profile_keeps_the_cli_contract(env, capsys, data, spec_text, flags, ptok):
    _, wd = env
    (wd / "rc").write_text("")
    (wd / "dtbopt").write_bytes(data)
    (wd / "perfopt.spc").write_text(spec_text)
    gnu_path, m_path = wd / "perf.gnu", wd / "perf.m"
    gnu_path.unlink(missing_ok=True)
    m_path.unlink(missing_ok=True)
    capsys.readouterr()
    argv = ["profile", "--config", "rc", "-b", "dtbopt", *sorted(flags)]
    code = main(argv + (["-p", ptok] if ptok is not None else []))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if code == 2:
        assert errors == [err.splitlines()[-1]]
    else:
        assert errors == []
    if gnu_path.exists():
        gnu, m = gnu_path.read_text(), m_path.read_text()
        assert all(math.isfinite(float(token)) for token in plot_numbers(gnu, m))
    # the same call in memory, over Store.open
    try:
        spec = parse_spec(spec_text, cli_ptok=ptok, cli_log="-log" in flags)
        table = select(spec, Store.open("dtbopt"))
        profiles = []
        if table.problems:
            matrix = compute_ratios(table, spec.performance_token, spec.rho_bar_override)
            profiles = compute_profiles(matrix)
    except LiboptError as exc:
        assert (code, errors) == (2, [f"error: {exc}"])
        return
    assert code == (0 if profiles else 1)
    assert gnu == emit_gnuplot(profiles, spec.log_scale)
    assert m == emit_matlab(profiles, spec.log_scale)


PARSER = build_parser()


def parent_add(argv: list[str]) -> tuple[int, str]:
    """``libopt add`` as it was before it was streamed, kept as the
    reference: the whole store read by ``Store.open`` first, then the
    result or selection file, then ``Store.save`` of the whole store. Its
    exit code and standard error."""
    args = PARSER.parse_args(argv)
    err: list[str] = []
    try:
        startup = load_startup(args.config)
        store_path = resolve_store_path(args.db, startup, Path.cwd())
        deleting = args.delete is not None
        if deleting:
            target = parse_selection(args.delete)
        elif not Path(args.resfile).is_file():
            raise LiboptError(f"result file not found: {args.resfile}")
        store = Store.open(store_path)
        if deleting:
            if (args.verbose or args.test) and isinstance(target, Selection):
                err += [key.text() for key, _ in store.query(target)]
            result = store.delete(target)
        else:
            report = store.import_file(
                Path(args.resfile), replace=args.replace, config=token_config(startup)
            )
        if not args.test:
            store.save()
    except LiboptError as exc:
        return 2, "".join(f"{line}\n" for line in [*err, f"error: {exc}"])
    if deleting:
        missing = f" ({result.missing} not present)" if result.missing else ""
        done = "test mode: would delete" if args.test else "deleted"
        err.append(f"{done} {result.deleted} entries{missing}")
        code = 0
    else:
        prefix = "test mode: would have " if args.test else ""
        err += report.details
        err.append(
            f"{prefix}added {report.added}, replaced {report.replaced},"
            f" duplicates {report.duplicates}, invalid {report.invalid}"
        )
        code = 0 if report.duplicates == 0 and report.invalid == 0 else 1
    return code, "".join(f"{line}\n" for line in err)


# few keys, so that the store, the result file and the patterns meet; and
# keys whose order tests how add sorts the lines it holds: one that extends
# another, a tag character below '%', and one below the tab
ADD_KEYS = [f"{s}%c%{p}" for s in ("a", "a.t", "b") for p in ("p1", "p2", "p3", "p4")]
ADD_KEYS += ["a%c%p10", "a.!%c%p1", "a.\x01%c%p1"]
add_numbers = st.sampled_from(["0", "1", "2.5", "1.50", "+3", "1e3", "007", "-0", "\u0663"])


def add_store(draw, keys: list[str]) -> bytes | None:
    """Store bytes of ``keys`` (None: no store), sorted by key most often,
    at times with a blank, comment or padded line, a corrupt line, a line
    twice or a byte that does not decode."""
    order = draw(st.sampled_from(["sorted", "sorted", "unsorted", "unsorted", "missing"]))
    if order == "missing":
        return None
    keys = sorted(keys) if order == "sorted" else draw(st.permutations(keys))
    lines = [f"{k}%info={draw(st.sampled_from('001'))}%n={draw(add_numbers)}" for k in keys]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        extra = draw(st.sampled_from(["", "# note", "bad", "twice", "padded"]))
        if extra in ("twice", "padded"):
            if not lines:
                continue
            line = draw(st.sampled_from(lines))
            if extra == "padded":  # in place: the key order stays
                lines[lines.index(line)] = " " + line.replace("%", " % ") + " # x"
                continue
            extra = line
        lines.insert(draw(st.integers(0, len(lines))), extra)
    data = "".join(f"{line}\n" for line in lines).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def add_result_file(draw, keys: list[str]) -> bytes:
    """Result-file bytes: lines of ``keys`` or of any of ADD_KEYS (a key
    may repeat), invalid lines, blanks and comments, at times a byte that
    does not decode."""
    valid = st.builds(
        "libopt%{}%info={}%n={}".format,
        st.sampled_from(keys) if keys else st.sampled_from(ADD_KEYS),
        st.sampled_from("01"),
        add_numbers,
    )
    valid |= st.builds("libopt%{}%info=0%n=1".format, st.sampled_from(ADD_KEYS))
    other = st.sampled_from([
        "", "# comment", "junk", "libopt%a%c", "libopt%a%c%p1%n=1%m=2",
        "libopt%b%c%p2%info=0%zz=1", "libopt%b%c%p3%info=0%n=1e999",
        " libopt % a % c % p1 % info = 0 % n = 2 # padded",
    ])
    lines = draw(st.lists(valid | other, min_size=1, max_size=10))
    data = "".join(f"{line}\n" for line in lines).encode()
    if draw(st.integers(0, 9)) == 0:
        data += b"\xff\n"
    return data


@st.composite
def add_inputs(draw):
    """(store bytes or None, result-file bytes, selection-file bytes) over
    ADD_KEYS, the two files most often naming keys of the store; the lines
    of the selection file all parse, and a key may repeat."""
    keys = draw(st.lists(st.sampled_from(ADD_KEYS), unique=True, min_size=1, max_size=8))
    listed = draw(st.lists(st.sampled_from(keys + ADD_KEYS[:2]), max_size=4))
    selection = "".join(f"libopt%{key}%info=0%n=1\n" for key in listed).encode()
    return add_store(draw, keys), add_result_file(draw, keys), selection


flag_sets = st.sampled_from([[], [], ["-v"], ["-t"], ["-t", "-v"]])


@st.composite
def add_calls(draw):
    """The four forms of ``add``, in any order, each with its flags: a
    result file, with ``-r``, ``-d`` with a pattern, ``-d`` with a file."""
    forms = [
        ["r.lbt"],
        ["-r", "r.lbt"],
        ["-d", draw(st.sampled_from(["a%", "%c%p1%", "a.t%c%", "%%p2%"]))],
        ["-d", draw(st.sampled_from(["s.lbt", "s.lbt", "r.lbt", "absent.lbt"]))],
    ]
    return [[*draw(flag_sets), *form] for form in draw(st.permutations(forms))]


@settings(
    max_examples=70,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    inputs=add_inputs(),
    calls=add_calls(),
    db=st.sampled_from(["dtbopt", "dtbopt", "sub/dtbopt"]),
    rc=st.sampled_from(["", "", "tokens = info n\n", "performance_tokens = n\n"]),
)
def test_add_keeps_the_contract_of_reading_the_whole_store(env, capsys, inputs, calls, db, rc):
    # the streamed add against the reference, each in its own directory,
    # one call after the other: after each, the same exit code, standard
    # error and store bytes, and no temp file
    _, wd = env
    store, resfile, selection = inputs
    for side in ("streamed", "reference"):
        here = wd / side
        shutil.rmtree(here, ignore_errors=True)
        here.mkdir()
        (here / "rc").write_text(rc)
        (here / "r.lbt").write_bytes(resfile)
        (here / "s.lbt").write_bytes(selection)
        if store is not None:
            (here / "dtbopt").write_bytes(store)
    for call in calls:
        argv = ["add", "--config", "rc", "-b", db, *call]
        got = {}
        for side in ("streamed", "reference"):
            here = wd / side
            os.chdir(here)
            try:
                capsys.readouterr()
                if side == "streamed":
                    code, err = main(argv), capsys.readouterr().err
                else:
                    code, err = parent_add(argv)
            finally:
                os.chdir(wd)
            got[side] = (
                code,
                err,
                (here / db).read_bytes() if (here / db).exists() else None,
                sorted(path.name for path in here.rglob("*.tmp")),
            )
        assert got["streamed"] == got["reference"], argv
        assert got["streamed"][3] == []


@pytest.mark.parametrize(
    "b_nfc,flags,message",
    [
        # a/b overflows: the ratio itself is inf
        ("1e-308", ["-v"], "performance ratio of a on c/p1 is not finite"),
        # a/b is finite, twice it (the default plateau) is not
        ("1", ["-log"], "the default plateau, twice the largest ratio 1e+308, is not"),
    ],
)
def test_profile_whose_ratios_overflow_exits_two(env, capsys, b_nfc, flags, message):
    _, wd = env
    (wd / "dtbopt").write_text(f"a%c%p1%info=0%nfc=1e308\nb%c%p1%info=0%nfc={b_nfc}\n")
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    assert main(["profile", *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")
    assert not (wd / "perf.gnu").exists() and not (wd / "perf.m").exists()


def test_add_to_a_store_below_a_regular_file_exits_two(env, capsys):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%info=0%n=1\n")
    assert main(["add", "-b", "r.lbt/db", "r.lbt"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot lock store r.lbt/db: ")


def test_add_requires_a_source(env):
    assert main(["add"]) == 2


def test_profile_without_spec_file_exits_two(env, capsys):
    assert main(["profile"]) == 2
    assert "perfopt.spc" in capsys.readouterr().err


def test_profile_end_to_end(env, capsys, monkeypatch):
    _, wd = env
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("fakea toys\nfakeb toys\n")
    )
    assert main(["run"]) == 0
    out = capsys.readouterr().out
    (wd / "results.lbt").write_text(
        "".join(l + "\n" for l in out.splitlines() if l.startswith("libopt%"))
    )
    assert main(["add", "results.lbt"]) == 0
    (wd / "perfopt.spc").write_text("solver fakea fakeb\nperformance nfc\n")
    assert main(["profile"]) == 0
    assert (wd / "perf.gnu").exists() and (wd / "perf.m").exists()
    text = (wd / "perf.gnu").read_text()
    assert "# solver fakea" in text and "# solver fakeb" in text


def test_profile_output_base_flag(env, capsys, monkeypatch):
    _, wd = env
    (wd / "results.lbt").write_text(
        "libopt%a%c%p%nfc=1%info=0\nlibopt%b%c%p%nfc=2%info=0\n"
    )
    main(["add", "results.lbt"])
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    assert main(["profile", "-g", "cmp"]) == 0
    assert (wd / "cmp.gnu").exists() and (wd / "cmp.m").exists()


def test_profile_test_mode_writes_nothing(env, monkeypatch, capsys):
    _, wd = env
    (wd / "results.lbt").write_text(
        "libopt%a%c%p%nfc=1%info=0\nlibopt%b%c%p%nfc=2%info=0\n"
    )
    main(["add", "results.lbt"])
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    assert main(["profile", "-t"]) == 0
    assert not (wd / "perf.gnu").exists()
    assert not (wd / "perf.m").exists()


def test_profile_empty_selection_reports_distinct_outcome(env, capsys):
    _, wd = env
    (wd / "perfopt.spc").write_text("solver nosuch other\nperformance nfc\n")
    assert main(["profile"]) == 1
    assert "no eligible problems" in capsys.readouterr().err
    assert "error(" in (wd / "perf.m").read_text()


def test_install_clean_fixture(env, capsys):
    assert main(["install"]) == 0
    assert "0 errors" in capsys.readouterr().err


def test_install_missing_driver_exits_one(env, capsys):
    spec, _ = env
    (spec.root / "solvers/fakea/toys/fakea_toys").unlink()
    assert main(["install"]) == 1
    assert "missing driver" in capsys.readouterr().err


def test_install_requires_root(env, monkeypatch):
    monkeypatch.delenv("LIBOPT_DIR")
    assert main(["install"]) == 2


def test_install_names_a_solver_all_list_that_is_a_directory(env, capsys):
    spec, _ = env
    solver_all = spec.root / "solvers/fakea/toys/all.lst"
    solver_all.unlink()
    solver_all.mkdir()
    assert main(["install"]) == 1
    err = capsys.readouterr().err
    assert (
        f"error: solvers/fakea/toys/all.lst: cannot read list file {solver_all}:"
        f" [Errno 21] Is a directory: '{solver_all}'\n"
    ) in err
    assert "missing" not in err
    assert err.endswith("verification: 1 errors, 0 warnings\n")


@pytest.mark.parametrize("blocked", ["collections", "collections/collections.lst"])
def test_install_whose_index_lists_cannot_be_written_exits_two(env, capsys, blocked):
    # a regular file where the directory goes, a directory where the index goes
    spec, _ = env
    path = spec.root / blocked
    if path.is_dir():
        shutil.rmtree(path)
        path.write_text("")
    else:
        path.unlink()
        path.mkdir()
    assert main(["install"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the index lists of {spec.root}: ")
    assert err.count("\n") == 1


# (file holding a byte that is not UTF-8, its other lines, other files, argv)
NON_UTF8_INPUTS = {
    "startup file": ("rc", "tokens = n info\n", {}, ["add", "--config", "rc", "r.lbt"]),
    "specification file": ("perfopt.spc", "solver a b\n", {}, ["profile"]),
    "command file": ("cmds", "fakea toys\n", {}, ["run", "cmds"]),
    "list file": (
        "toys.all.lst",
        "alpha\n",
        {"perfopt.spc": "solver fakea fakeb\nperformance nfc\ncollection toys\n"},
        ["profile"],
    ),
}


@pytest.mark.parametrize("kind", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_file_exits_two_with_one_line(env, capsys, kind):
    _, wd = env
    name, text, others, argv = NON_UTF8_INPUTS[kind]
    (wd / name).write_bytes(text.encode() + b"# caf\xe9\n")
    for other, other_text in others.items():
        (wd / other).write_text(other_text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: cannot read {kind} ") and name in err


BREAKS = ["delete", "rewrite", "undecodable", "dangling", "directory", "bad_name",
          "no_driver", "not_executable", "unknown_interface"]
LIST_WORDS = ["alpha", "bravo", "echo", "zulu", "bad-name", "alpha", "# note", "\n"]
RUN_COMMANDS = ["fakea toys", "fakeb toys", "fakea toys alpha zulu", "fakeb toys.default",
                "fakea toys.all bravo", "fakeb toys.nosuch", "fakea nocoll", "fakeb nocoll alpha"]


def _clear(path: Path) -> None:
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    elif path.is_symlink() or path.exists():
        path.unlink()


def break_tree(root: Path, kind: str, pick: int, words: list[str]) -> None:
    """One break of a toys tree; ``pick`` chooses its target among the
    candidates of its kind, ``words`` are a rewritten list's names."""
    if kind == "bad_name":
        targets = [root / "collections", root / "solvers", *sorted(root.glob("solvers/*/"))]
    elif kind in ("no_driver", "not_executable"):
        targets = [path for path in sorted(root.glob("solvers/*/*/*"))
                   if path.name == f"{path.parent.parent.name}_{path.parent.name}"]
    elif kind == "unknown_interface":
        targets = sorted(root.glob("solvers/*/"))
    else:
        targets = sorted(root.rglob("*.lst"))
    if not targets:
        return
    path = targets[pick % len(targets)]
    if kind == "bad_name":
        (path / "bad-name").mkdir(exist_ok=True)
        (path / "bad-name" / "all.lst").write_text("alpha\n")
    elif kind == "not_executable":
        if path.is_file():
            path.chmod(0o644)
    elif kind == "unknown_interface":
        interface = path / "nocoll"
        interface.mkdir(exist_ok=True)
        (interface / "all.lst").write_text("alpha\n")
        (interface / "default.lst").write_text("alpha\n")
        driver = interface / f"{path.name}_nocoll"
        driver.write_text("#!/bin/sh\nexit 0\n")
        driver.chmod(0o755)
    else:
        _clear(path)
        if kind == "rewrite":
            path.write_text(" ".join(words))
        elif kind == "undecodable":
            path.write_bytes(b"alpha \xff\n")
        elif kind == "dangling":
            path.symlink_to(root / "nowhere" / path.name)
        elif kind == "directory":
            path.mkdir()


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    breaks=st.lists(
        st.tuples(st.sampled_from(BREAKS), st.integers(0, 20), st.lists(st.sampled_from(LIST_WORDS), max_size=6)),
        min_size=1, max_size=4,
    ),
    commands=st.lists(st.sampled_from(RUN_COMMANDS), min_size=1, max_size=4),
)
# fakea's own all.lst (list file 4 in path order) deleted, or made a directory
@example(breaks=[("delete", 4, [])], commands=["fakeb toys", "fakea toys"])
@example(breaks=[("directory", 4, [])], commands=["fakea toys"])
def test_install_and_run_keep_the_cli_contract_on_broken_trees(tmp_path, monkeypatch, breaks, commands):
    # exit 0, 1 or 2, and no exception out of main. Exit 2 ends in one
    # error line naming its cause, and install -t, which only verifies,
    # never exits 2. Otherwise the only error lines are install's
    # findings, as many as its summary counts.
    base = tmp_path / "tree"
    shutil.rmtree(base, ignore_errors=True)
    root, wd = base / "root", base / "wd"
    wd.mkdir(parents=True)
    generate_fixture(root, seed=1)
    for kind, pick, words in breaks:
        break_tree(root, kind, pick, words)
    monkeypatch.setenv("LIBOPT_DIR", str(root))
    monkeypatch.chdir(wd)
    causes = {"install": "cannot write the index lists", "run": "hierarchy inconsistency: missing"}
    for argv in (["install", "-t"], ["run", "-t"], ["install"]):
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(c + "\n" for c in commands)))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        if code == 2:
            assert argv != ["install", "-t"]
            assert errors == lines[-1:] and errors[0].startswith(f"error: {causes[argv[0]]}"), argv
        elif argv[0] == "install":
            summary = re.fullmatch(r"verification: (\d+) errors, (\d+) warnings", lines[-1])
            warnings = [line for line in lines if line.startswith("warning: ")]
            assert (len(errors), len(warnings)) == (int(summary[1]), int(summary[2]))
            assert code == (1 if errors else 0)
        else:
            summary = re.fullmatch(r"commands: \d+, runs: \d+, skips: (\d+), failures: 0", lines[-1])
            assert errors == [] and code == (1 if int(summary[1]) else 0)


def _loaded_modules(wd: Path, argv: list[str], stdin: str = "") -> set[str]:
    """The modules a `libopt` call loads, in a child started with -S: a
    site-packages .pth hook can load (or hide) any module before libopt."""
    script = (
        "import sys\n"
        "from libopt.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sorted(sys.modules))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(libopt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        cwd=wd,
        env={**os.environ, "PYTHONPATH": path},
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


# no call loads dataclasses: with it come inspect, ast, dis and tokenize
NEVER_LOADED = ["dataclasses", "inspect"]


@pytest.mark.parametrize(
    "argv,unused",
    [
        (
            ["add", "-r", "r.lbt"],
            ["libopt.hierarchy", "libopt.profile", "libopt.plot", "libopt.runner",
             "subprocess", "tempfile", "random"],
        ),
        (["profile"], ["libopt.hierarchy", "libopt.runner", "subprocess"]),
    ],
)
def test_subcommand_imports_only_its_own_stage_modules(env, argv, unused):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%nfc=1%info=0\nlibopt%b%c%p%nfc=2%info=0\n")
    assert main(["add", "r.lbt"]) == 0
    (wd / "perfopt.spc").write_text("solver a b\nperformance nfc\n")
    loaded = _loaded_modules(wd, argv)
    assert "libopt.store" in loaded
    if argv[0] == "profile":  # its plot writer, with its other stage modules
        assert "libopt.plot" in loaded
    assert loaded.isdisjoint(unused + NEVER_LOADED)


@pytest.mark.parametrize(
    "argv,used",
    [
        (["--version"], []),
        (["install", "-t"], ["libopt.hierarchy"]),
        (["run", "-t"], ["libopt.runner"]),
    ],
)
def test_calls_without_a_store_do_not_load_the_store(env, argv, used):
    _, wd = env
    loaded = _loaded_modules(wd, argv, stdin="fakea toys\n")
    assert loaded.issuperset(["libopt.cli", *used])
    assert loaded.isdisjoint(["libopt.store", *NEVER_LOADED])


def test_every_module_parses_as_python_3_10():
    # pyproject.toml requires Python 3.10: no module may use later syntax
    paths = sorted(Path(libopt.__file__).resolve().parent.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
