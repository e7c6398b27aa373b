from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import libopt
from libopt.cli import main
from libopt.store import Store
from libopt.toys import generate_fixture


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
        ("nodir/x", "cannot write plot data: "),
    ],
)
def test_profile_output_that_cannot_be_written_exits_two(env, capsys, output, message):
    _, wd = env
    (wd / "r.lbt").write_text("libopt%a%c%p%nfc=1%info=0\nlibopt%b%c%p%nfc=2%info=0\n")
    assert main(["add", "r.lbt"]) == 0
    (wd / "perfopt.spc").write_text(f"solver a b\nperformance nfc\noutput {output}\n")
    capsys.readouterr()
    assert main(["profile"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")



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
        (["add", "-r", "r.lbt"], ["libopt.hierarchy", "libopt.profile", "libopt.runner", "subprocess"]),
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
