from __future__ import annotations

import io
import os
from pathlib import Path

import pytest

from libopt import runner
from libopt.errors import LiboptError
from libopt.profile import parse_spec
from libopt.runner import (
    CommandError,
    ElementaryRun,
    RunnerError,
    RunOptions,
    check_working_dir,
    execute,
    parse_command,
    resolve_problems,
    run_batch,
)


def test_parse_command_tagged_with_subcollection():
    d = parse_command("m1qn3.diag cuter.unc")
    assert (d.solver, d.tag, d.collection, d.subc) == ("m1qn3", "diag", "cuter", "unc")
    assert d.explicit_problems == ()


def test_parse_command_with_problem():
    d = parse_command("solv coll prob")
    assert (d.solver, d.tag, d.collection, d.subc) == ("solv", None, "coll", None)
    assert d.explicit_problems == ("prob",)


def test_parse_command_missing_collection():
    with pytest.raises(CommandError):
        parse_command("solv")


def test_parse_command_bad_names():
    with pytest.raises(LiboptError):
        parse_command("so!lv coll")
    with pytest.raises(LiboptError):
        parse_command("solv coll pro-b")


@pytest.mark.parametrize(
    "field, message",
    [
        ("cu-ter.unc", "invalid collection 'cu-ter' (must match [A-Za-z0-9_]+)"),
        ("cuter.u-nc", "invalid subcollection 'u-nc' (must match [A-Za-z0-9_]+)"),
        ("cuter.", "invalid subcollection '' (must match [A-Za-z0-9_]+)"),
        ("cuter.unc.x", "invalid subcollection 'unc.x' (must match [A-Za-z0-9_]+)"),
    ],
)
def test_a_command_and_a_spec_read_a_collection_field_alike(field, message):
    with pytest.raises(LiboptError) as in_command:
        parse_command(f"solv {field}")
    with pytest.raises(LiboptError) as in_spec:
        parse_spec(f"solver a b\nperformance nfc\ncollection {field}\n")
    assert str(in_command.value) == str(in_spec.value) == message
    assert parse_command("solv cuter.unc").subc == "unc"
    assert parse_spec("solver a b\nperformance nfc\ncollection cuter.unc\n").collections == (
        ("cuter", "unc"),
    )


def test_parse_command_deduplicates_explicit_problems():
    warnings = []
    d = parse_command("s c p1 p2 p1", warn=warnings.append)
    assert d.explicit_problems == ("p1", "p2")
    assert len(warnings) == 1


from conftest import RESOLUTION_CASES, write as _write


@pytest.mark.parametrize("command,expected", RESOLUTION_CASES)
def test_resolution_table(resolution_tree, command, expected):
    root, wd = resolution_tree
    directive = parse_command(command)
    resolved = resolve_problems(directive, wd, root)
    if expected is None:
        assert resolved is None
    else:
        assert list(resolved.names) == expected


def test_resolution_missing_solver_all_is_a_hard_error(resolution_tree):
    root, wd = resolution_tree
    with pytest.raises(RunnerError):
        resolve_problems(parse_command("s3 painting"), wd, root)


def test_step_one_default_vs_all(resolution_tree):
    root, wd = resolution_tree
    # the two minimal cases pinning the subcollection choice
    assert resolve_problems(parse_command("s1 painting"), wd, root).source.name == "default.lst"
    assert resolve_problems(parse_command("s1 painting p1"), wd, root).source.name == "all.lst"


def test_resolution_monotonicity(resolution_tree):
    root, wd = resolution_tree
    from libopt.hierarchy import locate_list, read_list

    for command, expected in RESOLUTION_CASES:
        if expected is None:
            continue
        directive = parse_command(command)
        resolved = resolve_problems(directive, wd, root)
        subc = directive.subc or ("all" if directive.explicit_problems else "default")
        located = read_list(locate_list(directive.solver, "painting", subc, wd, root))
        soluble = read_list(root / "solvers" / directive.solver / "painting" / "all.lst")
        assert set(resolved.names) <= set(located.names)
        assert set(resolved.names) <= set(soluble.names)
        if directive.explicit_problems:
            assert set(resolved.names) <= set(directive.explicit_problems)


# --- driver execution -------------------------------------------------------

SPY_DRIVER = """#!/usr/bin/env python3
import sys
from pathlib import Path

Path("spy_argv.txt").write_text(" ".join(sys.argv[1:]) + "\\n")
print("spy chatter")
print("libopt%spysolv%spycoll%" + sys.argv[-1] + "%nfc=3%info=0")
"""


@pytest.fixture
def spy_tree(tmp_path):
    root = tmp_path / "root"
    wd = tmp_path / "wd"
    wd.mkdir()
    _write(root / "collections/spycoll/all.lst", "px\n")
    _write(root / "collections/spycoll/default.lst", "px\n")
    _write(root / "solvers/spysolv/spycoll/all.lst", "px\n")
    _write(root / "solvers/spysolv/spycoll/default.lst", "px\n")
    driver = root / "solvers/spysolv/spycoll/spysolv_spycoll"
    _write(driver, SPY_DRIVER)
    os.chmod(driver, 0o755)
    return root, wd


def test_execute_harvests_record(spy_tree):
    root, wd = spy_tree
    out, err = io.StringIO(), io.StringIO()
    outcome = execute(ElementaryRun("spysolv", None, "spycoll", "px"), wd, root, out=out, err=err)
    assert outcome.status == 0
    assert [r.key_text() for r in outcome.records] == ["spysolv%spycoll%px"]
    assert "spy chatter" in out.getvalue()
    assert "libopt%spysolv%spycoll%px%nfc=3%info=0" in out.getvalue()


def test_execute_applies_tag(spy_tree):
    root, wd = spy_tree
    out = io.StringIO()
    run = ElementaryRun("spysolv", "v2", "spycoll", "px")
    outcome = execute(run, wd, root, out=out, err=io.StringIO())
    record = outcome.records[0]
    assert record.solver == "spysolv" and record.tag == "v2"
    assert "libopt%spysolv.v2%spycoll%px%nfc=3%info=0" in out.getvalue()


def test_tag_changes_only_the_result_lines(spy_tree):
    root, wd = spy_tree
    plain, tagged = io.StringIO(), io.StringIO()
    execute(ElementaryRun("spysolv", None, "spycoll", "px"), wd, root, out=plain, err=io.StringIO())
    execute(ElementaryRun("spysolv", "z", "spycoll", "px"), wd, root, out=tagged, err=io.StringIO())
    diff = [
        (a, b)
        for a, b in zip(plain.getvalue().splitlines(), tagged.getvalue().splitlines())
        if a != b
    ]
    assert all(a.startswith("libopt%") for a, _ in diff)
    assert len(diff) == 1


def test_execute_forwards_flags(spy_tree):
    root, wd = spy_tree
    run = ElementaryRun(
        "spysolv", None, "spycoll", "px", RunOptions(keep=True, verbose=True)
    )
    execute(run, wd, root, out=io.StringIO(), err=io.StringIO())
    argv = (wd / "spy_argv.txt").read_text().split()
    assert argv == ["-k", "-v", "px"]


def test_execute_test_mode_spawns_nothing(spy_tree):
    root, wd = spy_tree
    err = io.StringIO()
    run = ElementaryRun("spysolv", None, "spycoll", "px", RunOptions(test=True))
    outcome = execute(run, wd, root, out=io.StringIO(), err=err)
    assert outcome.status == 0
    assert not (wd / "spy_argv.txt").exists()
    assert "spysolv_spycoll" in err.getvalue()


def test_execute_refuses_working_dir_inside_root(spy_tree):
    root, _ = spy_tree
    inside = root / "collections"
    with pytest.raises(RunnerError):
        execute(ElementaryRun("spysolv", None, "spycoll", "px"), inside, root)
    with pytest.raises(RunnerError):
        check_working_dir(root, root)


def test_execute_inside_the_hierarchy_raises_the_check_s_error(spy_tree):
    root, _ = spy_tree
    inside = root / "solvers" / "spysolv"
    run = ElementaryRun("spysolv", None, "spycoll", "px")
    with pytest.raises(RunnerError) as raised:
        execute(run, inside, root, out=io.StringIO(), err=io.StringIO())
    assert str(raised.value) == (
        f"working directory {inside.resolve()} is inside the hierarchy"
        f" {root.resolve()}; refusing to run"
    )
    assert not (inside / "spy_argv.txt").exists()


def test_execute_warns_when_driver_prints_no_result_line(spy_tree):
    root, wd = spy_tree
    driver = root / "solvers/spysolv/spycoll/spysolv_spycoll"
    driver.write_text("#!/bin/sh\necho 'all quiet'\nexit 0\n")
    os.chmod(driver, 0o755)
    outcome = execute(
        ElementaryRun("spysolv", None, "spycoll", "px"),
        wd,
        root,
        out=io.StringIO(),
        err=io.StringIO(),
    )
    assert outcome.status == 0
    assert any("no result line" in w for w in outcome.warnings)


def test_execute_missing_driver_is_reported_not_raised(spy_tree):
    root, wd = spy_tree
    outcome = execute(
        ElementaryRun("ghost", None, "spycoll", "px"), wd, root, err=io.StringIO()
    )
    assert outcome.status != 0
    assert outcome.warnings


def test_execute_env_passthrough(spy_tree, monkeypatch):
    root, wd = spy_tree
    driver = root / "solvers/spysolv/spycoll/spysolv_spycoll"
    driver.write_text(
        "#!/usr/bin/env python3\n"
        "import os\n"
        'print("libopt%spysolv%spycoll%px%nfc=1%info=0")\n'
        'print("DIR=" + os.environ.get("LIBOPT_DIR", "") )\n'
        'print("PLAT=" + os.environ.get("LIBOPT_PLAT", ""))\n'
    )
    os.chmod(driver, 0o755)
    out = io.StringIO()
    execute(
        ElementaryRun("spysolv", None, "spycoll", "px"),
        wd,
        root,
        env={**os.environ, "LIBOPT_PLAT": "pc.lnx.gcc"},
        out=out,
        err=io.StringIO(),
    )
    text = out.getvalue()
    assert f"DIR={root.resolve()}" in text
    assert "PLAT=pc.lnx.gcc" in text


# --- batch ------------------------------------------------------------------


def test_run_batch_single_command(spy_tree):
    root, wd = spy_tree
    out, err = io.StringIO(), io.StringIO()
    summary = run_batch(RunOptions(), wd, root, ["spysolv spycoll px"], out=out, err=err)
    assert (summary.commands, summary.runs, summary.skips, summary.failures) == (1, 1, 0, 0)
    assert "libopt%spysolv%spycoll%px%nfc=3%info=0" in out.getvalue()


def test_run_batch_skips_unknown_subcollection(spy_tree):
    root, wd = spy_tree
    summary = run_batch(
        RunOptions(), wd, root, ["spysolv spycoll.nosuch"], out=io.StringIO(), err=io.StringIO()
    )
    assert (summary.runs, summary.skips) == (0, 1)


def test_run_batch_reports_parse_errors_and_continues(spy_tree):
    root, wd = spy_tree
    err = io.StringIO()
    summary = run_batch(
        RunOptions(),
        wd,
        root,
        ["justone", "spysolv spycoll px", "# comment", ""],
        out=io.StringIO(),
        err=err,
    )
    assert (summary.commands, summary.runs, summary.skips) == (2, 1, 1)
    assert "skipping" in err.getvalue()


def test_run_batch_runs_in_file_order(spy_tree):
    root, wd = spy_tree
    (root / "collections/spycoll/all.lst").write_text("px py\n")
    (root / "solvers/spysolv/spycoll/all.lst").write_text("px py\n")
    out = io.StringIO()
    run_batch(
        RunOptions(),
        wd,
        root,
        ["spysolv spycoll py", "spysolv spycoll px"],
        out=out,
        err=io.StringIO(),
    )
    lines = [l for l in out.getvalue().splitlines() if l.startswith("libopt%")]
    assert [l.split("%")[3] for l in lines] == ["py", "px"]


def test_run_batch_counts_driver_failures(spy_tree):
    root, wd = spy_tree
    driver = root / "solvers/spysolv/spycoll/spysolv_spycoll"
    driver.write_text("#!/bin/sh\necho 'libopt%spysolv%spycoll%px%nfc=1%info=0'\nexit 3\n")
    os.chmod(driver, 0o755)
    summary = run_batch(
        RunOptions(), wd, root, ["spysolv spycoll px"], out=io.StringIO(), err=io.StringIO()
    )
    assert summary.failures == 1


def test_run_batch_counts_exit_status_one_as_a_failure(spy_tree):
    root, wd = spy_tree
    driver = root / "solvers/spysolv/spycoll/spysolv_spycoll"
    driver.write_text("#!/bin/sh\necho 'libopt%spysolv%spycoll%px%nfc=1%info=0'\nexit 1\n")
    os.chmod(driver, 0o755)
    err = io.StringIO()
    summary = run_batch(
        RunOptions(), wd, root, ["spysolv spycoll px"], out=io.StringIO(), err=err
    )
    assert (summary.runs, summary.failures) == (1, 1)
    assert "exited with status 1 on px" in err.getvalue()


def test_run_batch_checks_the_working_dir_once(spy_tree, monkeypatch):
    root, wd = spy_tree
    (root / "collections/spycoll/all.lst").write_text("px py pz\n")
    (root / "solvers/spysolv/spycoll/all.lst").write_text("px py pz\n")
    checked = []

    def counting_check(working_dir, hierarchy_root):
        checked.append((working_dir, hierarchy_root))
        check_working_dir(working_dir, hierarchy_root)

    monkeypatch.setattr(runner, "check_working_dir", counting_check)
    summary = run_batch(
        RunOptions(), wd, root, ["spysolv spycoll px py pz"], out=io.StringIO(), err=io.StringIO()
    )
    assert (summary.runs, summary.failures) == (3, 0)
    assert checked == [(wd, root)]


def test_driver_that_cannot_be_executed_is_a_failed_run(spy_tree):
    root, wd = spy_tree
    bad = root / "solvers/badsolv/spycoll/badsolv_spycoll"
    _write(bad, "#!/nonexistent/interp\nprint('never')\n")
    os.chmod(bad, 0o755)
    _write(root / "solvers/badsolv/spycoll/all.lst", "px\n")
    _write(root / "solvers/badsolv/spycoll/default.lst", "px\n")
    out, err = io.StringIO(), io.StringIO()
    summary = run_batch(
        RunOptions(), wd, root, ["badsolv spycoll", "spysolv spycoll"], out=out, err=err
    )
    assert (summary.runs, summary.failures) == (2, 1)
    assert "libopt%spysolv%spycoll%px%" in out.getvalue()
    warnings = [l for l in err.getvalue().splitlines() if l.startswith("warning:")]
    assert len(warnings) == 1 and "cannot execute driver" in warnings[0]
    assert "exited with status 127 on px" in err.getvalue()


def test_driver_exec_format_error_is_status_126(spy_tree):
    root, wd = spy_tree
    driver = root / "solvers/spysolv/spycoll/spysolv_spycoll"
    driver.write_bytes(b"\x7fELF not really a binary\n")
    outcome = execute(ElementaryRun("spysolv", None, "spycoll", "px"), wd, root)
    assert outcome.status == 126
    assert len(outcome.warnings) == 1


def test_driver_stdout_that_is_not_utf8_costs_at_most_its_run(spy_tree):
    root, wd = spy_tree
    bad = root / "solvers/badsolv/spycoll/badsolv_spycoll"
    _write(
        bad,
        "#!/bin/sh\n"
        "printf 'caf\\351\\n'\n"
        "printf 'libopt%%badsolv%%spycoll%%px%%nfc=1%%info=0 # caf\\351\\n'\n",
    )
    os.chmod(bad, 0o755)
    _write(root / "solvers/badsolv/spycoll/all.lst", "px\n")
    _write(root / "solvers/badsolv/spycoll/default.lst", "px\n")
    out, err = io.StringIO(), io.StringIO()
    summary = run_batch(
        RunOptions(), wd, root, ["badsolv spycoll", "spysolv spycoll"], out=out, err=err
    )
    assert (summary.runs, summary.failures) == (2, 0)
    assert out.getvalue().splitlines() == [
        "caf\\xe9",
        "libopt%badsolv%spycoll%px%nfc=1%info=0 # caf\\xe9",
        "spy chatter",
        "libopt%spysolv%spycoll%px%nfc=3%info=0",
    ]
    assert err.getvalue() == ""
