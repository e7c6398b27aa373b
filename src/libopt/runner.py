"""Command expansion and driver orchestration for the run pipeline.

A command line

    solv[.tag] coll[.subc] [list-of-problems]

expands into elementary runs (one solver, one problem) resolved in four
steps: pick the subcollection (``all`` when problems are listed,
``default`` otherwise), locate its list file (working directory, solver
side, collection side), keep only the problems the solver declares
soluble, then intersect with the explicit list. Each elementary run
spawns the per-pair driver ``solvers/<solv>/<coll>/<solv>_<coll>`` in
the working directory and streams its stdout through the result-line
filter.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TextIO

from .config import ROOT_ENV_VAR
from .errors import LiboptError
from .hierarchy import ALL_LIST, SOLVERS_DIR, ProblemList, locate_list, read_list
from .record import LiboptRecord, check_name, filter_stream, split_solver_field

WarnFn = Callable[[str], None]


class CommandError(LiboptError):
    """A malformed run command line."""


class RunnerError(LiboptError):
    """A refusal or a hierarchy inconsistency that stops the batch."""


class RunOptions(NamedTuple):
    keep: bool = False
    test: bool = False
    verbose: bool = False


class RunDirective(NamedTuple):
    solver: str
    tag: str | None
    collection: str
    subc: str | None
    explicit_problems: tuple[str, ...]


class ElementaryRun(NamedTuple):
    solver: str
    tag: str | None
    collection: str
    problem: str
    options: RunOptions = RunOptions()


class RunOutcome:
    def __init__(self, status: int, warnings: list[str] | None = None):
        self.status = status
        self.records: list[LiboptRecord] = []
        self.warnings = [] if warnings is None else warnings


class BatchSummary:
    def __init__(self) -> None:
        self.commands = self.runs = self.skips = self.failures = 0

    def __str__(self) -> str:
        return (
            f"commands: {self.commands}, runs: {self.runs},"
            f" skips: {self.skips}, failures: {self.failures}"
        )


def parse_command(line: str, warn: WarnFn | None = None) -> RunDirective:
    """Split one command line into its directive parts."""
    fields = line.split()
    if len(fields) < 2:
        raise CommandError(f"command {line!r} needs a solver and a collection")
    solver, tag = split_solver_field(fields[0])
    coll_field, sep, subc = fields[1].partition(".")
    collection = check_name(coll_field, "collection")
    subcollection = check_name(subc, "subcollection") if sep else None
    problems: list[str] = []
    for name in fields[2:]:
        check_name(name, "problem")
        if name in problems:
            if warn is not None:
                warn(f"duplicate problem {name!r} in command {line!r}")
            continue
        problems.append(name)
    return RunDirective(solver, tag, collection, subcollection, tuple(problems))


def resolve_problems(
    directive: RunDirective,
    working_dir: Path,
    root: Path,
    warn: WarnFn | None = None,
) -> ProblemList | None:
    """Expand a directive to its final problem list; None means the command
    is ignored because no list file was found."""
    subc = directive.subc
    if subc is None:
        subc = "all" if directive.explicit_problems else "default"
    path = locate_list(directive.solver, directive.collection, subc, working_dir, root)
    if path is None:
        return None
    located = read_list(path, warn=warn)
    solver_all = (
        Path(root) / SOLVERS_DIR / directive.solver / directive.collection / ALL_LIST
    )
    if not solver_all.is_file():
        raise RunnerError(f"hierarchy inconsistency: missing {solver_all}")
    soluble = set(read_list(solver_all, warn=warn).names)
    names = [n for n in located.names if n in soluble]
    if directive.explicit_problems:
        wanted = set(directive.explicit_problems)
        names = [n for n in names if n in wanted]
    return ProblemList(tuple(names), source=path)


def driver_path(root: Path, solver: str, collection: str) -> Path:
    return Path(root) / SOLVERS_DIR / solver / collection / f"{solver}_{collection}"


def check_working_dir(working_dir: Path, root: Path) -> None:
    """Refuse to run from inside the hierarchy: drivers delete files there."""
    wd = Path(working_dir).resolve()
    rt = Path(root).resolve()
    if wd == rt or rt in wd.parents:
        raise RunnerError(
            f"working directory {wd} is inside the hierarchy {rt}; refusing to run"
        )


def execute(
    run: ElementaryRun,
    working_dir: Path,
    root: Path,
    *,
    env: dict[str, str] | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> RunOutcome:
    """Spawn the driver for one elementary run, streaming its stdout through
    the tag filter. In test mode the command is echoed, never executed."""
    check_working_dir(working_dir, root)
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    return _execute(run, working_dir, root, _driver_env(root, env), out, err)


def _driver_env(root: Path, env: dict[str, str] | None) -> dict[str, str]:
    """``env`` (the process's by default) with the resolved root."""
    return {**(os.environ if env is None else env), ROOT_ENV_VAR: str(Path(root).resolve())}


def _execute(
    run: ElementaryRun, working_dir: Path, root: Path, child_env: dict[str, str],
    out: TextIO, err: TextIO,
) -> RunOutcome:
    """``execute`` after its checks and set-up, which a batch makes once."""
    options = run.options
    driver = driver_path(root, run.solver, run.collection)
    argv = [str(driver)]
    if options.keep:
        argv.append("-k")
    if options.test:
        argv.append("-t")
    if options.verbose:
        argv.append("-v")
    argv.append(run.problem)
    if options.test or options.verbose:
        print(f"+ {shlex.join(argv)}", file=err)
    if options.test:
        return RunOutcome(0)
    if not driver.is_file():
        return RunOutcome(127, warnings=[f"missing driver {driver}"])
    if not os.access(driver, os.X_OK):
        return RunOutcome(126, warnings=[f"driver {driver} is not executable"])

    outcome = RunOutcome(0)
    try:
        proc = subprocess.Popen(
            argv,
            cwd=str(working_dir),
            env=child_env,
            stdout=subprocess.PIPE,
            text=True,
            # bytes that do not decode reach the filter as \xNN escapes
            errors="backslashreplace",
        )
    except OSError as exc:
        # e.g. a shebang naming a missing interpreter: the shell's 127/126
        status = 127 if isinstance(exc, FileNotFoundError) else 126
        reason = exc.strerror or exc
        return RunOutcome(status, warnings=[f"cannot execute driver {driver}: {reason}"])
    assert proc.stdout is not None
    stream = (line.rstrip("\n") for line in proc.stdout)
    for line in filter_stream(
        stream, tag=run.tag, records=outcome.records, warnings=outcome.warnings
    ):
        print(line, file=out)
    outcome.status = proc.wait()
    if outcome.status == 0 and not outcome.records:
        outcome.warnings.append(
            f"driver {driver.name} printed no result line for {run.problem}"
        )
    return outcome


def run_batch(
    options: RunOptions,
    working_dir: Path,
    root: Path,
    lines: Iterable[str],
    *,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> BatchSummary:
    """Process command lines in order; one run at a time. A bad command
    line or list file skips its command; only a RunnerError (such as a
    solver without its all.lst) stops the batch."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    # the same for every run of the batch: checked and built once
    check_working_dir(working_dir, root)
    child_env = _driver_env(root, None)
    summary = BatchSummary()

    def warn(message: str) -> None:
        print(f"warning: {message}", file=err)

    for raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        summary.commands += 1
        try:
            directive = parse_command(text, warn=warn)
            resolved = resolve_problems(directive, working_dir, root, warn=warn)
        except RunnerError:
            raise
        except LiboptError as exc:
            # a bad command line, or a list file that cannot be read or
            # holds a bad name
            print(f"skipping command {text!r}: {exc}", file=err)
            summary.skips += 1
            continue
        if resolved is None:
            print(f"command {text!r} ignored: no list file found", file=err)
            summary.skips += 1
            continue
        for problem in resolved.names:
            run = ElementaryRun(
                directive.solver, directive.tag, directive.collection, problem, options
            )
            outcome = _execute(run, working_dir, root, child_env, out, err)
            summary.runs += 1
            for message in outcome.warnings:
                warn(message)
            if outcome.status != 0:
                summary.failures += 1
                print(
                    f"driver for {directive.solver}/{directive.collection} exited"
                    f" with status {outcome.status} on {problem}",
                    file=err,
                )
    return summary
