"""Command-line front end: run, add, profile, install.

Diagnostics go to standard error; standard output carries only driver
passthrough and result lines, so pipelines that grep for them keep
working. Exit codes: 0 full success, 1 partial failures (skips,
duplicates, findings), 2 usage or configuration errors, or an OS error
such as a removed working directory or a failed standard stream.
"""
from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from contextlib import nullcontext, suppress
from pathlib import Path

from . import __version__
from .config import ROOT_ENV_VAR, load_startup, resolve_store_path, token_config
from .errors import LiboptError, OutputError, read_text

# Each handler imports its own stage modules, and a module imports what
# only one of its functions needs inside that function (`fcntl` in
# `store.locked`): every call pays for each module it loads, and compiles
# it from source when bytecode caching is off. So `add` loads none of the
# modules of `run`, `profile` or `install`; `profile` reads list files
# without `hierarchy`; `--version`, `run` and `install` do not load
# `store`; and no call loads `inspect`. `tests/test_cli.py` pins these
# sets.

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2

# a closed standard stream is None: it fails as a closed fd would
CLOSED = OSError(errno.EBADF, os.strerror(errno.EBADF))

ALIASES = {
    "runopt": "run",
    "addopt": "add",
    "perfopt": "profile",
}


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _write(stream, text: str) -> None:
    """Write ``text`` to a standard stream and flush it; a closed one
    (None) fails as a closed fd would."""
    if stream is None:
        raise CLOSED
    stream.write(text)
    stream.flush()


class _Parser(argparse.ArgumentParser):
    """argparse drops a failed write of its help, version or usage: here
    it fails as a write to any standard stream does. The usage of a usage
    error goes to standard error only: argparse would send it to standard
    output when standard error is closed."""

    def print_usage(self, file=None) -> None:
        self._print_message(self.format_usage(), sys.stderr)

    def _print_message(self, message: str, file=None) -> None:
        file = file or sys.stderr  # argparse's own choice of stream
        if message:
            try:
                _write(file, message)
            except OSError as exc:
                raise OutputError(exc) if file is sys.stdout else exc


def _to_devnull(stream) -> None:
    """Point the fd of a failed standard stream at os.devnull: Python
    flushes it once more at exit, and that flush must go nowhere."""
    if stream is None:  # closed: no fd, and no flush at exit
        return
    with suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _stdin_lines():
    """Standard input line by line; a closed one, or bytes that do not
    decode, fail as in a command file."""
    if sys.stdin is None:
        raise LiboptError(f"cannot read standard input: {CLOSED}")
    try:
        yield from sys.stdin
    except UnicodeDecodeError as exc:
        raise LiboptError(f"cannot read standard input: {exc}") from exc


def _require_root() -> Path:
    root = _optional_root()
    if root is None:
        raise LiboptError(f"{ROOT_ENV_VAR} is not set")
    return root


def _optional_root() -> Path | None:
    value = os.environ.get(ROOT_ENV_VAR)
    if not value:
        return None
    root = Path(value)
    if not root.is_dir():
        raise LiboptError(f"{ROOT_ENV_VAR}={value} is not a directory")
    return root


def cmd_run(args: argparse.Namespace) -> int:
    from .runner import RunOptions, run_batch

    if sys.stdout is None:  # every result line would be lost: run nothing
        raise OutputError(CLOSED)
    root = _require_root()
    working_dir = Path.cwd()
    options = RunOptions(keep=args.keep, test=args.test, verbose=args.verbose)
    if args.command_file is not None:
        path = Path(args.command_file)
        if not path.is_file():
            raise LiboptError(f"command file not found: {path}")
        # only "\n" ends a line, as on standard input
        lines = read_text(path, "command file")
    else:
        lines = _stdin_lines()
    summary = run_batch(options, working_dir, root, lines)
    print(summary, file=sys.stderr)
    return EXIT_OK if summary.skips == 0 and summary.failures == 0 else EXIT_PARTIAL


def cmd_add(args: argparse.Namespace) -> int:
    from .merge import delete_from, import_into
    from .store import locked, parse_selection

    startup = load_startup(args.config)
    store_path = resolve_store_path(args.db, startup, Path.cwd())
    if args.delete is None and args.resfile is None:
        raise LiboptError("nothing to do: give a result file or -d selection")
    if args.delete is not None and args.resfile is not None:
        raise LiboptError("give either a result file or -d selection, not both")
    deleting = args.delete is not None
    if deleting:
        target = parse_selection(args.delete)
    else:
        resfile = Path(args.resfile)
        if not resfile.is_file():
            raise LiboptError(f"result file not found: {resfile}")

    # test mode only reads the store: no lock, no save
    with nullcontext() if args.test else locked(store_path):
        if deleting:
            show = (lambda key: print(key, file=sys.stderr)) if args.verbose or args.test else None
            result = delete_from(store_path, target, save=not args.test, show=show)
        else:
            report = import_into(
                store_path, resfile, replace=args.replace,
                config=token_config(startup), save=not args.test,
            )

    if deleting:
        missing = f" ({result.missing} not present)" if result.missing else ""
        done = "test mode: would delete" if args.test else "deleted"
        print(f"{done} {result.deleted} entries{missing}", file=sys.stderr)
        return EXIT_OK
    for detail in report.details:
        print(detail, file=sys.stderr)
    prefix = "test mode: would have " if args.test else ""
    print(
        f"{prefix}added {report.added}, replaced {report.replaced},"
        f" duplicates {report.duplicates}, invalid {report.invalid}",
        file=sys.stderr,
    )
    clean = report.duplicates == 0 and report.invalid == 0
    return EXIT_OK if clean else EXIT_PARTIAL


def cmd_profile(args: argparse.Namespace) -> int:
    from .profile import (
        SPEC_FILENAME,
        compute_profiles,
        compute_ratios,
        gather_candidate_problems,
        parse_spec,
        select,
    )
    from .plot import write_outputs
    from .store import StoreReader

    startup = load_startup(args.config)
    working_dir = Path.cwd()
    root = _optional_root()
    store_path = resolve_store_path(args.db, startup, working_dir)
    spec_path = working_dir / SPEC_FILENAME
    if not spec_path.is_file():
        raise LiboptError(f"specification file {SPEC_FILENAME} not found: it is mandatory")
    spec = parse_spec(
        read_text(spec_path, "specification file"),
        cli_ptok=args.ptok,
        cli_log=args.log,
        cli_output=args.gfile,
        config=token_config(startup),
        warn=_warn,
    )
    candidates = gather_candidate_problems(spec, working_dir, root, warn=_warn)
    # read as it is scanned: only the values the table needs are kept
    table = select(spec, StoreReader(store_path), candidates, warn=_warn)
    solvers, problems = len(table.solvers), len(table.problems)
    if not problems:
        print("no eligible problems for the requested comparison", file=sys.stderr)
        profiles = []
    else:
        matrix = compute_ratios(table, spec.performance_token, spec.rho_bar_override)
        # neither the table nor the matrix is alive while the files are written
        del table
        profiles, rho_bar = compute_profiles(matrix), matrix.rho_bar
        del matrix
        if args.verbose:
            print(f"compared {solvers} solvers on {problems} problems, plateau at {rho_bar:g}", file=sys.stderr)
    base = working_dir / spec.output_base
    if args.test:
        print(f"test mode: would write {base}.gnu and {base}.m", file=sys.stderr)
        return EXIT_OK if profiles else EXIT_PARTIAL
    gnu_path, m_path = write_outputs(profiles, spec.log_scale, base)
    print(f"wrote {gnu_path.name} and {m_path.name}", file=sys.stderr)
    return EXIT_OK if profiles else EXIT_PARTIAL


def cmd_install(args: argparse.Namespace) -> int:
    from .hierarchy import generate_indexes, verify

    root = _require_root()
    if args.test:
        print("test mode: index lists not regenerated", file=sys.stderr)
    else:
        written = generate_indexes(root)
        if args.verbose:
            for path in written:
                print(f"wrote {path}", file=sys.stderr)
    report = verify(root)
    for finding in report.findings:
        print(f"{finding.severity}: {finding.message}", file=sys.stderr)
    errors = len(report.errors)
    warnings = len(report.findings) - errors
    print(f"verification: {errors} errors, {warnings} warnings", file=sys.stderr)
    return EXIT_OK if errors == 0 else EXIT_PARTIAL


def build_parser(prog: str = "libopt") -> argparse.ArgumentParser:
    parser = _Parser(
        prog=prog,
        description="run solvers on problem collections, gather result lines,"
        " and compare solvers with performance profiles",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run solvers on problems (reads command lines)")
    p_run.add_argument("-k", dest="keep", action="store_true", help="keep mode: drivers leave their work files")
    p_run.add_argument("-t", dest="test", action="store_true", help="test mode: print commands, execute nothing")
    p_run.add_argument("-v", dest="verbose", action="store_true", help="verbose mode: echo the commands")
    p_run.add_argument("command_file", nargs="?", metavar="CommandFile",
                       help="file of 'solv[.tag] coll[.subc] [problems]' lines; standard input when absent")
    p_run.set_defaults(handler=cmd_run)

    p_add = sub.add_parser("add", help="add result files to the database, or delete entries")
    p_add.add_argument("-t", dest="test", action="store_true", help="test mode: show the effect, change nothing")
    p_add.add_argument("-v", dest="verbose", action="store_true")
    p_add.add_argument("-b", dest="db", metavar="DBFile", help="database file")
    p_add.add_argument("-r", dest="replace", action="store_true", help="replace entries already present")
    p_add.add_argument("-d", dest="delete", metavar="selection",
                       help="delete entries: 'solv%%coll%%prob%%' pattern (empty fields match"
                            " anything) or a file of result lines")
    p_add.add_argument("--config", metavar="RCFile", help="startup file to read instead of ~/.liboptrc")
    p_add.add_argument("resfile", nargs="?", metavar="ResFile", help="file of result lines to add")
    p_add.set_defaults(handler=cmd_add)

    p_prof = sub.add_parser("profile", help="emit performance-profile plot data from the database")
    p_prof.add_argument("-t", dest="test", action="store_true", help="test mode: compute but write nothing")
    p_prof.add_argument("-v", dest="verbose", action="store_true")
    p_prof.add_argument("-b", dest="db", metavar="DBFile", help="database file")
    p_prof.add_argument("-p", dest="ptok", metavar="ptok", help="performance token to compare on")
    p_prof.add_argument("-log", dest="log", action="store_true", help="logarithmic (base 2) x-coordinate")
    p_prof.add_argument("-g", dest="gfile", metavar="GFile", help="output base name (default 'perf')")
    p_prof.add_argument("--config", metavar="RCFile", help="startup file to read instead of ~/.liboptrc")
    p_prof.set_defaults(handler=cmd_profile)

    p_inst = sub.add_parser("install", help="regenerate index lists and verify the hierarchy")
    p_inst.add_argument("-t", dest="test", action="store_true", help="test mode: verify only, write nothing")
    p_inst.add_argument("-v", dest="verbose", action="store_true")
    p_inst.set_defaults(handler=cmd_install)
    return parser


def main(argv: list[str] | None = None, prog: str | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if prog is None:
        prog = os.path.basename(sys.argv[0]) if sys.argv and sys.argv[0] else "libopt"
    alias = ALIASES.get(prog)
    if alias is not None:
        argv = [alias, *argv]
        prog = "libopt"
    parser = build_parser(prog)
    gc_was_enabled = gc.isenabled()
    try:
        args = parser.parse_args(argv)
        # No cyclic-GC passes while a handler runs: the stores and tables it
        # builds are large and acyclic, so a pass would only rescan them.
        gc.disable()
        return args.handler(args)
    except SystemExit as exc:  # argparse exits 0 for -h and --version, 2 for usage errors
        return int(exc.code or 0)
    except (LiboptError, OSError) as exc:
        # one error line and exit 2, whatever failed: never raise again
        if isinstance(exc, OutputError):
            _to_devnull(sys.stdout)
        try:
            _write(sys.stderr, f"error: {exc}\n")
        except OSError:
            _to_devnull(sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
