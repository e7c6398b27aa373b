"""On-disk environment layout: list files, index generation, consistency checks.

The hierarchy rooted at ``$LIBOPT_DIR`` looks like

    collections/<coll>/{all.lst, default.lst, probs/...}
    solvers/<solv>/<coll>/{all.lst, default.lst, <solv>_<coll>}

plus the generated index lists ``collections/collections.lst``,
``solvers/solvers.lst`` and ``solvers/<solv>/collections.lst``. A list
file is a whitespace-separated sequence of names; ``#`` starts a comment
running to the end of the line, and only "\n" ends a line. Its reader
lives in ``record``, so a profile reads list files without this module;
``HierarchyError``, ``ProblemList``, ``parse_list`` and ``read_list`` are
re-exported here.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .errors import LiboptError
from .record import HierarchyError, ProblemList, is_name, parse_list, read_list  # noqa: F401

COLLECTIONS_DIR = "collections"
SOLVERS_DIR = "solvers"
ALL_LIST = "all.lst"
DEFAULT_LIST = "default.lst"

# conventional location for solver binaries, not a collection interface
RESERVED_SOLVER_SUBDIRS = {"bin"}


def locate_list(
    solver: str,
    collection: str,
    subc: str,
    working_dir: Path,
    root: Path,
) -> Path | None:
    """First match wins: working directory, then the solver side, then the
    collection side. Not finding any is a normal outcome."""
    candidates = (
        Path(working_dir) / f"{collection}.{subc}.lst",
        Path(root) / SOLVERS_DIR / solver / collection / f"{subc}.lst",
        Path(root) / COLLECTIONS_DIR / collection / f"{subc}.lst",
    )
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def _subdir_names(path: Path) -> list[str]:
    try:
        entries = sorted(path.iterdir())
    except OSError as exc:
        raise HierarchyError(f"cannot read directory {path}: {exc}") from exc
    return [p.name for p in entries if p.is_dir() and is_name(p.name)]


def _write_list(path: Path, names: list[str]) -> None:
    path.write_text("".join(name + "\n" for name in names))


def solver_interface_dirs(solver_dir: Path) -> list[str]:
    return [
        name
        for name in _subdir_names(solver_dir)
        if name not in RESERVED_SOLVER_SUBDIRS
    ]


def generate_indexes(root: Path) -> list[Path]:
    """Regenerate the index lists from the directory tree.

    Overwrites unconditionally, in deterministic lexicographic order, and
    returns the written paths. Creates the two top-level directories when
    they are missing (an empty hierarchy is a valid starting shell).
    """
    root = Path(root)
    collections_dir = root / COLLECTIONS_DIR
    solvers_dir = root / SOLVERS_DIR
    collections_dir.mkdir(parents=True, exist_ok=True)
    solvers_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    index = collections_dir / "collections.lst"
    _write_list(index, _subdir_names(collections_dir))
    written.append(index)

    solvers = _subdir_names(solvers_dir)
    index = solvers_dir / "solvers.lst"
    _write_list(index, solvers)
    written.append(index)

    for solver in solvers:
        index = solvers_dir / solver / "collections.lst"
        _write_list(index, solver_interface_dirs(solvers_dir / solver))
        written.append(index)
    return written


class Finding(NamedTuple):
    severity: str  # "warning" or "error"
    message: str


class Report:
    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def error(self, message: str) -> None:
        self.findings.append(Finding("error", message))

    def warning(self, message: str) -> None:
        self.findings.append(Finding("warning", message))

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]


def _checked_list(path: Path, report: Report, rel: Path) -> ProblemList | None:
    try:
        return read_list(path, warn=report.warning)
    except LiboptError as exc:
        report.error(f"{rel}: {exc}")
        return None


def verify(root: Path) -> Report:
    """Check the hierarchy for the mandatory files and cross-list consistency.

    Nothing is raised; every problem becomes a finding with a severity.
    """
    root = Path(root)
    report = Report()
    collections_dir = root / COLLECTIONS_DIR
    solvers_dir = root / SOLVERS_DIR
    have_collections = collections_dir.is_dir()
    have_solvers = solvers_dir.is_dir()
    if not have_collections:
        report.error(f"missing directory {COLLECTIONS_DIR}/")
    if not have_solvers:
        report.error(f"missing directory {SOLVERS_DIR}/")

    collection_all: dict[str, set[str]] = {}
    collections = _subdir_names(collections_dir) if have_collections else []
    for coll in collections:
        cdir = collections_dir / coll
        for fname in (ALL_LIST, DEFAULT_LIST):
            if not (cdir / fname).is_file():
                report.error(f"missing {COLLECTIONS_DIR}/{coll}/{fname}")
        if (cdir / ALL_LIST).is_file():
            plist = _checked_list(cdir / ALL_LIST, report, Path(COLLECTIONS_DIR, coll, ALL_LIST))
            if plist is not None:
                collection_all[coll] = set(plist.names)
        if (cdir / DEFAULT_LIST).is_file() and coll in collection_all:
            plist = _checked_list(cdir / DEFAULT_LIST, report, Path(COLLECTIONS_DIR, coll, DEFAULT_LIST))
            if plist is not None:
                for name in plist.names:
                    if name not in collection_all[coll]:
                        report.error(
                            f"{COLLECTIONS_DIR}/{coll}/{DEFAULT_LIST}: problem {name!r}"
                            f" not in {ALL_LIST}"
                        )
    if have_collections:
        _check_index(collections_dir / "collections.lst", collections, report, root)

    solvers = _subdir_names(solvers_dir) if have_solvers else []
    for solver in solvers:
        sdir = solvers_dir / solver
        interfaces = solver_interface_dirs(sdir)
        for coll in interfaces:
            idir = sdir / coll
            rel = f"{SOLVERS_DIR}/{solver}/{coll}"
            if coll not in collections:
                report.error(f"{rel}: no installed collection named {coll!r}")
            for fname in (ALL_LIST, DEFAULT_LIST):
                if not (idir / fname).is_file():
                    report.error(f"missing {rel}/{fname}")
            driver = idir / f"{solver}_{coll}"
            if not driver.is_file():
                report.error(f"missing driver {rel}/{solver}_{coll}")
            elif not _is_executable(driver):
                report.error(f"driver {rel}/{solver}_{coll} is not executable")
            solver_all: set[str] | None = None
            if (idir / ALL_LIST).is_file():
                plist = _checked_list(idir / ALL_LIST, report, Path(rel, ALL_LIST))
                if plist is not None:
                    solver_all = set(plist.names)
                    for name in plist.names:
                        if coll in collection_all and name not in collection_all[coll]:
                            report.error(
                                f"{rel}/{ALL_LIST}: problem {name!r} not in"
                                f" {COLLECTIONS_DIR}/{coll}/{ALL_LIST}"
                            )
            if (idir / DEFAULT_LIST).is_file() and solver_all is not None:
                plist = _checked_list(idir / DEFAULT_LIST, report, Path(rel, DEFAULT_LIST))
                if plist is not None:
                    for name in plist.names:
                        if name not in solver_all:
                            report.error(
                                f"{rel}/{DEFAULT_LIST}: problem {name!r} not in {ALL_LIST}"
                            )
        _check_index(sdir / "collections.lst", interfaces, report, root)
    if have_solvers:
        _check_index(solvers_dir / "solvers.lst", solvers, report, root)
    return report


def _is_executable(path: Path) -> bool:
    return os.access(path, os.X_OK)


def _check_index(path: Path, expected: list[str], report: Report, root: Path) -> None:
    rel = path.relative_to(root)
    if not path.is_file():
        report.error(f"missing index list {rel}")
        return
    try:
        plist = read_list(path, warn=report.warning)
    except LiboptError as exc:
        report.error(f"{rel}: {exc}")
        return
    listed = set(plist.names)
    for name in expected:
        if name not in listed:
            report.error(f"{rel}: missing entry {name!r}")
    for name in sorted(listed - set(expected)):
        report.error(f"{rel}: stale entry {name!r}")
