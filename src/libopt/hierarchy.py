"""On-disk environment layout: list files, index generation, consistency checks.

This module is the one owner of the layout's rules: every path into the
hierarchy that ``run`` and ``install`` use, and every check of it, is
written here once. The hierarchy rooted at ``$LIBOPT_DIR`` looks like

    collections/<coll>/{all.lst, default.lst, probs/...}
    solvers/<solv>/<coll>/{all.lst, default.lst, <solv>_<coll>}

plus the generated index lists ``collections/collections.lst``,
``solvers/solvers.lst`` and ``solvers/<solv>/collections.lst``. A list
file is a whitespace-separated sequence of names; ``#`` starts a comment
running to the end of the line, and only "\n" ends a line. Its reader
and the name rule ``NAME_RE`` live in ``record``, so a profile reads list
files without this module; ``HierarchyError``, ``ProblemList``,
``parse_list`` and ``read_list`` are re-exported here.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .errors import LiboptError
from .record import NAME_RE, HierarchyError, ProblemList, parse_list, read_list  # noqa: F401

COLLECTIONS_DIR = "collections"
SOLVERS_DIR = "solvers"
ALL_LIST = "all.lst"
DEFAULT_LIST = "default.lst"

# conventional location for solver binaries, not a collection interface
RESERVED_SOLVER_SUBDIRS = {"bin"}


def interface_dir(root: Path, solver: str, collection: str) -> Path:
    """``solvers/<solver>/<collection>``: the solver's side of the pair."""
    return Path(root) / SOLVERS_DIR / solver / collection


def driver_path(root: Path, solver: str, collection: str) -> Path:
    return interface_dir(root, solver, collection) / f"{solver}_{collection}"


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
        interface_dir(root, solver, collection) / f"{subc}.lst",
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
    return [p.name for p in entries if p.is_dir() and NAME_RE.match(p.name)]


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
    they are missing (an empty hierarchy is a valid starting shell). A
    directory or index list that cannot be written raises HierarchyError.
    """
    root = Path(root)
    collections_dir = root / COLLECTIONS_DIR
    solvers_dir = root / SOLVERS_DIR
    try:
        collections_dir.mkdir(parents=True, exist_ok=True)
        solvers_dir.mkdir(parents=True, exist_ok=True)
        indexes = {collections_dir / "collections.lst": _subdir_names(collections_dir)}
        indexes[solvers_dir / "solvers.lst"] = solvers = _subdir_names(solvers_dir)
        for solver in solvers:
            indexes[solvers_dir / solver / "collections.lst"] = solver_interface_dirs(solvers_dir / solver)
        for path, names in indexes.items():
            path.write_text("".join(name + "\n" for name in names))
    except OSError as exc:
        raise HierarchyError(f"cannot write the index lists of {root}: {exc}") from exc
    return list(indexes)


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


def _checked_list(path: Path, report: Report, rel: str) -> ProblemList | None:
    try:
        return read_list(path, warn=report.warning)
    except LiboptError as exc:
        report.error(f"{rel}: {exc}")
        return None


def _missing_lists(directory: Path, rel: str, report: Report) -> None:
    for fname in (ALL_LIST, DEFAULT_LIST):
        if not (directory / fname).exists():
            report.error(f"missing {rel}/{fname}")


def _check_lists(directory: Path, rel: str, within: set[str] | None, within_rel: str,
                 report: Report) -> set[str] | None:
    """all.lst within ``within``, the names of ``within_rel`` (no check when
    None), then default.lst within all.lst; returns all.lst's names or None."""
    names = None
    for fname in (ALL_LIST, DEFAULT_LIST):
        path = directory / fname
        plist = _checked_list(path, report, f"{rel}/{fname}") if path.exists() else None
        if plist is None:
            return names
        for name in plist.names:
            if within is not None and name not in within:
                report.error(f"{rel}/{fname}: problem {name!r} not in {within_rel}")
        if names is None:  # all.lst read: default.lst must lie within it
            names = within = set(plist.names)
            within_rel = ALL_LIST
    return names


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

    collection_all: dict[str, set[str] | None] = {}
    collections = _subdir_names(collections_dir) if have_collections else []
    for coll in collections:
        rel = f"{COLLECTIONS_DIR}/{coll}"
        _missing_lists(collections_dir / coll, rel, report)
        collection_all[coll] = _check_lists(collections_dir / coll, rel, None, "", report)
    if have_collections:
        _check_index(collections_dir / "collections.lst", collections, report, root)

    solvers = _subdir_names(solvers_dir) if have_solvers else []
    for solver in solvers:
        interfaces = solver_interface_dirs(solvers_dir / solver)
        for coll in interfaces:
            idir = interface_dir(root, solver, coll)
            rel = f"{SOLVERS_DIR}/{solver}/{coll}"
            if coll not in collections:
                report.error(f"{rel}: no installed collection named {coll!r}")
            _missing_lists(idir, rel, report)
            driver = driver_path(root, solver, coll)
            if not driver.is_file():
                report.error(f"missing driver {rel}/{driver.name}")
            elif not os.access(driver, os.X_OK):
                report.error(f"driver {rel}/{driver.name} is not executable")
            within_rel = f"{COLLECTIONS_DIR}/{coll}/{ALL_LIST}"
            _check_lists(idir, rel, collection_all.get(coll), within_rel, report)
        _check_index(solvers_dir / solver / "collections.lst", interfaces, report, root)
    if have_solvers:
        _check_index(solvers_dir / "solvers.lst", solvers, report, root)
    return report


def _check_index(path: Path, expected: list[str], report: Report, root: Path) -> None:
    rel = path.relative_to(root)
    if not path.is_file():
        report.error(f"missing index list {rel}")
        return
    plist = _checked_list(path, report, str(rel))
    if plist is None:
        return
    listed = set(plist.names)
    for name in expected:
        if name not in listed:
            report.error(f"{rel}: missing entry {name!r}")
    for name in sorted(listed - set(expected)):
        report.error(f"{rel}: stale entry {name!r}")
