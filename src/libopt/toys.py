"""Synthetic "toys" collection plus two scripted fake solvers.

generate_fixture() materializes a complete, verifiable hierarchy under a
root directory so the whole run / add / profile pipeline can be exercised
without any real solver. The drivers are tiny executables that look up a
bundled script table and print the corresponding result line; for a fixed
seed their output is byte-identical across runs.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import NamedTuple

from .hierarchy import generate_indexes

COLLECTION = "toys"
SOLVERS = ("fakea", "fakeb")
PROBLEM_NAMES = ("alpha", "bravo", "charlie", "delta", "echo")

_DRIVER_TEMPLATE = '''#!/usr/bin/env python3
"""Scripted @SOLVER@ driver for the toys collection."""
import os
import shutil
import sys
from pathlib import Path

SOLVER = "@SOLVER@"
TABLE = Path(__file__).resolve().parent / "@SOLVER@_toys.tbl"


def load_table():
    table = {}
    for raw in TABLE.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, dim, info, nfc, nga = line.split()
        table[name] = (dim, info, nfc, nga)
    return table


def main():
    args = sys.argv[1:]
    keep = "-k" in args
    test = "-t" in args
    verbose = "-v" in args
    plain = [a for a in args if a not in ("-k", "-t", "-v")]
    if len(plain) != 1:
        print("usage: " + SOLVER + "_toys [-k] [-t] [-v] prob", file=sys.stderr)
        return 2
    prob = plain[0]
    table = load_table()
    if prob not in table:
        print(SOLVER + ": unknown toys problem " + prob, file=sys.stderr)
        return 1
    root = os.environ.get("LIBOPT_DIR")
    if not root:
        print(SOLVER + ": LIBOPT_DIR is not set", file=sys.stderr)
        return 1
    if test:
        print(SOLVER + ": would solve " + prob, file=sys.stderr)
        return 0
    if verbose:
        print(SOLVER + ": solving " + prob, file=sys.stderr)
    dim, info, nfc, nga = table[prob]
    data = Path(root) / "collections" / "toys" / "probs" / prob / "data.txt"
    work = Path.cwd() / (prob + ".dat")
    shutil.copyfile(data, work)
    print(SOLVER + " finished " + prob)
    print("libopt%" + SOLVER + "%toys%" + prob
          + "%n=" + dim + "%nfc=" + nfc + "%nga=" + nga + "%info=" + info)
    if not keep:
        work.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


class ScriptedResult(NamedTuple):
    info: int
    nfc: int
    nga: int


class ToyProblem(NamedTuple):
    name: str
    dimension: int
    results: tuple[tuple[str, ScriptedResult], ...]  # (solver, scripted outcome)

    def result_for(self, solver: str) -> ScriptedResult:
        return dict(self.results)[solver]


class FixtureSpec(NamedTuple):
    root: Path
    problems: tuple[ToyProblem, ...]
    solver_problems: dict[str, tuple[str, ...]]  # solver-side all.lst content
    default_problems: tuple[str, ...]  # collection-side default.lst content

    def expected_line(self, solver: str, problem: str, tag: str | None = None) -> str:
        prob = next(p for p in self.problems if p.name == problem)
        res = prob.result_for(solver)
        name = solver if tag is None else f"{solver}.{tag}"
        return (
            f"libopt%{name}%{COLLECTION}%{problem}"
            f"%n={prob.dimension}%nfc={res.nfc}%nga={res.nga}%info={res.info}"
        )


def _script_problems(seed: int) -> tuple[tuple[ToyProblem, ...], dict[str, tuple[str, ...]]]:
    rng = random.Random(seed)
    problems = []
    for name in PROBLEM_NAMES:
        dimension = rng.randrange(10, 2000)
        results = tuple(
            (solver, ScriptedResult(0, rng.randrange(8, 400), rng.randrange(5, 300)))
            for solver in SOLVERS
        )
        problems.append(ToyProblem(name, dimension, results))
    # fakeb cannot handle one problem at all and fails on another
    unsolvable = rng.choice(PROBLEM_NAMES)
    fakeb_list = tuple(n for n in PROBLEM_NAMES if n != unsolvable)
    failing = rng.choice(fakeb_list)
    for i, prob in enumerate(problems):
        if prob.name == failing:
            patched = tuple(
                (solver, res._replace(info=1) if solver == "fakeb" else res)
                for solver, res in prob.results
            )
            problems[i] = prob._replace(results=patched)
    solver_problems = {"fakea": tuple(PROBLEM_NAMES), "fakeb": fakeb_list}
    return tuple(problems), solver_problems


def generate_fixture(root: Path | str, seed: int = 1) -> FixtureSpec:
    """Build the toys hierarchy under root and return its script table."""
    root = Path(root)
    problems, solver_problems = _script_problems(seed)
    default_problems = PROBLEM_NAMES[:3]

    coll_dir = root / "collections" / COLLECTION
    coll_dir.mkdir(parents=True, exist_ok=True)
    (coll_dir / "all.lst").write_text(
        "# problems of the toys collection\n"
        + "".join(f"{p.name}  # n={p.dimension}\n" for p in problems)
    )
    (coll_dir / "default.lst").write_text(
        "".join(name + "\n" for name in default_problems)
    )
    for prob in problems:
        pdir = coll_dir / "probs" / prob.name
        pdir.mkdir(parents=True, exist_ok=True)
        (pdir / "data.txt").write_text(f"dimension {prob.dimension}\n")

    for solver in SOLVERS:
        sdir = root / "solvers" / solver / COLLECTION
        sdir.mkdir(parents=True, exist_ok=True)
        (root / "solvers" / solver / "bin").mkdir(exist_ok=True)
        (sdir / "all.lst").write_text(
            "".join(name + "\n" for name in solver_problems[solver])
        )
        default = sdir / "default.lst"
        if default.is_symlink() or default.exists():
            default.unlink()
        default.symlink_to("all.lst")
        table = sdir / f"{solver}_toys.tbl"
        rows = ["# prob n info nfc nga"]
        for prob in problems:
            if prob.name not in solver_problems[solver]:
                continue
            res = prob.result_for(solver)
            rows.append(f"{prob.name} {prob.dimension} {res.info} {res.nfc} {res.nga}")
        table.write_text("".join(row + "\n" for row in rows))
        driver = sdir / f"{solver}_toys"
        driver.write_text(_DRIVER_TEMPLATE.replace("@SOLVER@", solver))
        os.chmod(driver, 0o755)

    generate_indexes(root)
    return FixtureSpec(root, problems, solver_problems, default_problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m libopt.toys",
        description="materialize the synthetic toys hierarchy for demos and tests",
    )
    parser.add_argument("root", type=Path, help="hierarchy root to create")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    generate_fixture(args.root, args.seed)
    print(f"toys fixture written under {args.root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
