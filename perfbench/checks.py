"""Correctness checks of libopt's outputs against the generator's values.

Each check raises CheckFailed with a one-line reason. The expected
values come from ``gen.py`` (the numbers it wrote) and from the
definitions in the README: the store format, Dolan–Moré profiles with a
failure plateau, and the command-resolution rules of ``run``. Nothing
is compared with a stored copy of an earlier output.
"""
from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path

from gen import Harvest, Profile, Sweep


class CheckFailed(Exception):
    pass


class Tally:
    """Operations attempted and failed, and the checks that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @contextmanager
    def checking(self, what: str):
        """Record a failed check; malformed output (ValueError) fails it too."""
        try:
            yield
        except (CheckFailed, ValueError) as exc:
            self.errors.append(f"{what}: {exc}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _search(pattern: str, text: str, what: str) -> tuple[int, ...]:
    match = re.search(pattern, text)
    _expect(match is not None, f"no {what} summary in stderr")
    return tuple(int(g) for g in match.groups())


# ---------------------------------------------------------------- harvest

def parse_add_summary(stderr: str) -> tuple[int, ...]:
    """(added, replaced, duplicates, invalid) from the `add` summary line."""
    return _search(r"added (\d+), replaced (\d+), duplicates (\d+), invalid (\d+)",
                   stderr, "add")


def parse_delete_summary(stderr: str) -> int:
    return _search(r"deleted (\d+) entries", stderr, "delete")[0]


def check_add_counts(got: tuple[int, ...], added: int, replaced: int) -> None:
    _expect(got == (added, replaced, 0, 0),
            f"add reported added/replaced/duplicates/invalid {got},"
            f" expected {(added, replaced, 0, 0)}")


def check_deleted(got: int, harvest: Harvest) -> None:
    _expect(got == harvest.deleted,
            f"delete reported {got} entries, expected {harvest.deleted}")


def check_store(text: str, harvest: Harvest) -> None:
    """Keys sorted, unique and equal to base + new - deleted; values equal
    to the last value the generator wrote for the key."""
    keys = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split("%")
        _expect(len(fields) >= 5, f"store line {lineno} has {len(fields)} fields")
        key = "%".join(fields[:3])
        keys.append(key)
        want = harvest.expected.get(key)
        _expect(want is not None, f"store line {lineno}: unexpected key {key}")
        got = {}
        for pair in fields[3:]:
            token, _, number = pair.partition("=")
            got[token] = float(number)
        _expect(got == want, f"store line {lineno}: {key} holds {got}, expected {want}")
    _expect(all(a < b for a, b in zip(keys, keys[1:])), "store keys not sorted and unique")
    _expect(len(keys) == len(harvest.expected),
            f"store holds {len(keys)} entries, expected {len(harvest.expected)}")


# ---------------------------------------------------------------- compare

def parse_compared(stderr: str) -> int:
    """Eligible problem count from the `profile -v` line."""
    return _search(r"compared \d+ solvers on (\d+) problems", stderr, "profile -v")[0]


def _ratios(profile: Profile) -> tuple[dict[str, list[float | None]], float]:
    """Per-solver ratios (None for a failure) and the plateau rho_bar."""
    ratios: dict[str, list[float | None]] = {s: [] for s in profile.solvers}
    largest = None
    for row in profile.tau.values():
        successes = [v for v in row.values() if v is not None]
        best = min(successes) if successes else None
        for s in profile.solvers:
            value = row[s]
            ratio = None if value is None else value / best
            ratios[s].append(ratio)
            if ratio is not None and (largest is None or ratio > largest):
                largest = ratio
    rho_bar = 2.0 if largest is None else max(2.0, 2.0 * largest)
    return ratios, rho_bar


def _gnu_blocks(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    blocks: list[tuple[str, list[tuple[str, str]]]] = []
    for line in text.splitlines():
        if line.startswith("# solver "):
            blocks.append((line[len("# solver "):], []))
        elif line and not line.startswith("#"):
            _expect(bool(blocks), "perf.gnu has data before the first solver block")
            x, y = line.split()
            blocks[-1][1].append((x, y))
    return blocks


def _m_blocks(text: str) -> list[list[tuple[str, str]]]:
    blocks: list[list[tuple[str, str]]] = []
    rows = None
    for line in text.splitlines():
        if re.fullmatch(r"data\d+ = \[", line):
            rows = []
        elif line == "];" and rows is not None:
            blocks.append(rows)
            rows = None
        elif rows is not None:
            x, y = line.split()
            rows.append((x, y))
    return blocks


def _staircase(breakpoints: list[tuple[str, str]]) -> list[tuple[str, str]]:
    rows, prev = [], None
    for x, y in breakpoints:
        if prev is not None and y != prev:
            rows.append((x, prev))
        rows.append((x, y))
        prev = y
    return rows


def check_profile(profile: Profile, gnu: str, m: str, compared: int, seed: int) -> None:
    n = len(profile.tau)
    _expect(compared == n, f"profile compared {compared} problems, expected {n}")
    ratios, rho_bar = _ratios(profile)
    to_x = math.log2 if profile.log_scale else (lambda t: t)
    blocks = _gnu_blocks(gnu)
    names = [name for name, _ in blocks]
    _expect(names == list(profile.solvers),
            f"perf.gnu blocks {names}, expected {list(profile.solvers)}")
    m_blocks = _m_blocks(m)
    _expect(len(m_blocks) == len(blocks), "perf.m and perf.gnu differ in solver count")
    grid = sorted({r for rs in ratios.values() for r in rs if r is not None})
    rng = random.Random(f"samples-{seed}")
    samples = [1.0, (grid[-1] + rho_bar) / 2 if grid else 1.5]
    for i in rng.sample(range(max(len(grid) - 1, 0)), min(20, max(len(grid) - 1, 0))):
        if grid[i + 1] - grid[i] > 1e-4 * grid[i + 1]:
            samples.append((grid[i] + grid[i + 1]) / 2)
    for (solver, rows), m_rows in zip(blocks, m_blocks):
        where = f"perf.gnu block {solver}"
        _expect(bool(rows), f"{where}: no rows")
        xs = [float(x) for x, _ in rows]
        ys = [float(y) for _, y in rows]
        _expect(all(0.0 <= y <= 1.0 for y in ys), f"{where}: y outside [0, 1]")
        _expect(all(a <= b for a, b in zip(ys, ys[1:])), f"{where}: y decreases")
        _expect(all(a <= b for a, b in zip(xs, xs[1:])), f"{where}: x decreases")
        _expect(xs[0] == to_x(1.0), f"{where}: starts at x={xs[0]}, expected {to_x(1.0)}")
        _expect(math.isclose(xs[-1], to_x(rho_bar), rel_tol=1e-5, abs_tol=1e-9),
                f"{where}: plateau at x={xs[-1]}, expected {to_x(rho_bar)}")
        _expect(ys[-1] == 1.0, f"{where}: plateau y={ys[-1]}, expected 1")
        solved = sum(r is not None for r in ratios[solver])
        before = [y for x, y in zip(xs, ys) if x < xs[-1]][-1]
        _expect(abs(before * n - solved) < 0.01,
                f"{where}: y before the plateau {before}, expected {solved}/{n}")
        for t in samples:
            x = to_x(t)
            y = ys[bisect_right(xs, x) - 1]
            count = sum(r is not None and r <= t for r in ratios[solver])
            _expect(abs(y * n - count) < 0.01,
                    f"{where}: y({t:.6g})={y}, expected {count}/{n}")
        _expect(_staircase(m_rows) == rows, f"{where}: perf.m breakpoints differ")


# ---------------------------------------------------------------- sweep

def parse_run_summary(stderr: str) -> tuple[int, ...]:
    """(runs, skips, failures) from the `run` summary line."""
    return _search(r"commands: \d+, runs: (\d+), skips: (\d+), failures: (\d+)",
                   stderr, "run")


def check_filtered(lines: list[str], records: list, runs: int) -> None:
    """filter_stream over the drivers' own output: every result harvested
    and tagged, every line passed through."""
    _expect(len(records) == runs, f"filter_stream harvested {len(records)} of {runs} results")
    _expect(all(r.tag == "v2" for r in records), "filter_stream left a result untagged")
    _expect(len(lines) == 2 * runs, f"filter_stream passed {len(lines)} of {2 * runs} lines")


def parse_install(stderr: str) -> int:
    return _search(r"verification: (\d+) errors", stderr, "install")[0]


def check_install(errors: int) -> None:
    _expect(errors == 0, f"install reported {errors} errors")


def check_sweep(sweep: Sweep, stdout: str, summary: tuple[int, ...]) -> None:
    """One passthrough and one result line per expected run, in command
    order, with the tag applied and the table's values."""
    want = sweep.expected_stdout().splitlines()
    got = stdout.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        _expect(a == b, f"run stdout line {i + 1} is {a!r}, expected {b!r}")
    _expect(len(got) == len(want), f"run printed {len(got)} lines, expected {len(want)}")
    _expect(summary == (len(sweep.runs), 0, 0),
            f"run summary runs/skips/failures {summary}, expected {(len(sweep.runs), 0, 0)}")
    left = sorted(p.name for p in Path(sweep.wd).glob("*.dat"))
    _expect(not left, f"run left {len(left)} .dat files in the working directory")
