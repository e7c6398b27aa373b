#!/usr/bin/env python3
"""Self-check of the benchmark's correctness checks, at a tiny scale.

    python3 perfbench/selfcheck.py

Runs one round of the pipeline on tiny inputs and requires every check
to pass. Then it plants one wrong value in a copy of each kind of output
(a store line, a perf.gnu y, a result line) and requires the matching
check to reject it. Exits 0 when all hold.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
from launch import base_env, libopt  # noqa: E402
from run import WORK, cli_round  # noqa: E402

SEED = 7


def bump(text: str, token: str) -> str:
    """The text with the first `token=value` changed to another value."""
    head, sep, tail = text.partition(f"{token}=")
    value, rest = tail.split("%", 1) if "%" in tail else (tail, None)
    changed = f"{head}{sep}{float(value) + 1:g}"
    return changed if rest is None else f"{changed}%{rest}"


def plant_store(inp: gen.Inputs) -> str:
    lines = inp.harvest.store.read_text().splitlines()
    lines[len(lines) // 2] = bump(lines[len(lines) // 2], "nfc")
    checks.check_store("\n".join(lines) + "\n", inp.harvest)
    return "store line with a changed nfc"


def plant_gnu(inp: gen.Inputs) -> str:
    full = inp.compare.full
    first, rest = (full.wd / "perf.gnu").read_text().split("\n\n\n", 1)
    rows = first.split("\n")
    # raise the first block's last step before the plateau (the solve
    # fraction) by one problem, keeping the curve nondecreasing
    data = [i for i, row in enumerate(rows) if row and not row.startswith("#")]
    plateau_x = rows[data[-1]].split()[0]
    before = max(j for j in data if rows[j].split()[0] != plateau_x)
    level = rows[before].split()[1]
    for j in data[:-1]:
        x, y = rows[j].split()
        if y == level and j >= before - 1:
            rows[j] = f"{x} {float(y) + 1 / len(full.tau):.6g}"
    checks.check_profile(full, "\n".join(rows) + "\n\n\n" + rest, (full.wd / "perf.m").read_text(),
                         len(full.tau), SEED)
    return "perf.gnu solve fraction raised by one problem"


def plant_result(inp: gen.Inputs, scratch: Path) -> str:
    w = inp.sweep
    call = libopt(["run", str(w.commands)], w.wd,
                  {**base_env(inp.harvest.startup), "LIBOPT_DIR": str(w.root)}, scratch)
    lines = call.stdout.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("libopt%"))
    lines[i] = bump(lines[i], "nfc")
    checks.check_sweep(w, "\n".join(lines) + "\n", checks.parse_run_summary(call.stderr))
    return "result line with a changed nfc"


def main() -> int:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=WORK))
    ok = True
    try:
        inp = gen.generate(scratch / "in", gen.TINY, SEED)
        tally = checks.Tally()
        cli_round(inp, scratch, tally, SEED)
        if tally.failed or tally.errors:
            print(f"FAIL clean round: {tally.failed} failed, errors {tally.errors}")
            return 1
        print(f"ok   clean round: {tally.attempted} operations, every check holds")
        plants = (("add", "check_store", lambda: plant_store(inp)),
                  ("profile", "check_profile", lambda: plant_gnu(inp)),
                  ("run", "check_sweep", lambda: plant_result(inp, scratch)))
        for stage, check, plant in plants:
            try:
                what = plant()
            except checks.CheckFailed as exc:
                print(f"ok   {stage}: {check} rejects the planted fault ({exc})")
            else:
                print(f"FAIL {stage}: {check} accepted {what}")
                ok = False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
