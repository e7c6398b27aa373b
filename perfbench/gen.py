"""Seeded input generator for the libopt benchmark.

Every input the program sees is written here: the canonical store text,
the result files, the startup file, the ``perfopt.spc`` files and list
files, and a hierarchy whose per-pair drivers are ``/bin/sh`` scripts.
The generator also keeps the values it wrote, so the checks in
``checks.py`` compare libopt's outputs with numbers computed apart from
libopt.

The inputs come in three parts, one per stage: ``Harvest`` (store and
result files for ``add``), ``Compare`` (store, specs and lists for
``profile``) and ``Sweep`` (hierarchy and commands for ``install`` and
``run``). Each workload runs the whole pipeline; its scale makes some
stages large (the focus) and keeps the others small.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

TOKENS = ("n", "nfc", "nga", "time", "info")
PERFORMANCE_TOKENS = ("nfc", "nga", "time")
STARTUP_TEXT = (
    "# token checking on: every line is checked against these sets\n"
    f"tokens = {' '.join(TOKENS)}\n"
    f"performance_tokens = {' '.join(PERFORMANCE_TOKENS)}  # comparison criteria\n"
)
FAIL_SHARE = 0.1  # share of runs with info != 0 in the generated results


@dataclass(frozen=True)
class Scale:
    # harvest: entries of the existing store, fresh lines, re-run lines
    store_entries: int
    new_lines: int
    rerun_lines: int
    # compare: solvers (one of them tagged) and problems per collection
    cmp_solvers: int
    cmp_problems: int
    # sweep: solvers, problems per collection, rounds of the command pattern
    sweep_solvers: int
    sweep_problems: int
    sweep_repeats: int


SMALL = dict(store_entries=400, new_lines=200, rerun_lines=40,
             cmp_solvers=3, cmp_problems=40,
             sweep_solvers=2, sweep_problems=12, sweep_repeats=1)
SCALES = {
    # the write side: results produced by `run`, then harvested by `add`
    "harvest": Scale(**{**SMALL, "store_entries": 12000, "new_lines": 6000,
                        "rerun_lines": 1500, "sweep_solvers": 4, "sweep_problems": 100}),
    # the read side
    "compare": Scale(**{**SMALL, "cmp_solvers": 8, "cmp_problems": 1000}),
}
TINY = Scale(**SMALL)


def canon(value: float) -> str:
    """Store text of a number: shortest round-trip repr, no trailing '.0'."""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# ---------------------------------------------------------------- harvest

@dataclass
class Harvest:
    dir: Path
    startup: Path
    store: Path        # the store libopt works on
    base_store: Path   # pristine copy, restored before each round
    resfile: Path
    rerun: Path
    delete_solver: str
    expected: dict[str, dict[str, float]]  # key -> token -> value after the round
    added: int
    replaced: int
    deleted: int


def _number_text(rng: random.Random, value: int) -> str:
    """One of the accepted number spellings for a value near ``value``."""
    style = rng.randrange(4)
    if style == 0:
        return str(value)
    if style == 1:
        return f"{value}.{rng.randrange(100):02d}"
    if style == 2:
        return f"{value / 1000:.4e}"
    return f"{value * 10}E-1"


def _result_pairs(rng: random.Random, dim: int) -> list[tuple[str, str]]:
    info = "1" if rng.random() < FAIL_SHARE else "0"
    pairs = [("n", str(dim)), ("nfc", _number_text(rng, rng.randrange(5, 5000)))]
    if rng.random() < 0.7:
        pairs.append(("nga", _number_text(rng, rng.randrange(5, 3000))))
    if rng.random() < 0.4:
        pairs.append(("time", _number_text(rng, rng.randrange(1, 900))))
    pairs.append(("info", info))
    rng.shuffle(pairs)
    return pairs


def _blank(rng: random.Random) -> str:
    return rng.choice(("", "", "", " ", "\t", "  "))


def _result_line(rng: random.Random, key: str, pairs: list[tuple[str, str]]) -> str:
    """A result line with random padding around fields and '=', and
    sometimes a trailing comment."""
    fields = ["libopt", *key.split("%")]
    fields += [f"{_blank(rng)}{t}{_blank(rng)}={_blank(rng)}{v}" for t, v in pairs]
    line = "%".join(f"{_blank(rng)}{f}{_blank(rng)}" for f in fields)
    if rng.random() < 0.2:
        line += f" # run {rng.randrange(1000)}"
    return line


def _result_file(rng: random.Random, lines: list[str]) -> str:
    out = ["# results harvested by the benchmark generator"]
    for line in lines:
        roll = rng.random()
        if roll < 0.03:
            out.append("")
        elif roll < 0.05:
            out.append(f"   # batch {rng.randrange(100)}")
        out.append(line)
    return "\n".join(out) + "\n"


def gen_harvest(base: Path, scale: Scale, rng: random.Random) -> Harvest:
    solvers = [f"h{i}" for i in range(7)] + ["h1.fast"]
    collections = ("hA", "hB")
    total = scale.store_entries + scale.new_lines
    problems = -(-total // (len(solvers) * len(collections))) + 1
    dims = {}
    keys = []
    for coll in collections:
        for p in range(problems):
            dims[(coll, f"q{p:05d}")] = rng.randrange(2, 20000)
            keys += [f"{s}%{coll}%q{p:05d}" for s in solvers]
    rng.shuffle(keys)
    base_keys = keys[: scale.store_entries]
    new_keys = keys[scale.store_entries: total]

    def pairs_for(key: str) -> list[tuple[str, str]]:
        _, coll, prob = key.split("%")
        return _result_pairs(rng, dims[(coll, prob)])

    expected: dict[str, dict[str, float]] = {}
    store_lines = []
    for key in sorted(base_keys):
        pairs = pairs_for(key)
        expected[key] = {t: float(v) for t, v in pairs}
        store_lines.append("%".join([key] + [f"{t}={canon(float(v))}" for t, v in pairs]))
    new_lines = []
    for key in new_keys:
        pairs = pairs_for(key)
        expected[key] = {t: float(v) for t, v in pairs}
        new_lines.append(_result_line(rng, key, pairs))
    rerun_lines = []
    for key in rng.sample(base_keys + new_keys, scale.rerun_lines):
        pairs = pairs_for(key)
        expected[key] = {t: float(v) for t, v in pairs}
        rerun_lines.append(_result_line(rng, key, pairs))
    delete_solver = "h3"
    deleted = [k for k in expected if k.split("%")[0] == delete_solver]
    for key in deleted:
        del expected[key]

    h = base / "harvest"
    harvest = Harvest(
        dir=h, startup=h / "liboptrc", store=h / "dtbopt", base_store=h / "dtbopt.base",
        resfile=h / "new.lbt", rerun=h / "rerun.lbt", delete_solver=delete_solver,
        expected=expected, added=len(new_keys), replaced=scale.rerun_lines,
        deleted=len(deleted),
    )
    _write(harvest.startup, STARTUP_TEXT)
    _write(harvest.base_store, "".join(line + "\n" for line in store_lines))
    _write(harvest.resfile, _result_file(rng, new_lines))
    _write(harvest.rerun, _result_file(rng, rerun_lines))
    return harvest


# ---------------------------------------------------------------- compare

@dataclass
class Profile:
    """One profile call: its working directory, arguments and the values
    the profile must be computed from."""

    wd: Path
    args: tuple[str, ...]
    solvers: tuple[str, ...]       # in spec order
    ptok: str
    log_scale: bool
    # problem -> solver -> tau (None for a failed run), eligible problems only
    tau: dict[tuple[str, str], dict[str, float | None]]


@dataclass
class Compare:
    startup: Path
    store: Path
    full: Profile
    pair: Profile


def gen_compare(base: Path, scale: Scale, rng: random.Random) -> Compare:
    solvers = [f"c{i}" for i in range(scale.cmp_solvers - 1)] + ["c0.v2"]
    collections = ("cA", "cB")
    records: dict[str, dict[tuple[str, str], dict[str, float]]] = {s: {} for s in solvers}
    quality = {s: rng.uniform(0.5, 2.0) for s in solvers}
    lines = []
    for coll in collections:
        for p in range(scale.cmp_problems):
            prob = (coll, f"r{p:04d}")
            dim = rng.randrange(2, 2000)
            hardness = rng.randrange(10, 2000)
            for s in solvers:
                if rng.random() < 0.03:
                    continue  # this solver has no result for the problem
                values = {
                    "n": float(dim),
                    "nfc": float(max(1, round(hardness * quality[s] * rng.uniform(0.5, 2.0)))),
                    "info": 1.0 if rng.random() < FAIL_SHARE else 0.0,
                }
                if rng.random() < 0.9:
                    values["nga"] = float(max(1, round(hardness * rng.uniform(0.2, 3.0))))
                records[s][prob] = values
                lines.append("%".join(
                    [f"{s}%{coll}%{prob[1]}"] + [f"{t}={canon(v)}" for t, v in values.items()]
                ))
    lines.sort(key=lambda line: "%".join(line.split("%", 3)[:3]))

    def taus(problems, chosen, ptok):
        return {
            prob: {
                s: (records[s][prob][ptok] if records[s][prob]["info"] == 0.0 else None)
                for s in chosen
            }
            for prob in problems
        }

    c = base / "compare"
    spec_order = list(solvers)
    rng.shuffle(spec_order)
    full_problems = sorted(
        set.intersection(*(set(records[s]) for s in solvers))
    )
    full = Profile(
        wd=c / "full", args=("-v", "-log"), solvers=tuple(spec_order), ptok="nfc",
        log_scale=True, tau=taus(full_problems, spec_order, "nfc"),
    )
    half = len(spec_order) // 2
    _write(full.wd / "perfopt.spc",
           "# every solver in the store\n"
           f"solver {' '.join(spec_order[:half])}\n"
           f"solver   {' '.join(spec_order[half:])}   # continued\n"
           "performance nfc\n")

    a, b = rng.sample(solvers, 2)
    sub = [f"r{p:04d}" for p in range(scale.cmp_problems) if rng.random() < 0.5]
    rng.shuffle(sub)
    threshold = 500
    pair_problems = [
        ("cA", name) for name in sub
        if all(("cA", name) in records[s] and "nga" in records[s][("cA", name)] for s in (a, b))
        and records[a][("cA", name)]["n"] >= threshold
    ]
    pair = Profile(
        wd=c / "pair", args=("-v", "-p", "nga"), solvers=(a, b), ptok="nga",
        log_scale=False, tau=taus(pair_problems, (a, b), "nga"),
    )
    _write(pair.wd / "perfopt.spc",
           f"solver {a} {b}\n"
           "collection cA.sub   # list file in the working directory\n"
           f"problem n >= {threshold}\n"
           "performance nfc     # -p nga on the command line wins\n")
    _write(pair.wd / "cA.sub.lst",
           "# sub-collection of cA\n" + "".join(
               f"{name}{'  # picked' if i % 7 == 0 else ''}\n" for i, name in enumerate(sub)))

    compare = Compare(startup=c / "liboptrc", store=c / "dtbopt", full=full, pair=pair)
    _write(compare.startup, STARTUP_TEXT)
    _write(compare.store, "".join(line + "\n" for line in lines))
    return compare


# ---------------------------------------------------------------- sweep

DRIVER = """#!/bin/sh
# @S@ on @C@: copy the problem data, read it back, print, clean up
keep=0
for arg; do
  case $arg in
    -k) keep=1 ;;
    -t|-v) ;;
    *) prob=$arg ;;
  esac
done
cp "$LIBOPT_DIR/collections/@C@/probs/$prob.txt" "$prob.dat" || exit 1
while read -r solver n nfc nga info; do
  [ "$solver" = @S@ ] && break
done < "$prob.dat"
[ "$solver" = @S@ ] || exit 3
echo "@S@ finished $prob"
echo "libopt%@S@%@C@%$prob%n=$n%nfc=$nfc%nga=$nga%info=$info"
[ $keep = 1 ] || rm -f "$prob.dat"
"""


@dataclass
class Run:
    solver: str
    tag: str | None
    collection: str
    problem: str


@dataclass
class Sweep:
    root: Path
    wd: Path
    commands: Path
    runs: list[Run]                              # expected elementary runs, in order
    table: dict[tuple[str, str, str], str]        # (solver, coll, prob) -> "n nfc nga info"

    def expected_stdout(self) -> str:
        out = []
        for r in self.runs:
            name = r.solver if r.tag is None else f"{r.solver}.{r.tag}"
            n, nfc, nga, info = self.table[(r.solver, r.collection, r.problem)].split()
            out.append(f"{r.solver} finished {r.problem}\n")
            out.append(f"libopt%{name}%{r.collection}%{r.problem}"
                       f"%n={n}%nfc={nfc}%nga={nga}%info={info}\n")
        return "".join(out)


def _list_text(names) -> str:
    return "# generated list\n" + "".join(f"{n}\n" for n in names)


def gen_sweep(base: Path, scale: Scale, rng: random.Random) -> Sweep:
    w = base / "sweep"
    root, wd = w / "root", w / "wd"
    solvers = [f"w{i}" for i in range(scale.sweep_solvers)]
    collections = ("wA", "wB")
    probs = {c: [f"t{p:04d}" for p in range(scale.sweep_problems)] for c in collections}
    table: dict[tuple[str, str, str], str] = {}
    solver_all: dict[tuple[str, str], list[str]] = {}
    solver_default: dict[tuple[str, str], list[str]] = {}
    for coll in collections:
        cdir = root / "collections" / coll
        _write(cdir / "all.lst", _list_text(probs[coll]))
        _write(cdir / "default.lst", _list_text(probs[coll][: len(probs[coll]) // 3]))
        for prob in probs[coll]:
            dim = rng.randrange(2, 5000)
            rows = []
            for s in solvers:
                info = 1 if rng.random() < FAIL_SHARE else 0
                row = f"{dim} {rng.randrange(5, 5000)} {rng.randrange(5, 3000)} {info}"
                table[(s, coll, prob)] = row
                rows.append(f"{s} {row}\n")
            _write(cdir / "probs" / f"{prob}.txt", "".join(rows))
        for s in solvers:
            sdir = root / "solvers" / s / coll
            handled = [p for p in probs[coll] if rng.random() < 0.9]
            solver_all[(s, coll)] = handled
            solver_default[(s, coll)] = handled[::2]
            _write(sdir / "all.lst", _list_text(handled))
            _write(sdir / "default.lst", _list_text(solver_default[(s, coll)]))
            driver = sdir / f"{s}_{coll}"
            _write(driver, DRIVER.replace("@S@", s).replace("@C@", coll))
            os.chmod(driver, 0o755)
    # named sub-collections: one in the working directory, one collection-side
    pick = [p for p in probs["wA"] if rng.random() < 0.6]
    rng.shuffle(pick)
    hard = [p for p in probs["wB"] if rng.random() < 0.5]
    _write(wd / "wA.pick.lst", _list_text(pick))
    _write(root / "collections" / "wB" / "hard.lst", _list_text(hard))

    commands: list[str] = ["# generated command file", ""]
    runs: list[Run] = []

    def command(solver: str, tag: str | None, coll: str, subc: str | None,
                listed: list[str], explicit: list[str]) -> None:
        head = solver if tag is None else f"{solver}.{tag}"
        field = coll if subc is None else f"{coll}.{subc}"
        commands.append(" ".join([head, field, *explicit]))
        handled = set(solver_all[(solver, coll)])
        names = [p for p in listed if p in handled]
        if explicit:
            names = [p for p in names if p in set(explicit)]
        runs.extend(Run(solver, tag, coll, p) for p in names)

    for _ in range(scale.sweep_repeats):
        for s in solvers:
            command(s, None, "wA", "pick", pick, [])
            command(s, None, "wB", "hard", hard, [])
            explicit = rng.sample(probs["wB"], max(2, len(probs["wB"]) // 4))
            command(s, None, "wB", None, solver_all[(s, "wB")], explicit)
            command(s, None, "wA", None, solver_default[(s, "wA")], [])
        command(solvers[-1], "v2", "wA", "pick", pick, [])
        commands.append("   # a comment line between commands")

    sweep = Sweep(root=root, wd=wd, commands=w / "commands.txt",
                  runs=runs, table=table)
    _write(sweep.commands, "\n".join(commands) + "\n")
    return sweep


@dataclass
class Inputs:
    harvest: Harvest
    compare: Compare
    sweep: Sweep


def generate(base: Path, scale: Scale, seed: int) -> Inputs:
    """Write every input under ``base``; the same seed gives the same files."""
    rng = random.Random(f"libopt-bench-{seed}")
    harvest = gen_harvest(base, scale, rng)
    compare = gen_compare(base, scale, rng)
    sweep = gen_sweep(base, scale, rng)
    return Inputs(harvest, compare, sweep)
