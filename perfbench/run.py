#!/usr/bin/env python3
"""Benchmark of the libopt pipeline: install, run, add and profile.

    python3 perfbench/run.py --workload harvest --seed 1 --seconds 50 --trace 0

Generates seeded inputs (see gen.py), then repeats whole rounds of the
pipeline for about --seconds seconds. A round is seven `libopt` calls,
made as a user makes them: one client, one libopt process at a time.
Every output is checked (see checks.py). The last line of stdout is one
JSON object with the operations attempted and failed and the metrics:
with --trace 0 the end-to-end CLI wall times and peak RSS, each the
median over the rounds; with --trace 1 the per-layer figures of the
in-process traced run (trace_run.py).
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
# set-up repeats: at least 3, at most 20, until 1.5 s; setup_s is their median
SETUP_SECONDS = 1.5

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
from launch import SRC, Call, base_env, libopt  # noqa: E402


def cli_round(inp: gen.Inputs, scratch: Path, tally: checks.Tally, seed: int) -> dict[str, float]:
    """One round of the seven CLI calls; returns this round's metrics."""
    h, c, w = inp.harvest, inp.compare, inp.sweep
    env = base_env(h.startup)
    times: dict[str, float] = {}
    rss: dict[str, float] = {}

    def call(name: str, args: list[str], cwd: Path, call_env=env) -> Call:
        result = libopt(args, cwd, call_env, scratch)
        times[name], rss[name] = result.wall, result.rss_mb
        tally.op(result.status == 0)
        return result

    run_env = {**env, "LIBOPT_DIR": str(w.root)}
    if (done := call("install_s", ["install"], w.wd, run_env)).status == 0:
        with tally.checking("install"):
            checks.check_install(checks.parse_install(done.stderr))
    done = call("run_s", ["run", str(w.commands)], w.wd, run_env)
    failures = done.stderr.count("exited with status")  # one line per failed run
    for i in range(len(w.runs)):
        tally.op(i >= failures)
    if done.status == 0:
        with tally.checking("run"):
            checks.check_sweep(w, done.stdout, checks.parse_run_summary(done.stderr))

    shutil.copyfile(h.base_store, h.store)
    add = ["add", "--config", str(h.startup), "-b", str(h.store)]
    added = call("add_s", [*add, str(h.resfile)], h.dir)
    if added.status == 0:
        with tally.checking("add"):
            checks.check_add_counts(checks.parse_add_summary(added.stderr), h.added, 0)
    replaced = call("add_replace_s", [*add, "-r", str(h.rerun)], h.dir)
    if replaced.status == 0:
        with tally.checking("add -r"):
            checks.check_add_counts(checks.parse_add_summary(replaced.stderr), 0, h.replaced)
    deleted = call("add_delete_s", [*add, "-d", f"{h.delete_solver}%"], h.dir)
    if deleted.status == 0:
        with tally.checking("add -d"):
            checks.check_deleted(checks.parse_delete_summary(deleted.stderr), h)
    if added.status == replaced.status == deleted.status == 0:
        with tally.checking("store"):
            checks.check_store(h.store.read_text(), h)

    profile_env = base_env(c.startup)
    for name, prof in (("profile_full_s", c.full), ("profile_pair_s", c.pair)):
        done = call(name, ["profile", "-b", str(c.store), *prof.args], prof.wd, profile_env)
        if done.status == 0:
            with tally.checking(name[:-2]):
                checks.check_profile(prof, (prof.wd / "perf.gnu").read_text(),
                                     (prof.wd / "perf.m").read_text(),
                                     checks.parse_compared(done.stderr), seed)

    times["add_peak_rss_mb"] = max(rss["add_s"], rss["add_replace_s"], rss["add_delete_s"])
    times["profile_peak_rss_mb"] = max(rss["profile_full_s"], rss["profile_pair_s"])
    return times


def measured_run(inp: gen.Inputs, seconds: float, scratch: Path,
                 seed: int) -> tuple[checks.Tally, dict[str, float]]:
    tally = checks.Tally()
    warm = libopt(["--version"], scratch, base_env(inp.harvest.startup), scratch)
    if warm.status != 0:
        raise SystemExit(f"libopt does not start: {warm.stderr.strip()}")
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(cli_round(inp, scratch, tally, seed))
        print("round", json.dumps(rounds[-1]), file=sys.stderr)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    return tally, metrics


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "B" if name.endswith("bytes") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "libopt" / "cli.py").is_file():
        print(f"error: libopt sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setup: list[float] = []
        while len(setup) < 3 or (sum(setup) < SETUP_SECONDS and len(setup) < 20):
            if setup:
                shutil.rmtree(scratch / "in")
            start = time.perf_counter()
            inputs = gen.generate(scratch / "in", gen.SCALES[args.workload], args.seed)
            setup.append(time.perf_counter() - start)
        if args.trace:
            import trace_run  # imports libopt into this process
            tally, metrics = trace_run.traced_run(inputs, args.seconds, scratch, args.seed,
                                                  HERE / "_out" / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            tally, metrics = measured_run(inputs, args.seconds, scratch, args.seed)
            metrics = {"setup_s": statistics.median(setup), **metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for error in tally.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
