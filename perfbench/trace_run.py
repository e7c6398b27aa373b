"""Traced run: the CLI's sequence of calls, made in-process, with spans.

A span (name, start, end, parent) is recorded around each call into
``record``, ``store``, ``profile``, ``runner`` and ``hierarchy``. Calls
that libopt makes internally and that a layer metric needs
(``read_list`` from ``runner`` and ``profile``, ``Store.query`` from
``select``) are wrapped by patching the module attribute for the length
of a traced round. Spans are kept in memory and written out at the end.

Each step alternates an untraced and a traced round of the same calls;
the difference of their median wall times is the tracing overhead.
"""
from __future__ import annotations

import functools
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import checks
import gen
from launch import SRC, base_env, libopt

sys.path.insert(0, str(SRC))
from libopt import config, hierarchy, profile, record, runner, store  # noqa: E402
from libopt.errors import LiboptError  # noqa: E402


class Recorder:
    """Spans in memory, as [name, start, end, parent index]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out


# libopt-internal calls a layer metric needs, wrapped during a traced round
PATCHES = (
    (runner, "read_list", "hierarchy.read_list"),
    (profile, "read_list", "hierarchy.read_list"),
    (store.Store, "query", "store.query"),
)


@contextmanager
def patched(rec: Recorder):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
    if rec.enabled:
        for (owner, attr, name), (_, _, fn) in zip(PATCHES, saved):
            setattr(owner, attr, rec.wrap(name, fn))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def token_config(startup: Path):
    """What cli._context makes of the startup file: `config` runs here."""
    return config.token_config(config.load_startup(startup))


def pipeline(inp: gen.Inputs, rec: Recorder, tally: checks.Tally, seed: int) -> dict[str, int]:
    """The calls of install, run, add (three times) and profile (twice),
    as cli.py makes them; returns the work counts of the round."""
    h, c, w = inp.harvest, inp.compare, inp.sweep
    counts = {"store.entries": 0, "store.bytes": 0, "runner.runs": 0,
              "profile.problems": 0, "profile.grid_points": 0, "profile.gnu_bytes": 0}
    warnings: list[str] = []
    env = {**base_env(h.startup), "LIBOPT_DIR": str(w.root)}

    def step(what: str, fn) -> None:
        try:
            fn()
        except LiboptError as exc:
            tally.op(False)
            tally.errors.append(f"{what}: {exc}")
        else:
            tally.op(True)

    def install() -> None:
        rec.call("hierarchy.generate_indexes", hierarchy.generate_indexes, w.root)
        report = rec.call("hierarchy.verify", hierarchy.verify, w.root)
        with tally.checking("install"):
            checks.check_install(len(report.errors))

    def run() -> None:
        out, err = io.StringIO(), io.StringIO()
        runs = skips = failures = 0
        for raw in w.commands.read_text().splitlines():
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            directive = runner.parse_command(text, warn=warnings.append)
            resolved = rec.call("runner.resolve_problems", runner.resolve_problems,
                                directive, w.wd, w.root, warn=warnings.append)
            if resolved is None:
                skips += 1
                continue
            for problem in resolved.names:
                elementary = runner.ElementaryRun(directive.solver, directive.tag,
                                                  directive.collection, problem)
                outcome = rec.call("runner.execute", runner.execute, elementary, w.wd, w.root,
                                   env=env, out=out, err=err)
                runs += 1
                failures += outcome.status != 0
                tally.op(outcome.status == 0)
        counts["runner.runs"] += runs
        with tally.checking("run"):
            checks.check_sweep(w, out.getvalue(), (runs, skips, failures))

    def add(method: str, *args, **kwargs):
        """The body of cmd_add: open, one store call, save, under the lock."""
        with store.locked(h.store):
            st = rec.call("store.open", store.Store.open, h.store)
            counts["store.entries"] += len(st)
            result = rec.call(f"store.{method}", getattr(st, method), *args, **kwargs)
            rec.call("store.save", st.save)
        counts["store.bytes"] += h.store.stat().st_size
        return result

    def add_file(path: Path, replace: bool, added: int, replaced: int) -> None:
        report = add("import_file", path, replace=replace, config=token_config(h.startup))
        with tally.checking("add -r" if replace else "add"):
            checks.check_add_counts(
                (report.added, report.replaced, report.duplicates, report.invalid),
                added, replaced)

    def add_delete() -> None:
        token_config(h.startup)
        deleted = add("delete", store.parse_selection(f"{h.delete_solver}%")).deleted
        with tally.checking("add -d"):
            checks.check_deleted(deleted, h)
        with tally.checking("store"):
            checks.check_store(h.store.read_text(), h)

    def compare(prof: gen.Profile) -> None:
        spec = profile.parse_spec(
            (prof.wd / profile.SPEC_FILENAME).read_text(),
            cli_ptok=prof.ptok if "-p" in prof.args else None,
            cli_log=prof.log_scale, config=token_config(c.startup), warn=warnings.append)
        candidates = rec.call("profile.gather_candidate_problems",
                              profile.gather_candidate_problems, spec, prof.wd, None,
                              warn=warnings.append)
        st = rec.call("store.open", store.Store.open, c.store)
        counts["store.entries"] += len(st)
        table = rec.call("profile.select", profile.select, spec, st, candidates,
                         warn=warnings.append)
        matrix = rec.call("profile.compute_ratios", profile.compute_ratios, table,
                          spec.performance_token, spec.rho_bar_override)
        profiles = rec.call("profile.compute_profiles", profile.compute_profiles, matrix)
        gnu = rec.call("profile.emit_gnuplot", profile.emit_gnuplot, profiles, spec.log_scale)
        m = rec.call("profile.emit_matlab", profile.emit_matlab, profiles, spec.log_scale)
        (prof.wd / "perf.gnu").write_text(gnu)
        (prof.wd / "perf.m").write_text(m)
        counts["profile.problems"] += len(table.problems)
        counts["profile.grid_points"] += sum(len(p.breakpoints) for p in profiles)
        counts["profile.gnu_bytes"] += len(gnu)
        with tally.checking("profile"):
            checks.check_profile(prof, gnu, m, len(table.problems), seed)

    shutil.copyfile(h.base_store, h.store)
    with patched(rec):
        step("install", install)
        step("run", run)
        step("add", lambda: add_file(h.resfile, False, h.added, 0))
        step("add -r", lambda: add_file(h.rerun, True, 0, h.replaced))
        step("add -d", add_delete)
        step("profile full", lambda: compare(c.full))
        step("profile pair", lambda: compare(c.pair))
    return counts


def isolated(inp: gen.Inputs, scratch: Path, tally: checks.Tally) -> dict[str, float]:
    """Layer figures measured apart from the pipeline."""
    h, w = inp.harvest, inp.sweep
    out: dict[str, float] = {}
    env = base_env(h.startup)
    starts = []
    for _ in range(3):
        call = libopt(["--version"], scratch, env, scratch)
        tally.op(call.status == 0)
        starts.append(call.wall)
    out["cli.start_s"] = statistics.median(starts)

    text = h.resfile.read_text()
    start = time.perf_counter()
    parsed = [record.parse_line(raw) for _, raw in record.iter_result_lines(text)]
    out["record.parse_line_s"] = time.perf_counter() - start
    out["record.lines"] = len(parsed)

    # the sweep's drivers, spawned directly: the floor under run_s
    driver_env = {**env, "LIBOPT_DIR": str(w.root.resolve())}
    captured: list[str] = []
    start = time.perf_counter()
    for r in w.runs:
        done = subprocess.run([str(runner.driver_path(w.root, r.solver, r.collection)), r.problem],
                              cwd=w.wd, env=driver_env, stdout=subprocess.PIPE, text=True)
        tally.op(done.returncode == 0)
        captured += done.stdout.splitlines()
    out["runner.spawn_floor_s"] = time.perf_counter() - start

    start = time.perf_counter()
    records: list = []
    lines = list(record.filter_stream(captured, tag="v2", records=records, warnings=[]))
    out["record.filter_stream_s"] = time.perf_counter() - start
    with tally.checking("filter_stream"):
        checks.check_filtered(lines, records, len(w.runs))
    return out


LAYER_TIMES = (
    "record.parse_line", "record.filter_stream",
    "store.open", "store.import_file", "store.save", "store.delete", "store.query",
    "profile.gather_candidate_problems", "profile.select", "profile.compute_ratios",
    "profile.compute_profiles", "profile.emit_gnuplot", "profile.emit_matlab",
    "runner.resolve_problems", "runner.execute",
    "hierarchy.generate_indexes", "hierarchy.verify", "hierarchy.read_list",
)


def traced_run(inp: gen.Inputs, seconds: float, scratch: Path, seed: int, spans_path: Path):
    tally = checks.Tally()
    # the generator's model shares this process; keep the collector from
    # scanning it, or every layer time would carry the model's size
    gc.collect()
    gc.freeze()
    pipeline(inp, Recorder(enabled=False), tally, seed)  # warm-up, not timed
    steps: list[dict[str, float]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while not steps or time.perf_counter() < deadline:
        # alternate which of the two rounds goes first
        for enabled in (False, True) if len(steps) % 2 == 0 else (True, False):
            rec = Recorder(enabled)
            start = time.perf_counter()
            counts = pipeline(inp, rec, tally, seed)
            walls[enabled].append(time.perf_counter() - start)
            if enabled:
                traced = rec
        figures = {f"{name}_s": 0.0 for name in LAYER_TIMES}
        figures.update({f"{name}_s": t for name, t in traced.totals().items()})
        figures.update(counts)
        figures.update(isolated(inp, scratch, tally))
        figures["trace.spans"] = len(traced.spans)
        steps.append(figures)
    metrics = {name: statistics.median(s[name] for s in steps) for name in steps[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])

    spans_path.parent.mkdir(exist_ok=True)
    origin = traced.spans[0][1]
    with open(spans_path, "w") as out:
        for name, start, end, parent in traced.spans:
            out.write(json.dumps({"name": name, "start": start - origin,
                                  "end": end - origin, "parent": parent}) + "\n")
    return tally, metrics
