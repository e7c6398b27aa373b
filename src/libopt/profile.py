"""Performance profiles: result selection, ratio computation, plot-data emission.

Given a results store and a specification file, this module compares a
set of solvers over the problems they all have results for. For solver s
and problem p, the raw performance tau(p, s) is the value of the chosen
performance token when the run succeeded. The relative performance is

    rho(p, s) = tau(p, s) / min over s' of tau(p, s')

so rho >= 1, with 1 marking the best solver on that problem. Failures
are parked on a plateau value rho_bar strictly above every finite ratio,
and a solver fails p exactly when rho(p, s) = rho_bar. The profile of s
is the nondecreasing step function

    t in [1, rho_bar] -> fraction of problems with rho(p, s) <= t

whose value at 1 is the fraction of problems where s is best, and whose
value just below rho_bar is the fraction of problems s solves at all.

All profiles of one comparison live on one grid: 1, every distinct
finite ratio, and rho_bar. ``compute_profiles`` builds it once and keeps,
per solver, only its steps: the sorted grid indices where its count of
problems rises (one Counter over the grid indices of its ratios) and the
value from each on, so the work per solver is linear in the problems,
not the grid. A ``StepFunction`` is that one form: built from
breakpoints, it turns them into steps once, and its ``breakpoints`` are
derived from the steps when read. For emission, ``_plot_rows`` formats
the shared grid once into x texts and cuts each profile into constant-y
segments; a segment's rows are one join over its slice of the x texts,
so no Python loop runs per grid point. ``write_outputs`` hands the same
rows to both plot files: ``perf.m`` indents them, ``perf.gnu`` puts a
jump row between segments.
"""
from __future__ import annotations

import math
import operator
from collections import Counter, defaultdict
from contextlib import suppress
from itertools import accumulate, chain, compress, repeat
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import LiboptError, content_lines
from .record import INFO_TOKEN, TokenConfig, check_name, read_list, split_solver_field
from .store import Store

SPEC_FILENAME = "perfopt.spc"
DEFAULT_OUTPUT_BASE = "perf"

RELATIONS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

WarnFn = Callable[[str], None]

# (collection, problem) pair identifying one problem across collections
ProblemId = tuple[str, str]
# a profile's steps: (grid, grid indices where its value changes, values)
Steps = tuple[list[float], list[int], list[float]]


class SpecError(LiboptError):
    """A problem with the specification file or its CLI merge."""


class ProfileError(LiboptError):
    """A problem with the selected data or the ratio computation."""


class ProblemFilter(NamedTuple):
    token: str
    relation: str
    threshold: float

    def accepts(self, value: float) -> bool:
        return RELATIONS[self.relation](value, self.threshold)


class ProfileSpec(NamedTuple):
    solvers: tuple[str, ...]
    collections: tuple[tuple[str, str | None], ...]
    performance_token: str
    problem_filters: tuple[ProblemFilter, ...] = ()
    rho_bar_override: float | None = None
    log_scale: bool = False
    output_base: str = DEFAULT_OUTPUT_BASE


def parse_spec(
    text: str,
    *,
    cli_ptok: str | None = None,
    cli_log: bool = False,
    cli_output: str | None = None,
    config: TokenConfig | None = None,
    warn: WarnFn | None = None,
) -> ProfileSpec:
    """Parse specification directives and merge the command-line settings.

    ``solver``, ``collection`` and ``problem`` directives accumulate over
    repeated lines; the single-valued ones may appear once. The command
    line wins for the performance token and the output base.
    """
    solvers: list[str] = []
    collections: list[tuple[str, str | None]] = []
    filters: list[ProblemFilter] = []
    single: dict[str, str] = {}
    for lineno, line in content_lines(text):
        fields = line.split()
        directive, args = fields[0], fields[1:]
        where = f"{SPEC_FILENAME}:{lineno}"
        if directive == "solver":
            if not args:
                raise SpecError(f"{where}: solver directive needs at least one name")
            for name in args:
                split_solver_field(name)
                if name in solvers:
                    if warn is not None:
                        warn(f"{where}: solver {name!r} listed twice")
                    continue
                solvers.append(name)
        elif directive == "collection":
            if not args:
                raise SpecError(f"{where}: collection directive needs at least one name")
            for field in args:
                coll, sep, subc = field.partition(".")
                check_name(coll, "collection")
                pair = (coll, check_name(subc, "subcollection") if sep else None)
                if pair in collections:
                    if warn is not None:
                        warn(f"{where}: collection {field!r} listed twice")
                    continue
                collections.append(pair)
        elif directive == "problem":
            if len(args) != 3 or args[1] not in RELATIONS:
                raise SpecError(
                    f"{where}: expected 'problem token relation number' with relation"
                    f" among {sorted(RELATIONS)}"
                )
            threshold = _finite(args[2], f"{where}: bad threshold")
            filters.append(ProblemFilter(check_name(args[0], "token"), args[1], threshold))
        elif directive in ("performance", "rho_max", "output"):
            if directive in single:
                raise SpecError(f"{where}: duplicate directive {directive!r}")
            if len(args) != 1:
                raise SpecError(f"{where}: {directive} takes exactly one value")
            if directive == "output" and "\0" in args[0]:
                raise SpecError(f"{where}: output file name holds a NUL")
            single[directive] = args[0]
        else:
            raise SpecError(f"{where}: unknown directive {directive!r}")

    if len(solvers) < 2:
        raise SpecError("at least two distinct solvers must be selected")
    ptok = cli_ptok if cli_ptok is not None else single.get("performance")
    if ptok is None:
        raise SpecError(
            "no performance token: give one with -p or a 'performance' directive"
        )
    check_name(ptok, "performance token")
    if config is not None and config.performance_tokens is not None:
        if ptok not in config.performance_tokens:
            raise SpecError(f"{ptok!r} is not a configured performance token")
    rho_bar_override = None
    if "rho_max" in single:
        rho_bar_override = _finite(single["rho_max"], "bad rho_max value")
        if rho_bar_override <= 1.0:
            raise SpecError("rho_max must be greater than 1")
    output_base = cli_output if cli_output is not None else single.get("output", DEFAULT_OUTPUT_BASE)
    return ProfileSpec(
        solvers=tuple(solvers),
        collections=tuple(collections),
        performance_token=ptok,
        problem_filters=tuple(filters),
        rho_bar_override=rho_bar_override,
        log_scale=cli_log,
        output_base=output_base,
    )


def _finite(text: str, error: str) -> float:
    with suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise SpecError(f"{error} {text!r}")


def gather_candidate_problems(
    spec: ProfileSpec,
    working_dir: Path,
    root: Path | None = None,
    warn: WarnFn | None = None,
) -> list[ProblemId] | None:
    """Resolve the collection directives to qualified problem names.

    Returns None when no collection was named (meaning: no restriction).
    A named list that resolves nowhere is an error, since the user asked
    for it explicitly.
    """
    if not spec.collections:
        return None
    ordered: list[ProblemId] = []
    seen: set[ProblemId] = set()
    for coll, subc in spec.collections:
        sub = subc if subc is not None else "all"
        candidates = [Path(working_dir) / f"{coll}.{sub}.lst"]
        if root is not None:
            candidates.append(Path(root) / "collections" / coll / f"{sub}.lst")
        path = next((p for p in candidates if p.is_file()), None)
        if path is None:
            raise ProfileError(f"no list file found for collection {coll}.{sub}")
        for name in read_list(path, warn=warn).names:
            pair = (coll, name)
            if pair not in seen:
                seen.add(pair)
                ordered.append(pair)
    return ordered


class ResultTable(NamedTuple):
    """Per (problem, solver) token maps for the comparable problems."""

    problems: list[ProblemId]
    solvers: list[str]
    values: dict[tuple[ProblemId, str], dict[str, float]]


def select(
    spec: ProfileSpec,
    store: Store,
    candidates: list[ProblemId] | None = None,
    warn: WarnFn | None = None,
) -> ResultTable:
    """Pick the problems on which the selected solvers can be compared.

    A problem qualifies when it lies in the candidate set (when one was
    given), every solver has a stored result for it that carries the
    performance token, and it passes every problem filter. Filter values
    are read from the first solver's record; problems lacking the
    filtered token are discarded. For each filter up to the first one
    that fails, every other solver whose value of the token differs from
    the first solver's gives one disagreement warning.

    Only ``info``, the performance token and the filter tokens are read
    from the store, and only those are in the table's values.
    """
    solvers, ptok = spec.solvers, spec.performance_token
    needed = {INFO_TOKEN, ptok, *(f.token for f in spec.problem_filters)}
    wanted = frozenset(solvers)
    rows: defaultdict[ProblemId, dict[str, dict[str, float]]] = defaultdict(dict)
    for (solver, collection, problem), tokens, values in store.entries(
        lambda key: key[0] in wanted, needed
    ):
        rows[collection, problem][solver] = dict(zip(tokens, values))
    table = ResultTable([], list(solvers), {})
    for problem in sorted(rows) if candidates is None else candidates:
        # a row holds the selected solvers only: it is whole at their count
        row = rows.get(problem, {})
        if len(row) < len(solvers):
            continue
        if not all(map(operator.contains, row.values(), repeat(ptok))):
            continue
        if _passes(spec, problem, row, warn):
            table.problems.append(problem)
            keys = zip(repeat(problem), solvers)
            table.values.update(zip(keys, map(row.__getitem__, solvers)))
    return table


def _passes(
    spec: ProfileSpec,
    problem: ProblemId,
    row: dict[str, dict[str, float]],
    warn: WarnFn | None,
) -> bool:
    """Whether a problem's row passes every filter; warns as ``select`` says."""
    first = row[spec.solvers[0]]
    for filt in spec.problem_filters:
        value = first.get(filt.token)
        if value is None or not filt.accepts(value):
            return False
        for other in spec.solvers[1:]:
            other_value = row[other].get(filt.token)
            if other_value is not None and other_value != value and warn is not None:
                warn(
                    f"token {filt.token!r} disagrees across solvers on"
                    f" {problem[0]}/{problem[1]}"
                )
    return True


class RatioMatrix(NamedTuple):
    problems: list[ProblemId]
    solvers: list[str]
    tau: dict[tuple[ProblemId, str], float | None]
    rho: dict[tuple[ProblemId, str], float]
    rho_bar: float


def compute_ratios(
    table: ResultTable,
    ptok: str,
    rho_bar_override: float | None = None,
) -> RatioMatrix:
    """Turn raw performance values into per-problem relative ratios.

    tau is absent for a failed run. Every problem with at least one
    success is normalized by its best tau, so its minimum finite ratio
    is 1; failures (and whole all-fail rows) sit at rho_bar. Without an
    override, rho_bar is twice the largest finite ratio, floored at 2. An
    override must exceed every finite ratio (parse_spec has checked that
    it exceeds 1).
    """
    if not table.problems:
        raise ProfileError("no eligible problems")
    tau: dict[tuple[ProblemId, str], float | None] = {}
    ratios: dict[tuple[ProblemId, str], float] = {}
    for problem in table.problems:
        successes = {}
        for s in table.solvers:
            values = table.values[(problem, s)]
            raw = tau[(problem, s)] = values[ptok] if values[INFO_TOKEN] == 0.0 else None
            if raw is None:
                continue
            if raw <= 0.0:
                raise ProfileError(
                    f"nonpositive performance value {format_ratio(raw)} for {s}"
                    f" on {problem[0]}/{problem[1]}"
                )
            successes[(problem, s)] = raw
        if successes:
            best = min(successes.values())
            ratios.update((key, raw / best) for key, raw in successes.items())
    max_finite = max(ratios.values(), default=None)

    if rho_bar_override is not None:
        if max_finite is not None and rho_bar_override <= max_finite:
            raise ProfileError(
                f"rho_max {format_ratio(rho_bar_override)} does not exceed the"
                f" largest finite ratio {format_ratio(max_finite)}"
            )
        rho_bar = rho_bar_override
    else:
        rho_bar = max(2.0, 2.0 * max_finite) if max_finite is not None else 2.0

    rho = {key: ratios.get(key, rho_bar) for key in tau}
    return RatioMatrix(list(table.problems), list(table.solvers), tau, rho, rho_bar)


class StepFunction:
    """One solver's profile: nondecreasing steps over [1, rho_bar].

    A profile is its steps: the grid, the sorted grid indices where the
    value changes (the first is 0) and the value from each of them on.
    The constructor takes ``breakpoints``, each grid point paired with the
    profile's value there, and keeps their steps; ``breakpoints`` is
    derived from the steps when read.
    """

    __slots__ = ("solver", "steps", "solve_fraction")

    def __init__(
        self,
        solver: str,
        breakpoints: tuple[tuple[float, float], ...],
        solve_fraction: float,
    ):
        grid = list(map(operator.itemgetter(0), breakpoints))
        ys = list(map(operator.itemgetter(1), breakpoints))
        changes = compress(range(1, len(ys)), map(operator.ne, ys, ys[1:]))
        starts = [0, *changes] if ys else []
        steps = (grid, starts, list(map(ys.__getitem__, starts)))
        self.solver, self.steps, self.solve_fraction = solver, steps, solve_fraction

    @classmethod
    def from_steps(cls, solver: str, steps: Steps, solve_fraction: float) -> StepFunction:
        profile = cls.__new__(cls)
        profile.solver, profile.steps, profile.solve_fraction = solver, steps, solve_fraction
        return profile

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        grid, starts, values = self.steps
        lengths = map(operator.sub, [*starts[1:], len(grid)], starts)
        return tuple(zip(grid, chain.from_iterable(map(repeat, values, lengths))))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.solver, self.breakpoints, self.solve_fraction) == (
            other.solver, other.breakpoints, other.solve_fraction
        )

    def __repr__(self) -> str:
        return (
            f"StepFunction({self.solver!r}, {self.breakpoints!r},"
            f" {self.solve_fraction!r})"
        )

    def value_at(self, t: float) -> float:
        out = 0.0
        for point, value in self.breakpoints:
            if point <= t:
                out = value
        return out


def compute_profiles(matrix: RatioMatrix) -> list[StepFunction]:
    """Each solver's steps on the shared breakpoint grid.

    Every ratio is a grid value, so a solver's value at grid point i is
    its count of ratios at points 0..i over the problem count: it steps
    at the grid indices of its ratios, found with one Counter.
    """
    problems, rho, rho_bar = matrix.problems, matrix.rho, matrix.rho_bar
    count = len(problems)
    grid = sorted({1.0, *(r for r in rho.values() if r < rho_bar)})
    grid.append(rho_bar)
    index = dict(zip(grid, range(len(grid))))
    profiles = []
    for s in matrix.solvers:
        keys = list(zip(problems, repeat(s)))
        hits = Counter(map(index.__getitem__, map(rho.__getitem__, keys)))
        starts = sorted(hits)
        values = [n / count for n in accumulate(map(hits.__getitem__, starts))]
        if starts[0] != 0:
            starts.insert(0, 0)
            values.insert(0, 0.0)
        solved = count - operator.countOf(map(matrix.tau.__getitem__, keys), None)
        steps = (grid, starts, values)
        profiles.append(StepFunction.from_steps(s, steps, solved / count))
    return profiles


# a number as the plot files and messages show it
format_ratio = "{:.6g}".format


# a profile's plot rows: the x texts of its grid, then per constant-y
# segment its rows "x y" joined by newlines, then per segment after the
# first its jump row: the segment's first x with the previous y
PlotRows = tuple[list[str], list[str], list[str]]


def _plot_rows(profiles: list[StepFunction], log_scale: bool) -> list[PlotRows]:
    """The plot rows of each profile. Profiles that share one grid share
    one list of its x texts, formatted once; each segment's rows are one
    join over its slice of them."""
    # by id: each grid stays alive with its profiles for the whole call
    x_texts: dict[int, list[str]] = {}
    out = []
    for profile in profiles:
        grid, starts, values = profile.steps
        xs = x_texts.get(id(grid))
        if xs is None:
            xs = x_texts[id(grid)] = list(
                map(format_ratio, map(math.log2, grid) if log_scale else grid)
            )
        ys = [f" {y}" for y in map(format_ratio, values)]
        ends = [*starts[1:], len(grid)]
        segments = [f"{y}\n".join(xs[a:b]) + y for a, b, y in zip(starts, ends, ys)]
        jumps = [xs[a] + y for a, y in zip(starts[1:], ys)]
        out.append((xs, segments, jumps))
    return out


def _x_label(log_scale: bool) -> str:
    return "log2(performance ratio)" if log_scale else "performance ratio"


def emit_gnuplot(profiles: list[StepFunction], log_scale: bool = False) -> str:
    """Gnuplot data file: one block per solver, two blank lines between blocks."""
    return _gnuplot(profiles, log_scale, _plot_rows(profiles, log_scale))


def _gnuplot(
    profiles: list[StepFunction], log_scale: bool, plot_rows: list[PlotRows]
) -> str:
    header = [
        "# performance profile data",
        f"# x: {_x_label(log_scale)}, y: fraction of problems",
    ]
    if not profiles:
        return "\n".join(header) + "\n"
    blocks = []
    for profile, (_, segments, jumps) in zip(profiles, plot_rows):
        # a jump row between segments repeats the previous value, so steps
        # render as horizontal segments
        rows = [None] * (2 * len(segments) - 1)
        rows[::2], rows[1::2] = segments, jumps
        blocks.append("\n".join([f"# solver {profile.solver}", *rows]))
    return "\n".join(header) + "\n\n" + "\n\n\n".join(blocks) + "\n"


def emit_matlab(profiles: list[StepFunction], log_scale: bool = False) -> str:
    """Matlab script: one breakpoint matrix per solver plus staircase plots."""
    return _matlab(profiles, log_scale, _plot_rows(profiles, log_scale))


def _matlab(
    profiles: list[StepFunction], log_scale: bool, plot_rows: list[PlotRows]
) -> str:
    lines = ["% performance profile data"]
    if not profiles:
        lines.append("error('no eligible problems: nothing to plot');")
        return "\n".join(lines) + "\n"
    for i, (_, segments, _) in enumerate(plot_rows, 1):
        lines.append(f"data{i} = [")
        if segments:
            lines.append("  " + "\n".join(segments).replace("\n", "\n  "))
        lines.append("];")
    lines.append("figure;")
    lines.append("hold on;")
    for i in range(1, len(profiles) + 1):
        lines.append(f"stairs(data{i}(:,1), data{i}(:,2));")
    lines.append("hold off;")
    names = ", ".join("'" + p.solver.replace("'", "''") + "'" for p in profiles)
    lines.append(f"legend({names}, 'Location', 'SouthEast');")
    lines.append(f"xlabel('{_x_label(log_scale)}');")
    lines.append("ylabel('fraction of problems');")
    # the x range of the first profile that has points, if one has
    xs = next(filter(None, (xs for xs, _, _ in plot_rows)), None)
    if xs is not None:
        lines.append(f"axis([{xs[0]} {xs[-1]} 0 1]);")
    return "\n".join(lines) + "\n"


def write_outputs(
    profiles: list[StepFunction],
    log_scale: bool,
    base: Path | str,
) -> tuple[Path, Path]:
    """Write the <base>.gnu and <base>.m plot-data files."""
    gnu_path = Path(str(base) + ".gnu")
    m_path = Path(str(base) + ".m")
    plot_rows = _plot_rows(profiles, log_scale)
    try:
        gnu_path.write_text(_gnuplot(profiles, log_scale, plot_rows))
        m_path.write_text(_matlab(profiles, log_scale, plot_rows))
    except OSError as exc:
        raise ProfileError(f"cannot write plot data: {exc}") from exc
    return gnu_path, m_path
