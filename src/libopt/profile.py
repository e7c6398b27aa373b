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

The data is held in columns. ``select`` keeps, per solver, one slot per
comparable problem: the tuple of the values of ``info``, the performance
token and the filter tokens, None for one absent. ``compute_ratios``
keeps tau and rho as one list per solver, in problem order. A
``ColumnView`` reads either as a mapping keyed by (problem, solver),
equal to the dict it stands for. All profiles share one grid: 1, every
distinct finite ratio, and rho_bar. A ``StepFunction`` keeps only its
steps: the sorted grid indices where its count of problems rises (one
Counter per column of ratios) and the value from each on. One writer,
``_write_plots``, streams both plot files: it formats the grid once into
x texts, then cuts one profile at a time into constant-y segments, each
one join over its slice of the x texts, so only one profile's rows are
alive at a time. ``emit_gnuplot`` and ``emit_matlab`` run it into a string.
"""
from __future__ import annotations

import io
import math
import operator
from collections import Counter
from collections.abc import Mapping
from itertools import accumulate, chain, compress, product, repeat
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

from .errors import LiboptError, content_lines
from .record import INFO_TOKEN, NUMBER_RE, TokenConfig, check_name, read_list, split_collection_field, split_solver_field
from .store import Store, StoreReader

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
# a profile's (grid point, value there) pairs
Breakpoints = tuple[tuple[float, float], ...]


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
                pair = split_collection_field(field)
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
    # the result-line number grammar: float() alone also reads "1_5"
    if NUMBER_RE.match(text) and math.isfinite(value := float(text)):
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


class ColumnView(Mapping):
    """A read-only map (problem, solver) -> cell over one column of cells
    per solver, each in problem order; it iterates problem-major. With
    ``tokens``, a cell is a slot, the values of those tokens in order
    (None for one absent), read as the dict of the tokens present."""

    def __init__(self, problems, solvers, columns, tokens=None):
        self.problems, self.solvers, self.columns, self.tokens = problems, solvers, columns, tokens
        self._at: dict[ProblemId, int] | None = None  # built on the first read

    def __getitem__(self, key):
        if self._at is None:
            self._at = dict(zip(self.problems, range(len(self.problems))))
        try:
            problem, solver = key
            cell = self.columns[self.solvers.index(solver)][self._at[problem]]
        except (KeyError, ValueError):
            raise KeyError(key) from None
        return cell if self.tokens is None else {t: v for t, v in zip(self.tokens, cell) if v is not None}

    def __iter__(self):
        return product(self.problems, self.solvers)

    def __len__(self) -> int:
        return len(self.problems) * len(self.solvers)


class ResultTable(NamedTuple):
    """Per (problem, solver) token maps for the comparable problems."""

    problems: list[ProblemId]
    solvers: list[str]
    values: Mapping[tuple[ProblemId, str], dict[str, float]]


def select(
    spec: ProfileSpec,
    store: Store | StoreReader,
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
    from the store, and only those are in the table's values: its
    ``values`` is a ``ColumnView`` of slots of those tokens.
    """
    solvers, ptok = spec.solvers, spec.performance_token
    # a slot's order: info, the performance token, each filter's token
    tokens = (INFO_TOKEN, ptok, *(f.token for f in spec.problem_filters))
    column = dict(zip(solvers, range(len(solvers))))
    rows: dict[ProblemId, list[tuple | None]] = {}
    for (solver, collection, problem), _, values in store.entries(lambda k: k[0] in column, tokens):
        row = rows.get((collection, problem))
        if row is None:
            row = rows[collection, problem] = [None] * len(solvers)
        row[column[solver]] = values
    problems, kept = [], []
    for problem in sorted(rows) if candidates is None else candidates:
        # a row is whole with a slot per solver, each with the performance token
        row = rows.get(problem)
        if row is None or None in row or None in map(operator.itemgetter(1), row):
            continue
        if _passes(spec, problem, row, warn):
            problems.append(problem)
            kept.append(row)
    values = ColumnView(problems, solvers, list(zip(*kept)), tokens)
    return ResultTable(problems, list(solvers), values)


def _passes(spec: ProfileSpec, problem: ProblemId, row: list[tuple], warn: WarnFn | None) -> bool:
    """Whether a problem's row of slots passes every filter; warns as ``select`` says."""
    first, others = row[0], row[1:]
    for at, filt in enumerate(spec.problem_filters, 2):
        value = first[at]
        if value is None or not filt.accepts(value):
            return False
        for slot in others:
            if slot[at] is not None and slot[at] != value and warn is not None:
                warn(
                    f"token {filt.token!r} disagrees across solvers on"
                    f" {problem[0]}/{problem[1]}"
                )
    return True


class RatioMatrix(NamedTuple):
    """tau and rho of each (problem, solver): one column per solver."""

    problems: list[ProblemId]
    solvers: list[str]
    tau: ColumnView
    rho: ColumnView
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
    it exceeds 1). A ratio or a default rho_bar that overflows to inf
    raises ProfileError: no plot file could show it.
    """
    if not table.problems:
        raise ProfileError("no eligible problems")
    problems, solvers, values = list(table.problems), list(table.solvers), table.values
    # per problem: its row of tau, its best tau and, with a success, its largest ratio
    tau_rows, bests, tops = [], [], []
    for problem in problems:
        cells = map(values.__getitem__, zip(repeat(problem), solvers))
        row = [v[ptok] if v[INFO_TOKEN] == 0.0 else None for v in cells]
        successes = [t for t in row if t is not None]
        best = min(successes, default=None)
        tau_rows.append(row)
        bests.append(best)
        if best is None:
            continue
        if best <= 0.0:
            raw, s = next((t, s) for t, s in zip(row, solvers) if t is not None and t <= 0.0)
            raise ProfileError(
                f"nonpositive performance value {format_ratio(raw)} for {s}"
                f" on {problem[0]}/{problem[1]}"
            )
        # division by best is monotone: the largest tau gives the largest ratio
        tops.append(max(successes) / best)
    max_finite = max(tops, default=None)
    if max_finite is not None and not math.isfinite(max_finite):
        problem, s = next(
            (p, s) for p, row, best in zip(problems, tau_rows, bests) if best is not None
            for s, t in zip(solvers, row) if t is not None and math.isinf(t / best)
        )
        raise ProfileError(
            f"performance ratio of {s} on {problem[0]}/{problem[1]} is not finite"
        )

    if rho_bar_override is not None:
        if max_finite is not None and rho_bar_override <= max_finite:
            raise ProfileError(
                f"rho_max {format_ratio(rho_bar_override)} does not exceed the"
                f" largest finite ratio {format_ratio(max_finite)}"
            )
        rho_bar = rho_bar_override
    else:
        rho_bar = max(2.0, 2.0 * max_finite) if max_finite is not None else 2.0
        if not math.isfinite(rho_bar):
            raise ProfileError(
                f"the default plateau, twice the largest ratio"
                f" {format_ratio(max_finite)}, is not finite: set rho_max"
                " to a plateau above that ratio"
            )

    tau = list(zip(*tau_rows))
    rho = [[rho_bar if t is None else t / b for t, b in zip(col, bests)] for col in tau]
    tau_view, rho_view = ColumnView(problems, solvers, tau), ColumnView(problems, solvers, rho)
    return RatioMatrix(problems, solvers, tau_view, rho_view, rho_bar)


class StepFunction(NamedTuple):
    """One solver's profile: nondecreasing steps over [1, rho_bar].

    A profile is its steps: the grid, the sorted grid indices where the
    value changes (the first is 0) and the value from each of them on.
    ``breakpoints``, each grid point paired with the profile's value
    there, are derived from the steps when read.
    """

    solver: str
    steps: Steps
    solve_fraction: float

    @classmethod
    def from_breakpoints(
        cls, solver: str, breakpoints: Breakpoints, solve_fraction: float
    ) -> StepFunction:
        """The profile whose value at each grid point is given."""
        grid = list(map(operator.itemgetter(0), breakpoints))
        ys = list(map(operator.itemgetter(1), breakpoints))
        changes = compress(range(1, len(ys)), map(operator.ne, ys, ys[1:]))
        starts = [0, *changes] if ys else []
        return cls(solver, (grid, starts, [ys[i] for i in starts]), solve_fraction)

    @property
    def breakpoints(self) -> Breakpoints:
        grid, starts, values = self.steps
        lengths = map(operator.sub, [*starts[1:], len(grid)], starts)
        return tuple(zip(grid, chain.from_iterable(map(repeat, values, lengths))))

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
    at the grid points of its ratios, found with one Counter per column.
    """
    count, rho_bar = len(matrix.problems), matrix.rho_bar
    # every finite ratio lies below rho_bar, which marks the failures
    grid = sorted({1.0, *chain.from_iterable(matrix.rho.columns)} - {rho_bar})
    grid.append(rho_bar)
    index = dict(zip(grid, range(len(grid))))
    profiles = []
    for s, rho, tau in zip(matrix.solvers, matrix.rho.columns, matrix.tau.columns):
        hits = Counter(rho)
        ratios = sorted(hits)
        starts = list(map(index.__getitem__, ratios))
        values = [n / count for n in accumulate(map(hits.__getitem__, ratios))]
        if starts[0] != 0:
            starts.insert(0, 0)
            values.insert(0, 0.0)
        solved = count - operator.countOf(tau, None)
        profiles.append(StepFunction(s, (grid, starts, values), solved / count))
    return profiles


# a number as the plot files and messages show it
format_ratio = "{:.6g}".format


def _write_plots(
    profiles: list[StepFunction], log_scale: bool, gnu: TextIO | None, m: TextIO | None
) -> None:
    """Write the Gnuplot data of the profiles to ``gnu`` and their Matlab
    script to ``m`` (see the module docstring); either may be None."""
    label = "log2(performance ratio)" if log_scale else "performance ratio"
    if gnu is not None:
        gnu.write(f"# performance profile data\n# x: {label}, y: fraction of problems\n")
    if m is not None:
        m.write("% performance profile data\n")
        if not profiles:
            m.write("error('no eligible problems: nothing to plot');\n")
            return
    # by id: each grid stays alive with its profiles for the whole call
    x_texts: dict[int, list[str]] = {}
    axis = ""
    for i, profile in enumerate(profiles, 1):
        grid, starts, values = profile.steps
        xs = x_texts.get(id(grid))
        if xs is None:
            xs = x_texts[id(grid)] = list(
                map(format_ratio, map(math.log2, grid) if log_scale else grid)
            )
        if xs and not axis:  # the x range of the first profile with points
            axis = f"axis([{xs[0]} {xs[-1]} 0 1]);\n"
        ys = [f" {y}" for y in map(format_ratio, values)]
        ends = [*starts[1:], len(grid)]
        segments = [f"{y}\n".join(xs[a:b]) + y for a, b, y in zip(starts, ends, ys)]
        if gnu is not None:
            # a blank line after the header, two between blocks; a jump row
            # between segments repeats the previous value, so steps render
            # as horizontal segments
            rows = [None] * (2 * len(segments) - 1)
            rows[::2], rows[1::2] = segments, [xs[a] + y for a, y in zip(starts[1:], ys)]
            head = "\n" if i == 1 else "\n\n"
            gnu.writelines([f"{head}# solver {profile.solver}", "\n".join(["", *rows]), "\n"])
        if m is not None:
            data = "\n".join(["", *segments]).replace("\n", "\n  ")
            m.writelines([f"data{i} = [", data, "\n];\n"])
    if m is not None:
        names = ", ".join("'" + p.solver.replace("'", "''") + "'" for p in profiles)
        m.write("figure;\nhold on;\n")
        m.writelines(f"stairs(data{i}(:,1), data{i}(:,2));\n" for i in range(1, len(profiles) + 1))
        m.write(f"hold off;\nlegend({names}, 'Location', 'SouthEast');\nxlabel('{label}');\n")
        m.write(f"ylabel('fraction of problems');\n{axis}")


def emit_gnuplot(profiles: list[StepFunction], log_scale: bool = False) -> str:
    """Gnuplot data file: one block per solver, two blank lines between blocks."""
    out = io.StringIO()
    _write_plots(profiles, log_scale, out, None)
    return out.getvalue()


def emit_matlab(profiles: list[StepFunction], log_scale: bool = False) -> str:
    """Matlab script: one breakpoint matrix per solver plus staircase plots."""
    out = io.StringIO()
    _write_plots(profiles, log_scale, None, out)
    return out.getvalue()


def write_outputs(
    profiles: list[StepFunction],
    log_scale: bool,
    base: Path | str,
) -> tuple[Path, Path]:
    """Write the <base>.gnu and <base>.m plot-data files."""
    gnu_path = Path(str(base) + ".gnu")
    m_path = Path(str(base) + ".m")
    try:
        with open(gnu_path, "w") as gnu, open(m_path, "w") as m:
            _write_plots(profiles, log_scale, gnu, m)
    except OSError as exc:
        raise ProfileError(f"cannot write plot data: {exc}") from exc
    return gnu_path, m_path
