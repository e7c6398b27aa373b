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

The data is held in columns of C doubles (``array('d')``), 8 bytes per
value, with NaN for a token an entry lacks (as the store reads it) and
for a failed run: store values are finite, so NaN is no real value.
``select`` keeps one column per token it reads (``info``, the
performance token, each filter token), the cell of (problem row,
solver) at row * solvers + solver. ``compute_ratios`` keeps
tau and rho as one column per solver, in problem order. A ``ColumnView``
reads either as a mapping keyed by (problem, solver), equal to the dict
it stands for. All profiles share one grid, an array of 1, every distinct
finite ratio, and rho_bar, taken from one sort of every ratio. A
``StepFunction`` keeps only its steps, in arrays: the sorted grid indices
where its count of problems rises and the value from each on. The
``plot`` module holds the one writer of both plot files;
``emit_gnuplot`` and ``emit_matlab`` run it into a string.
"""
from __future__ import annotations

import io
import math
import operator
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from itertools import accumulate, chain, compress, count, groupby, product, repeat
from pathlib import Path
from typing import Callable, NamedTuple

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
Steps = tuple[array, array, array]
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
    text: str, *, cli_ptok: str | None = None, cli_log: bool = False, cli_output: str | None = None,
    config: TokenConfig | None = None, warn: WarnFn | None = None,
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
    spec: ProfileSpec, working_dir: Path, root: Path | None = None, warn: WarnFn | None = None
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
    """A read-only map (problem, solver) -> cell over columns of C doubles,
    NaN for a value absent; it iterates problem-major. Without ``tokens``
    there is one column per solver, in problem order, and a cell is its
    value, None for NaN. With ``tokens`` there is one column per token,
    the cell of problem i and solver j at i * len(solvers) + j, read as the
    dict of the tokens present."""

    def __init__(self, problems, solvers, columns, tokens=None):
        self.problems, self.solvers, self.columns, self.tokens = problems, solvers, columns, tokens
        self._at: dict[ProblemId, int] | None = None  # built on the first read

    def __getitem__(self, key):
        if self._at is None:
            self._at = dict(zip(self.problems, range(len(self.problems))))
        try:
            problem, solver = key
            row, column = self._at[problem], self.solvers.index(solver)
        except (KeyError, ValueError):
            raise KeyError(key) from None
        if self.tokens is None:
            value = self.columns[column][row]
            return None if math.isnan(value) else value
        at = row * len(self.solvers) + column
        return {t: v for t, values in zip(self.tokens, self.columns) if not math.isnan(v := values[at])}

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
    spec: ProfileSpec, store: Store | StoreReader,
    candidates: list[ProblemId] | None = None, warn: WarnFn | None = None,
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
    ``values`` is a ``ColumnView`` of one column per token.
    """
    solvers, ptok = list(spec.solvers), spec.performance_token
    # a cell's tokens: info, the performance token, each filter's token
    tokens = (INFO_TOKEN, ptok, *(f.token for f in spec.problem_filters))
    width, column = len(solvers), dict(zip(solvers, range(len(solvers))))
    # a row per (collection, problem); the candidates' rows are fixed up front
    rows = {} if candidates is None else dict(zip(dict.fromkeys(candidates), count()))
    blank = array("d", [math.nan]) * width
    columns = [blank * len(rows) for _ in tokens]
    info, perf, *filtered = columns
    names: dict[str, str] = {}  # the rows of one collection share its name
    for (solver, collection, problem), _, values in store.entries(
        lambda k: k[0] in column and (candidates is None or (k[1], k[2]) in rows), tokens
    ):
        row = rows.get((collection, problem))
        if row is None:
            row = rows[names.setdefault(collection, collection), problem] = len(rows)
            for cells in columns:
                cells += blank
        at = row * width + column[solver]
        # NaN for a token the entry lacks; every entry has info
        info[at], perf[at] = values[0], values[1]
        for cells, value in zip(filtered, values[2:]) if filtered else ():
            cells[at] = value
    # a row is whole with an entry per solver, each with the performance token
    holes = {at // width for at in compress(count(), map(math.isnan, perf))}
    problems, kept = [], array("q")
    for problem in sorted(rows) if candidates is None else rows:
        if rows[problem] in holes:
            continue
        at = rows[problem] * width
        # the filters read the first solver's values; the others' may disagree
        for filt, cells in zip(spec.problem_filters, filtered):
            value, *others = cells[at:at + width]
            if math.isnan(value) or not filt.accepts(value):
                break
            for other in others:
                if not math.isnan(other) and other != value and warn is not None:
                    warn(f"token {filt.token!r} disagrees across solvers on {problem[0]}/{problem[1]}")
        else:
            problems.append(problem)
            kept.append(at)
    # the kept rows, a column at a time: each old column goes before the
    # next is copied
    del rows, holes, info, perf, filtered
    for k, cells in enumerate(columns):
        columns[k] = array("d", chain.from_iterable(cells[at:at + width] for at in kept))
    return ResultTable(problems, solvers, ColumnView(problems, solvers, columns, tokens))


class RatioMatrix(NamedTuple):
    """tau and rho of each (problem, solver): one column per solver."""

    problems: list[ProblemId]
    solvers: list[str]
    tau: ColumnView
    rho: ColumnView
    rho_bar: float


def compute_ratios(table: ResultTable, ptok: str, rho_bar_override: float | None = None) -> RatioMatrix:
    """Turn raw performance values into per-problem relative ratios.

    tau is absent (NaN) for a failed run. Every problem with at least one
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
    if isinstance(values, ColumnView) and (values.tokens or ())[:2] == (INFO_TOKEN, ptok):
        info, perf = values.columns[:2]
    else:  # a table of dicts: its columns, read once
        cells = [values[cell] for cell in product(problems, solvers)]
        info, perf = (array("d", [c.get(t, math.nan) for c in cells]) for t in (INFO_TOKEN, ptok))
    width = len(solvers)
    # per solver, tau (NaN for a failure: info other than 0); per problem,
    # the best tau (inf for none): a NaN, min's second argument, never wins
    taus = [perf[s::width] for s in range(width)]
    for at in compress(count(), info):
        taus[at % width][at // width] = math.nan
    bests = array("d", [math.inf]) * len(problems)
    for tau in taus:
        bests = array("d", map(min, bests, tau))
    if min(bests) <= 0.0:
        p, s, raw = next((p, s, t) for p, *row in zip(problems, *taus) for s, t in zip(solvers, row) if t <= 0.0)
        raise ProfileError(f"nonpositive performance value {format_ratio(raw)} for {s} on {p[0]}/{p[1]}")
    # per solver, the ratios to the best taus, NaN for a failure
    ratios = [array("d", map(operator.truediv, tau, bests)) for tau in taus]
    max_finite = max(chain.from_iterable(compress(r, map(operator.eq, r, r)) for r in ratios), default=None)
    if max_finite == math.inf:
        p, s = next((p, s) for p, *row in zip(problems, *ratios) for s, r in zip(solvers, row) if r == math.inf)
        raise ProfileError(f"performance ratio of {s} on {p[0]}/{p[1]} is not finite")

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

    # rho is the ratio columns, a failure's NaN set to rho_bar in place
    for column in ratios:
        for k in compress(count(), map(math.isnan, column)):
            column[k] = rho_bar
    tau_view, rho_view = ColumnView(problems, solvers, taus), ColumnView(problems, solvers, ratios)
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
    def from_breakpoints(cls, solver: str, breakpoints: Breakpoints, solve_fraction: float) -> StepFunction:
        """The profile whose value at each grid point is given."""
        grid = array("d", map(operator.itemgetter(0), breakpoints))
        ys = list(map(operator.itemgetter(1), breakpoints))
        changes = compress(range(1, len(ys)), map(operator.ne, ys, ys[1:]))
        starts = array("q", [0, *changes] if ys else [])
        return cls(solver, (grid, starts, array("d", [ys[i] for i in starts])), solve_fraction)

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
    at the grid points of its ratios (one Counter per column, each found
    in the grid by bisection). Its failures are its ratios at rho_bar.
    """
    total, rho_bar = len(matrix.problems), matrix.rho_bar
    # one sort of every ratio, with 1 and rho_bar, which lies above every
    # finite ratio and marks the failures; the grid keeps each value once
    grid = array("d", map(operator.itemgetter(0), groupby(sorted(chain((1.0, rho_bar), *matrix.rho.columns)))))
    profiles = []
    for s, rho in zip(matrix.solvers, matrix.rho.columns):
        hits = Counter(rho)
        ratios = sorted(hits)
        starts = array("q", [bisect_left(grid, r) for r in ratios])
        values = array("d", [n / total for n in accumulate(map(hits.__getitem__, ratios))])
        if starts[0] != 0:
            starts.insert(0, 0)
            values.insert(0, 0.0)
        profiles.append(StepFunction(s, (grid, starts, values), (total - hits[rho_bar]) / total))
    return profiles


# a number as the plot files and messages show it
format_ratio = "{:.6g}".format


def emit_gnuplot(profiles: list[StepFunction], log_scale: bool = False) -> str:
    """Gnuplot data file: one block per solver, two blank lines between blocks."""
    from .plot import _write_plots  # the one writer of plot files

    out = io.StringIO()
    _write_plots(profiles, log_scale, out, io.StringIO())
    return out.getvalue()


def emit_matlab(profiles: list[StepFunction], log_scale: bool = False) -> str:
    """Matlab script: one breakpoint matrix per solver plus staircase plots."""
    from .plot import _write_plots  # the one writer of plot files

    out = io.StringIO()
    _write_plots(profiles, log_scale, io.StringIO(), out)
    return out.getvalue()
