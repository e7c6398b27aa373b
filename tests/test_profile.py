from __future__ import annotations

import errno
import math
import random
import tempfile
import tracemalloc
from array import array
from bisect import bisect_right
from itertools import repeat, zip_longest
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from libopt import plot
from libopt.errors import LiboptError
from libopt.profile import (
    RELATIONS,
    ProblemFilter,
    ProfileError,
    RatioMatrix,
    ResultTable,
    SpecError,
    StepFunction,
    compute_profiles,
    compute_ratios,
    emit_gnuplot,
    emit_matlab,
    gather_candidate_problems,
    parse_spec,
    select,
)
from libopt.plot import STEP_BATCH, X_BATCH, write_outputs
from libopt.record import INFO_TOKEN, RecordError, TokenConfig, parse_line
from libopt.store import Store, StoreReader


def table(solvers, rows, extra_tokens=None):
    """rows: {problem_name: {solver: (info, tau)}} with tau the 'nfc' value."""
    problems = [("c", name) for name in rows]
    values = {}
    for name, per_solver in rows.items():
        for solver, (info, tau) in per_solver.items():
            tokens = {"info": float(info), "nfc": float(tau)}
            if extra_tokens:
                tokens.update(extra_tokens.get((name, solver), {}))
            values[(("c", name), solver)] = tokens
    return ResultTable(problems, list(solvers), values)


# --- specification file ---------------------------------------------------


def test_parse_spec_example_block():
    spec = parse_spec(
        "solver bosch klee durer\n"
        "collection painting.selfportraiture\n"
        "performance time\n"
    )
    assert spec.solvers == ("bosch", "klee", "durer")
    assert spec.collections == (("painting", "selfportraiture"),)
    assert spec.performance_token == "time"
    assert spec.output_base == "perf"


def test_parse_spec_cli_performance_token():
    spec = parse_spec("solver a b\n", cli_ptok="nfc")
    assert spec.performance_token == "nfc"
    # the command line wins over the directive
    spec = parse_spec("solver a b\nperformance time\n", cli_ptok="nfc")
    assert spec.performance_token == "nfc"


def test_parse_spec_needs_two_solvers():
    with pytest.raises(SpecError):
        parse_spec("solver a\nperformance t\n")


def test_parse_spec_needs_a_performance_token():
    with pytest.raises(SpecError):
        parse_spec("solver a b\n")


def test_parse_spec_checks_configured_performance_tokens():
    config = TokenConfig(performance_tokens=frozenset({"nfc"}))
    with pytest.raises(SpecError):
        parse_spec("solver a b\nperformance walltime\n", config=config)
    spec = parse_spec("solver a b\nperformance nfc\n", config=config)
    assert spec.performance_token == "nfc"


def test_parse_spec_accumulates_and_filters():
    spec = parse_spec(
        "solver a b\n"
        "solver c\n"
        "collection x y.small\n"
        "problem n >= 1000\n"
        "problem m != 0\n"
        "rho_max 50\n"
        "output comparison\n"
        "performance nfc\n",
        cli_log=True,
    )
    assert spec.solvers == ("a", "b", "c")
    assert spec.collections == (("x", None), ("y", "small"))
    assert spec.problem_filters == (
        ProblemFilter("n", ">=", 1000.0),
        ProblemFilter("m", "!=", 0.0),
    )
    assert spec.rho_bar_override == 50.0
    assert spec.log_scale
    assert spec.output_base == "comparison"


@pytest.mark.parametrize(
    "text",
    [
        "solver a b\nperformance t u\n",  # too many values
        "solver a b\nperformance t\nperformance u\n",  # duplicate
        "solver a b\nperformance t\nrho_max 0.5\n",  # not > 1
        "solver a b\nperformance t\nproblem n ~ 3\n",  # bad relation
        "solver a b\nperformance t\nspeed fast\n",  # unknown directive
        "solver a b\nperformance t\nproblem n >=\n",  # missing threshold
        "solver a b\nperformance t\nrho_max nan\n",  # not finite
        "solver a b\nperformance t\nrho_max inf\n",  # not finite
        "solver a b\nperformance t\nproblem n < nan\n",  # non-finite threshold
        "solver a b\nperformance t\nproblem n >= -inf\n",  # non-finite threshold
    ],
)
def test_parse_spec_rejects(text):
    with pytest.raises(SpecError):
        parse_spec(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("rho_max 1_5", "bad rho_max value '1_5'"),
        ("problem n >= 1_000", "perfopt.spc:3: bad threshold '1_000'"),
    ],
    ids=["rho_max", "threshold"],
)
def test_parse_spec_reads_numbers_as_a_result_line_does(line, message):
    # float() reads "1_5" as 15, but a result line holds no such number
    with pytest.raises(RecordError, match="unparseable number '1_0'"):
        parse_line("libopt%a%c%p%info=0%t=1_0")
    with pytest.raises(SpecError, match=message):
        parse_spec(f"solver a b\nperformance t\n{line}\n")
    spec = parse_spec("solver a b\nperformance t\nrho_max +2.5e1\nproblem n >= .5\n")
    assert spec.rho_bar_override == 25.0
    assert spec.problem_filters == (ProblemFilter("n", ">=", 0.5),)


# text near the specification grammar: directives, names, relations,
# numbers, blanks, comments, line breaks and stray characters
spec_text = st.lists(
    st.sampled_from(
        ["solver", "collection", "problem", "performance", "rho_max", "output", " ",
         "\t", "\n", "\r", "\x85", "\u2028", "#", "a", "b.t", "c.d", "n", "<=", "!=",
         "~", "1", "2.5", "-0", "1_0", "nan", "inf", "1e999", "\x00", "\xa0", "\u0663"]
    )
).map("".join)


@settings(max_examples=300)
@given(st.text() | spec_text)
def test_parse_spec_returns_a_spec_or_raises_a_libopt_error(text):
    try:
        spec = parse_spec(text, warn=lambda message: None)
    except LiboptError:
        return
    assert len(spec.solvers) >= 2
    assert spec.rho_bar_override is None or 1 < spec.rho_bar_override < math.inf
    assert all(math.isfinite(f.threshold) for f in spec.problem_filters)
    assert "\0" not in spec.output_base


def test_parse_spec_rejects_an_output_name_holding_a_nul():
    with pytest.raises(SpecError, match="perfopt.spc:3: output file name holds a NUL"):
        parse_spec("solver a b\nperformance t\noutput a\0b\n")



def test_parse_spec_counts_lines_at_newlines_only():
    # U+2028 is not a line break: it is blank space inside line 1
    with pytest.raises(SpecError, match="perfopt.spc:2: unknown directive 'bogus'"):
        parse_spec("solver a b\u2028performance nfc\nbogus\n")
    spec = parse_spec("solver a b\u2028c\nperformance nfc\n")
    assert spec.solvers == ("a", "b", "c")

def test_parse_spec_duplicate_solver_warns_and_dedupes():
    warnings = []
    spec = parse_spec("solver a b a\nperformance t\n", warn=warnings.append)
    assert spec.solvers == ("a", "b")
    assert len(warnings) == 1


# --- candidate gathering ---------------------------------------------------


def test_gather_candidates(tmp_path):
    root = tmp_path / "root"
    wd = tmp_path / "wd"
    (root / "collections" / "x").mkdir(parents=True)
    wd.mkdir()
    (root / "collections" / "x" / "all.lst").write_text("p1 p2\n")
    spec = parse_spec("solver a b\nperformance t\ncollection x\n")
    assert gather_candidate_problems(spec, wd, root) == [("x", "p1"), ("x", "p2")]


def test_gather_without_collection_directive_is_unrestricted(tmp_path):
    spec = parse_spec("solver a b\nperformance t\n")
    assert gather_candidate_problems(spec, tmp_path, None) is None


def test_gather_prefers_working_directory(tmp_path):
    root = tmp_path / "root"
    wd = tmp_path / "wd"
    (root / "collections" / "x").mkdir(parents=True)
    wd.mkdir()
    (root / "collections" / "x" / "small.lst").write_text("p1\n")
    (wd / "x.small.lst").write_text("p9\n")
    spec = parse_spec("solver a b\nperformance t\ncollection x.small\n")
    assert gather_candidate_problems(spec, wd, root) == [("x", "p9")]


def test_gather_union_without_duplicates(tmp_path):
    wd = tmp_path
    (wd / "x.one.lst").write_text("p1 p2\n")
    (wd / "x.two.lst").write_text("p2 p3\n")
    spec = parse_spec("solver a b\nperformance t\ncollection x.one x.two\n")
    assert gather_candidate_problems(spec, wd, None) == [
        ("x", "p1"),
        ("x", "p2"),
        ("x", "p3"),
    ]


def test_gather_missing_list_is_an_error(tmp_path):
    spec = parse_spec("solver a b\nperformance t\ncollection ghost\n")
    with pytest.raises(ProfileError):
        gather_candidate_problems(spec, tmp_path, None)


# --- selection --------------------------------------------------------------


def store_with(lines):
    store = Store()
    for line in lines:
        store.add(parse_line(line))
    return store


def test_select_all_present():
    store = store_with(
        [
            "libopt%a%c%p1%nfc=1%info=0",
            "libopt%a%c%p2%nfc=2%info=0",
            "libopt%a%c%p3%nfc=3%info=0",
            "libopt%b%c%p1%nfc=4%info=0",
            "libopt%b%c%p2%nfc=5%info=0",
            "libopt%b%c%p3%nfc=6%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\n")
    result = select(spec, store)
    assert result.problems == [("c", "p1"), ("c", "p2"), ("c", "p3")]


def test_select_drops_problem_missing_for_one_solver():
    store = store_with(
        [
            "libopt%a%c%p1%nfc=1%info=0",
            "libopt%a%c%p2%nfc=2%info=0",
            "libopt%b%c%p1%nfc=4%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\n")
    assert select(spec, store).problems == [("c", "p1")]


def test_select_keeps_failures():
    # a failed run still counts as a stored result, so the problem stays in
    store = store_with(
        [
            "libopt%a%c%p1%nfc=1%info=0",
            "libopt%b%c%p1%nfc=9%info=1",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\n")
    assert select(spec, store).problems == [("c", "p1")]


def test_select_requires_performance_token():
    store = store_with(
        [
            "libopt%a%c%p1%nfc=1%info=0",
            "libopt%b%c%p1%time=9%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\n")
    assert select(spec, store).problems == []


def test_select_applies_problem_filter():
    store = store_with(
        [
            "libopt%a%c%p1%n=1875%nfc=1%info=0",
            "libopt%a%c%p2%n=10%nfc=2%info=0",
            "libopt%b%c%p1%n=1875%nfc=3%info=0",
            "libopt%b%c%p2%n=10%nfc=4%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\nproblem n >= 1000\n")
    assert select(spec, store).problems == [("c", "p1")]


def test_select_filter_discards_problem_lacking_token():
    store = store_with(
        [
            "libopt%a%c%p1%nfc=1%info=0",
            "libopt%b%c%p1%nfc=3%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\nproblem n >= 1000\n")
    assert select(spec, store).problems == []


def test_select_warns_on_cross_solver_descriptive_mismatch():
    store = store_with(
        [
            "libopt%a%c%p1%n=100%nfc=1%info=0",
            "libopt%b%c%p1%n=999%nfc=3%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\nproblem n <= 500\n")
    warnings = []
    result = select(spec, store, warn=warnings.append)
    assert result.problems == [("c", "p1")]
    assert len(warnings) == 1


def test_select_warns_once_per_disagreeing_solver_up_to_the_failing_filter():
    store = store_with(
        [
            "libopt%a%c%p1%n=100%m=1%nfc=1%info=0",
            "libopt%b%c%p1%n=200%m=2%nfc=2%info=0",
            "libopt%s%c%p1%n=300%m=1%nfc=3%info=0",
            "libopt%a%c%p2%n=100%m=50%nfc=1%info=0",
            "libopt%b%c%p2%n=999%m=60%nfc=2%info=0",
            "libopt%s%c%p2%n=100%m=50%nfc=3%info=0",
            "libopt%a%c%p3%n=100%m=1%nfc=1%info=0",
            "libopt%b%c%p3%n=999%m=9%nfc=2%info=0",
        ]
    )
    spec = parse_spec("solver a b s\nperformance nfc\nproblem n <= 500\nproblem m < 10\n")
    warnings = []
    result = select(spec, store, warn=warnings.append)
    assert result.problems == [("c", "p1")]
    assert warnings == [
        "token 'n' disagrees across solvers on c/p1",
        "token 'n' disagrees across solvers on c/p1",
        "token 'm' disagrees across solvers on c/p1",
        "token 'n' disagrees across solvers on c/p2",
    ]


def test_select_respects_candidates_order():
    store = store_with(
        [
            "libopt%a%c%p1%nfc=1%info=0",
            "libopt%a%c%p2%nfc=2%info=0",
            "libopt%b%c%p1%nfc=4%info=0",
            "libopt%b%c%p2%nfc=5%info=0",
        ]
    )
    spec = parse_spec("solver a b\nperformance nfc\n")
    result = select(spec, store, candidates=[("c", "p2"), ("c", "p1"), ("c", "p9")])
    assert result.problems == [("c", "p2"), ("c", "p1")]



def test_select_reads_only_the_needed_tokens_whatever_their_layout():
    # each solver orders its tokens its own way and carries tokens the spec
    # never names; some entries lack the performance or a filter token
    layouts = {
        "a": ("x", "info", "n", "nfc", "y", "m"),
        "b.v2": ("m", "y", "nfc", "z", "info", "n"),
        "c": ("nfc", "z", "m", "x", "n", "info"),
    }
    needed = ("info", "nfc", "n", "m")
    rng = random.Random(7)
    full, lean = Store(), Store()
    for p in range(60):
        common = {"n": float(rng.choice([100, 400, 900])), "m": float(rng.randint(1, 12))}
        for solver, layout in layouts.items():
            values = {t: float(rng.randint(1, 9)) for t in layout}
            values.update(common, info=float(rng.random() < 0.2))
            if rng.random() < 0.2:
                values["n"] = 999.0  # disagrees with the other solvers
            for token in ("nfc", "n", "m"):
                if rng.random() < 0.05:
                    del values[token]
            head = f"libopt%{solver}%c%p{p:02d}"
            for store, tokens in ((full, layout), (lean, needed)):
                pairs = "".join(f"%{t}={values[t]:g}" for t in tokens if t in values)
                store.add(parse_line(head + pairs))
    spec = parse_spec(
        "solver a b.v2 c\nperformance nfc\nproblem n <= 500\nproblem m < 10\n"
    )
    candidates = [("c", f"p{p:02d}") for p in rng.sample(range(70), 50)]
    for given in (None, candidates):
        got_warnings, want_warnings = [], []
        got = select(spec, full, given, warn=got_warnings.append)
        want = select(spec, lean, given, warn=want_warnings.append)
        assert 0 < len(got.problems) < 50
        assert got == want
        assert got_warnings == want_warnings != []


@pytest.mark.parametrize("reader", [Store.open, StoreReader])
def test_select_values_are_the_dicts_of_the_needed_tokens(tmp_path, reader):
    # entries carry tokens the spec never names and lack some it needs;
    # each value reads as the dict of the needed tokens the entry holds
    rng = random.Random(11)
    needed = {"info", "nfc", "n", "m"}
    lines = []
    for p in range(40):
        for solver in ("a", "b.v2", "c"):
            tokens = ["info", "nfc", "x", "y"]
            # the first solver carries both filter tokens, the others not always
            tokens += [t for t in ("n", "m") if solver == "a" or rng.random() < 0.7]
            rng.shuffle(tokens)
            pairs = "".join(f"%{t}={rng.randint(0 if t == 'info' else 1, 9)}" for t in tokens)
            lines.append(f"{solver}%c%p{p:02d}{pairs}")
    (tmp_path / "dtbopt").write_text("".join(line + "\n" for line in sorted(lines)))
    spec = parse_spec("solver a b.v2 c\nperformance nfc\nproblem n <= 8\nproblem m >= 1\n")
    result = select(spec, reader(tmp_path / "dtbopt"))
    assert 10 < len(result.problems) < 40
    for line in lines:
        record = parse_line("libopt%" + line)
        key = ((record.collection, record.problem), record.solver_with_tag)
        if key[0] in result.problems:
            want = {pair.token: pair.value for pair in record.pairs if pair.token in needed}
            assert result.values[key] == want
    assert any(len(v) < len(needed) for v in result.values.values())


def column_views():
    """The views of a selected table and of its ratio matrix."""
    store = store_with(
        [
            "libopt%a%c%p1%nfc=2%info=0%n=5",
            "libopt%a%c%p2%nfc=4%info=0%n=5",
            "libopt%a%c%p3%nfc=1%info=1%n=5",
            "libopt%b%c%p1%nfc=1%info=0",
            "libopt%b%c%p2%nfc=8%info=0%n=6",
            "libopt%b%c%p3%nfc=3%info=0%x=1",
        ]
    )
    table = select(parse_spec("solver a b\nperformance nfc\nproblem n > 1\n"), store)
    matrix = compute_ratios(table, "nfc")
    return {"values": table.values, "tau": matrix.tau, "rho": matrix.rho}


@pytest.mark.parametrize("name", ["values", "tau", "rho"])
def test_column_views_read_as_dicts(name):
    view = column_views()[name]
    as_dict = dict(view)
    assert view == as_dict and as_dict == view
    assert not view != as_dict and not as_dict != view
    keys = [(("c", p), s) for p in ("p1", "p2", "p3") for s in ("a", "b")]
    assert len(view) == 6
    assert list(view) == list(view.keys()) == list(as_dict) == keys
    assert list(view.values()) == [view[key] for key in keys]
    assert list(view.items()) == list(zip(keys, view.values()))
    for missing in ((("c", "p4"), "a"), (("c", "p1"), "z"), (("d", "p1"), "b")):
        with pytest.raises(KeyError) as err:
            view[missing]
        assert err.value.args == (missing,)
        assert missing not in view and view.get(missing) is None
    changed = {**as_dict, keys[0]: {"info": 9.0} if name == "values" else 9.0}
    assert view != changed and changed != view


def test_column_views_hold_the_values_of_the_table_and_matrix():
    views = column_views()
    p1, p3 = ("c", "p1"), ("c", "p3")
    assert views["values"][(p1, "a")] == {"info": 0.0, "nfc": 2.0, "n": 5.0}
    assert views["values"][(p1, "b")] == {"info": 0.0, "nfc": 1.0}
    assert views["tau"][(p3, "a")] is None and views["tau"][(p3, "b")] == 3.0
    assert views["rho"] == {
        (p1, "a"): 2.0, (p1, "b"): 1.0,
        (("c", "p2"), "a"): 1.0, (("c", "p2"), "b"): 2.0,
        (p3, "a"): 4.0, (p3, "b"): 1.0,
    }


# --- ratios and profiles ----------------------------------------------------


WORKED = table(
    ["A", "B"],
    {
        "p1": {"A": (0, 2.0), "B": (0, 1.0)},
        "p2": {"A": (0, 4.0), "B": (0, 8.0)},
        "p3": {"A": (1, 1.0), "B": (0, 3.0)},
    },
)


def test_compute_ratios_worked_example():
    matrix = compute_ratios(WORKED, "nfc")
    assert matrix.rho_bar == 4.0
    p1, p2, p3 = WORKED.problems
    assert matrix.rho[(p1, "A")] == 2.0
    assert matrix.rho[(p2, "A")] == 1.0
    assert matrix.rho[(p3, "A")] == 4.0
    assert matrix.rho[(p1, "B")] == 1.0
    assert matrix.rho[(p2, "B")] == 2.0
    assert matrix.rho[(p3, "B")] == 1.0
    assert matrix.tau[(p3, "A")] is None


def test_compute_profiles_worked_example():
    profiles = compute_profiles(compute_ratios(WORKED, "nfc"))
    by_name = {p.solver: p for p in profiles}
    assert by_name["A"].breakpoints == ((1.0, 1 / 3), (2.0, 2 / 3), (4.0, 1.0))
    assert by_name["B"].breakpoints == ((1.0, 2 / 3), (2.0, 1.0), (4.0, 1.0))
    assert by_name["A"].solve_fraction == 2 / 3
    assert by_name["B"].solve_fraction == 1.0


def test_equal_tau_tie_is_a_shared_win():
    t = table(["A", "B"], {"p1": {"A": (0, 5.0), "B": (0, 5.0)}})
    matrix = compute_ratios(t, "nfc")
    p1 = t.problems[0]
    assert matrix.rho[(p1, "A")] == 1.0 and matrix.rho[(p1, "B")] == 1.0


def test_all_solvers_fail_a_problem():
    t = table(
        ["A", "B"],
        {
            "p1": {"A": (1, 5.0), "B": (1, 5.0)},
            "p2": {"A": (0, 2.0), "B": (0, 4.0)},
        },
    )
    matrix = compute_ratios(t, "nfc")
    p1 = t.problems[0]
    assert matrix.rho[(p1, "A")] == matrix.rho_bar
    assert matrix.rho[(p1, "B")] == matrix.rho_bar


def test_rho_bar_floor_is_two():
    t = table(["A", "B"], {"p1": {"A": (0, 3.0), "B": (0, 3.0)}})
    assert compute_ratios(t, "nfc").rho_bar == 2.0


def test_rho_bar_override():
    matrix = compute_ratios(WORKED, "nfc", rho_bar_override=10.0)
    assert matrix.rho_bar == 10.0
    p3 = WORKED.problems[2]
    assert matrix.rho[(p3, "A")] == 10.0


def test_rho_bar_override_must_exceed_finite_ratios():
    with pytest.raises(ProfileError):
        compute_ratios(WORKED, "nfc", rho_bar_override=2.0)


def test_nonpositive_performance_value_is_an_error():
    t = table(["A", "B"], {"p1": {"A": (0, 0.0), "B": (0, 1.0)}})
    with pytest.raises(ProfileError):
        compute_ratios(t, "nfc")


def test_failure_tau_may_be_nonpositive():
    # the positivity rule applies to successes only
    t = table(["A", "B"], {"p1": {"A": (1, 0.0), "B": (0, 1.0)}})
    matrix = compute_ratios(t, "nfc")
    assert matrix.tau[(t.problems[0], "A")] is None


def test_solver_best_everywhere_starts_at_one():
    t = table(
        ["A", "B"],
        {
            "p1": {"A": (0, 1.0), "B": (0, 2.0)},
            "p2": {"A": (0, 1.0), "B": (0, 3.0)},
        },
    )
    profiles = compute_profiles(compute_ratios(t, "nfc"))
    assert profiles[0].breakpoints[0] == (1.0, 1.0)


def test_solver_failing_everything_plateaus_at_rho_bar():
    t = table(
        ["A", "B"],
        {
            "p1": {"A": (1, 1.0), "B": (0, 2.0)},
            "p2": {"A": (1, 1.0), "B": (0, 3.0)},
        },
    )
    profiles = compute_profiles(compute_ratios(t, "nfc"))
    failing = profiles[0]
    *before, last = failing.breakpoints
    assert all(v == 0.0 for _, v in before)
    assert last == (compute_ratios(t, "nfc").rho_bar, 1.0)
    assert failing.solve_fraction == 0.0


def test_solve_fraction_independent_of_performance_token():
    extra = {
        (name, solver): {"nga": tau * 7.0}
        for name, row in {
            "p1": {"A": (0, 2.0), "B": (0, 1.0)},
            "p2": {"A": (0, 4.0), "B": (1, 8.0)},
        }.items()
        for solver, (_, tau) in row.items()
    }
    t = table(
        ["A", "B"],
        {
            "p1": {"A": (0, 2.0), "B": (0, 1.0)},
            "p2": {"A": (0, 4.0), "B": (1, 8.0)},
        },
        extra_tokens=extra,
    )
    for_nfc = {p.solver: p.solve_fraction for p in compute_profiles(compute_ratios(t, "nfc"))}
    for_nga = {p.solver: p.solve_fraction for p in compute_profiles(compute_ratios(t, "nga"))}
    assert for_nfc == for_nga


def test_scale_invariance_per_problem():
    scaled = table(
        ["A", "B"],
        {
            "p1": {"A": (0, 200.0), "B": (0, 100.0)},
            "p2": {"A": (0, 4.0), "B": (0, 8.0)},
            "p3": {"A": (1, 1.0), "B": (0, 3.0)},
        },
    )
    base = compute_ratios(WORKED, "nfc")
    other = compute_ratios(scaled, "nfc")
    assert base.rho == {
        (p, s): other.rho[(p, s)] for p in scaled.problems for s in scaled.solvers
    }


# --- emission ---------------------------------------------------------------


def test_emit_gnuplot_staircase_rows():
    profiles = compute_profiles(compute_ratios(WORKED, "nfc"))
    text = emit_gnuplot(profiles)
    block_a = text.split("\n\n\n")[0]
    assert "# solver A" in block_a
    for row in ("1 0.333333", "2 0.333333", "2 0.666667", "4 0.666667", "4 1"):
        assert row in block_a


def test_emit_gnuplot_simple_step():
    step = StepFunction.from_breakpoints("s", ((1.0, 0.5), (3.0, 1.0)), 1.0)
    text = emit_gnuplot([step])
    assert "1 0.5\n3 0.5\n3 1\n" in text


def test_emit_gnuplot_log_scale():
    step = StepFunction.from_breakpoints("s", ((1.0, 0.5), (3.0, 1.0)), 1.0)
    text = emit_gnuplot([step], log_scale=True)
    assert "0 0.5" in text
    assert f"{math.log2(3.0):.6g} 0.5" in text
    assert "1.58496 0.5" in text


def test_emit_matlab_of_an_empty_profile_alone_has_no_axis_line():
    text = emit_matlab([StepFunction.from_breakpoints("e", (), 0.0)])
    assert "data1 = [\n];\n" in text
    assert "axis" not in text
    assert text.endswith("ylabel('fraction of problems');\n")


def test_emit_matlab_takes_the_axis_of_the_first_profile_with_points():
    profiles = [
        StepFunction.from_breakpoints("e", (), 0.0),
        StepFunction.from_breakpoints("s", ((1.0, 0.5), (3.0, 1.0)), 1.0),
        StepFunction.from_breakpoints("t", ((1.0, 1.0), (8.0, 1.0)), 1.0),
    ]
    text = emit_matlab(profiles)
    assert text.endswith("axis([1 3 0 1]);\n")
    assert emit_matlab(profiles, log_scale=True).endswith("axis([0 1.58496 0 1]);\n")


def test_emit_gnuplot_empty_is_header_only():
    text = emit_gnuplot([])
    assert text.startswith("#")
    assert all(line.startswith("#") for line in text.splitlines())


def test_emit_gnuplot_blocks_separated_by_two_blank_lines():
    profiles = compute_profiles(compute_ratios(WORKED, "nfc"))
    text = emit_gnuplot(profiles)
    assert text.count("\n\n\n") == 1


def test_emit_matlab_two_solvers():
    profiles = compute_profiles(compute_ratios(WORKED, "nfc"))
    text = emit_matlab(profiles)
    assert "data1 = [" in text and "data2 = [" in text
    assert text.count("stairs(") == 2
    assert "legend('A', 'B'" in text


def test_emit_matlab_log_scale_label_and_data():
    profiles = compute_profiles(compute_ratios(WORKED, "nfc"))
    text = emit_matlab(profiles, log_scale=True)
    assert "xlabel('log2(performance ratio)');" in text
    assert "  0 0.333333" in text


def test_emit_matlab_empty_errors_out():
    text = emit_matlab([])
    assert "error(" in text


# --- kernel and emitters against plain references ----------------------------


def bisect_profiles(matrix):
    """Reference kernel: one bisect per grid point per solver."""
    count = len(matrix.problems)
    finite = {r for r in matrix.rho.values() if r < matrix.rho_bar}
    grid = sorted({1.0, *finite}) + [matrix.rho_bar]
    profiles = []
    for s in matrix.solvers:
        ratios = sorted(matrix.rho[(p, s)] for p in matrix.problems)
        breakpoints = tuple((t, bisect_right(ratios, t) / count) for t in grid)
        solved = sum(1 for p in matrix.problems if matrix.tau[(p, s)] is not None)
        profiles.append(
            StepFunction.from_breakpoints(s, breakpoints, solved / count)
        )
    return profiles


def fmt(x, log_scale=False):
    return f"{math.log2(x) if log_scale else x:.6g}"


def reference_gnuplot(profiles, log_scale):
    """Reference emitter: every row formatted on its own."""
    x_label = "log2(performance ratio)" if log_scale else "performance ratio"
    text = f"# performance profile data\n# x: {x_label}, y: fraction of problems\n"
    blocks = []
    for p in profiles:
        rows, prev = [f"# solver {p.solver}"], None
        for t, value in p.breakpoints:
            if prev is not None and value != prev:
                rows.append(f"{fmt(t, log_scale)} {fmt(prev)}")
            rows.append(f"{fmt(t, log_scale)} {fmt(value)}")
            prev = value
        blocks.append("\n".join(rows))
    return text + "\n" + "\n\n\n".join(blocks) + "\n"


def reference_matlab(profiles, log_scale):
    """Reference Matlab script: every row formatted on its own."""
    lines = ["% performance profile data"]
    for i, p in enumerate(profiles, 1):
        lines.append(f"data{i} = [")
        lines += [f"  {fmt(t, log_scale)} {fmt(v)}" for t, v in p.breakpoints]
        lines.append("];")
    lines += ["figure;", "hold on;"]
    lines += [f"stairs(data{i}(:,1), data{i}(:,2));" for i in range(1, len(profiles) + 1)]
    names = ", ".join(f"'{p.solver}'" for p in profiles)
    x_label = "log2(performance ratio)" if log_scale else "performance ratio"
    lines += [
        "hold off;",
        f"legend({names}, 'Location', 'SouthEast');",
        f"xlabel('{x_label}');",
        "ylabel('fraction of problems');",
    ]
    first = next((p.breakpoints for p in profiles if p.breakpoints), None)
    if first is not None:
        lines.append(
            f"axis([{fmt(first[0][0], log_scale)} {fmt(first[-1][0], log_scale)} 0 1]);"
        )
    return "\n".join(lines) + "\n"


# seeds of random_table: the small tables, then the large ones
SMALL_SEEDS = range(40)
LARGE_SEEDS = range(40, 42)
TABLE_SEEDS = [*SMALL_SEEDS, *LARGE_SEEDS]


def random_table(seed):
    """Solvers x problems with ties (few distinct taus), all-fail rows and
    a chance of a single problem. LARGE_SEEDS give 8 solvers x
    2,000 problems over 400 distinct taus: a grid of thousands of points,
    which each solver crosses in long constant segments."""
    rng = random.Random(seed)
    if seed in SMALL_SEEDS:
        solvers = [f"s{i}" for i in range(rng.randint(2, 6))]
        n_problems = 1 if seed % 4 == 0 else rng.randint(2, 60)
        taus = [float(rng.randint(1, 12)) for _ in range(rng.randint(1, 8))]
    else:
        solvers = [f"s{i}" for i in range(8)]
        n_problems = 2000
        taus = [float(rng.randint(1, 5000)) for _ in range(400)]
    rows = {}
    for p in range(n_problems):
        all_fail = rng.random() < 0.15
        rows[f"p{p}"] = {
            s: (1 if all_fail or rng.random() < 0.2 else 0, rng.choice(taus))
            for s in solvers
        }
    return table(solvers, rows)


@pytest.mark.parametrize("seed", TABLE_SEEDS)
def test_compute_profiles_matches_bisect_reference(seed):
    t = random_table(seed)
    for override in (None, 1000.0):
        matrix = compute_ratios(t, "nfc", override)
        assert compute_profiles(matrix) == bisect_profiles(matrix)


def assert_same_text(got, want):
    """got == want, reported by the first line that differs: pytest's own
    diff of two texts of 100k lines runs for minutes."""
    if got != want:
        pairs = zip_longest(got.split("\n"), want.split("\n"))
        lineno, (line, expected) = next(
            (i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1]
        )
        pytest.fail(f"line {lineno} is {line!r}, expected {expected!r}")


@pytest.mark.parametrize("seed", TABLE_SEEDS)
@pytest.mark.parametrize("log_scale", [False, True])
def test_emitters_match_per_row_reference(seed, log_scale):
    profiles = compute_profiles(compute_ratios(random_table(seed), "nfc"))
    gnu, m = emit_gnuplot(profiles, log_scale), emit_matlab(profiles, log_scale)
    assert_same_text(gnu, reference_gnuplot(profiles, log_scale))
    assert_same_text(m, reference_matlab(profiles, log_scale))


@pytest.mark.parametrize("log_scale", [False, True])
def test_emitters_match_the_reference_on_hand_built_profiles_of_several_grids(log_scale):
    profile = StepFunction.from_breakpoints
    profiles = [
        profile("h1", ((1.0, 0.25), (1.5, 0.25), (2.0, 0.75), (4.0, 0.75)), 0.75),
        *compute_profiles(compute_ratios(WORKED, "nfc")),
        profile("h2", ((1.0, 0.0), (3.0, 0.5), (3.5, 0.5), (6.0, 1.0)), 1.0),
        profile("empty", (), 0.0),
        profile("h3", ((1.0, 1.0),), 1.0),
        *batch_profiles(),
    ]
    assert_same_text(emit_gnuplot(profiles, log_scale), reference_gnuplot(profiles, log_scale))
    assert_same_text(emit_matlab(profiles, log_scale), reference_matlab(profiles, log_scale))


def test_random_tables_cover_ties_failures_and_single_problems():
    tables = [random_table(seed) for seed in range(40)]
    assert any(len(t.problems) == 1 for t in tables)
    assert any(
        all(t.values[(p, s)]["info"] != 0.0 for s in t.solvers)
        for t in tables
        for p in t.problems
    )
    assert any(
        len({t.values[(p, s)]["nfc"] for s in t.solvers}) < len(t.solvers)
        for t in tables
        for p in t.problems
    )


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_large_random_tables_cover_ties_failures_and_long_segments(seed):
    t = random_table(seed)
    assert (len(t.solvers), len(t.problems)) == (8, 2000)
    assert any(all(t.values[(p, s)]["info"] != 0.0 for s in t.solvers) for p in t.problems)
    assert any(
        len({t.values[(p, s)]["nfc"] for s in t.solvers}) < len(t.solvers)
        for p in t.problems
    )
    profiles = compute_profiles(compute_ratios(t, "nfc"))
    assert len(profiles[0].steps[0]) > 2000
    starts = [p.steps[1] for p in profiles]
    assert max(b - a for s in starts for a, b in zip(s, s[1:])) > 30


# --- the streamed writer ----------------------------------------------------


def hand_built_profiles():
    """Profiles of several grids, the first of them empty."""
    profile = StepFunction.from_breakpoints
    return [
        profile("empty", (), 0.0),
        profile("h1", ((1.0, 0.25), (1.5, 0.25), (2.0, 0.75), (4.0, 0.75)), 0.75),
        *compute_profiles(compute_ratios(WORKED, "nfc")),
        profile("h2", ((1.0, 0.0), (3.0, 0.5), (3.5, 0.5), (6.0, 1.0)), 1.0),
        profile("it's", ((1.0, 1.0),), 1.0),
    ]


def batch_profiles():
    """Profiles of 0, 1, K - 1, K, K + 1 and 2K + 1 steps for the writer's
    batch of K steps, all but the first on one grid longer than two
    batches of x texts."""
    grid = array("d", [1 + i / 64 for i in range(2 * X_BATCH + 3)])

    def stepped(n):
        starts = array("q", range(0, 2 * n, 2))
        values = array("d", [(j + 1) / (n + 1) for j in range(n)])
        return StepFunction(f"s{n}", (grid, starts, values), values[-1])

    k = STEP_BATCH
    return [StepFunction.from_breakpoints("s0", (), 0.0), *map(stepped, [1, k - 1, k, k + 1, 2 * k + 1])]


PROFILE_SETS = {
    "none": list,
    "hand-built": hand_built_profiles,
    "batch boundaries": batch_profiles,
    **{
        f"random {seed}": lambda seed=seed: compute_profiles(
            compute_ratios(random_table(seed), "nfc")
        )
        for seed in [0, 1, 5, 40]
    },
}


@pytest.mark.parametrize("name", sorted(PROFILE_SETS))
@pytest.mark.parametrize("log_scale", [False, True])
def test_write_outputs_writes_the_bytes_of_the_emitters(tmp_path, name, log_scale):
    profiles = PROFILE_SETS[name]()
    gnu_path, m_path = write_outputs(profiles, log_scale, tmp_path / "perf")
    assert (gnu_path, m_path) == (tmp_path / "perf.gnu", tmp_path / "perf.m")
    assert_same_text(gnu_path.read_text(), emit_gnuplot(profiles, log_scale))
    assert_same_text(m_path.read_text(), emit_matlab(profiles, log_scale))


def test_write_outputs_holds_less_than_it_writes(tmp_path):
    # the grid's x texts and one batch of one profile's rows, not whole
    # files, nor a list of every x text or row of a profile
    profiles = compute_profiles(compute_ratios(random_table(LARGE_SEEDS[0]), "nfc"))
    assert len(profiles) == 8
    tracemalloc.start()
    try:
        write_outputs(profiles, True, tmp_path / "perf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert written > 1_000_000
    assert peak < written / 4


def test_a_cut_plot_write_keeps_the_old_files(tmp_path, monkeypatch):
    profiles = hand_built_profiles()
    gnu_path, m_path = write_outputs(profiles, False, tmp_path / "perf")
    before = gnu_path.read_bytes(), m_path.read_bytes()
    texts = emit_gnuplot(profiles, True), emit_matlab(profiles, True)

    def cut(profiles, log_scale, gnu, m):
        # as when the file size limit is met halfway through each file
        for out, text in zip([gnu, m], texts):
            out.write(text[:len(text) // 2])
            out.flush()
        raise OSError(errno.EFBIG, "File too large")

    monkeypatch.setattr(plot, "_write_plots", cut)
    with pytest.raises(ProfileError, match=r"^cannot write plot data: \[Errno 27\] File too large$"):
        write_outputs(profiles, True, tmp_path / "perf")
    assert (gnu_path.read_bytes(), m_path.read_bytes()) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["perf.gnu", "perf.m"]


# --- the columnar core ------------------------------------------------------


def reference_select(spec, store, candidates=None, warn=None):
    """``select`` as it was before its columns: a row of slots per problem,
    each the tuple of the needed tokens' values (None for one absent);
    its values are one dict per (problem, solver) of the tokens present."""
    solvers, ptok = spec.solvers, spec.performance_token
    tokens = (INFO_TOKEN, ptok, *(f.token for f in spec.problem_filters))
    column = dict(zip(solvers, range(len(solvers))))
    rows = {}
    for (solver, collection, problem), _, values in store.entries(lambda k: k[0] in column, tokens):
        values = tuple(None if math.isnan(v) else v for v in values)  # the store's NaN: absent
        row = rows.get((collection, problem))
        if row is None:
            row = rows[collection, problem] = [None] * len(solvers)
        row[column[solver]] = values
    problems, values = [], {}
    for problem in sorted(rows) if candidates is None else candidates:
        row = rows.get(problem)
        if row is None or None in row or None in [slot[1] for slot in row]:
            continue
        if reference_passes(spec, problem, row, warn):
            problems.append(problem)
            for solver, slot in zip(solvers, row):
                values[problem, solver] = {t: v for t, v in zip(tokens, slot) if v is not None}
    return ResultTable(problems, list(solvers), values)


def reference_passes(spec, problem, row, warn):
    first, others = row[0], row[1:]
    for at, filt in enumerate(spec.problem_filters, 2):
        value = first[at]
        if value is None or not filt.accepts(value):
            return False
        for slot in others:
            if slot[at] is not None and slot[at] != value and warn is not None:
                warn(f"token {filt.token!r} disagrees across solvers on {problem[0]}/{problem[1]}")
    return True


def reference_compute_ratios(table, ptok, rho_bar_override=None):
    """``compute_ratios`` as it was before its columns: it reads each cell
    as a dict, and its tau and rho are dicts keyed by (problem, solver)."""
    if not table.problems:
        raise ProfileError("no eligible problems")
    problems, solvers, values = list(table.problems), list(table.solvers), table.values
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
                f"nonpositive performance value {raw:.6g} for {s} on {problem[0]}/{problem[1]}"
            )
        tops.append(max(successes) / best)
    max_finite = max(tops, default=None)
    if max_finite is not None and not math.isfinite(max_finite):
        problem, s = next(
            (p, s) for p, row, best in zip(problems, tau_rows, bests) if best is not None
            for s, t in zip(solvers, row) if t is not None and math.isinf(t / best)
        )
        raise ProfileError(f"performance ratio of {s} on {problem[0]}/{problem[1]} is not finite")
    if rho_bar_override is not None:
        if max_finite is not None and rho_bar_override <= max_finite:
            raise ProfileError(
                f"rho_max {rho_bar_override:.6g} does not exceed the"
                f" largest finite ratio {max_finite:.6g}"
            )
        rho_bar = rho_bar_override
    else:
        rho_bar = max(2.0, 2.0 * max_finite) if max_finite is not None else 2.0
        if not math.isfinite(rho_bar):
            raise ProfileError(
                f"the default plateau, twice the largest ratio {max_finite:.6g},"
                " is not finite: set rho_max to a plateau above that ratio"
            )
    tau = {(p, s): t for p, row in zip(problems, tau_rows) for s, t in zip(solvers, row)}
    rho = {
        (p, s): rho_bar if t is None else t / best
        for p, row, best in zip(problems, tau_rows, bests) for s, t in zip(solvers, row)
    }
    return RatioMatrix(problems, solvers, tau, rho, rho_bar)


# values that reach the edges of the ratio rules: zero and negative
# (nonpositive), 1e308 and 1e-308 (ratios and plateaus that overflow)
EDGE_VALUES = [0.0, -1.0, 1e308, 1e-308]
PLAIN_VALUES = [1.0, 2.0, 3.0, 0.5, 7.0, 12.0]


@st.composite
def stores_and_specs(draw):
    """A store text of 5 solvers (one tagged) on 2 x 4 problems, with
    entries and tokens absent at random, and a spec of 2-4 of them, with
    filters, a candidate list and rho_max drawn or not. In half of the
    stores, one value in twenty is an edge value."""
    edgy = draw(st.booleans())

    def value():
        return draw(st.sampled_from(EDGE_VALUES if edgy and draw(st.integers(0, 19)) == 0 else PLAIN_VALUES))

    pool = ["a", "b.v2", "c", "d", "e"]
    problems = [(c, f"p{i}") for c in ("c1", "c2") for i in range(4)]
    lines = []
    for solver in pool:
        for collection, problem in problems:
            if draw(st.integers(0, 11)) == 0:
                continue  # no result
            pairs = {"info": draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0]))}
            pairs.update((t, value()) for t in ("nfc", "n", "m") if draw(st.integers(0, 9)))
            pairs.setdefault("x", 1.0)  # a result has two pairs at least
            order = draw(st.permutations(list(pairs)))
            lines.append(f"{solver}%{collection}%{problem}" + "".join(f"%{t}={pairs[t]!r}" for t in order))
    solvers = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    spec = [f"solver {' '.join(solvers)}", f"performance {draw(st.sampled_from(['nfc', 'n']))}"]
    for _ in range(draw(st.integers(0, 2))):
        relation = draw(st.sampled_from(sorted(RELATIONS)))
        spec.append(f"problem {draw(st.sampled_from(['n', 'm']))} {relation} {value()!r}")
    rho_max = draw(st.sampled_from([None, 1.5, 2.0, 10.0, 1e308]))
    if rho_max is not None:
        spec.append(f"rho_max {rho_max!r}")
    candidates = draw(st.none() | st.lists(st.sampled_from([*problems, ("c3", "p0")]), unique=True))
    return "".join(line + "\n" for line in sorted(lines)), "\n".join(spec) + "\n", candidates


def outcome(call):
    """The result of ``call()``, or the text of the ProfileError it raises."""
    try:
        return call(), None
    except ProfileError as exc:
        return None, str(exc)


PAIR_SPEC = "solver a b\nperformance nfc\n"


@settings(max_examples=150, deadline=None)
@given(stores_and_specs())
# each error of the ratio rules: nonpositive, a ratio and a default plateau
# that overflow, a rho_max too low
@example(("a%c%p%info=0%nfc=0\nb%c%p%info=0%nfc=2\n", PAIR_SPEC, None))
@example((
    "a%c%p1%info=0%nfc=1e-308\na%c%p2%info=0%nfc=1e+308\n"
    "b%c%p1%info=0%nfc=1e+308\nb%c%p2%info=0%nfc=1e-308\n", PAIR_SPEC, None,
))
@example(("a%c%p%info=0%nfc=1\nb%c%p%info=0%nfc=1e+308\n", PAIR_SPEC, None))
@example(("a%c%p%info=0%nfc=1\nb%c%p%info=0%nfc=7\n", PAIR_SPEC + "rho_max 2\n", None))
def test_the_columnar_core_matches_the_dict_reference(case):
    store_text, spec_text, candidates = case
    spec = parse_spec(spec_text)
    ptok, override = spec.performance_token, spec.rho_bar_override
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dtbopt"
        path.write_text(store_text)
        got_warnings, want_warnings = [], []
        got = select(spec, StoreReader(path), candidates, got_warnings.append)
        want = reference_select(spec, StoreReader(path), candidates, want_warnings.append)
    assert (got.problems, got.solvers) == (want.problems, want.solvers)
    assert dict(got.values) == want.values
    assert got_warnings == want_warnings
    matrix, error = outcome(lambda: compute_ratios(got, ptok, override))
    expected, expected_error = outcome(lambda: reference_compute_ratios(want, ptok, override))
    # a table of dicts goes through the same columns
    assert outcome(lambda: compute_ratios(want, ptok, override))[1] == error == expected_error
    if expected is None:
        return
    assert matrix.problems == expected.problems and matrix.rho_bar == expected.rho_bar
    assert dict(matrix.tau) == expected.tau and dict(matrix.rho) == expected.rho
    assert compute_profiles(matrix) == bisect_profiles(expected)


def test_the_profile_core_holds_little_per_stored_entry(tmp_path):
    # 8 solvers x 2,000 problems read from a store file: the table keeps one
    # C double per needed value and the matrix one column per solver, not
    # a tuple per entry, dicts keyed by (problem, solver) or by grid point
    rng = random.Random(3)
    solvers = [f"s{i}" for i in range(8)]
    lines = [
        f"{s}%c%p{p:04d}%nfc={rng.randint(1, 5000)}%info={int(rng.random() < 0.1)}\n"
        for s in solvers
        for p in range(2000)
    ]
    path = tmp_path / "dtbopt"
    path.write_text("".join(lines))
    spec = parse_spec(f"solver {' '.join(solvers)}\nperformance nfc\n")
    tracemalloc.start()
    try:
        profiles = compute_profiles(compute_ratios(select(spec, StoreReader(path)), "nfc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(profiles) == 8
    # columns trace about 70 B per entry here, a tuple per entry about 190 B
    assert peak / len(lines) < 80


def test_entries_outside_the_candidate_list_cost_no_memory(tmp_path):
    # a pair-shaped call: 2 of 8 solvers on 100 listed problems. A store
    # with 20 times the entries, all outside the list, traces no more
    rng = random.Random(5)
    solvers = [f"s{i}" for i in range(8)]
    listed = [("c", f"p{p:05d}") for p in range(0, 2000, 20)]
    peaks = []
    for problems in (range(0, 2000, 20), range(2000)):
        path = tmp_path / f"dtbopt{len(problems)}"
        path.write_text("".join(
            f"{s}%c%p{p:05d}%nfc={rng.randint(1, 5000)}%info=0\n" for s in solvers for p in problems
        ))
        spec = parse_spec("solver s2 s5\nperformance nfc\n")
        tracemalloc.start()
        try:
            table = select(spec, StoreReader(path), listed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert table.problems == listed
    # a row for every problem of the two solvers traced about 50 B per
    # entry of the store; here it is under 0.01 B
    assert (peaks[1] - peaks[0]) / (8 * (2000 - 100)) < 1
