from __future__ import annotations

import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from libopt.errors import LiboptError
from libopt.hierarchy import (
    generate_indexes,
    locate_list,
    parse_list,
    verify,
)


def test_parse_list_with_comment_and_newlines():
    plist = parse_list("u1mt1 u1mt2  # easy ones\nu1mt3")
    assert plist.names == ("u1mt1", "u1mt2", "u1mt3")


def test_parse_list_ends_lines_at_newline_only():
    # other line breaks are blank space: a comment runs past them
    assert parse_list("p1 # note\x85p2\n").names == ("p1",)
    assert parse_list("p1\x85p2 # note\u2028p3\np4").names == ("p1", "p2", "p4")


def test_parse_list_empty():
    assert parse_list("").names == ()


def test_parse_list_rejects_bad_name():
    with pytest.raises(LiboptError):
        parse_list("bad-name")


def test_parse_list_deduplicates_with_warning():
    warnings = []
    plist = parse_list("a b a c b", warn=warnings.append)
    assert plist.names == ("a", "b", "c")
    assert len(warnings) == 2


list_text = st.lists(
    st.sampled_from(
        ["a", "b1", "_", " ", "\t", "\n", "\r", "\x85", "\u2028", "#", "-", ".", "\x00",
         "\xa0", "\u0663", "é"]
    )
).map("".join)


@settings(max_examples=300)
@given(st.text() | list_text)
def test_parse_list_returns_names_or_raises_a_libopt_error(text):
    try:
        plist = parse_list(text, warn=lambda message: None)
    except LiboptError:
        return
    assert len(set(plist.names)) == len(plist.names)
    assert all(re.fullmatch("[A-Za-z0-9_]+", name) for name in plist.names)


def _tree(root: Path, files: dict[str, str], links: dict[str, str] | None = None):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    for rel, target in (links or {}).items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.symlink_to(target)


def _driver(root: Path, rel: str):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("#!/bin/sh\nexit 0\n")
    os.chmod(path, 0o755)


@pytest.fixture
def fixture_root(tmp_path):
    root = tmp_path / "root"
    _tree(
        root,
        {
            "collections/toys/all.lst": "p1 p2 p3\n",
            "collections/toys/default.lst": "p1 p2\n",
            "solvers/fakea/toys/all.lst": "p1 p2 p3\n",
            "solvers/fakea/toys/default.lst": "p1\n",
            "solvers/fakeb/toys/all.lst": "p2\n",
        },
        links={"solvers/fakeb/toys/default.lst": "all.lst"},
    )
    _driver(root, "solvers/fakea/toys/fakea_toys")
    _driver(root, "solvers/fakeb/toys/fakeb_toys")
    generate_indexes(root)
    return root


def test_locate_list_search_order(tmp_path, fixture_root):
    wd = tmp_path / "wd"
    wd.mkdir()
    found = locate_list("fakea", "toys", "all", wd, fixture_root)
    assert found == fixture_root / "solvers/fakea/toys/all.lst"
    # working-directory list shadows the hierarchy
    (wd / "toys.all.lst").write_text("p9\n")
    assert locate_list("fakea", "toys", "all", wd, fixture_root) == wd / "toys.all.lst"
    # collection side is the last resort
    (fixture_root / "collections/toys/extra.lst").write_text("p3\n")
    assert (
        locate_list("fakea", "toys", "extra", wd, fixture_root)
        == fixture_root / "collections/toys/extra.lst"
    )
    assert locate_list("fakea", "toys", "nosuch", wd, fixture_root) is None


def test_generate_indexes_contents(fixture_root):
    assert (fixture_root / "collections/collections.lst").read_text() == "toys\n"
    assert (fixture_root / "solvers/solvers.lst").read_text() == "fakea\nfakeb\n"
    assert (fixture_root / "solvers/fakea/collections.lst").read_text() == "toys\n"


def test_generate_indexes_is_idempotent(fixture_root):
    before = {
        p: p.read_bytes()
        for p in fixture_root.rglob("*.lst")
    }
    generate_indexes(fixture_root)
    after = {p: p.read_bytes() for p in fixture_root.rglob("*.lst")}
    assert before == after


def test_generate_indexes_excludes_bin(fixture_root):
    (fixture_root / "solvers/fakea/bin").mkdir()
    generate_indexes(fixture_root)
    assert (fixture_root / "solvers/fakea/collections.lst").read_text() == "toys\n"


def test_generate_indexes_empty_solvers_dir(tmp_path):
    root = tmp_path / "root"
    (root / "collections").mkdir(parents=True)
    (root / "solvers").mkdir()
    generate_indexes(root)
    assert (root / "solvers/solvers.lst").read_text() == ""


def test_verify_complete_tree_is_clean(fixture_root):
    assert verify(fixture_root).findings == []


def test_verify_empty_tree_reports_only_the_missing_dirs(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    report = verify(root)
    messages = sorted(f.message for f in report.findings)
    assert messages == ["missing directory collections/", "missing directory solvers/"]


def test_verify_missing_driver(fixture_root):
    (fixture_root / "solvers/fakea/toys/fakea_toys").unlink()
    report = verify(fixture_root)
    assert any(
        "missing driver" in f.message and "fakea_toys" in f.message
        for f in report.errors
    )


def test_verify_non_executable_driver(fixture_root):
    os.chmod(fixture_root / "solvers/fakea/toys/fakea_toys", 0o644)
    report = verify(fixture_root)
    assert any("not executable" in f.message for f in report.errors)


def test_verify_missing_mandatory_lists(fixture_root):
    (fixture_root / "collections/toys/default.lst").unlink()
    (fixture_root / "solvers/fakeb/toys/all.lst").unlink()
    messages = [f.message for f in verify(fixture_root).errors]
    assert any("collections/toys/default.lst" in m for m in messages)
    assert any("solvers/fakeb/toys/all.lst" in m for m in messages)


def test_verify_solver_all_must_be_within_collection_all(fixture_root):
    (fixture_root / "solvers/fakeb/toys/all.lst").write_text("p2 p9\n")
    report = verify(fixture_root)
    assert any("'p9'" in f.message for f in report.errors)


def test_verify_default_must_be_within_all(fixture_root):
    (fixture_root / "collections/toys/default.lst").write_text("p1 p9\n")
    report = verify(fixture_root)
    assert any("'p9'" in f.message and "default.lst" in f.message for f in report.errors)


def test_verify_follows_default_symlink(fixture_root):
    # fakeb's default.lst is a symlink to all.lst and the tree is clean
    assert (fixture_root / "solvers/fakeb/toys/default.lst").is_symlink()
    assert verify(fixture_root).findings == []


def test_verify_stale_index_entry(fixture_root):
    (fixture_root / "solvers/solvers.lst").write_text("fakea\nfakeb\nghost\n")
    report = verify(fixture_root)
    assert any("stale entry 'ghost'" in f.message for f in report.errors)


def test_verify_unknown_collection_interface(fixture_root):
    idir = fixture_root / "solvers/fakea/mystery"
    idir.mkdir()
    generate_indexes(fixture_root)
    report = verify(fixture_root)
    assert any("no installed collection named 'mystery'" in f.message for f in report.errors)


def test_verify_reports_every_finding_in_order(fixture_root):
    (fixture_root / "collections/toys/default.lst").unlink()
    (fixture_root / "collections/toys/all.lst").write_text("p1 p2 p3 p1\n")
    (fixture_root / "solvers/fakeb/toys/all.lst").write_text("p2 p9\n")
    (fixture_root / "solvers/fakea/toys/default.lst").write_text("p1 p8\n")
    os.chmod(fixture_root / "solvers/fakea/toys/fakea_toys", 0o644)
    (fixture_root / "solvers/fakea/mystery").mkdir()
    (fixture_root / "solvers/solvers.lst").write_text("fakea\nfakeb\nghost\n")
    # each finding in its place: a collection's lists, then each solver
    # interface (missing lists before the driver), then the index lists
    assert [tuple(f) for f in verify(fixture_root).findings] == [
        ("error", "missing collections/toys/default.lst"),
        ("warning", f"duplicate entry 'p1' in {fixture_root / 'collections/toys/all.lst'}"),
        ("error", "solvers/fakea/mystery: no installed collection named 'mystery'"),
        ("error", "missing solvers/fakea/mystery/all.lst"),
        ("error", "missing solvers/fakea/mystery/default.lst"),
        ("error", "missing driver solvers/fakea/mystery/fakea_mystery"),
        ("error", "driver solvers/fakea/toys/fakea_toys is not executable"),
        ("error", "solvers/fakea/toys/default.lst: problem 'p8' not in all.lst"),
        ("error", "solvers/fakea/collections.lst: missing entry 'mystery'"),
        ("error", "solvers/fakeb/toys/all.lst: problem 'p9' not in collections/toys/all.lst"),
        ("error", "solvers/solvers.lst: stale entry 'ghost'"),
    ]
