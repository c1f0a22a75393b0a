"""Report schema round trips and the command-line surface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (conjugate_lift_at, families_to_json,
                      relation_from_code, sym_generators)
from slplab import cli, numerics, relalg
from slplab.cli import (MAX_CELLS, QUERY_OBJECT_CELLS, SAMPLE_OBJECT_CELLS,
                        STABILITY_OBJECT_CELLS, _build_cells,
                        _closure_queries, _collapse_cells,
                        _families_cells, _fit_cells, _gradlab_cells,
                        _isotypic_cells, _laws_cells, _parity_cells,
                        _stability_cells, _term_cells, build_parser, main)
from slplab.conjunction import PAIR_BLOCK
from slplab.queryspace import compute_families
from slplab.reports import Layout, Report, emit_report, render_report


# ------------------------------------------------------------------- reports

def test_report_round_trip_through_text():
    report = Report(check="demo", passed=True, max_deviation=0.25,
                    details={"worst": [1, 2, 3], "label": "x"},
                    provenance={"seed": 7})
    assert json.loads(render_report(report)) == report.to_dict()


def test_report_round_trip_through_file(tmp_path):
    report = Report(check="demo", passed=False, max_deviation=1.5,
                    details={"note": "failing on purpose"})
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert json.loads(path.read_text(encoding="utf-8")) == report.to_dict()


def test_render_is_deterministic_and_newline_terminated():
    report = Report(check="demo", passed=True, details={"b": 1, "a": 2})
    text = render_report(report)
    assert text == render_report(report)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert doc["pass"] is True  # serialized key is "pass"


def test_provenance_omitted_when_absent():
    doc = json.loads(render_report(Report(check="demo", passed=True)))
    assert "provenance" not in doc
    with_prov = Report(check="demo", passed=True, provenance={"seed": 0})
    assert json.loads(render_report(with_prov))["provenance"] == {"seed": 0}


def test_nan_and_inf_rejected_anywhere():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="details.x"):
            render_report(Report(check="demo", passed=True,
                                 details={"x": bad}))
        with pytest.raises(ValueError, match=r"deep\[1\]"):
            render_report(Report(check="demo", passed=True,
                                 details={"deep": [0.0, bad]}))
        with pytest.raises(ValueError):
            render_report(Report(check="demo", passed=True,
                                 max_deviation=bad))


def test_nan_walk_runs_only_after_json_refuses(monkeypatch):
    from slplab import reports
    walked = []
    walk = reports._reject_nan
    monkeypatch.setattr(reports, "_reject_nan",
                        lambda obj, path="$": walked.append(path)
                        or walk(obj, path))
    clean = Report(check="demo", passed=True, details={"x": [1.0, 2]})
    assert render_report(clean) == json.dumps(
        clean.to_dict(), indent=2, sort_keys=True) + "\n"
    assert not walked
    with pytest.raises(ValueError) as caught:
        render_report(Report(check="demo", passed=True,
                             details={"x": [0.0, math.nan]}))
    assert str(caught.value) == "NaN forbidden in reports (at $.details.x[1])"
    assert walked
    # the walk reads values, not keys: a NaN key keeps json's own error
    with pytest.raises(ValueError, match="Out of range float"):
        render_report(Report(check="demo", passed=True,
                             details={math.nan: 1.0}))


def test_layout_text_replaces_its_stand_in_at_any_depth():
    value = {"b": [1, 2.5], "a": "x"}

    def write(indent):
        text = json.dumps(value, indent=2, sort_keys=True)
        return [text.replace("\n", "\n" + indent)]

    def report(value):
        return Report(check="demo", passed=True, details={
            "v": value, "deep": [0, {"w": value}, value]})

    assert render_report(report(Layout(write))) == json.dumps(
        report(value).to_dict(), indent=2, sort_keys=True) + "\n"
    # NaN is still refused with its path, and other objects by json
    with pytest.raises(ValueError, match=r"details\.x"):
        render_report(Report(check="demo", passed=True,
                             details={"v": Layout(write), "x": math.nan}))
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_report(Report(check="demo", passed=True,
                             details={"v": object()}))
    # a string that json writes as the stand-in's text is refused
    with pytest.raises(ValueError, match="stand-in"):
        render_report(Report(check="demo", passed=True,
                             details={"v": Layout(write), "s": "\0layout\0"}))


def test_emit_failure_is_wrapped(tmp_path):
    report = Report(check="demo", passed=True)
    with pytest.raises(OSError, match="failed writing report"):
        emit_report(report, tmp_path / "missing_dir" / "report.json")


# ----------------------------------------------------------- CLI exit status

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_passing_check_exits_zero_and_prints_report(capsys):
    code, out, _ = run_cli(capsys, "relalg-laws", "--entities", "3",
                           "--exhaustive", "--pairs", "50", "--triples", "20")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "relalg_laws" and report["pass"]
    assert report["details"]["unary_relations_checked"] == 512
    assert report["provenance"]["seed"] == 0
    assert set(report["provenance"]) == {"config_hash", "seed", "version"}


def test_failing_check_exits_one_but_still_reports(capsys, tmp_path):
    store = tmp_path / "map.json"
    code, _, _ = run_cli(capsys, "build-slp", "--entities", "3",
                         "--relations", "1", "--seed", "3",
                         "--save", str(store))
    assert code == 0
    doc = json.loads(store.read_text())
    doc["matrix"][0] = [x + 0.5 for x in doc["matrix"][0]]
    store.write_text(json.dumps(doc))
    out_path = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify-slp", "--load", str(store),
                         "--out", str(out_path))
    assert code == 1
    report = json.loads(out_path.read_text())
    assert not report["pass"]
    assert report["max_deviation"] > 0.1


def malformed_maps(directory, fmt):
    """Rewritten maps that read as the intact map does, the unedited rewrite
    first, and maps each broken in one way that makes them unreadable.

    The CSV edits pin the acceptance set of csv.reader and float: a cell
    with an underscore between digits, a quoted cell and a cell with spaces
    around it read as before; a blank line, an empty file, a trailing comma,
    a '#' cell and a cell past csv's field size limit are unreadable.

    The base-relation edits pin what a pair of the sidecar may be: two
    integer indices in range, where a bool reads as 0 or 1 and a repeated
    pair once; a negative or too large index, a float (even 1.0), a string,
    a triple or a number in place of the pair list are unreadable."""
    directory.mkdir()
    good = directory / f"good.{fmt}"
    assert main(["build-slp", "--entities", "3", "--relations", "1",
                 "--seed", "3", "--save", str(good), "--fmt", fmt,
                 "--out", str(directory / "build.json")]) == 0
    if fmt == "json":
        doc = json.loads(good.read_text())
        sidecar, matrix = doc, doc.pop("matrix")
    else:
        sidecar = json.loads(Path(f"{good}.index.json").read_text())
        matrix = [[float(x) for x in line.split(",")]
                  for line in good.read_text().splitlines()]
    queries = sidecar["queries"]
    (relation,) = sidecar["base_relations"]
    pairs = relation["pairs"]
    assert pairs[0] != [1, 1] and [1, 1] in pairs

    def edit(name, queries=queries, matrix=matrix, drop=None, pairs=None):
        doc = {k: v for k, v in sidecar.items() if k != drop}
        if pairs is not None:
            doc["base_relations"] = [{**relation, "pairs": pairs}]
        if drop != "queries":
            doc["queries"] = queries
        path = directory / f"{name}.{fmt}"
        if fmt == "json":
            path.write_text(json.dumps({**doc, "matrix": matrix}))
        else:
            path.write_text("".join(",".join(map(repr, row)) + "\n"
                                    for row in matrix))
            Path(f"{path}.index.json").write_text(json.dumps(doc))
        return path

    truncated = edit("truncated")
    text_file = truncated if fmt == "json" else Path(f"{truncated}.index.json")
    text_file.write_text(text_file.read_text()[:-40])
    maps = [
        directory / f"missing.{fmt}",
        truncated,
        edit("dropped_query", queries[1:], matrix[1:]),
        edit("duplicate_replaces", [queries[0]] + queries[:-1]),
        edit("short_matrix", matrix=matrix[:-1]),
        edit("no_queries", drop="queries"),
        edit("duplicate_extra_row", queries + [queries[0]],
             matrix + [matrix[0]]),
        edit("query_not_a_triple", [queries[0][:2]] + queries[1:]),
        # (h, r, n) and (h, size, t) sit at the positions of (h, r + 1, 0)
        # and (h + 1, 0, t), the queries they replace
        edit("tail_off_the_grid", [[0, 0, 3] if q == [0, 1, 0] else q
                                   for q in queries]),
        edit("rel_off_the_grid", [[0, len(queries) // 9, 0]
                                  if q == [1, 0, 0] else q
                                  for q in queries]),
        edit("pairs_not_a_list", pairs=5),
    ]
    maps += [edit(f"pair_{i}", pairs=[bad] + pairs[1:]) for i, bad in
             enumerate(([-1, 0], [3, 0], [1.5, 0], [1.0, 0], ["a", 0],
                        [0, 0, 0]))]
    accepted = [edit("intact"),
                edit("bool_head", pairs=[[True, 1] if p == [1, 1] else p
                                         for p in pairs]),
                edit("repeated_pair", pairs=pairs + [pairs[0]])]
    if fmt == "csv":
        no_sidecar = edit("no_sidecar")
        Path(f"{no_sidecar}.index.json").unlink()
        maps.append(no_sidecar)

        def rewrite(name, change):
            path = edit(name)
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(change(lines)))
            return path

        def first_cell(lines, cell):
            head, rest = lines[0].split(",", 1)
            return [f"{cell(head)},{rest}"] + lines[1:]

        middle = len(matrix) // 2
        maps += [
            rewrite("blank_line", lambda ls: ls[:middle] + ["\n"] + ls[middle:]),
            rewrite("empty", lambda ls: []),
            rewrite("trailing_comma",
                    lambda ls: [ls[0].rstrip("\n") + ",\n"] + ls[1:]),
            rewrite("hash_cell", lambda ls: first_cell(ls, lambda c: "#")),
            # csv.reader raises csv.Error past its 131,072-character limit
            rewrite("long_cell",
                    lambda ls: first_cell(ls, lambda c: "1" * 140_000)),
        ]
        digits = re.compile(r"(\d)(\d)")
        assert digits.search(repr(matrix[0][0]))
        accepted += [
            rewrite("underscore", lambda ls: first_cell(
                ls, lambda c: digits.sub(r"\1_\2", c, count=1))),
            rewrite("quoted", lambda ls: first_cell(ls, lambda c: f'"{c}"')),
            rewrite("spaced", lambda ls: first_cell(ls, lambda c: f" {c} ")),
        ]
    return accepted, maps


def test_malformed_map_edits_are_the_only_fault(capsys, tmp_path):
    """The rewriting itself breaks nothing: an unedited rewrite passes, and
    so does each rewrite that reads as the intact map."""
    for fmt in ("json", "csv"):
        accepted, _ = malformed_maps(tmp_path / fmt, fmt)
        for path in accepted:
            code = main(["verify-slp", "--load", str(path), "--fmt", fmt,
                         "--out", str(tmp_path / f"verify-{fmt}.json")])
            assert capsys.readouterr().err == "", path
            assert code == 0, path


def test_verify_slp_charges_the_span_projector(capsys, tmp_path,
                                               monkeypatch):
    """The family kernel check forms the N x N span projector of the map
    verify-slp loads, so a map whose N^2 cells are over the budget is a
    usage error: exit 2, a message naming N, and no report."""
    store = tmp_path / "map.json"
    assert main(["build-slp", "--entities", "3", "--relations", "1",
                 "--seed", "3", "--save", str(store),
                 "--out", str(tmp_path / "build.json")]) == 0
    n_queries = len(json.loads(store.read_text())["queries"])
    out_path = tmp_path / "verify.json"
    argv = ["verify-slp", "--load", str(store), "--out", str(out_path)]
    monkeypatch.setattr(cli, "MAX_CELLS", n_queries ** 2 - 1)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and not out_path.exists()
    assert f"N = {n_queries} queries" in err
    monkeypatch.setattr(cli, "MAX_CELLS", n_queries ** 2)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and out_path.exists()


def test_isotypic_is_charged_its_stacked_lifts(capsys, tmp_path):
    """At n = 5 the 120 stacked lifts of the span, not the build, set the
    charge: 3 * 5! * w^2 cells for w = min(width, 30 * relations), so 10
    relations are admitted and 11 are a usage error, though the build of
    either size fits the budget many times over."""
    assert _isotypic_cells(5, 10, None, None) == 3 * 120 * 300 ** 2 \
        <= MAX_CELLS < _isotypic_cells(5, 11, None, None) == 3 * 120 * 330 ** 2
    assert 20 * _build_cells(5, 11, None, None) < MAX_CELLS
    # a narrow width bounds the span rank below the family count
    assert _isotypic_cells(5, 11, 100, None) == 3 * 120 * 100 ** 2
    out_path = tmp_path / "iso.json"
    code, _, err = run_cli(capsys, "isotypic", "--entities", "5",
                           "--relations", "11", "--out", str(out_path))
    assert code == 2 and not out_path.exists()
    assert "--entities 5 --relations 11 needs more than" in err
    # every factorial past 10 entities is over the budget on its own
    assert _isotypic_cells(10 ** 9, 1, 1, 1) > MAX_CELLS


def test_usage_errors_exit_two_without_reports(capsys, tmp_path):
    out_path = tmp_path / "never.json"
    missing_dir = tmp_path / "missing"
    cases = [
        ("no-such-command",),
        ("relalg-laws", "--no-such-flag"),
        ("gradlab",),                                  # --config required
        ("verify-slp",),                               # --load required
        ("isotypic", "--entities", "6", "--out", str(out_path)),
        ("audit", "--family", "99", "--out", str(out_path)),
        ("families", "--entities", "1", "--out", str(out_path)),
        ("families", "--entities", "0", "--out", str(out_path)),
        ("build-slp", "--density", "1.5", "--out", str(out_path)),
        ("collapse", "--atoms", "0", "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "0", "--out", str(out_path)),
        # the first sizes over the conjunction cell budget
        ("kernel-stability", "--atoms", "10", "--out", str(out_path)),
        ("kernel-stability", "--atoms", "8", "--worlds", "85",
         "--out", str(out_path)),
        ("kernel-stability", "--atoms", "1", "--worlds",
         str(stability_worlds_limit(1) + 1), "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "9", "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "6", "--worlds", "10", "--out", str(out_path)),
        # one world past the fit-bilinear limits at 5, 4 and 1 atoms
        ("fit-bilinear", "--atoms", "5", "--worlds", str(fit_worlds_limit(5) + 1),
         "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "4", "--worlds", str(fit_worlds_limit(4) + 1),
         "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "1", "--worlds", str(fit_worlds_limit(1) + 1),
         "--out", str(out_path)),
        # one dim past the collapse limits at 1 and 8 atoms, and 2^22 atoms
        ("collapse", "--atoms", "1", "--dim", str(collapse_dim_limit(1) + 1),
         "--out", str(out_path)),
        ("collapse", "--atoms", "8", "--dim", str(collapse_dim_limit(8) + 1),
         "--out", str(out_path)),
        ("collapse", "--atoms", str(2 ** 22), "--dim", "1",
         "--out", str(out_path)),
        # 2^25 relations held at once
        ("relalg-laws", "--entities", "5", "--exhaustive",
         "--out", str(out_path)),
        # 64 literals: over the cell budget, and past the 25-literal cap
        ("kernel-stability", "--atoms", "32", "--depth", "1",
         "--out", str(out_path)),
        ("isotypic", "--context-dim", "0", "--out", str(out_path)),
        ("relalg-laws", "--pairs", "-5", "--out", str(out_path)),
        # the first relalg-laws sizes over the cell budget: 10^10 bits per
        # relation, 10^12 pairs, and 32 entities at the default counts
        ("relalg-laws", "--entities", "100000", "--pairs", "1",
         "--triples", "1", "--out", str(out_path)),
        ("relalg-laws", "--pairs", str(10 ** 12), "--out", str(out_path)),
        ("relalg-laws", "--entities", "32", "--out", str(out_path)),
        # rejected at parse time, before the build
        ("audit", "--family", "-1", "--out", str(out_path)),
        # both draws of r0 are empty at this density: a usage error
        ("families", "--entities", "2", "--density", "0.01",
         "--out", str(out_path)),
        ("collapse", "--seed", "-1", "--out", str(out_path)),
        # tolerances are finite and non-negative, --eta finite and nonzero
        ("isotypic", "--tol", "nan", "--out", str(out_path)),
        ("isotypic", "--tol", "1e400", "--out", str(out_path)),
        ("parity", "--tol", "-1", "--out", str(out_path)),
        ("fit-bilinear", "--tol", "inf", "--out", str(out_path)),
        ("collapse", "--tolerance", "nan", "--out", str(out_path)),
        ("collapse", "--tolerance", "-1e-8", "--out", str(out_path)),
        ("audit", "--eta", "nan", "--out", str(out_path)),
        ("audit", "--eta", "-inf", "--out", str(out_path)),
        ("audit", "--eta", "0", "--out", str(out_path)),
        ("audit", "--eta", "-0.0", "--out", str(out_path)),
        # an unwritable output path is a usage error, not a failed check
        ("families", "--out", str(missing_dir / "r.json")),
        ("build-slp", "--save", str(missing_dir / "m.json"),
         "--out", str(out_path)),
        ("build-slp", "--save", str(missing_dir / "m.csv"), "--fmt", "csv",
         "--out", str(out_path)),
        ("gradlab", "--config", str(write_config(tmp_path / "good")),
         "--histogram", str(missing_dir / "h.csv"), "--out", str(out_path)),
        # the first sizes over the build and families cell budget, checked
        # before any draw
        ("build-slp", "--entities", "3", "--relations", "1",
         "--context-dim", "932068", "--out", str(out_path)),
        ("build-slp", "--entities", "3", "--relations", "1",
         "--context-dim", "100000000000", "--out", str(out_path)),
        ("build-slp", "--entities", "33", "--out", str(out_path)),
        ("factorize", "--entities", "46", "--relations", "1",
         "--out", str(out_path)),
        ("isotypic", "--entities", "3", "--relations", "1",
         "--context-dim", "932068", "--out", str(out_path)),
        ("parity", "--entities", "33", "--out", str(out_path)),
        ("audit", "--entities", "33", "--out", str(out_path)),
        ("families", "--entities", "257", "--out", str(out_path)),
        ("families", "--entities", "363", "--relations", "1",
         "--out", str(out_path)),
        ("families", "--entities", "1024", "--out", str(out_path)),
        ("families", "--entities", "100000", "--out", str(out_path)),
        # each query's charge shares the budget
        ("build-slp", "--entities", "1024", "--relations", "8",
         "--context-dim", "1", "--out", str(out_path)),
        ("build-slp", "--entities", "5", "--relations", "3000",
         "--context-dim", "1", "--out", str(out_path)),
        ("build-slp", "--entities", "257", "--context-dim", "1",
         "--out", str(out_path)),
        # the v factors of the default terms: the first relation count
        # over the budget at 3 entities and width 1
        ("build-slp", "--entities", "3", "--relations", "1017",
         "--context-dim", "1", "--out", str(out_path)),
        # the kept terms of every build command share the budget
        ("audit", "--entities", "3", "--relations", "1", "--terms", "123362",
         "--context-dim", "9", "--out", str(out_path)),
        ("isotypic", "--terms", str(10 ** 18), "--out", str(out_path)),
    ]
    bad_configs = [
        {"epochs": "ten"}, {"epochs": -3}, {"epochs": 2.0}, {"epochs": True},
        {"entity_count": 1}, {"relations": 0}, {"hidden": 0}, {"seed": -1},
        {"seed": "0"}, {"density": 0.0}, {"density": 1.0}, {"density": None},
        {"lr": 0.0}, {"lr": -0.1}, {"lr": float("inf")}, {"lr": "0.1"},
        {"eta": float("nan")}, {"eta": False}, {"eta": 10 ** 400},
        # a zero edit step passes the slp_linear verdict vacuously
        {"eta": 0}, {"eta": -0.0},
        # each size alone over the cell budget, for both scorers
        {"hidden": 10 ** 9}, {"entity_count": 10 ** 6}, {"relations": 10 ** 9},
        {"arch": "mlp", "hidden": 10 ** 9},
        {"arch": "mlp", "entity_count": 10 ** 4},
        {"arch": "mlp", "relations": 10 ** 7},
    ]
    for i, overrides in enumerate(bad_configs):
        config = write_config(tmp_path / f"bad{i}", **overrides)
        cases.append(("gradlab", "--config", str(config), "--out", str(out_path)))
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    # json.loads refuses integers past Python's int/str digit limit
    huge_int = tmp_path / "huge_int.json"
    huge_int.write_text(write_config(tmp_path / "huge").read_text()
                        .replace('"epochs": 5', '"epochs": ' + "9" * 5000))
    too_deep = tmp_path / "too_deep.json"
    too_deep.write_text("[" * 100000 + "]" * 100000)
    for config in (not_an_object, huge_int, too_deep):
        cases.append(("gradlab", "--config", str(config),
                      "--out", str(out_path)))
    cases.append(("verify-slp", "--load", str(too_deep),
                  "--out", str(out_path)))
    for fmt in ("json", "csv"):
        (intact, *_), malformed = malformed_maps(tmp_path / fmt, fmt)
        for path in malformed:
            cases.append(("verify-slp", "--load", str(path), "--fmt", fmt,
                          "--out", str(out_path)))
        for tol in ("nan", "-1"):
            cases.append(("verify-slp", "--load", str(intact), "--fmt", fmt,
                          "--tol", tol, "--out", str(out_path)))
    for argv in cases:
        code = main(list(argv))
        assert "Warning" not in capsys.readouterr().err, argv
        assert code == 2, argv
        assert not out_path.exists(), argv
        assert not missing_dir.exists(), argv


def _required(flag, values):
    """The flag with one of `values`."""
    return st.sampled_from(values).map(lambda v: (flag, str(v)))


def _option(flag, values):
    """Either no flag or the flag with one of `values`."""
    return st.one_of(st.just(()), _required(flag, values))


def _switch(*flags):
    return st.sampled_from([()] + [(f,) for f in flags])


def _command(name, *parts):
    return st.tuples(st.just((name,)), *parts).map(
        lambda groups: tuple(arg for group in groups for arg in group))


_SIZES = range(-1, 4)
_DENSITIES = (-0.5, 0.0, 0.01, 0.3, 0.5, 0.9, 1.0, 1.5, "x")
_SEEDS = (-1, 0, 1, 2)
_TOLS = (-1.0, -1e-12, 0.0, 1e-8, 1.0, "nan", "inf", "-inf", "1e400", "x")
# every value past 2 is over the cell budget at any size
_TERMS = (-1, 0, 1, 2, 10 ** 9, 10 ** 18)
# gradlab configs, drawn as JSON text that the test writes to a file: a
# valid config with up to two sizes or values replaced by out-of-range ones
# or ones over the cell budget
_GRADLAB_CONFIGS = st.tuples(
    st.fixed_dictionaries({
        "entity_count": st.sampled_from((2, 3)),
        "relations": st.sampled_from((1, 2)),
        "hidden": st.sampled_from((1, 9)),
        "arch": st.sampled_from(("mlp", "slp_linear")),
        "density": st.just(0.5), "epochs": st.sampled_from((0, 3)),
        "lr": st.just(0.1), "eta": st.just(0.1),
        "block": st.sampled_from(("all", "head"))}),
    st.lists(st.sampled_from((
        ("entity_count", 1), ("entity_count", 10 ** 6), ("relations", 0),
        ("relations", 10 ** 9), ("hidden", 0), ("hidden", 10 ** 9),
        ("density", 0.0), ("epochs", -1), ("eta", 0))), max_size=2),
).map(lambda drawn: json.dumps({**drawn[0], **dict(drawn[1])}))

CLI_ARGVS = st.one_of(
    _command("families", _option("--entities", range(-1, 5)),
             _option("--relations", _SIZES), _option("--density", _DENSITIES),
             _option("--seed", _SEEDS)),
    # the default 10^4 pairs would take a second; both counts are always set
    _command("relalg-laws", _option("--entities", _SIZES),
             _required("--pairs", range(-2, 30)),
             _required("--triples", range(-2, 10)), _switch("--exhaustive"),
             _option("--seed", _SEEDS)),
    _command("collapse", _option("--atoms", range(-1, 5)),
             _option("--dim", range(-1, 6)),
             _switch("--neg-equiv", "--no-neg-equiv"),
             _option("--tolerance", _TOLS),
             _option("--seed", _SEEDS)),
    _command("build-slp", _option("--entities", _SIZES),
             _option("--relations", range(-1, 3)),
             _option("--density", _DENSITIES),
             _option("--context-dim", range(-1, 12)),
             _option("--terms", _TERMS),
             _option("--parity", ("+", "-", "both", "x")),
             _option("--fmt", ("json", "csv")),
             _option("--save", ("map.out",)), _option("--seed", _SEEDS)),
    _command("kernel-stability", _option("--atoms", _SIZES),
             _option("--worlds", range(-1, 9)),
             _option("--depth", _SIZES), _option("--seed", _SEEDS)),
    # narrow maps (context-dim < 9 at n = 3) fail; wide ones pass
    _command("isotypic", _option("--entities", _SIZES),
             _option("--relations", range(-1, 3)),
             _option("--context-dim", range(-1, 21)),
             _option("--tol", _TOLS), _option("--seed", _SEEDS)),
    _command("parity", _option("--entities", _SIZES),
             _option("--parity", ("+", "-", "both")),
             _option("--terms", _TERMS),
             _option("--tol", _TOLS), _option("--seed", _SEEDS)),
    _command("fit-bilinear", _option("--atoms", _SIZES),
             _option("--worlds", range(-1, 5)),
             _option("--depth", _SIZES),
             _option("--tol", _TOLS), _option("--seed", _SEEDS)),
    _command("audit", _option("--entities", _SIZES),
             _option("--family", range(-1, 12)),
             _option("--eta", (-0.5, 0.0, 0.1) + _TOLS[5:]),
             _option("--seed", _SEEDS)),
    _command("verify-slp", _required("--load", ("map.in",)),
             _option("--tol", _TOLS)),
    _command("gradlab", _GRADLAB_CONFIGS.map(lambda text: ("--config", text)),
             _option("--seed", _SEEDS)),
)


@pytest.fixture(scope="module")
def stored_map(tmp_path_factory):
    """A built map for the verify-slp draws, outside each draw's scratch."""
    path = tmp_path_factory.mktemp("stored") / "map.json"
    assert main(["build-slp", "--save", str(path),
                 "--out", str(path.with_name("build.json"))]) == 0
    return path


@given(argv=CLI_ARGVS)
# a symmetric closure makes every '-' factor zero, so the span is empty
@example(argv=("factorize", "--entities", "2", "--relations", "1",
               "--parity", "-", "--seed", "0"))
# three equal base relations, whose closure holds two relations
@example(argv=("gradlab", "--config", json.dumps({
    "entity_count": 2, "relations": 3, "hidden": 9, "arch": "slp_linear",
    "density": 0.5, "epochs": 3, "lr": 0.1, "eta": 0.1, "block": "all"}),
    "--seed", "61"))
@settings(max_examples=300)
def test_exit_code_contract_over_argument_ranges(stored_map, argv):
    with tempfile.TemporaryDirectory() as scratch, \
            tempfile.TemporaryDirectory() as inputs:
        out_path = Path(scratch) / "report.json"

        def place(arg):
            if arg == "map.out":
                return Path(scratch, arg).as_posix()
            if arg == "map.in":
                return str(stored_map)
            if arg.startswith("{"):  # a gradlab config, kept out of scratch
                config = Path(inputs, "config.json")
                config.write_text(arg)
                return str(config)
            return arg

        argv = [place(a) for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main([*argv, "--out", str(out_path)])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert os.listdir(scratch) == [], argv
        else:
            assert out_path.exists(), argv


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip()


# ------------------------------------------------------------ seed resolution

def test_seed_falls_back_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("SLPLAB_SEED", "42")
    code, out, _ = run_cli(capsys, "families", "--entities", "3",
                           "--relations", "1")
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 42


def test_explicit_seed_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("SLPLAB_SEED", "42")
    code, out, _ = run_cli(capsys, "families", "--entities", "3",
                           "--relations", "1", "--seed", "5")
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 5


def test_garbage_environment_seed_is_a_usage_error(capsys, monkeypatch):
    for garbage in ("not-a-number", "-3"):
        monkeypatch.setenv("SLPLAB_SEED", garbage)
        code, _, err = run_cli(capsys, "families", "--entities", "3",
                               "--relations", "1")
        assert code == 2
        assert "SLPLAB_SEED" in err


def test_same_seed_gives_byte_identical_reports(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["factorize", "--entities", "3", "--relations", "1", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    other = tmp_path / "c.json"
    assert main(argv[:-1] + ["10", "--out", str(other)]) == 0
    capsys.readouterr()
    assert a.read_bytes() != other.read_bytes()


# ------------------------------------------------------------- subcommands

def test_families_report_holds_the_partition(capsys, tmp_path):
    out_path = tmp_path / "families.json"
    code, out, _ = run_cli(capsys, "families", "--entities", "3",
                           "--relations", "1", "--seed", "0",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""  # the report file is the one product
    report = json.loads(out_path.read_text())
    partition = report["details"]["families"]
    assert report["details"]["n_families"] == len(partition)
    for family in partition:
        members = [m["query"] for m in family["members"]]
        assert family["representative"] in members
        signs = {m["sign"] for m in family["members"]}
        assert signs == {1, -1}
    total = sum(len(f["members"]) for f in partition)
    assert total == report["details"]["n_queries"]


@st.composite
def drawn_closures(draw):
    """The closure of 1 to 3 base relations on 2 to 7 entities, each drawn
    by its bit code and, when a drawn flag says so, joined with its
    converse, so that some families are size-2 orbits."""
    n = draw(st.integers(2, 7))
    base = []
    for _ in range(draw(st.integers(1, 3))):
        r = relation_from_code(n, draw(st.integers(0, (1 << n * n) - 1)))
        if draw(st.booleans()):
            r = relalg.Relation(r.entity_set, r.matrix | r.matrix.T)
        base.append(r)
    return relalg.close_unary(base)


@given(algebra=drawn_closures())
def test_families_report_is_json_dumps_of_the_reference(algebra):
    # the partition is written straight from the (F, 4) array; the bytes,
    # to a file and to stdout, are json.dumps of the document that holds
    # one dict per family and member in its place
    argv = ["families", "--entities", str(algebra.entity_set.n),
            "--relations", str(len(algebra.base))]
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as tmp:
        patch.setattr(cli, "_random_algebra", lambda *_: algebra)
        out_path = Path(tmp) / "families.json"
        assert main(argv + ["--out", str(out_path)]) == 0
        written = out_path.read_text(encoding="utf-8")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
    assert sink.getvalue() == written
    doc = json.loads(written)
    doc["details"]["families"] = families_to_json(compute_families(algebra),
                                                  algebra)
    assert written == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc["details"]["n_families"] == len(doc["details"]["families"])


def test_build_then_verify_round_trip(capsys, tmp_path):
    for fmt in ("json", "csv"):
        store = tmp_path / f"map.{fmt}"
        code, out, _ = run_cli(capsys, "build-slp", "--entities", "3",
                               "--relations", "1", "--seed", "1",
                               "--fmt", fmt, "--save", str(store))
        assert code == 0
        built = json.loads(out)
        assert built["details"]["equivariance"]["max_deviation"] == 0.0
        code, out, _ = run_cli(capsys, "verify-slp", "--load", str(store),
                               "--fmt", fmt)
        assert code == 0
        verified = json.loads(out)
        assert verified["details"]["slp_rank"]["pass"] is True
        assert verified["details"]["kernel_decomposition"]["pass"] is True


def test_factorize_reports_pure_minus_split(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--entities", "3",
                           "--relations", "1", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    split = report["details"]["negation_split"]
    assert split["plus_dim"] == 0
    assert split["minus_dim"] == split["span_dim"] > 0


def test_isotypic_image_dims_fill_the_span(capsys):
    code, out, _ = run_cli(capsys, "isotypic", "--entities", "3",
                           "--relations", "1", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    dims = [entry["image_dim"] for entry in report["details"]["irreps"]]
    assert sum(dims) == report["details"]["properties"]["span_dim"]
    assert report["max_deviation"] <= 1e-8


@pytest.mark.parametrize("entities,relations", [("3", "1"), ("4", "2")])
def test_failing_isotypic_names_its_property_and_offender(capsys, entities,
                                                         relations):
    """At --tol 1e-30 rounding fails the check: the report names the
    property at max_deviation and what set it; the passing report of the
    same map differs from it only in those fields, the verdict and --tol."""
    argv = ("isotypic", "--entities", entities, "--relations", relations,
            "--seed", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    passing = json.loads(out)
    assert "failing_property" not in passing["details"]
    assert "offender" not in passing["details"]
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    details = report["details"]
    name = details.pop("failing_property")
    offender = details.pop("offender")
    props = details["properties"]
    assert props[name] == report["max_deviation"] > 1e-30
    assert all(props[k] <= props[name] for k in (
        "idempotence", "annihilation", "completeness_on_span",
        "commutation", "orthogonality"))
    irreps = [entry["partition"] for entry in details["irreps"]]
    expected = {"idempotence": {"irrep"}, "annihilation": {"irreps"},
                "completeness_on_span": set(),
                "commutation": {"irrep", "renaming"},
                "orthogonality": {"renaming"}}[name]
    assert set(offender) == expected
    for lam in [offender.get("irrep")] + offender.get("irreps", []):
        assert lam is None or lam in irreps
    if "renaming" in offender:
        assert sorted(offender["renaming"]["perm"]) == \
            list(range(int(entities)))
    # the provenance hashes the --tol given
    details["tol"] = passing["details"]["tol"]
    assert {**report, "pass": True, "details": details,
            "provenance": passing["provenance"]} == passing


def test_isotypic_sees_a_fault_at_a_non_generator(capsys, monkeypatch):
    """The lift of the 3-cycle (0 1 2), not a generator, is replaced by an
    orthogonal matrix of the same trace, so only its class sum is wrong:
    commutation with the generators fails the report and names one."""
    conjugate_lift_at(monkeypatch, (1, 2, 0, 3))
    code, out, _ = run_cli(capsys, "isotypic", "--entities", "4",
                           "--relations", "1", "--seed", "2")
    assert code == 1
    details = json.loads(out)["details"]
    tol = details["tol"]
    props = details["properties"]
    assert props["commutation"] > tol >= props["orthogonality"]
    assert details["failing_property"] == "commutation"
    assert tuple(details["offender"]["renaming"]["perm"]) in sym_generators(4)


@pytest.mark.parametrize("context_dim", ["1", "2", "4"])
def test_isotypic_on_a_narrow_map_names_the_renaming(capsys, context_dim):
    """Below 9 features at n = 3 the span is not renaming-invariant."""
    code, out, err = run_cli(capsys, "isotypic", "--entities", "3",
                             "--relations", "1", "--context-dim",
                             context_dim, "--seed", "1")
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["pass"] is False
    renaming = report["details"]["renaming"]
    assert sorted(renaming["perm"]) == [0, 1, 2]
    assert renaming["perm"] != [0, 1, 2] and renaming["sign"] == 1
    assert report["max_deviation"] > 1e-8


def test_parity_cross_residual_is_zero_for_builds(capsys):
    code, out, _ = run_cli(capsys, "parity", "--entities", "3",
                           "--relations", "1", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["max_deviation"] == 0.0
    n = 3
    assert report["details"]["pair_space_dims"] == \
        [n * (n + 1) // 2, n * (n - 1) // 2]


def test_conjunction_cell_budget_admits_eight_atoms():
    # sizes are compared, never run: the largest accepted ones take seconds
    # kernel-stability: the arrays it holds, summed; five N x worlds
    # arrays, the SVD's factors, three N-long index arrays, the image table
    # and the run's objects
    def held(n, worlds, table):
        return (5 * n * worlds + min(n, worlds) * (n + worlds) + 3 * n
                + table + STABILITY_OBJECT_CELLS)

    assert _stability_cells(6, 8, 2) == held(4095, 8, 4 ** 6) <= MAX_CELLS
    assert _stability_cells(1, 10, 2) == held(3, 10, 4)
    assert [stability_worlds_limit(atoms) for atoms in range(1, 11)] == \
        [1863906, 372778, 88746, 21885, 5294, 1296, 339, 84, 20, 4]
    assert _stability_cells(11, 1, 2) > MAX_CELLS
    # 18 cells a world at 1 atom, 6 N past N worlds
    assert _stability_cells(1, 2000, 2) - _stability_cells(1, 1000, 2) == \
        18 * 1000
    assert _stability_cells(3, 2000, 2) - _stability_cells(3, 1000, 2) == \
        6 * 63 * 1000
    assert _stability_cells(1, 10 ** 8, 2) > MAX_CELLS
    # fit-bilinear: 2 atoms passes over the N x worlds features, 24 cells a
    # world, the N x m prefix counts, or the compressed fit's arrays, for
    # m = min(N, 2^worlds, 3^atoms) distinct rows and c = min(worlds,
    # 2^atoms) classes: 10 m^2 c cells and 3 m min(m, c) c^2; never the
    # N(N+1)/2 pairs, one design row per row pair, nor worlds^3 cells
    # ... and, beside any of them, the 4^atoms-entry image table
    def fit(m, c):
        return 10 * m * m * c + 3 * m * min(m, c) * c * c

    assert _fit_cells(6, 8, 2) == fit(256, 8) + 4 ** 6 <= MAX_CELLS
    assert _fit_cells(8, 8, 2) == 65535 * 256 + 4 ** 8 <= MAX_CELLS
    assert _fit_cells(8, 9, 2) == 65535 * 512 + 4 ** 8 > MAX_CELLS
    assert _fit_cells(9, 8, 2) == 262143 * 256 + 4 ** 9 > MAX_CELLS
    assert _fit_cells(9, 7, 2) == 262143 * 128 + 4 ** 9 > MAX_CELLS
    assert _fit_cells(9, 6, 2) == 262143 * 108 + 4 ** 9 <= MAX_CELLS
    assert _fit_cells(10, 1, 2) == 20 * 1048575 + 4 ** 10 <= MAX_CELLS
    assert _fit_cells(10, 2, 2) > MAX_CELLS
    assert _fit_cells(6, 9, 2) == fit(512, 9) + 4 ** 6 <= MAX_CELLS
    assert _fit_cells(6, 10, 2) == fit(729, 10) + 4 ** 6 > MAX_CELLS
    assert _fit_cells(5, 16, 2) == fit(243, 16) + 4 ** 5 <= MAX_CELLS
    assert _fit_cells(5, 28, 2) == fit(243, 28) + 4 ** 5 <= MAX_CELLS
    assert _fit_cells(5, 29, 2) > MAX_CELLS
    assert _fit_cells(4, 23, 2) == fit(81, 16) + 4 ** 4 <= MAX_CELLS
    # past 2^atoms worlds the fit's arrays stop growing, and only the
    # per-world terms grow: the passes over the features from 2 atoms on,
    # the 24 cells a world at 1 atom
    assert _fit_cells(4, 4000, 2) - _fit_cells(4, 2000, 2) == \
        2 * 4 * 255 * 2000
    assert _fit_cells(1, 200000, 2) - _fit_cells(1, 100000, 2) == \
        24 * 100000
    assert [fit_worlds_limit(atoms) for atoms in range(1, 11)] == \
        [1398101, 559240, 88768, 16448, 28, 9, 9, 8, 6, 1]
    # one prefix-count block, never less: PAIR_BLOCK cells
    assert _fit_cells(2, 4, 2) == PAIR_BLOCK + 4 ** 2
    assert _fit_cells(1, 1398101, 2) == 24 * 1398101 + 4 <= MAX_CELLS
    assert _fit_cells(1, 1398102, 2) > MAX_CELLS
    assert _fit_cells(1, 10 ** 8, 2) > MAX_CELLS
    assert _stability_cells(10 ** 9, 1, 2) > MAX_CELLS
    # depth >= 2 closes to the same support as depth 2
    assert _fit_cells(8, 8, 3) == _fit_cells(8, 8, 2)
    assert _stability_cells(8, 8, 5) == _stability_cells(8, 8, 2)


def test_conjunction_cell_budget_charges_depth_one_its_literals():
    # depth 1: the 2 atoms literals, and beside them the 4^atoms-entry
    # image table indexed by literal code, which outweighs them
    assert _fit_cells(12, 8, 1) == 4 ** 12 + 10 * 24 * 24 * 8 \
        + 3 * 24 * 8 * 8 * 8 <= MAX_CELLS < _fit_cells(12, 8, 2)
    assert _fit_cells(13, 1, 1) == 4 ** 13 + PAIR_BLOCK > MAX_CELLS
    assert _stability_cells(12, 8, 1) == 4 ** 12 + 5 * 24 * 8 + 8 * 32 \
        + 3 * 24 + STABILITY_OBJECT_CELLS <= MAX_CELLS < \
        _stability_cells(12, 8, 2)
    assert _stability_cells(13, 1, 1) > 4 ** 13 > MAX_CELLS
    assert _stability_cells(2, 100, 1) == 5 * 4 * 100 + 4 * 104 + 3 * 4 \
        + 16 + STABILITY_OBJECT_CELLS
    assert _fit_cells(5, 8, 1) == PAIR_BLOCK + 4 ** 5
    assert _fit_cells(1, 1398101, 1) <= MAX_CELLS < _fit_cells(1, 1398102, 1)
    assert _stability_cells(10 ** 9, 1, 1) > MAX_CELLS


@pytest.mark.parametrize("command", ["fit-bilinear", "kernel-stability"])
def test_conjunction_at_depth_one_runs_at_twelve_atoms_and_refuses_13(
        capsys, tmp_path, command):
    code, out, _ = run_cli(capsys, command, "--atoms", "12", "--depth", "1",
                           "--worlds", "8", "--seed", "0")
    assert code == 0 and json.loads(out)["pass"] is True
    # 26 literals: the image table is over the charge, exit 2, no report
    out_path = tmp_path / "depth1.json"
    code, out, err = run_cli(capsys, command, "--atoms", "13", "--depth",
                             "1", "--out", str(out_path))
    assert code == 2 and not out and "cell budget" in err
    assert not out_path.exists()


def test_fit_bilinear_runs_at_eight_atoms_and_refuses_nine(capsys,
                                                          tmp_path):
    # the product law counts the 65535 x 65536 / 2 pairs without a walk
    code, out, _ = run_cli(capsys, "fit-bilinear", "--atoms", "8",
                           "--worlds", "8", "--seed", "0")
    assert code == 0
    details = json.loads(out)["details"]
    assert details["n_constraints"] == 65535 * 65536 // 2
    assert details["n_pairs_skipped"] == 0
    # the first shape over the charge at 8 worlds: exit 2, no report
    out_path = tmp_path / "fit9.json"
    code, out, err = run_cli(capsys, "fit-bilinear", "--atoms", "9",
                             "--worlds", "8", "--out", str(out_path))
    assert code == 2 and not out and "cell budget" in err
    assert not out_path.exists()


def test_fit_bilinear_passes_at_its_residual_and_fails_below_it(capsys):
    # the pass bound is max_residual <= --tol: a --tol equal to a run's
    # nonzero residual passes, and half of it fails with the report written
    argv = ("fit-bilinear", "--atoms", "3", "--worlds", "8", "--seed", "0")
    code, out, _ = run_cli(capsys, *argv)
    residual = json.loads(out)["details"]["max_residual"]
    assert code == 0 and 0.0 < residual <= 1e-9
    code, out, _ = run_cli(capsys, *argv, "--tol", repr(residual))
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(capsys, *argv, "--tol", repr(residual / 2))
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["details"]["max_residual"] == residual


def test_isotypic_passes_at_its_deviation_and_fails_below_it(capsys):
    # the pass bound is the worst property <= --tol: a --tol equal to a
    # run's nonzero deviation passes, and half of it fails, naming the
    # property at the maximum
    argv = ("isotypic", "--entities", "3", "--relations", "1", "--seed", "0")
    code, out, _ = run_cli(capsys, *argv)
    worst = json.loads(out)["max_deviation"]
    assert code == 0 and 0.0 < worst <= numerics.PROJECTOR_TOL
    code, out, _ = run_cli(capsys, *argv, "--tol", repr(worst))
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(capsys, *argv, "--tol", repr(worst / 2))
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["max_deviation"] == worst
    details = report["details"]
    assert details["properties"][details["failing_property"]] == worst


def largest_within_budget(cells) -> int:
    """The largest n >= 1 whose cells(n), growing with n, fit the budget."""
    lo, hi = 1, 2
    while cells(hi) <= MAX_CELLS:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if cells(mid) <= MAX_CELLS else (lo, mid)
    return lo


def collapse_dim_limit(atoms: int) -> int:
    return largest_within_budget(lambda dim: _collapse_cells(atoms, dim))


def fit_worlds_limit(atoms: int) -> int:
    return largest_within_budget(lambda worlds: _fit_cells(atoms, worlds, 2))


def stability_worlds_limit(atoms: int) -> int:
    return largest_within_budget(
        lambda worlds: _stability_cells(atoms, worlds, 2))


def test_readme_quotes_the_stability_worlds_limits():
    # the kernel-stability worlds limits in the README are the charge's own
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    found = re.search(r"`kernel-stability` takes `--worlds` up to ([\d,]+) "
                      r"at 1 atom, ([\d,]+) at 2, ([\d,]+) at 3, ([\d,]+) at "
                      r"8, ([\d,]+) at 9 and ([\d,]+) at 10", text)
    assert found, "README.md no longer quotes the kernel-stability limits"
    quoted = [int(x.replace(",", "")) for x in found.groups()]
    assert quoted == [stability_worlds_limit(atoms)
                      for atoms in (1, 2, 3, 8, 9, 10)]


@pytest.mark.parametrize("atoms", [1, 2])
def test_stability_traced_peak_is_within_its_charge(capsys, atoms):
    # the largest admitted worlds at 1 and 2 atoms, where the N x worlds
    # arrays are largest against the rest; a first small run does the
    # imports that the first command of a process makes
    assert run_cli(capsys, "kernel-stability", "--atoms", "1", "--worlds",
                   "4")[0] == 0
    worlds = stability_worlds_limit(atoms)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "kernel-stability", "--atoms",
                               str(atoms), "--worlds", str(worlds), "--seed",
                               "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"]
    assert peak <= 8 * _stability_cells(atoms, worlds, 2), peak


def test_readme_quotes_the_fit_worlds_limits():
    # the fit-bilinear worlds limits in the README are the charge's own
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    found = re.search(r"`--worlds` up to ([\d,]+) at 1 atom, ([\d,]+) at 2, "
                      r"([\d,]+) at 3, ([\d,]+) at 4, ([\d,]+) at 5, "
                      r"([\d,]+) at 6 and 7, ([\d,]+) at 8 and ([\d,]+) at "
                      r"9 atoms", text)
    assert found, "README.md no longer quotes the fit-bilinear worlds limits"
    quoted = [int(x.replace(",", "")) for x in found.groups()]
    assert quoted[:5] == [fit_worlds_limit(atoms) for atoms in range(1, 6)]
    assert [quoted[5]] * 2 == [fit_worlds_limit(atoms) for atoms in (6, 7)]
    assert quoted[6:] == [fit_worlds_limit(atoms) for atoms in (8, 9)]


def test_collapse_cell_budget_is_linear_in_dim():
    # never run at the limits here: CI runs them under peak RSS bounds
    assert collapse_dim_limit(1) == 3728262
    assert collapse_dim_limit(8) == 246707
    for atoms in (1, 8):
        dim = collapse_dim_limit(atoms)
        assert _collapse_cells(atoms, dim) <= MAX_CELLS
        assert _collapse_cells(atoms, dim + 1) > MAX_CELLS
    # 9 cells per dim at 1 atom, and 136 at 8 atoms once dim >= 8
    assert _collapse_cells(1, 2000) - _collapse_cells(1, 1000) == 9 * 1000
    assert _collapse_cells(8, 2000) - _collapse_cells(8, 1000) == 136 * 1000
    # every atom is charged its objects: 2^22 atoms are over at any dim
    assert largest_within_budget(lambda a: _collapse_cells(a, 1)) == 435771
    assert _collapse_cells(2 ** 22, 1) > MAX_CELLS


@pytest.mark.parametrize("atoms,dim,flag", [(1, 100000, "--neg-equiv"),
                                            (8, 20000, "--neg-equiv"),
                                            (8, 20000, "--no-neg-equiv"),
                                            (3000, 2, "--neg-equiv")])
def test_collapse_traced_peak_is_within_its_charge(capsys, atoms, dim, flag):
    # lstsq's LAPACK work is not traced, so this bounds the NumPy arrays
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "collapse", "--atoms", str(atoms),
                               "--dim", str(dim), flag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"]
    assert peak <= 8 * _collapse_cells(atoms, dim), peak


@pytest.mark.parametrize("atoms,worlds", [(5, 16), (5, 28), (4, 40), (3, 32),
                                          (2, 150), (3, fit_worlds_limit(3)),
                                          (1, fit_worlds_limit(1))])
def test_fit_traced_peak_is_within_its_charge(capsys, atoms, worlds):
    # the compressed fit's tables at 4 and 5 atoms, up to the 5-atom limit;
    # m and c at their bounds at 3 atoms and 32 worlds; and the largest
    # admitted worlds at 3 atoms, where the passes over the features are
    # charged, and at 1 atom, where the 24 cells a world are.  lstsq's
    # LAPACK work is not traced
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "fit-bilinear", "--atoms", str(atoms),
                               "--worlds", str(worlds), "--seed", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"]
    assert peak <= 8 * _fit_cells(atoms, worlds, 2), peak


def test_depth_one_fit_traced_peak_is_within_its_charge(capsys):
    # the largest admitted worlds at 1 atom and depth 1: the walk numbers
    # its rows from one column per class of equal worlds, not every world
    worlds = largest_within_budget(lambda w: _fit_cells(1, w, 1))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "fit-bilinear", "--atoms", "1",
                               "--depth", "1", "--worlds", str(worlds),
                               "--seed", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"]
    assert peak <= 8 * _fit_cells(1, worlds, 1), peak


def test_twelve_atom_depth_one_fit_traced_peak_is_within_its_charge(capsys):
    # the 2^24-entry image table is charged beside the fit's arrays: when
    # it was charged in their max, it alone was the charge, and the run
    # traced the fit's blocks over it
    assert run_cli(capsys, "fit-bilinear", "--atoms", "1", "--worlds",
                   "4")[0] == 0
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "fit-bilinear", "--atoms", "12",
                               "--depth", "1", "--worlds", "8", "--seed", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"]
    assert 8 * 4 ** 12 < peak <= 8 * _fit_cells(12, 8, 1), peak


@pytest.mark.parametrize("command,extra,cells,exit_code", [
    ("families", (), _families_cells(256, 2), 0),
    # width 1 cannot reach full rank here, so the build exits 1
    ("build-slp", ("--context-dim", "1"), _build_cells(256, 2, 1, None), 1),
], ids=["families", "build-slp"])
def test_query_charge_bounds_the_traced_peak_at_the_largest_closure(
        capsys, tmp_path, command, extra, cells, exit_code):
    # 256 entities at 2 relations, the largest closure either admits; the
    # report goes to a file, so no captured copy of it is traced
    argv = [command, "--entities", "256", "--relations", "2", *extra]
    assert cells == MAX_CELLS
    assert run_cli(capsys, command, "--entities", "3", "--relations", "1",
                   *extra)[0] in (0, 1)
    out_path = tmp_path / "largest.json"
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == exit_code and out_path.exists()
    assert peak <= 8 * cells, peak


@pytest.mark.parametrize("argv", [("--entities", "3"),
                                  ("--entities", "31"),
                                  ("--entities", "4", "--exhaustive")])
def test_relalg_laws_traced_peak_is_within_its_charge(capsys, argv):
    # the default counts, at both ends of the entities they admit, and
    # the largest stack --exhaustive admits
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "relalg-laws", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"]
    assert peak <= 8 * _laws_cells(int(argv[1]), "--exhaustive" in argv,
                                   10000, 1000), peak


def _broken_converse(r):
    """converse, except that cell (0, 0) flips on each relation holding
    (0, 1) and (1, 1)."""
    matrix = relalg.converse(r).matrix.copy()
    matrix[..., 0, 0] ^= r.matrix[..., 0, 1] & r.matrix[..., 1, 1]
    return relalg.Relation(r.entity_set, matrix)


def _broken_compose(r, s):
    """compose, except that cell (2, 0) flips where r holds (1, 2) and s
    holds (0, 0)."""
    matrix = relalg.compose(r, s).matrix.copy()
    matrix[..., 2, 0] ^= r.matrix[..., 1, 2] & s.matrix[..., 0, 0]
    return relalg.Relation(r.entity_set, matrix)


def test_relalg_laws_counts_each_failing_relation(capsys, tmp_path,
                                                 monkeypatch):
    """With converse and compose wrong on a known part of each stack, the
    five failure counts are those of one law check per drawn relation,
    over the draws of one random_relation call each; the check exits 1
    and still writes its report."""
    monkeypatch.setattr(cli, "converse", _broken_converse)
    monkeypatch.setattr(cli, "compose", _broken_compose)
    neg, conv, comp = relalg.negate, _broken_converse, _broken_compose
    pairs, triples, seed = 300, 200, 5
    rng = np.random.default_rng(seed)
    entity_set = relalg.EntitySet.of_size(3)

    def draw():
        return relalg.random_relation(entity_set, rng)

    unary = [draw() for _ in range(pairs)]
    expected = {
        "double_negation": sum(neg(neg(r)) != r for r in unary),
        "double_converse": sum(conv(conv(r)) != r for r in unary),
        "negate_converse_commute": sum(neg(conv(r)) != conv(neg(r))
                                       for r in unary),
        "converse_of_composition": 0, "associativity": 0}
    for _ in range(pairs):
        r, s = draw(), draw()
        expected["converse_of_composition"] += (
            conv(comp(r, s)) != comp(conv(s), conv(r)))
    for _ in range(triples):
        r, s, t = draw(), draw(), draw()
        expected["associativity"] += comp(comp(r, s), t) != comp(r, comp(s, t))
    out_path = tmp_path / "laws.json"
    code, _, _ = run_cli(capsys, "relalg-laws", "--entities", "3",
                         "--pairs", str(pairs), "--triples", str(triples),
                         "--seed", str(seed), "--out", str(out_path))
    assert code == 1
    report = json.loads(out_path.read_text())
    assert not report["pass"]
    assert report["details"]["failures"] == expected
    assert report["max_deviation"] == sum(expected.values())
    # each broken law fails on some relations of its stack, not on all
    assert expected["double_negation"] == 0
    for law in ("double_converse", "negate_converse_commute"):
        assert 0 < expected[law] < pairs, law
    assert 0 < expected["converse_of_composition"] < pairs
    assert 0 < expected["associativity"] < triples


def test_relalg_laws_fails_on_one_failing_relation(capsys, monkeypatch):
    # one relation per unary stack and one pair, under a converse wrong on a
    # known part of the relations: a draw that fails no law passes, and a
    # draw whose stacks fail exactly one relation fails the check
    monkeypatch.setattr(cli, "converse", _broken_converse)
    totals = []
    for seed in range(8):
        code, out, _ = run_cli(capsys, "relalg-laws", "--entities", "3",
                               "--pairs", "1", "--triples", "0", "--seed",
                               str(seed))
        report = json.loads(out)
        total = sum(report["details"]["failures"].values())
        assert report["max_deviation"] == total
        assert report["pass"] is (total == 0)
        assert code == (0 if total == 0 else 1)
        totals.append(total)
    assert 0 in totals and 1 in totals


def test_relalg_laws_cell_budget_admits_31_entities_at_the_defaults():
    # never run: 32 entities at the default counts took about a minute
    defaults = (10000, 1000)
    assert _laws_cells(3, False, *defaults) == 9 * 33000 == 297000
    assert _laws_cells(31, False, *defaults) == 961 * 33000 <= MAX_CELLS
    assert _laws_cells(32, False, *defaults) > MAX_CELLS
    # --exhaustive holds all 2^(entities^2) relations: 4 entities, not 5
    assert _laws_cells(4, True, *defaults) == 16 * (2 ** 16 + 23000)
    assert _laws_cells(5, True, 0, 0) == 25 * 2 ** 25 > MAX_CELLS
    assert _laws_cells(10 ** 5, True, 1, 1) > MAX_CELLS
    assert _laws_cells(10 ** 5, False, 1, 1) == 6 * 10 ** 10 > MAX_CELLS
    assert _laws_cells(1, False, 10 ** 12, 0) > MAX_CELLS


def test_build_and_families_cell_budget_bound_the_closure():
    # sizes are compared, never run
    assert _closure_queries(3, 1) == 36
    assert _build_cells(3, 1, 932067, None) == 36 * 932067 <= MAX_CELLS
    assert _build_cells(3, 1, 932068, None) > MAX_CELLS
    # default width: one column per family, at most N/2
    assert _build_cells(32, 2, None, None) == 8192 * 4096 == MAX_CELLS
    assert _build_cells(33, 2, None, None) > MAX_CELLS
    assert _build_cells(45, 1, None, None) == 8100 * 4050 <= MAX_CELLS
    assert _build_cells(46, 1, None, None) > MAX_CELLS
    # each query's charge, when more than its row of features
    assert _build_cells(256, 2, 1, None) == 524288 * QUERY_OBJECT_CELLS \
        == MAX_CELLS
    assert _build_cells(257, 2, 1, None) > MAX_CELLS
    assert _build_cells(362, 1, 1, None) <= MAX_CELLS \
        < _build_cells(363, 1, 1, None)
    assert _build_cells(1024, 8, 1, None) > MAX_CELLS
    assert _build_cells(5, 3000, 1, None) > MAX_CELLS
    assert _families_cells(256, 2) == QUERY_OBJECT_CELLS * 256 ** 2 * 8 \
        == MAX_CELLS
    assert _families_cells(257, 2) > MAX_CELLS
    assert _families_cells(362, 1) <= MAX_CELLS < _families_cells(363, 1)
    # the largest benchmark build is far inside the budget
    assert _build_cells(6, 3, None, None) == 432 * 216


def test_kept_terms_share_the_build_budget():
    # sizes are compared, never run
    for entities, relations in ((2, 1), (3, 2), (32, 2), (45, 1), (33, 2)):
        for width in (None, 1, 9, 4096):
            # default terms are charged as 2 * relations explicit ones,
            # whose u factors are the cells of the feature matrix
            assert _term_cells(entities, relations, width, None) == \
                _term_cells(entities, relations, width, 2 * relations)
            n = _closure_queries(entities, relations)
            assert _term_cells(entities, relations, width, None) >= \
                n * (n // 2 if width is None else width)
    # ... so their objects and v factors count too: at width 1 the
    # query objects admit 3 entities at 1017 relations, the terms do not
    assert _build_cells(3, 1016, 1, None) == \
        2 * 1016 * (SAMPLE_OBJECT_CELLS + 16 * 1016) <= MAX_CELLS
    assert _closure_queries(3, 1017) * QUERY_OBJECT_CELLS <= MAX_CELLS
    assert _term_cells(3, 1017, 1, None) > MAX_CELLS
    # an explicit count charges the two u factors of each raw sample ...
    assert _term_cells(3, 1, 100, 18641) == 2 * 18641 * 900 <= MAX_CELLS
    assert _term_cells(3, 1, 100, 18642) > MAX_CELLS
    # ... or, if more, its objects and v factors, held twice in a redraw
    per_sample = SAMPLE_OBJECT_CELLS + 16
    assert _term_cells(3, 1, 9, 123361) == 123361 * per_sample <= MAX_CELLS
    assert _term_cells(3, 1, 9, 123362) > MAX_CELLS
    assert _term_cells(2, 1, 1, 123361) <= MAX_CELLS
    assert _term_cells(2, 1, 1, 123362) > MAX_CELLS
    assert _term_cells(2, 1, 1, 10 ** 9) > MAX_CELLS
    # the admitted maximum's objects fit the budget's 268 MB
    assert 123361 * 1650 < MAX_CELLS * 8


def test_parity_is_charged_both_halves_of_its_factors(capsys, tmp_path):
    # the split holds u and v and both halves of each: the build's charge
    # admits this shape, which peaked at 378 MB against factorize's 273 MB
    assert _build_cells(4, 100, 1, 18078) <= MAX_CELLS
    assert _parity_cells(4, 100, 1, 18078) > MAX_CELLS
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(capsys, "parity", "--entities", "4",
                             "--relations", "100", "--context-dim", "1",
                             "--terms", "18078", "--out", str(out_path))
    assert code == 2 and not out and "cell budget" in err
    assert not out_path.exists()
    # default terms at 5 entities and width 1: 830 relations, not 1,016
    assert _parity_cells(5, 830, 1, None) <= MAX_CELLS
    assert _parity_cells(5, 831, 1, None) > MAX_CELLS
    assert _build_cells(5, 1016, 1, None) <= MAX_CELLS
    # u-dominated shapes too: 10,922 terms at 4 entities, a third of the
    # 32,768 a build takes, at which parity peaked at 428 MB
    assert _parity_cells(4, 1, None, 10922) <= MAX_CELLS
    assert _parity_cells(4, 1, None, 10923) > MAX_CELLS
    assert _build_cells(4, 1, None, 32768) <= MAX_CELLS


def test_old_term_maximum_exits_two_before_any_draw(capsys, tmp_path):
    # 4,194,304 raw samples passed the u-factor count alone (8 cells each),
    # but their objects would need about 7 GB
    out_path = tmp_path / "never.json"
    start = time.perf_counter()
    code = main(["build-slp", "--entities", "2", "--relations", "1",
                 "--context-dim", "1", "--terms", "4194304",
                 "--out", str(out_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 2 and not out_path.exists()
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("argv", [
    # each query's objects: families ran 4.6 s at 128 entities, and 1,024
    # entities hold 8.4M queries
    ("families", "--entities", "1024", "--relations", "2"),
    ("build-slp", "--entities", "1024", "--relations", "8",
     "--context-dim", "1"),
    # ran past 30 s before its objects counted
    ("build-slp", "--entities", "5", "--relations", "3000",
     "--context-dim", "1"),
])
def test_object_charges_exit_two_at_once(capsys, tmp_path, argv):
    out_path = tmp_path / "never.json"
    start = time.perf_counter()
    code = main([*argv, "--out", str(out_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 2 and not out_path.exists()
    assert elapsed < 1.0, elapsed


def test_huge_terms_exit_two_before_any_draw(capsys, tmp_path):
    out_path = tmp_path / "never.json"
    for command in ("build-slp", "factorize"):
        start = time.perf_counter()
        code = main([command, "--terms", "1000000000", "--out", str(out_path)])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 2 and not out_path.exists(), command
        # drawing the terms would run for hours
        assert elapsed < 5.0, (command, elapsed)


def test_gradlab_cell_budget_bounds_each_size():
    # sizes are compared, never run
    assert _gradlab_cells("mlp", 6, 2, 16) == 144 * 17
    assert _gradlab_cells("slp_linear", 3, 1, 9) == 36 * 9
    # slp_linear: the N x hidden features, N = 36 at 3 entities, 1 relation
    assert _gradlab_cells("slp_linear", 3, 1, 932067) <= MAX_CELLS
    assert _gradlab_cells("slp_linear", 3, 1, 932068) > MAX_CELLS
    # mlp: hidden x hidden weights once hidden passes the row count
    assert _gradlab_cells("mlp", 3, 1, 5792) == 5792 ** 2 <= MAX_CELLS
    assert _gradlab_cells("mlp", 3, 1, 5793) > MAX_CELLS
    # mlp: T x input encodings, T = 2 * relations * entities^2
    assert _gradlab_cells("mlp", 2, 2 ** 21, 1) == \
        2 ** 24 * (2 ** 22 + 5) > MAX_CELLS
    for key, size in (("entity_count", 10 ** 6), ("relations", 10 ** 9),
                      ("hidden", 10 ** 9)):
        sizes = {"entity_count": 3, "relations": 1, "hidden": 9, key: size}
        for arch in ("mlp", "slp_linear"):
            assert _gradlab_cells(arch, sizes["entity_count"],
                                  sizes["relations"], sizes["hidden"]) \
                > MAX_CELLS, (arch, key)


def test_default_width_is_at_most_half_the_closure(capsys):
    for entities, relations in ((2, 1), (3, 2), (4, 1)):
        code, out, _ = run_cli(capsys, "build-slp", "--entities",
                               str(entities), "--relations", str(relations),
                               "--seed", "0")
        assert code == 0
        dim = json.loads(out)["details"]["dim"]
        assert dim <= _closure_queries(entities, relations) // 2


def test_kernel_stability_and_fit_bilinear(capsys):
    for cmd in ("kernel-stability", "fit-bilinear"):
        code, out, _ = run_cli(capsys, cmd, "--atoms", "2", "--worlds", "4",
                               "--seed", "0")
        assert code == 0, cmd
        report = json.loads(out)
        assert report["pass"]


def test_collapse_unit_atom_certificate(capsys):
    code, out, _ = run_cli(capsys, "collapse", "--atoms", "1", "--dim", "4",
                           "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["details"]["verdict"] == "infeasible"
    assert abs(report["details"]["residual_sq"] - 2.0) <= 1e-6
    code, out, _ = run_cli(capsys, "collapse", "--atoms", "1", "--dim", "4",
                           "--seed", "7", "--no-neg-equiv")
    assert code == 0
    assert json.loads(out)["details"]["verdict"] == "feasible"


def test_collapse_passes_at_its_residual_and_fails_below_it(capsys):
    # without the negation constraint the bound is residual <= --tolerance:
    # a --tolerance equal to a run's nonzero residual passes, and half of it
    # fails with the report written
    argv = ("collapse", "--atoms", "3", "--dim", "4", "--no-neg-equiv")
    code, out, _ = run_cli(capsys, *argv)
    residual = json.loads(out)["details"]["residual"]
    assert code == 0 and 0.0 < residual <= 1e-8
    code, out, _ = run_cli(capsys, *argv, "--tolerance", repr(residual))
    report = json.loads(out)
    assert code == 0 and report["details"]["verdict"] == "feasible"
    code, out, _ = run_cli(capsys, *argv, "--tolerance", repr(residual / 2))
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["details"]["verdict"] == "infeasible"
    assert report["details"]["residual"] == residual


def test_audit_subcommand_runs(capsys):
    code, out, _ = run_cli(capsys, "audit", "--entities", "3",
                           "--relations", "1", "--family", "1",
                           "--eta", "0.2", "--seed", "0")
    assert code == 0
    assert json.loads(out)["pass"]


# ------------------------------------------------------------------ gradlab

def write_config(tmp_path, **overrides):
    config = {"entity_count": 3, "relations": 1, "density": 0.5,
              "arch": "slp_linear", "hidden": 9, "epochs": 5, "lr": 0.1,
              "eta": 0.1, "block": "all"}
    config.update(overrides)
    config = {k: v for k, v in config.items() if v is not ...}
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_gradlab_slp_linear_is_exactly_antialigned(capsys, tmp_path):
    # hidden doubles as the context width; 9 matches the family count here
    config = write_config(tmp_path, hidden=9)
    histogram = tmp_path / "hist.csv"
    code, out, _ = run_cli(capsys, "gradlab", "--config", str(config),
                           "--seed", "0", "--histogram", str(histogram))
    assert code == 0
    report = json.loads(out)
    assert report["details"]["alignment"]["mean"] == -1.0
    assert report["details"]["alignment"]["excluded"] == 0
    neg = report["details"]["edit_step"]["exact"]["neg"]
    base = report["details"]["edit_step"]["exact"]["id"]
    assert neg == -base
    lines = histogram.read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 41


def test_gradlab_mlp_reports_measurement(capsys, tmp_path):
    config = write_config(tmp_path, arch="mlp", hidden=8, epochs=50,
                          lr=0.5, block="emb")
    code, out, _ = run_cli(capsys, "gradlab", "--config", str(config))
    assert code == 0
    report = json.loads(out)
    assert report["details"]["accuracy"] >= 0.5
    cosines = report["details"]["alignment"]["cosines"]
    assert all(-1.0 <= c <= 1.0 for c in cosines)


def test_gradlab_config_validation(capsys, tmp_path):
    bad_cases = [
        write_config(tmp_path, extra_key=1),
        write_config(tmp_path, lr=...),
        write_config(tmp_path, arch="transformer"),
        write_config(tmp_path, block="everything"),
    ]
    for config in bad_cases:
        code = main(["gradlab", "--config", str(config)])
        capsys.readouterr()
        assert code == 2, config.read_text()
    missing = tmp_path / "absent.json"
    assert main(["gradlab", "--config", str(missing)]) == 2
    capsys.readouterr()


def test_gradlab_seed_conflict_rejected(capsys, tmp_path):
    config = write_config(tmp_path, seed=3)
    code = main(["gradlab", "--config", str(config), "--seed", "4"])
    capsys.readouterr()
    assert code == 2
    code, out, _ = run_cli(capsys, "gradlab", "--config", str(config))
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 3


def test_gradlab_divergence_reports_failure(capsys, tmp_path):
    config = write_config(tmp_path, arch="mlp", hidden=8, epochs=10, lr=1e307)
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "gradlab", "--config", str(config),
                               "--seed", "0")
    assert code == 1
    report = json.loads(out)
    assert "diverged" in report["details"]["error"]


# ------------------------------------------------------------ real process

def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "slplab", "families", "--entities", "2",
         "--relations", "1", "--seed", "0", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out_path.read_text())
    assert report["check"] == "families" and report["pass"]
    assert proc.stdout == ""  # the report goes to --out only


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("imports, expected", [
    ("import slplab", "1"), ("import numpy, slplab", "2")])
def test_package_pins_the_blas_to_one_thread_before_numpy(imports, expected):
    # a threaded BLAS moves the last bits of some report values; once NumPy
    # is imported its BLAS is set up, and the package leaves it alone
    show = f"import os; print(*(os.environ[v] for v in {BLAS_THREADS!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{imports}; {show}"],
        env=dict(os.environ, **dict.fromkeys(BLAS_THREADS, "2")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected] * len(BLAS_THREADS)
