"""Report schema round trips and the command-line surface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slplab.cli import MAX_CELLS, _fit_cells, _stability_cells, main
from slplab.reports import Report, emit_report, parse_report, render_report


# ------------------------------------------------------------------- reports

def test_report_round_trip_through_text():
    report = Report(check="demo", passed=True, max_deviation=0.25,
                    details={"worst": [1, 2, 3], "label": "x"},
                    provenance={"seed": 7})
    assert parse_report(render_report(report)) == report


def test_report_round_trip_through_file(tmp_path):
    report = Report(check="demo", passed=False, max_deviation=1.5,
                    details={"note": "failing on purpose"})
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert parse_report(path) == report


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
    report = parse_report(out)
    assert report.check == "relalg_laws" and report.passed
    assert report.details["unary_relations_checked"] == 512
    assert report.provenance["seed"] == 0
    assert set(report.provenance) == {"config_hash", "seed", "version"}


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
    report = parse_report(out_path)
    assert not report.passed
    assert report.max_deviation > 0.1


def malformed_maps(directory, fmt):
    """A rewritten intact map, and maps each broken in one way that makes
    them unreadable."""
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

    def edit(name, queries=queries, matrix=matrix, drop=None):
        doc = {k: v for k, v in sidecar.items() if k != drop}
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
    ]
    if fmt == "csv":
        no_sidecar = edit("no_sidecar")
        Path(f"{no_sidecar}.index.json").unlink()
        maps.append(no_sidecar)
    return edit("intact"), maps


def test_malformed_map_edits_are_the_only_fault(capsys, tmp_path):
    """The rewriting itself breaks nothing: an unedited rewrite passes."""
    for fmt in ("json", "csv"):
        intact, _ = malformed_maps(tmp_path / fmt, fmt)
        code = main(["verify-slp", "--load", str(intact), "--fmt", fmt,
                     "--out", str(tmp_path / f"verify-{fmt}.json")])
        capsys.readouterr()
        assert code == 0


def test_usage_errors_exit_two_without_reports(capsys, tmp_path):
    out_path = tmp_path / "never.json"
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
        ("kernel-stability", "--atoms", "7", "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "6", "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "5", "--worlds", "9", "--out", str(out_path)),
        ("fit-bilinear", "--atoms", "1", "--worlds", "400", "--out", str(out_path)),
        # 64 literals, one past the bit codes' 63
        ("kernel-stability", "--atoms", "32", "--depth", "1",
         "--out", str(out_path)),
        ("isotypic", "--context-dim", "0", "--out", str(out_path)),
        ("relalg-laws", "--pairs", "-5", "--out", str(out_path)),
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
    ]
    bad_configs = [
        {"epochs": "ten"}, {"epochs": -3}, {"epochs": 2.0}, {"epochs": True},
        {"entity_count": 1}, {"relations": 0}, {"hidden": 0}, {"seed": -1},
        {"seed": "0"}, {"density": 0.0}, {"density": 1.0}, {"density": None},
        {"lr": 0.0}, {"lr": -0.1}, {"lr": float("inf")}, {"lr": "0.1"},
        {"eta": float("nan")}, {"eta": False}, {"eta": 10 ** 400},
    ]
    for i, overrides in enumerate(bad_configs):
        config = write_config(tmp_path / f"bad{i}", **overrides)
        cases.append(("gradlab", "--config", str(config), "--out", str(out_path)))
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    cases.append(("gradlab", "--config", str(not_an_object),
                  "--out", str(out_path)))
    for fmt in ("json", "csv"):
        intact, malformed = malformed_maps(tmp_path / fmt, fmt)
        for path in malformed:
            cases.append(("verify-slp", "--load", str(path), "--fmt", fmt,
                          "--out", str(out_path)))
        for tol in ("nan", "-1"):
            cases.append(("verify-slp", "--load", str(intact), "--fmt", fmt,
                          "--tol", tol, "--out", str(out_path)))
    for argv in cases:
        code = main(list(argv))
        capsys.readouterr()
        assert code == 2, argv
        assert not out_path.exists(), argv


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
             _option("--terms", range(-1, 3)),
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
             _option("--tol", _TOLS), _option("--seed", _SEEDS)),
    _command("fit-bilinear", _option("--atoms", _SIZES),
             _option("--worlds", range(-1, 5)),
             _option("--tol", _TOLS), _option("--seed", _SEEDS)),
    _command("audit", _option("--entities", _SIZES),
             _option("--family", range(-1, 12)),
             _option("--eta", (-0.5, 0.0, 0.1) + _TOLS[5:]),
             _option("--seed", _SEEDS)),
    _command("verify-slp", _required("--load", ("map.in",)),
             _option("--tol", _TOLS)),
)


@pytest.fixture(scope="module")
def stored_map(tmp_path_factory):
    """A built map for the verify-slp draws, outside each draw's scratch."""
    path = tmp_path_factory.mktemp("stored") / "map.json"
    assert main(["build-slp", "--save", str(path),
                 "--out", str(path.with_name("build.json"))]) == 0
    return path


@given(argv=CLI_ARGVS)
@settings(max_examples=300)
def test_exit_code_contract_over_argument_ranges(stored_map, argv):
    with tempfile.TemporaryDirectory() as scratch:
        out_path = Path(scratch) / "report.json"
        argv = [Path(scratch, a).as_posix() if a == "map.out" else
                str(stored_map) if a == "map.in" else a for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main([*argv, "--out", str(out_path)])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert os.listdir(scratch) == [], argv
        else:
            assert out_path.exists(), argv


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
    assert parse_report(out).provenance["seed"] == 42


def test_explicit_seed_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("SLPLAB_SEED", "42")
    code, out, _ = run_cli(capsys, "families", "--entities", "3",
                           "--relations", "1", "--seed", "5")
    assert code == 0
    assert parse_report(out).provenance["seed"] == 5


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

def test_families_prints_partition_when_report_goes_to_file(capsys, tmp_path):
    out_path = tmp_path / "families.json"
    code, out, _ = run_cli(capsys, "families", "--entities", "3",
                           "--relations", "1", "--seed", "0",
                           "--out", str(out_path))
    assert code == 0
    partition = json.loads(out)
    report = parse_report(out_path)
    assert report.details["families"] == partition
    assert report.details["n_families"] == len(partition)
    for family in partition:
        members = [m["query"] for m in family["members"]]
        assert family["representative"] in members
        signs = {m["sign"] for m in family["members"]}
        assert signs == {1, -1}
    total = sum(len(f["members"]) for f in partition)
    assert total == report.details["n_queries"]


def test_build_then_verify_round_trip(capsys, tmp_path):
    for fmt in ("json", "csv"):
        store = tmp_path / f"map.{fmt}"
        code, out, _ = run_cli(capsys, "build-slp", "--entities", "3",
                               "--relations", "1", "--seed", "1",
                               "--fmt", fmt, "--save", str(store))
        assert code == 0
        built = parse_report(out)
        assert built.details["equivariance"]["max_deviation"] == 0.0
        code, out, _ = run_cli(capsys, "verify-slp", "--load", str(store),
                               "--fmt", fmt)
        assert code == 0
        verified = parse_report(out)
        assert verified.details["slp_rank"]["pass"] is True
        assert verified.details["kernel_decomposition"]["pass"] is True


def test_factorize_reports_pure_minus_split(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--entities", "3",
                           "--relations", "1", "--seed", "2")
    assert code == 0
    report = parse_report(out)
    split = report.details["negation_split"]
    assert split["plus_dim"] == 0
    assert split["minus_dim"] == split["span_dim"] > 0


def test_isotypic_image_dims_fill_the_span(capsys):
    code, out, _ = run_cli(capsys, "isotypic", "--entities", "3",
                           "--relations", "1", "--seed", "0")
    assert code == 0
    report = parse_report(out)
    dims = [entry["image_dim"] for entry in report.details["irreps"]]
    assert sum(dims) == report.details["properties"]["span_dim"]
    assert report.max_deviation <= 1e-8


@pytest.mark.parametrize("context_dim", ["1", "2", "4"])
def test_isotypic_on_a_narrow_map_names_the_renaming(capsys, context_dim):
    """Below 9 features at n = 3 the span is not renaming-invariant."""
    code, out, err = run_cli(capsys, "isotypic", "--entities", "3",
                             "--relations", "1", "--context-dim",
                             context_dim, "--seed", "1")
    assert code == 1 and "Traceback" not in err
    report = parse_report(out)
    assert report.passed is False
    renaming = report.details["renaming"]
    assert sorted(renaming["perm"]) == [0, 1, 2]
    assert renaming["perm"] != [0, 1, 2] and renaming["sign"] == 1
    assert report.max_deviation > 1e-8


def test_parity_cross_residual_is_zero_for_builds(capsys):
    code, out, _ = run_cli(capsys, "parity", "--entities", "3",
                           "--relations", "1", "--seed", "4")
    assert code == 0
    report = parse_report(out)
    assert report.max_deviation == 0.0
    n = 3
    assert report.details["pair_space_dims"] == \
        [n * (n + 1) // 2, n * (n - 1) // 2]


def test_conjunction_cell_budget_admits_six_and_five_atoms():
    # sizes are compared, never run: the largest accepted ones take seconds
    assert _stability_cells(6, 8) == 4095 ** 2 <= MAX_CELLS
    assert _stability_cells(7, 8) > MAX_CELLS
    assert _stability_cells(1, 10 ** 8) == 3 * 10 ** 8 > MAX_CELLS
    assert _fit_cells(5, 8) == 1023 * 1024 // 2 * 64 <= MAX_CELLS
    assert _fit_cells(5, 9) > MAX_CELLS
    assert _fit_cells(6, 8) > MAX_CELLS
    assert _fit_cells(1, 400) == 400 ** 3 > MAX_CELLS
    assert _stability_cells(10 ** 9, 1) > MAX_CELLS


def test_kernel_stability_and_fit_bilinear(capsys):
    for cmd in ("kernel-stability", "fit-bilinear"):
        code, out, _ = run_cli(capsys, cmd, "--atoms", "2", "--worlds", "4",
                               "--seed", "0")
        assert code == 0, cmd
        report = parse_report(out)
        assert report.passed


def test_collapse_unit_atom_certificate(capsys):
    code, out, _ = run_cli(capsys, "collapse", "--atoms", "1", "--dim", "4",
                           "--seed", "7")
    assert code == 0
    report = parse_report(out)
    assert report.details["verdict"] == "infeasible"
    assert abs(report.details["residual_sq"] - 2.0) <= 1e-6
    code, out, _ = run_cli(capsys, "collapse", "--atoms", "1", "--dim", "4",
                           "--seed", "7", "--no-neg-equiv")
    assert code == 0
    assert parse_report(out).details["verdict"] == "feasible"


def test_audit_subcommand_runs(capsys):
    code, out, _ = run_cli(capsys, "audit", "--entities", "3",
                           "--relations", "1", "--family", "1",
                           "--eta", "0.2", "--seed", "0")
    assert code == 0
    assert parse_report(out).passed


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
    report = parse_report(out)
    assert report.details["alignment"]["mean"] == -1.0
    assert report.details["alignment"]["excluded"] == 0
    neg = report.details["edit_step"]["exact"]["neg"]
    base = report.details["edit_step"]["exact"]["id"]
    assert neg == -base
    lines = histogram.read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 41


def test_gradlab_mlp_reports_measurement(capsys, tmp_path):
    config = write_config(tmp_path, arch="mlp", hidden=8, epochs=50,
                          lr=0.5, block="emb")
    code, out, _ = run_cli(capsys, "gradlab", "--config", str(config))
    assert code == 0
    report = parse_report(out)
    assert report.details["accuracy"] >= 0.5
    cosines = report.details["alignment"]["cosines"]
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
    assert parse_report(out).provenance["seed"] == 3


def test_gradlab_divergence_reports_failure(capsys, tmp_path):
    config = write_config(tmp_path, arch="mlp", hidden=8, epochs=10, lr=1e307)
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "gradlab", "--config", str(config),
                               "--seed", "0")
    assert code == 1
    report = parse_report(out)
    assert "diverged" in report.details["error"]


# ------------------------------------------------------------ real process

def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "slplab", "families", "--entities", "2",
         "--relations", "1", "--seed", "0", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = parse_report(out_path)
    assert report.check == "families" and report.passed
    json.loads(proc.stdout)  # the partition goes to stdout
