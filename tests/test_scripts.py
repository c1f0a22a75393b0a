"""Checks of the scripts under scripts/: arguments, bounds and the ladder."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["alignment_sweep", "isotypic_sweep"])
@pytest.mark.parametrize("seeds", ["0", "-1", "two"])
def test_sweeps_reject_fewer_than_one_seed(capsys, name, seeds):
    # zero seeds would crash on an empty mean or pass vacuously
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(["--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--entities", "1"), ("--hidden", "0"), ("--embed-dim", "0"),
    ("--epochs", "0"), ("--density", "1.5"), ("--lr", "nan")])
def test_alignment_sweep_rejects_out_of_range_sizes(capsys, flag, value):
    # each ran into a traceback before the flags were typed
    with pytest.raises(SystemExit) as exc:
        load_script("alignment_sweep").main(["--seeds", "1", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("max_mb, expected", [("100000", 0), ("1", 1)])
def test_peak_rss_bounds_the_command(capsys, tmp_path, max_mb, expected):
    # the test process itself holds far more than 1 MB
    code = load_script("peak_rss").main(
        ["--max-mb", max_mb, "collapse", "--atoms", "1", "--dim", "2",
         "--out", str(tmp_path / "report.json")])
    assert code == expected
    assert capsys.readouterr().out.startswith("exit 0, peak RSS ")


def test_report_ladder_slice_is_deterministic(capsys, tmp_path):
    # the failing and usage-error calls, then every call of the first seed
    ladder = load_script("report_ladder")
    calls = ladder.CALLS[:39]
    assert {argv[0] for argv, _ in calls} >= {
        "relalg-laws", "families", "build-slp", "verify-slp", "factorize",
        "isotypic", "parity", "kernel-stability", "fit-bilinear", "collapse",
        "gradlab", "audit"}
    first = ladder.run_ladder(calls, tmp_path / "a")
    # relative paths: a second directory writes the same bytes
    second = ladder.run_ladder(calls, tmp_path / "b")
    assert first == second
    assert ladder.compare(first, second) == []
    codes = [entry["exit"] for entry in first["calls"]]
    assert {0, 1, 2} <= set(codes)
    saved = [entry["files"] for entry in first["calls"]
             if entry["argv"][0] == "build-slp" and entry["files"]]
    assert len(saved) == 7 and all(None not in f.values() for f in saved)
    moved = json.loads(json.dumps(second))
    moved["calls"][5]["report"] = "0" * 64
    assert ladder.compare(first, moved) == [" ".join(calls[5][0])]


def test_report_ladder_names_what_differs_in_a_call():
    ladder = load_script("report_ladder")
    old = {"pass": True, "details": {"worst": {"p": "a", "r": 1.0},
                                     "dims": [1, 2], "n": 3, "kept": [4]}}
    new = {"pass": True, "details": {"worst": {"p": "b", "r": 1.0},
                                     "dims": [1, 2, 3], "n": 3.0,
                                     "kept": [4], "extra": None}}
    # a list of another length, a key in one document only, and an int
    # that became a float each count as one leaf
    leaves = ["$.details.dims", "$.details.extra", "$.details.n",
              "$.details.worst.p"]
    assert ladder.leaf_paths(old, new) == leaves
    entry = {"argv": ["fit-bilinear"], "exit": 0, "report": "a",
             "report_json": old, "stderr": "e", "files": {"m.json": "h"}}
    moved = dict(entry, exit=1, report="b", report_json=new,
                 files={"m.json": "g"})
    assert ladder.differences(entry, moved) == ["exit", "file m.json",
                                                *leaves]
    # equal documents in different bytes
    assert ladder.differences(entry, dict(entry, report="b")) == ["report"]
    assert ladder.differences(entry, dict(entry)) == []
