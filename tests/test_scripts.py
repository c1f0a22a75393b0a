"""Argument checks of the experiment scripts under scripts/."""

import importlib.util
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
