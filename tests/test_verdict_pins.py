"""Verdict pins: exit codes and every int, bool and string report field.

A seeded ladder runs every subcommand at small sizes and compares the exit
code with each integer, boolean and string leaf of the report against
`verdict_pins.json`.  Floats are left out because their last digits depend
on the BLAS; the verdicts and dimensions must not.  So is `fit-bilinear`'s
`worst_pair`: it names the first pair at the largest residual, which on a
passing fit is round-off, so the pair changes with the BLAS kernel.  The
ladder includes two ill-conditioned isotypic maps (cond(S) about 2e5) and
one whose feature width exceeds its span.

The ladder runs in a scratch directory with relative paths, so the saved
map and config names, and with them the config hashes, do not depend on
where it runs.  Regenerate the fixture, only when a verdict is meant to
change, with:

    PYTHONPATH=src python tests/test_verdict_pins.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from slplab.cli import main

FIXTURE = Path(__file__).with_name("verdict_pins.json")

SLP_CONFIG = {"entity_count": 3, "relations": 1, "density": 0.5,
              "arch": "slp_linear", "hidden": 9, "epochs": 5, "lr": 0.1,
              "eta": 0.1, "block": "all"}
MLP_CONFIG = {**SLP_CONFIG, "arch": "mlp", "hidden": 6, "epochs": 20,
              "lr": 0.5, "block": "head"}

LADDER = (
    ("relalg-laws", "--entities", "3", "--pairs", "200", "--triples", "50",
     "--seed", "1"),
    ("relalg-laws", "--entities", "2", "--exhaustive", "--pairs", "20",
     "--triples", "5", "--seed", "2"),
    ("families", "--entities", "3", "--relations", "2", "--seed", "1"),
    ("families", "--entities", "4", "--relations", "1", "--seed", "2"),
    ("build-slp", "--entities", "3", "--relations", "2", "--seed", "1",
     "--save", "map3.json", "--fmt", "json"),
    ("verify-slp", "--load", "map3.json", "--fmt", "json"),
    ("build-slp", "--entities", "4", "--relations", "1", "--seed", "2",
     "--save", "map4.csv", "--fmt", "csv"),
    ("verify-slp", "--load", "map4.csv", "--fmt", "csv"),
    ("build-slp", "--entities", "3", "--relations", "1", "--seed", "3",
     "--context-dim", "4"),
    ("factorize", "--entities", "3", "--relations", "1", "--seed", "3"),
    ("factorize", "--entities", "4", "--relations", "1", "--seed", "4",
     "--parity", "-"),
    ("isotypic", "--entities", "3", "--relations", "2", "--seed", "5"),
    ("isotypic", "--entities", "4", "--relations", "1", "--seed", "6"),
    ("isotypic", "--entities", "3", "--relations", "1", "--context-dim",
     "20", "--seed", "1"),
    ("isotypic", "--entities", "5", "--relations", "1", "--seed",
     "1657719116"),
    ("isotypic", "--entities", "4", "--relations", "2", "--seed",
     "1492217472"),
    ("parity", "--entities", "3", "--relations", "2", "--seed", "7"),
    ("parity", "--entities", "3", "--relations", "1", "--seed", "8",
     "--parity", "+"),
    ("kernel-stability", "--atoms", "2", "--worlds", "4", "--seed", "1"),
    ("kernel-stability", "--atoms", "3", "--worlds", "6", "--seed", "2"),
    ("fit-bilinear", "--atoms", "2", "--worlds", "4", "--seed", "1"),
    ("fit-bilinear", "--atoms", "3", "--worlds", "6", "--seed", "2"),
    ("collapse", "--atoms", "2", "--dim", "4", "--seed", "1"),
    ("collapse", "--atoms", "3", "--dim", "3", "--seed", "2",
     "--no-neg-equiv"),
    ("gradlab", "--config", "slp.json", "--seed", "0"),
    ("gradlab", "--config", "mlp.json", "--seed", "1"),
    ("audit", "--entities", "3", "--relations", "1", "--family", "2",
     "--seed", "8"),
)


def pinned_leaves(node, path="$") -> dict:
    """Every int, bool and string leaf of a report, keyed by its path."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key != "worst_pair":
                out.update(pinned_leaves(value, f"{path}.{key}"))
        return out
    if isinstance(node, list):
        out = {}
        for i, value in enumerate(node):
            out.update(pinned_leaves(value, f"{path}[{i}]"))
        return out
    if isinstance(node, (bool, int, str)):
        return {path: node}
    return {}


def run_ladder(workdir) -> dict:
    """{argv: {"exit": code, "leaves": {...}}} for the whole ladder."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        Path("slp.json").write_text(json.dumps(SLP_CONFIG), encoding="utf-8")
        Path("mlp.json").write_text(json.dumps(MLP_CONFIG), encoding="utf-8")
        pins = {}
        for argv in LADDER:
            code = main([*argv, "--out", "report.json"])
            report = json.loads(Path("report.json").read_text(encoding="utf-8"))
            Path("report.json").unlink()
            pins[" ".join(argv)] = {"exit": code,
                                    "leaves": pinned_leaves(report)}
        return pins
    finally:
        os.chdir(home)


def test_ladder_matches_pinned_verdicts(tmp_path, capsys):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = run_ladder(tmp_path)
    capsys.readouterr()
    assert list(got) == list(expected)
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        pins = run_ladder(scratch)
    FIXTURE.write_text(json.dumps(pins, indent=1) + "\n",
                       encoding="utf-8")
    sys.exit(0)
