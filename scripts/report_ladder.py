#!/usr/bin/env python3
"""Run a fixed, seeded ladder of slplab calls and hash what each one writes.

Every call runs in this process, through `slplab.cli.main`, in one work
directory and with relative paths only: a report's provenance hashes the
paths it was given, so the same code run in two directories writes the same
bytes only when the paths are relative.  For each call the manifest records
the exit code and the SHA-256 of the report (stdout), of stderr and of each
file the call writes (saved maps, their sidecars, histograms).  The ladder
covers every subcommand, a json and a csv save of each map shape of the
`many-maps` benchmark workload with `verify-slp` on each save, `fit-bilinear`
at each shape of the `conjunction` workload, at 5 and 6 atoms, at 5
atoms and 16 worlds, and at depth 1 (so on assignments with and without
a repeated world, and on both
the product-law and the pair-walk path), `isotypic` at each shape of
the `sym-lift` workload, at n = 5 with 6 relations and at a `--tol` that it
fails, `families` at 32 entities and 2 relations (8,192 members), `factorize` at each single parity and `factorize` and `parity` at
three raw samples, builds of 20 raw samples at width 1000 that span three
draw blocks (`factorize` at each parity, `parity`, and a csv save with
`verify-slp` of it), closures whose base relations coincide (a second base
relation equal to the first or to its complement, converse or complemented
converse, so a saved map's base list holds a duplicate image), `gradlab`
on draws whose base relations repeat, both conjunction checks at 12 atoms
and depth 1, `collapse` at 1,000 and 100,000 dims and at more atoms than
dims, `relalg-laws` over every relation on 4 entities and at 31 entities,
a failing build (exit 1) and usage errors (exit 2), among them a
`parity` split over the cell budget.  The
manifest also keeps each report's parsed JSON, so that a comparison can say
where two reports differ, and the Python, NumPy and BLAS it was made with:
the promise of byte-identical reports holds for one build of the three.

`--compare A B` names each call whose entry differs between two manifests,
and under it what differs: the exit code, stderr, each written file, and
each JSON leaf path of the report (`$.details.max_residual`); it also names
each call that only one manifest holds, and exits 1 when there is one.
Run the ladder on two commits on one machine and compare the manifests to
show that a change leaves every report and saved map byte-identical.

Usage:
    python scripts/report_ladder.py --workdir ladder --manifest new.json
    python scripts/report_ladder.py --compare old.json new.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

# slplab pins the BLAS to one thread, which it can do only before NumPy
# is first imported
from slplab.cli import main as slplab_main

import numpy as np

# the map shapes (entities, relations) that the many-maps workload saves
MAP_SHAPES = ((5, 3), (6, 2), (6, 3))
SEEDS = range(7)
# seeds at 2 entities and 2 relations where r1 is r0 (20), its complement
# (1), its converse (11) and its complemented converse (38)
COINCIDENT_SEEDS = (20, 1, 11, 38)
GRADLAB_CONFIG = "gradlab.json"
# gradlab at 2 entities, with (seed, relations) whose base relations
# repeat: seed 20 draws r1 equal to r0, seed 61 three equal ones
COINCIDENT_GRADLAB = ((20, 2), (61, 3))


def _call(*argv, writes=()):
    """One ladder call: slplab argv and the files it writes."""
    return (tuple(str(a) for a in argv), tuple(writes))


def _save_and_verify(path, fmt, *build_args):
    sidecar = (f"{path}.index.json",) if fmt == "csv" else ()
    return [_call("build-slp", *build_args, "--save", path, "--fmt", fmt,
                  writes=(path, *sidecar)),
            _call("verify-slp", "--load", path, "--fmt", fmt)]


def _calls():
    # width 1 cannot reach full rank: the build and its verify exit 1
    calls = _save_and_verify("narrow.csv", "csv", "--entities", 3,
                             "--relations", 1, "--context-dim", 1)
    # usage errors: exit 2, no report
    calls += [_call("build-slp", "--entities", 1),
              _call("verify-slp", "--load", "missing.json"),
              _call("collapse", "--tolerance", "nan")]
    for seed in SEEDS:
        s = ("--seed", seed)
        for n, r in ((3, 1), (4, 2)):
            size = ("--entities", n, "--relations", r, *s)
            calls += [_call("families", *size), _call("factorize", *size),
                      _call("parity", *size), _call("audit", *size),
                      _call("build-slp", *size)]
        calls += [
            _call("relalg-laws", "--entities", 3, "--pairs", 40,
                  "--triples", 10, *s),
            _call("collapse", "--atoms", 2, "--dim", 4, *s),
            _call("collapse", "--atoms", 1, "--dim", 3, "--no-neg-equiv", *s),
            _call("kernel-stability", "--atoms", 3, "--worlds", 4, *s),
            _call("fit-bilinear", "--atoms", 3, "--worlds", 4, *s),
            _call("isotypic", "--entities", 3, "--relations", 1, *s),
            # the sym-lift workload's Sym(4) and Sym(5) shapes
            _call("isotypic", "--entities", 4, "--relations", 2, *s),
            _call("isotypic", "--entities", 5, "--relations", 1, *s),
            _call("isotypic", "--entities", 5, "--relations", 2, *s),
            _call("parity", "--entities", 3, "--relations", 1,
                  "--parity", "-", *s),
            _call("audit", "--entities", 3, "--relations", 1,
                  "--family", 2, "--eta", 0.25, *s),
        ]
        for n, r in MAP_SHAPES:
            for fmt in ("json", "csv"):
                calls += _save_and_verify(f"map-{n}-{r}-{seed}.{fmt}", fmt,
                                          "--entities", n, "--relations", r,
                                          *s)
        hist = f"hist-{seed}.csv"
        calls.append(_call("gradlab", "--config", GRADLAB_CONFIG, *s,
                           "--histogram", hist, writes=(hist,)))
    # the conjunction workload's fit shapes; 3 atoms x 4 worlds is above
    for seed in SEEDS:
        for atoms, worlds in ((4, 8), (4, 16), (3, 8)):
            calls.append(_call("fit-bilinear", "--atoms", atoms, "--worlds",
                               worlds, "--seed", seed))
    # seed 1 draws four distinct worlds, so no class merges
    calls.append(_call("fit-bilinear", "--atoms", 4, "--worlds", 4,
                       "--depth", 1, "--seed", 1))
    # the shape of the isotypic peak-RSS bound in CI, and a report that
    # fails its tolerance, which names its failing property
    calls += [_call("isotypic", "--entities", 5, "--relations", 6),
              _call("isotypic", "--entities", 4, "--relations", 2,
                    "--tol", "1e-30")]
    # a families report of 8,192 members, which its template writes
    calls.append(_call("families", "--entities", 32, "--relations", 2))
    # saves over sizes, widths and parities
    shapes = ((None, "both", "json"), (1, "+", "csv"), (3, "-", "json"))
    for n in range(2, 7):
        for r in (1, 2, 3):
            for width, parity, fmt in shapes:
                calls += _save_and_verify(
                    f"grid-{n}-{r}-{width}-{parity}.{fmt}", fmt,
                    "--entities", n, "--relations", r, "--parity", parity,
                    *(("--context-dim", width) if width else ()))
    # builds whose raw samples span three draw blocks of 7, 7 and 6
    wide = ("--entities", 3, "--relations", 1, "--context-dim", 1000,
            "--terms", 20, "--seed", 3)
    calls += [_call("factorize", *wide, "--parity", parity)
              for parity in ("both", "+", "-")]
    calls.append(_call("parity", *wide))
    calls += _save_and_verify("wide.csv", "csv", *wide)
    # factorized forms of one parity each, and of three raw samples
    size = ("--entities", 3, "--relations", 1)
    calls += [_call("factorize", *size, "--parity", "+"),
              _call("factorize", *size, "--parity", "-"),
              _call("factorize", *size, "--terms", 3),
              _call("parity", *size, "--terms", 3)]
    # closures that deduplicate a base relation's image
    for seed in COINCIDENT_SEEDS:
        size = ("--entities", 2, "--relations", 2, "--seed", seed)
        calls += [_call("families", *size), _call("factorize", *size),
                  _call("parity", *size)]
        calls += _save_and_verify(f"coincident-{seed}.json", "json", *size)
    calls += [_call("gradlab", "--config", f"gradlab-2-{relations}.json",
                    "--seed", seed)
              for seed, relations in COINCIDENT_GRADLAB]
    # fits past the conjunction workload's shapes: two that hold the product
    # law, one of them over two packed bytes a row, and a depth-1 walk
    calls += [_call("fit-bilinear", "--atoms", 5, "--worlds", 9),
              _call("fit-bilinear", "--atoms", 6, "--worlds", 8),
              _call("fit-bilinear", "--atoms", 5, "--worlds", 8,
                    "--depth", 1)]
    # a wide fit that the budget admits only since each design is
    # compressed to m min(m, c) rows
    calls.append(_call("fit-bilinear", "--atoms", 5, "--worlds", 16))
    # both conjunction checks at the largest depth-1 shape the budget admits
    calls += [_call(command, "--atoms", 12, "--depth", 1, "--worlds", 8)
              for command in ("fit-bilinear", "kernel-stability")]
    # collapse certificates at wide dims, with and without the flag, and
    # with more atoms than dims
    calls += [_call("collapse", "--atoms", 1, "--dim", 1000),
              _call("collapse", "--atoms", 8, "--dim", 3),
              _call("collapse", "--atoms", 3, "--dim", 100000),
              _call("collapse", "--atoms", 2, "--dim", 1000,
                    "--no-neg-equiv")]
    # the laws over all 65,536 relations on 4 entities, and at the
    # largest entity count the default counts admit
    calls += [_call("relalg-laws", "--entities", 4, "--exhaustive"),
              _call("relalg-laws", "--entities", 31, "--pairs", 200,
                    "--triples", 20)]
    # a parity split over the budget that a build of its shape fits: exit 2
    calls.append(_call("parity", "--entities", 4, "--relations", 100,
                       "--context-dim", 1, "--terms", 18078))
    return tuple(calls)


CALLS = _calls()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blas() -> dict | None:
    """The name and version of NumPy's BLAS, or None where NumPy cannot
    report its configuration as data (before 1.26)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return None
    found = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": found.get("name"), "version": found.get("version")}


def run_ladder(calls, workdir) -> dict:
    """Run `calls` inside `workdir` and return the manifest."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = {"entity_count": 3, "relations": 1, "density": 0.5,
              "arch": "slp_linear", "hidden": 9, "epochs": 5, "lr": 0.1,
              "eta": 0.1, "block": "all"}
    (workdir / GRADLAB_CONFIG).write_text(json.dumps(config, sort_keys=True))
    for _, relations in COINCIDENT_GRADLAB:
        coincident = {**config, "entity_count": 2, "relations": relations}
        (workdir / f"gradlab-2-{relations}.json").write_text(
            json.dumps(coincident, sort_keys=True))
    entries = []
    start = Path.cwd()
    os.chdir(workdir)
    try:
        for argv, writes in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = slplab_main(list(argv))
            report = out.getvalue()
            entries.append({
                "argv": list(argv), "exit": code,
                "report": _digest(report.encode("utf-8")),
                "report_json": json.loads(report) if report else None,
                "stderr": _digest(err.getvalue().encode("utf-8")),
                "files": {name: _digest(Path(name).read_bytes())
                          if Path(name).exists() else None
                          for name in writes}})
    finally:
        os.chdir(start)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas(), "calls": entries}


def _by_call(manifest: dict) -> dict:
    return {" ".join(e["argv"]): e for e in manifest["calls"]}


def compare(old: dict, new: dict) -> list[str]:
    """The argv of each call whose entry differs or is in one manifest only."""
    a, b = _by_call(old), _by_call(new)
    return [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]


_ABSENT = object()


def leaf_paths(old, new, path="$") -> list[str]:
    """The JSON leaf paths at which two parsed documents differ; a path
    present in one document only, or a list whose length changed, counts
    as one leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [leaf for key in sorted(old.keys() | new.keys())
                for leaf in leaf_paths(old.get(key, _ABSENT),
                                       new.get(key, _ABSENT),
                                       f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and \
            len(old) == len(new):
        return [leaf for i, (a, b) in enumerate(zip(old, new))
                for leaf in leaf_paths(a, b, f"{path}[{i}]")]
    return [] if type(old) is type(new) and old == new else [path]


def differences(old: dict, new: dict) -> list[str]:
    """What differs between two manifest entries of one call: the exit
    code, stderr, each written file by name, and each leaf path of the
    report, or `report` when only its bytes differ."""
    found = [field for field in ("exit", "stderr") if old[field] != new[field]]
    found += [f"file {name}" for name in sorted(old["files"].keys() |
                                                 new["files"].keys())
              if old["files"].get(name) != new["files"].get(name)]
    if old["report"] != new["report"]:
        found += leaf_paths(old.get("report_json"),
                            new.get("report_json")) or ["report"]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, default=Path("ladder"),
                        help="directory the calls run in (default ./ladder)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="write the manifest here (default: stdout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="name the calls that differ between manifests, "
                             "and what differs in each")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8"))
                    for p in args.compare)
        differ = compare(old, new)
        a, b = _by_call(old), _by_call(new)
        for key in differ:
            print(f"differs: {key}")
            if key in a and key in b:
                for found in differences(a[key], b[key]):
                    print(f"    {found}")
            else:
                print(f"    only in {'A' if key in a else 'B'}")
        print(f"{len(differ)} of {len(new['calls'])} calls differ")
        return int(bool(differ))
    manifest = run_ladder(CALLS, args.workdir)
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    if args.manifest:
        args.manifest.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    codes = [e["exit"] for e in manifest["calls"]]
    print(f"{len(codes)} calls: " + ", ".join(
        f"{codes.count(c)} exit {c}" for c in sorted(set(codes))),
        file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
