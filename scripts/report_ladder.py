#!/usr/bin/env python3
"""Run a fixed, seeded ladder of slplab calls and hash what each one writes.

Every call runs in this process, through `slplab.cli.main`, in one work
directory and with relative paths only: a report's provenance hashes the
paths it was given, so the same code run in two directories writes the same
bytes only when the paths are relative.  For each call the manifest records
the exit code and the SHA-256 of the report (stdout), of stderr and of each
file the call writes (saved maps, their sidecars, histograms).  The ladder
covers every subcommand, a json and a csv save of each map shape of the
`many-maps` benchmark workload with `verify-slp` on each save, a failing
build (exit 1) and usage errors (exit 2).

`--compare A B` names each call whose entry differs between two manifests,
and each call that only one of them holds; it exits 1 when there is one.
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

import numpy as np

from slplab.cli import main as slplab_main

# the map shapes (entities, relations) that the many-maps workload saves
MAP_SHAPES = ((5, 3), (6, 2), (6, 3))
SEEDS = range(7)
GRADLAB_CONFIG = "gradlab.json"


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
    # saves over sizes, widths and parities
    shapes = ((None, "both", "json"), (1, "+", "csv"), (3, "-", "json"))
    for n in range(2, 7):
        for r in (1, 2, 3):
            for width, parity, fmt in shapes:
                calls += _save_and_verify(
                    f"grid-{n}-{r}-{width}-{parity}.{fmt}", fmt,
                    "--entities", n, "--relations", r, "--parity", parity,
                    *(("--context-dim", width) if width else ()))
    return tuple(calls)


CALLS = _calls()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_ladder(calls, workdir) -> dict:
    """Run `calls` inside `workdir` and return the manifest."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = {"entity_count": 3, "relations": 1, "density": 0.5,
              "arch": "slp_linear", "hidden": 9, "epochs": 5, "lr": 0.1,
              "eta": 0.1, "block": "all"}
    (workdir / GRADLAB_CONFIG).write_text(json.dumps(config, sort_keys=True))
    entries = []
    start = Path.cwd()
    os.chdir(workdir)
    try:
        for argv, writes in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = slplab_main(list(argv))
            entries.append({
                "argv": list(argv), "exit": code,
                "report": _digest(out.getvalue().encode("utf-8")),
                "stderr": _digest(err.getvalue().encode("utf-8")),
                "files": {name: _digest(Path(name).read_bytes())
                          if Path(name).exists() else None
                          for name in writes}})
    finally:
        os.chdir(start)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "calls": entries}


def compare(old: dict, new: dict) -> list[str]:
    """The argv of each call whose entry differs or is in one manifest only."""
    def keyed(manifest):
        return {" ".join(e["argv"]): e for e in manifest["calls"]}

    a, b = keyed(old), keyed(new)
    return [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, default=Path("ladder"),
                        help="directory the calls run in (default ./ladder)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="write the manifest here (default: stdout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="name the calls that differ between manifests")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8"))
                    for p in args.compare)
        differ = compare(old, new)
        for key in differ:
            print(f"differs: {key}")
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
