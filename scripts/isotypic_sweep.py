#!/usr/bin/env python3
"""Fresh-seed sweep of the isotypic projector check.

For each of n = 4 and 5 entities and 1 and 2 base relations, run
`slplab isotypic` on freshly drawn seeds at its default --tol and count the
seeds whose report does not pass.  The seeds come from a generator seeded
by --entropy, fresh from the OS unless given, so a rerun with the printed
entropy replays the same draws.  Exits 1 if any seed fails.

Usage:
    python scripts/isotypic_sweep.py --seeds 20
    python scripts/isotypic_sweep.py --seeds 200 --entropy 12345
"""

import argparse
import contextlib
import io
import json
import sys
import time

import numpy as np

from slplab.cli import main as slplab_main

CONFIGS = ((4, 1), (4, 2), (5, 1), (5, 2))


def run_seed(entities: int, relations: int, seed: int) -> tuple[int, dict]:
    argv = ["isotypic", "--entities", str(entities),
            "--relations", str(relations), "--seed", str(seed)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = slplab_main(argv)
    return code, json.loads(sink.getvalue()) if code in (0, 1) else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds per (entities, relations) pair")
    parser.add_argument("--entropy", type=int, default=None,
                        help="seed of the seed generator (default: fresh)")
    args = parser.parse_args(argv)

    seq = np.random.SeedSequence(args.entropy)
    rng = np.random.default_rng(seq)
    print(f"entropy {seq.entropy}")
    print(f"{'n':>2}  {'r':>2}  {'seeds':>5}  {'fail':>4}  "
          f"{'worst dev':>9}  {'sec':>6}")
    failures = []
    for entities, relations in CONFIGS:
        started = time.perf_counter()
        worst = 0.0
        failed = 0
        for seed in rng.integers(0, 2**31 - 1, size=args.seeds):
            code, report = run_seed(entities, relations, int(seed))
            worst = max(worst, report.get("max_deviation", 0.0))
            if code != 0:
                failed += 1
                failures.append(f"slplab isotypic --entities {entities} "
                                f"--relations {relations} --seed {seed}: "
                                f"exit {code}")
        print(f"{entities:>2}  {relations:>2}  {args.seeds:>5}  {failed:>4}  "
              f"{worst:>9.2e}  {time.perf_counter() - started:>6.1f}")
    for line in failures:
        print(line)
    print(f"{len(failures)} of {args.seeds * len(CONFIGS)} seeds failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
