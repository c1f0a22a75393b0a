#!/usr/bin/env python3
"""Run one slplab command in this process and bound its peak RSS.

Prints the command's exit code and the process's peak resident set size
(`ru_maxrss`), and exits 1 if the command exits nonzero or the peak is over
--max-mb megabytes (MiB, as `ru_maxrss` counts KiB on Linux).  Run each
bounded command in a process of its own: the peak is the whole process's.

Usage:
    python scripts/peak_rss.py --max-mb 300 families --entities 128
"""

import argparse
import resource
import sys

from slplab.cli import main as slplab_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="peak RSS bound in MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="slplab arguments, subcommand first")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("missing the slplab command")
    code = slplab_main(args.command)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak_mb:.0f} MB")
    return int(bool(code) or peak_mb > args.max_mb)


if __name__ == "__main__":
    sys.exit(main())
