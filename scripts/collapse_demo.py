#!/usr/bin/env python3
"""Conjunction-collapse demonstration: the infeasible and feasible regimes.

Part 1 scales a fixed random atom feature and prints the least-squares
residual of the idempotence system {F(u,u) = u, F(-u,-u) = -u} against the
analytic floor sqrt(2) * |u|: under sign-flip negation equivariance the only
solution is the zero feature, and the residual tracks the floor exactly.

Part 2 drops the equivariance constraint and fits a symmetric bilinear
conjunction operator to the possible-worlds model (one 0/1 coordinate per
world, conjunction = elementwise product).  The fit is exact to solver
precision and agrees with the product oracle, showing the collapse is driven
by the sign convention, not by bilinearity itself.

Usage:
    python scripts/collapse_demo.py
    python scripts/collapse_demo.py --dim 8 --atoms 3 --worlds 4
"""

import argparse
import itertools
import math
import sys

import numpy as np

from slplab.conjunction import (collapse_certificate, fit_bilinear,
                                possible_worlds_assignment)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=5,
                        help="atom feature dimension (default 5)")
    parser.add_argument("--atoms", type=int, default=2)
    parser.add_argument("--worlds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    direction = rng.normal(size=args.dim)
    direction /= np.linalg.norm(direction)

    print("collapse under negation equivariance "
          "(analytic floor: residual = sqrt(2) * |u|)")
    print(f"{'|u|':>8}  {'residual':>12}  {'floor':>12}  {'verdict':>10}")
    for scale in (0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0):
        cert = collapse_certificate([scale * direction],
                                    enforce_neg_equiv=True)
        floor = math.sqrt(2.0) * scale
        print(f"{scale:>8.0e}  {cert.residual:>12.6e}  {floor:>12.6e}  "
              f"{cert.verdict:>10}")

    print(f"\npossible-worlds model, {args.atoms} atoms, "
          f"{args.worlds} worlds, equivariance off")
    assignment, _ = possible_worlds_assignment(args.atoms, args.worlds,
                                               seed=args.seed)
    fit = fit_bilinear(assignment)
    worst_oracle = 0.0
    feats = assignment.features
    for p, q in itertools.combinations_with_replacement(assignment.order, 2):
        predicted = fit.apply(feats[p], feats[q])
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs(predicted
                                               - feats[p] * feats[q]))))
    print(f"  support size      {len(assignment.order)}")
    print(f"  fit constraints   {fit.n_constraints}")
    print(f"  max fit residual  {fit.max_residual:.3e}")
    print(f"  vs product oracle {worst_oracle:.3e}")
    print(f"  uniqueness gap    {fit.uniqueness_gap:.3e}")

    cert = collapse_certificate(list(np.atleast_2d(
        [feats[p] for p in assignment.order[:args.atoms]])),
        enforce_neg_equiv=False)
    print(f"  idempotence residual without the flag: {cert.residual:.3e} "
          f"({cert.verdict})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
