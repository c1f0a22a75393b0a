#!/usr/bin/env python3
"""Seed sweep of the fact/negation gradient-alignment experiment.

For each seed: draw a synthetic knowledge base, train the tanh scorer with
the negation flag in its input encoding, and measure the cosine between each
fact's gradient and its negation partner's.  The linear scorer over the
family-indicator features is run alongside as the exact baseline — its
cosines are -1 by construction, so the interesting column is how far the
trained network moves in that direction.

Usage:
    python scripts/alignment_sweep.py --seeds 20 --entities 6 --relations 2
    python scripts/alignment_sweep.py --block emb --out sweep.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from slplab.cli import _at_least, _density, _positive
from slplab.gradlab import (BLOCK_NAMES, alignment_experiment, generate_kb,
                            make_mlp, make_slp_linear, train)
from slplab.queryspace import family_count


def run_seed(seed: int, args: argparse.Namespace) -> dict:
    started = time.perf_counter()
    kb = generate_kb(args.entities, args.relations, args.density, seed=seed)
    mlp = make_mlp(kb, hidden=args.hidden, embed_dim=args.embed_dim,
                   seed=seed)
    result = train(mlp, kb, epochs=args.epochs, lr=args.lr)
    trained = alignment_experiment(result.model, kb, block=args.block)

    slp = make_slp_linear(kb, context_dim=family_count(kb.algebra),
                          seed=seed)
    exact = alignment_experiment(slp, kb, block="all")
    return {
        "seed": seed,
        "n_pairs": len(kb.facts),
        "train_accuracy": result.accuracy,
        "final_loss": result.losses[-1],
        "mlp_mean": trained.mean,
        "mlp_std": trained.std,
        "mlp_excluded": trained.excluded,
        "slp_mean": exact.mean,
        "seconds": time.perf_counter() - started,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_at_least(1), default=20,
                        help="number of seeds, run as 0..n-1 (default 20)")
    parser.add_argument("--entities", type=_at_least(2), default=6)
    parser.add_argument("--relations", type=_at_least(1), default=2)
    parser.add_argument("--density", type=_density, default=0.5)
    parser.add_argument("--hidden", type=_at_least(1), default=16)
    parser.add_argument("--embed-dim", type=_at_least(1), default=16)
    # each row reports the final training loss
    parser.add_argument("--epochs", type=_at_least(1), default=500)
    parser.add_argument("--lr", type=_positive, default=0.5)
    parser.add_argument("--block", default="all", choices=BLOCK_NAMES)
    parser.add_argument("--out", type=Path, default=None,
                        help="write per-seed rows as JSON")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'seed':>4}  {'pairs':>5}  {'acc':>5}  {'mlp mean':>8}  "
          f"{'mlp std':>7}  {'slp mean':>8}  {'sec':>5}")
    for seed in range(args.seeds):
        row = run_seed(seed, args)
        rows.append(row)
        print(f"{row['seed']:>4}  {row['n_pairs']:>5}  "
              f"{row['train_accuracy']:>5.2f}  {row['mlp_mean']:>8.3f}  "
              f"{row['mlp_std']:>7.3f}  {row['slp_mean']:>8.3f}  "
              f"{row['seconds']:>5.2f}")

    means = np.array([row["mlp_mean"] for row in rows])
    positive = int((means > 0.0).sum())
    print(f"\n{positive}/{len(rows)} seeds with positive mean alignment; "
          f"mean of means {means.mean():.3f}, "
          f"range [{means.min():.3f}, {means.max():.3f}]")
    print("linear baseline mean is exactly -1.0 on every seed"
          if all(row["slp_mean"] == -1.0 for row in rows) else
          "warning: linear baseline deviated from -1.0")

    if args.out is not None:
        payload = {"config": vars(args) | {"out": str(args.out)},
                   "rows": rows}
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
