"""Command-line entry point: every check suite behind one seeded binary.

Every subcommand writes one fixed-schema report (check, pass, max_deviation,
details, provenance) to --out, or to stdout when --out is omitted.  Exit
status: 0 when the report passes, 1 when it fails, 2 on usage errors; usage
errors never produce a report file.  Argument ranges are checked when the
arguments are parsed, so an out-of-range size is a usage error, never a
failed check.  Randomness flows from --seed, falling back to the SLPLAB_SEED
environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, numerics
from .conjunction import (check_kernel_stability, collapse_certificate,
                          fit_bilinear, possible_worlds_assignment)
from .factorize import (BlockSpec, ConverseInvarianceError, build_slp_map,
                        isotypic_decompose, negation_split, parity_decompose,
                        parity_involution, verify_factorized_form)
from .featspace import (KernelNotInvariantError,
                        check_family_kernel_decomposition,
                        check_logical_equivariance, check_slp,
                        load_feature_map, propagation_audit, save_feature_map)
from .gradlab import (alignment_experiment, edit_step, generate_kb, make_mlp,
                      make_slp_linear, train)
from .queryspace import compute_families, families_to_json
from .relalg import (EntitySet, all_relations, close_unary, compose, converse,
                     negate, random_base_relations, random_relation)
from .reports import Report, emit_report, render_report


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SLPLAB_SEED")
    if env is None:
        return 0
    try:
        return _at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"SLPLAB_SEED: {exc}")


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "out", "seed"}
    return {k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items()) if k not in skip}


def _finish(report: Report, args: argparse.Namespace, seed: int) -> int:
    config = _config_dict(args)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    report.provenance = {"config_hash": digest, "seed": seed,
                         "version": __version__}
    if getattr(args, "out", None):
        emit_report(report, args.out)
    else:
        sys.stdout.write(render_report(report))
    return 0 if report.passed else 1


def _random_algebra(args: argparse.Namespace, rng, parser):
    """Seeded base relations and their closure.

    A second degenerate draw of one relation is a usage error: the requested
    entity count and density make a proper relation unlikely.
    """
    try:
        base = random_base_relations(EntitySet.of_size(args.entities), rng,
                                     args.relations, args.density)
    except ValueError as exc:
        parser.error(str(exc))
    return close_unary(base)


def _build_from_args(args: argparse.Namespace, seed: int, parser):
    rng = np.random.default_rng(seed)
    algebra = _random_algebra(args, rng, parser)
    families = compute_families(algebra)
    context_dim = args.context_dim
    if context_dim is None:
        # smallest shape that can reach full representative rank
        context_dim = len(families)
    terms = args.terms
    if terms is None:
        # one raw sample spans at most |E|^2 row directions
        terms = max(1, -(-len(families) // args.entities ** 2))
    parity = None if args.parity == "both" else args.parity
    spec = BlockSpec(context_dim, terms, parity)
    built = build_slp_map(algebra, [spec], seed)
    return algebra, families, built


# ---------------------------------------------------------------- subcommands

def _cmd_relalg_laws(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    entity_set = EntitySet.of_size(args.entities)
    rng = np.random.default_rng(seed)
    failures = {"double_negation": 0, "double_converse": 0,
                "negate_converse_commute": 0, "converse_of_composition": 0,
                "associativity": 0}
    if args.exhaustive:
        unary_pool = list(all_relations(entity_set))
    else:
        unary_pool = [random_relation(entity_set, rng)
                      for _ in range(args.pairs)]
    for r in unary_pool:
        if negate(negate(r)) != r:
            failures["double_negation"] += 1
        if converse(converse(r)) != r:
            failures["double_converse"] += 1
        if negate(converse(r)) != converse(negate(r)):
            failures["negate_converse_commute"] += 1
    for _ in range(args.pairs):
        r = random_relation(entity_set, rng)
        s = random_relation(entity_set, rng)
        if converse(compose(r, s)) != compose(converse(s), converse(r)):
            failures["converse_of_composition"] += 1
    for _ in range(args.triples):
        r = random_relation(entity_set, rng)
        s = random_relation(entity_set, rng)
        t = random_relation(entity_set, rng)
        if compose(compose(r, s), t) != compose(r, compose(s, t)):
            failures["associativity"] += 1
    total = sum(failures.values())
    report = Report(
        check="relalg_laws", passed=total == 0, max_deviation=float(total),
        details={"entities": args.entities, "exhaustive": bool(args.exhaustive),
                 "unary_relations_checked": len(unary_pool),
                 "pairs": args.pairs, "triples": args.triples,
                 "failures": failures},
    )
    return _finish(report, args, seed)


def _cmd_families(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    rng = np.random.default_rng(seed)
    algebra = _random_algebra(args, rng, parser)
    families = compute_families(algebra)
    partition = families_to_json(families)
    sizes = sorted({len(f.members) for f in families})
    n_queries = sum(len(f.members) for f in families)
    report = Report(
        check="families", passed=True, max_deviation=0.0,
        details={"n_families": len(families), "n_queries": n_queries,
                 "orbit_sizes": sizes, "families": partition},
    )
    if args.out:
        # the partition itself is the subcommand's stdout product
        sys.stdout.write(json.dumps(partition, sort_keys=True) + "\n")
    return _finish(report, args, seed)


def _cmd_build_slp(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    algebra, families, built = _build_from_args(args, seed, parser)
    equiv = check_logical_equivariance(built.feature_map, families, algebra)
    rank = check_slp(built.feature_map, families)
    if args.save:
        save_feature_map(built.feature_map, algebra, args.save, args.fmt)
    report = Report(
        check="build_slp", passed=equiv.passed and rank.passed,
        max_deviation=max(equiv.max_deviation, rank.max_deviation),
        details={"equivariance": equiv.to_dict(), "slp_rank": rank.to_dict(),
                 "redrawn": built.redrawn, "dim": built.dim,
                 "saved": str(args.save) if args.save else None},
    )
    return _finish(report, args, seed)


def _cmd_verify_slp(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    try:
        fmap, algebra = load_feature_map(args.load, args.fmt)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot load {args.load}: {type(exc).__name__}: {exc}")
    families = compute_families(algebra)
    equiv = check_logical_equivariance(fmap, families, algebra, tol=args.tol)
    rank = check_slp(fmap, families)
    blocks = check_family_kernel_decomposition(fmap, families)
    report = Report(
        check="verify_slp",
        passed=equiv.passed and rank.passed and blocks.passed,
        max_deviation=max(equiv.max_deviation, rank.max_deviation,
                          blocks.max_deviation),
        details={"equivariance": equiv.to_dict(), "slp_rank": rank.to_dict(),
                 "kernel_decomposition": blocks.to_dict(),
                 "loaded": str(args.load)},
    )
    return _finish(report, args, seed)


def _cmd_factorize(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    algebra, _, built = _build_from_args(args, seed, parser)
    form = verify_factorized_form(built)
    split = negation_split(built)
    passed = form.passed and split.plus_dim == 0
    report = Report(
        check="factorize", passed=passed, max_deviation=form.max_deviation,
        details={"form": form.to_dict(),
                 "negation_split": {"plus_dim": split.plus_dim,
                                    "minus_dim": split.minus_dim,
                                    "span_dim": split.span_dim},
                 "lift_rank": built.feature_map.spectrum().span_margin(),
                 "redrawn": built.redrawn},
    )
    return _finish(report, args, seed)


def _cmd_isotypic(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    if args.entities > 5:
        parser.error("isotypic decomposition materializes Sym(n); --entities <= 5")
    algebra, _, built = _build_from_args(args, seed, parser)
    details = {"tol": args.tol,
               "lift_rank": built.feature_map.spectrum().span_margin()}
    try:
        projectors, props = isotypic_decompose(built)
    except KernelNotInvariantError as exc:
        g = exc.renaming
        details.update(error="renaming does not preserve the kernel",
                       renaming={"perm": list(g.perm), "sign": g.sign})
        report = Report(check="isotypic", passed=False,
                        max_deviation=exc.deviation, details=details)
        return _finish(report, args, seed)
    worst = max(props[k] for k in ("idempotence", "annihilation",
                                   "completeness_on_span", "commutation",
                                   "orthogonality"))
    details.update(properties=props, irreps=[
        {"partition": list(p.irrep), "dim": p.irrep_dim,
         "image_dim": p.image_dim} for p in projectors])
    report = Report(check="isotypic", passed=worst <= args.tol,
                    max_deviation=worst, details=details)
    return _finish(report, args, seed)


def _cmd_parity(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    algebra, _, built = _build_from_args(args, seed, parser)
    inv = parity_involution(algebra)
    try:
        decomp = parity_decompose(built, tol=args.tol)
    except ConverseInvarianceError as exc:
        report = Report(
            check="parity", passed=False, max_deviation=exc.deviation,
            details={"error": "converse invariance failed",
                     "query": list(exc.query), "tol": args.tol},
        )
        return _finish(report, args, seed)
    report = Report(
        check="parity", passed=decomp.max_cross_residual <= args.tol,
        max_deviation=decomp.max_cross_residual,
        details={"tol": args.tol,
                 "cross_residual": decomp.max_cross_residual,
                 "n_term_pairs": sum(len(b) for b in decomp.blocks),
                 "pair_space_dims": list(inv.pair_dims),
                 "relation_space_dims": list(inv.rel_dims)},
    )
    return _finish(report, args, seed)


# Cell budget of the largest array a conjunction command builds: 2^25
# float64s, 268 MB.  It admits kernel-stability at 6 atoms and fit-bilinear
# at 5 atoms and 8 worlds; larger sizes exit 2 before any work.
MAX_CELLS = 1 << 25


def _support_size(atoms: int) -> int:
    """N = 4^atoms - 1 compounds in the depth-2 closure, which bounds every
    depth; past 31 atoms every count is over budget, so the power is capped."""
    return 4 ** min(atoms, 32) - 1


def _stability_cells(atoms: int, worlds: int) -> int:
    """The N x N pair table, or an N x worlds feature gather if larger."""
    n = _support_size(atoms)
    return n * max(n, worlds)


def _fit_cells(atoms: int, worlds: int) -> int:
    """The P x worlds^2 outer products of P = N(N+1)/2 pairs, or the
    worlds^2 x worlds coefficients of the full fit if larger."""
    n = _support_size(atoms)
    return max(n * (n + 1) // 2, worlds) * worlds ** 2


def _worlds_assignment(args, parser, cells: int):
    if cells > MAX_CELLS:
        parser.error(f"--atoms {args.atoms} --worlds {args.worlds} needs more "
                     f"than the {MAX_CELLS}-cell budget in one array")
    seed = _resolve_seed(args, parser)
    assignment, _ = possible_worlds_assignment(args.atoms, args.worlds, seed,
                                               args.depth)
    return assignment, seed


def _cmd_kernel_stability(args, parser) -> int:
    assignment, seed = _worlds_assignment(
        args, parser, _stability_cells(args.atoms, args.worlds))
    report = check_kernel_stability(assignment)
    report.details["atoms"] = args.atoms
    report.details["worlds"] = args.worlds
    report.details["depth"] = args.depth
    return _finish(report, args, seed)


def _cmd_fit_bilinear(args, parser) -> int:
    assignment, seed = _worlds_assignment(
        args, parser, _fit_cells(args.atoms, args.worlds))
    fit = fit_bilinear(assignment)
    report = Report(
        check="fit_bilinear", passed=fit.max_residual <= args.tol,
        max_deviation=fit.max_residual,
        details={"tol": args.tol, "max_residual": fit.max_residual,
                 "uniqueness_gap": fit.uniqueness_gap,
                 "n_constraints": fit.n_constraints,
                 "n_pairs_skipped": fit.n_pairs_skipped,
                 "atoms": args.atoms, "worlds": args.worlds},
    )
    return _finish(report, args, seed)


def _cmd_collapse(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((args.atoms, args.dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    cert = collapse_certificate([f for f in feats],
                                enforce_neg_equiv=args.neg_equiv,
                                tolerance=args.tolerance)
    details = cert.to_dict()
    if args.neg_equiv:
        expected = 2.0 * sum(n * n for n in cert.feature_norms)
        deviation = abs(cert.residual_sq - expected)
        details["expected_residual_sq"] = expected
        passed = deviation <= 1e-6 and cert.verdict == "infeasible"
    else:
        deviation = cert.residual
        passed = cert.verdict == "feasible"
    report = Report(check="collapse_certificate", passed=passed,
                    max_deviation=deviation, details=details)
    return _finish(report, args, seed)


_GRADLAB_KEYS = {"entity_count", "relations", "density", "arch", "hidden",
                 "epochs", "lr", "eta", "seed", "block"}
# smallest accepted value of each integer key
_GRADLAB_MINIMA = {"entity_count": 2, "relations": 1, "hidden": 1,
                   "epochs": 0, "seed": 0}


def _check_gradlab_values(config: dict, parser) -> None:
    """Type and range of every gradlab config value; a bad one is a usage error."""
    for key, low in _GRADLAB_MINIMA.items():
        value = config.get(key)
        if key == "seed" and value is None:
            continue
        if type(value) is not int or value < low:
            parser.error(f"{key} must be an integer >= {low}, got {value!r}")
    for key in ("density", "lr", "eta"):
        value = config[key]
        # rejects bools, strings, NaN, infinities and ints beyond float range
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            parser.error(f"{key} must be a finite number, got {value!r}")
    if not 0 < config["density"] < 1:
        parser.error(f"density must be in (0, 1), got {config['density']!r}")
    if not config["lr"] > 0:
        parser.error(f"lr must be positive, got {config['lr']!r}")


def _cmd_gradlab(args, parser) -> int:
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(config, dict):
        parser.error("config must be a JSON object")
    unknown = set(config) - _GRADLAB_KEYS
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    missing = _GRADLAB_KEYS - set(config) - {"seed"}
    if missing:
        parser.error(f"missing config keys: {sorted(missing)}")
    if config["arch"] not in ("mlp", "slp_linear"):
        parser.error(f"arch must be mlp or slp_linear, got {config['arch']!r}")
    if config["block"] not in ("emb", "hidden", "head", "all"):
        parser.error(f"unknown block {config['block']!r}")
    _check_gradlab_values(config, parser)
    if config.get("seed") is not None and args.seed is not None:
        parser.error("seed given both in config and on the command line")
    seed = config.get("seed")
    if seed is None:
        seed = _resolve_seed(args, parser)

    try:
        kb = generate_kb(config["entity_count"], config["relations"],
                         config["density"], seed)
        if config["arch"] == "mlp":
            model = make_mlp(kb, hidden=config["hidden"],
                             embed_dim=config["hidden"], seed=seed)
        else:
            model = make_slp_linear(kb, context_dim=config["hidden"], seed=seed)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        result = train(model, kb, epochs=config["epochs"], lr=config["lr"])
    except RuntimeError as exc:
        report = Report(check="gradlab", passed=False, max_deviation=0.0,
                        details={"error": str(exc), "config": config})
        return _finish(report, args, seed)
    alignment = alignment_experiment(
        result.model, kb, config["block"],
        hyperparams={**config, "seed": seed})
    rep_query = kb.facts[0][0]
    edit = edit_step(result.model, rep_query, config["eta"], config["block"])
    neg_gap = abs(edit.exact_delta["neg"] + edit.exact_delta["id"])
    if config["arch"] == "slp_linear":
        exact = (all(c == -1.0 for c in alignment.cosines)
                 and alignment.excluded == 0 and neg_gap == 0.0)
        passed, deviation = exact, max(
            [abs(c + 1.0) for c in alignment.cosines] + [neg_gap], default=0.0)
    else:
        # measurement, not an assertion: magnitude is seed-dependent
        passed, deviation = True, 0.0
    if args.histogram:
        Path(args.histogram).write_text(alignment.histogram_csv(),
                                        encoding="utf-8")
    report = Report(
        check="gradlab", passed=passed, max_deviation=deviation,
        details={"alignment": alignment.to_dict(),
                 "final_loss": result.losses[-1] if result.losses else None,
                 "accuracy": result.accuracy,
                 "edit_step": {"query": list(rep_query),
                               "eta": config["eta"],
                               "exact": edit.exact_delta,
                               "first_order": edit.first_order_delta},
                 "histogram_csv": str(args.histogram) if args.histogram else None},
    )
    return _finish(report, args, seed)


def _cmd_audit(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    algebra, families, built = _build_from_args(args, seed, parser)
    if not 0 <= args.family < len(families):
        parser.error(f"--family must be in [0, {len(families)})")
    report = propagation_audit(built.feature_map, families, algebra,
                               args.family, args.eta)
    return _finish(report, args, seed)


# -------------------------------------------------------------------- parser

def _at_least(lo: int):
    """argparse type: an integer no smaller than `lo`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}, got {value}")
        return value
    return parse


def _float_where(ok, what: str):
    """argparse type: a float for which `ok` holds; `what` says which."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    return parse


_density = _float_where(lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
# every check's pass bound: rejects NaN, infinities and negative values
_tolerance = _float_where(lambda v: 0.0 <= v < math.inf, "finite and >= 0")
# a zero edit makes every response 0.0, so the audit would pass vacuously
_edit_step = _float_where(lambda v: math.isfinite(v) and v != 0.0,
                         "finite and nonzero")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_at_least(0), default=None,
                     help="RNG seed (default: SLPLAB_SEED env, then 0)")
    sub.add_argument("--out", type=Path, default=None,
                     help="report path (default: stdout)")


def _add_build_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--entities", type=_at_least(2), default=3)
    sub.add_argument("--relations", type=_at_least(1), default=2,
                     help="number of random base relations")
    sub.add_argument("--density", type=_density, default=0.5)
    sub.add_argument("--context-dim", type=_at_least(1), default=None,
                     help="feature width (default: one per family)")
    sub.add_argument("--terms", type=_at_least(1), default=None,
                     help="raw samples per block (default: fewest that can "
                          "reach full representative rank)")
    sub.add_argument("--parity", choices=["+", "-", "both"], default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slplab",
        description="verification suites for sign-linked-pair feature geometry")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("relalg-laws", help="negation/converse/composition laws")
    sub.add_argument("--entities", type=_at_least(1), default=3)
    sub.add_argument("--exhaustive", action="store_true",
                     help="run unary laws over every relation")
    sub.add_argument("--pairs", type=_at_least(0), default=10000)
    sub.add_argument("--triples", type=_at_least(0), default=1000)
    _add_common(sub)
    sub.set_defaults(func=_cmd_relalg_laws)

    sub = subs.add_parser("families", help="logical family partition as JSON")
    sub.add_argument("--entities", type=_at_least(2), default=3)
    sub.add_argument("--relations", type=_at_least(1), default=2)
    sub.add_argument("--density", type=_density, default=0.5)
    _add_common(sub)
    sub.set_defaults(func=_cmd_families)

    sub = subs.add_parser("build-slp", help="seeded equivariant feature build")
    _add_build_flags(sub)
    sub.add_argument("--save", type=Path, default=None,
                     help="persist the feature map")
    sub.add_argument("--fmt", choices=["json", "csv"], default="json")
    _add_common(sub)
    sub.set_defaults(func=_cmd_build_slp)

    sub = subs.add_parser("verify-slp", help="re-check a stored feature map")
    sub.add_argument("--load", type=Path, required=True)
    sub.add_argument("--fmt", choices=["json", "csv"], default="json")
    sub.add_argument("--tol", type=_tolerance, default=numerics.REL_TOL,
                     help="equivariance tolerance for loaded maps")
    _add_common(sub)
    sub.set_defaults(func=_cmd_verify_slp)

    sub = subs.add_parser("factorize", help="factorized-form audit + negation split")
    _add_build_flags(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_factorize)

    sub = subs.add_parser("isotypic", help="isotypic projector properties")
    _add_build_flags(sub)
    sub.add_argument("--tol", type=_tolerance, default=numerics.PROJECTOR_TOL)
    _add_common(sub)
    sub.set_defaults(func=_cmd_isotypic)

    sub = subs.add_parser("parity", help="matched-parity decomposition audit")
    _add_build_flags(sub)
    sub.add_argument("--tol", type=_tolerance, default=0.0)
    _add_common(sub)
    sub.set_defaults(func=_cmd_parity)

    sub = subs.add_parser("kernel-stability",
                          help="conjunction kernel stability on a worlds model")
    sub.add_argument("--atoms", type=_at_least(1), default=3,
                     help="at most 6: the N x N pair table of N = 4^atoms - 1 "
                          f"compounds must fit in {MAX_CELLS} cells")
    sub.add_argument("--worlds", type=_at_least(1), default=8)
    sub.add_argument("--depth", type=_at_least(1), default=2)
    _add_common(sub)
    sub.set_defaults(func=_cmd_kernel_stability)

    sub = subs.add_parser("fit-bilinear",
                          help="symmetric bilinear fit on a worlds model")
    sub.add_argument("--atoms", type=_at_least(1), default=3,
                     help="at most 5 at 8 worlds: the P x worlds^2 outer "
                          "products of P = N(N+1)/2 pairs must fit in "
                          f"{MAX_CELLS} cells")
    sub.add_argument("--worlds", type=_at_least(1), default=8)
    sub.add_argument("--depth", type=_at_least(1), default=2)
    sub.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_common(sub)
    sub.set_defaults(func=_cmd_fit_bilinear)

    sub = subs.add_parser("collapse", help="idempotence-vs-sign-flip certificate")
    sub.add_argument("--atoms", type=_at_least(1), default=1)
    sub.add_argument("--dim", type=_at_least(1), default=4)
    sub.add_argument("--neg-equiv", action=argparse.BooleanOptionalAction,
                     default=True)
    sub.add_argument("--tolerance", type=_tolerance, default=1e-8)
    _add_common(sub)
    sub.set_defaults(func=_cmd_collapse)

    sub = subs.add_parser("gradlab", help="gradient alignment experiment")
    sub.add_argument("--config", type=Path, required=True,
                     help="JSON run config")
    sub.add_argument("--histogram", type=Path, default=None,
                     help="write the cosine histogram CSV here")
    _add_common(sub)
    sub.set_defaults(func=_cmd_gradlab)

    sub = subs.add_parser("audit", help="rank-one edit propagation audit")
    _add_build_flags(sub)
    sub.add_argument("--family", type=int, default=0)
    sub.add_argument("--eta", type=_edit_step, default=0.1)
    _add_common(sub)
    sub.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
