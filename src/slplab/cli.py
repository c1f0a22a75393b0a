"""Command-line entry point: every check suite behind one seeded binary.

Every subcommand writes one fixed-schema report (check, pass, max_deviation,
details, provenance) to --out, or to stdout when --out is omitted.  Exit
status: 0 when the report passes, 1 when it fails, 2 on usage errors; usage
errors never produce a report file.  Argument ranges are checked when the
arguments are parsed, so an out-of-range size is a usage error, never a
failed check.  Randomness flows from --seed, falling back to the SLPLAB_SEED
environment variable, then to 0.

Each subcommand is a function `(args, seed, parser) -> Report`.  `main`
does the rest for every one of them: it charges the size the subcommand
declares against the cell budget, resolves the seed, and writes the report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, numerics
from .conjunction import (PAIR_BLOCK, check_kernel_stability,
                          collapse_certificate, fit_bilinear,
                          possible_worlds_assignment)
from .factorize import (ConverseInvarianceError, build_slp_map,
                        involution_dims, isotypic_decompose, negation_split,
                        parity_decompose, verify_factorized_form)
from .featspace import (KernelNotInvariantError,
                        check_family_kernel_decomposition,
                        check_logical_equivariance, check_slp,
                        load_feature_map, propagation_audit, save_feature_map)
from .gradlab import (BLOCK_NAMES, alignment_experiment, edit_step,
                      generate_kb, make_mlp, make_slp_linear, train)
from .queryspace import compute_families, families_text, family_count
from .relalg import (EntitySet, Relation, all_relations, close_unary, compose,
                     converse, negate, random_base_relations, random_relation)
from .reports import Layout, Report, emit_report, render_report


# ------------------------------------------------------------- argument types

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
# a zero edit makes every response 0.0, so the audit and gradlab's edit step
# would pass vacuously
_edit_step = _float_where(lambda v: math.isfinite(v) and v != 0.0,
                          "finite and nonzero")
_positive = _float_where(lambda v: 0.0 < v < math.inf, "finite and > 0")


# ------------------------------------------------------------ seeds, reports

def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLPLAB_SEED")
    if env is None:
        return 0
    try:
        return _at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"SLPLAB_SEED: {exc}")


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"run", "size", "out", "seed"}
    return {k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items()) if k not in skip}


def _write(parser, path, write, /, *args, **kwargs) -> None:
    """Call `write(*args, **kwargs)`; an unwritable path is a usage error,
    never a failed check."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        # emit_report wraps the OSError of open() in its own
        parser.error(f"cannot write {path}: {exc.__cause__ or exc}")


def _finish(report: Report, args: argparse.Namespace, seed: int,
            parser) -> int:
    config = _config_dict(args)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    if report.provenance:
        # a run whose input names its own seed, as a gradlab config may,
        # reports the seed it used
        seed = report.provenance["seed"]
    report.provenance = {"config_hash": digest, "seed": seed,
                         "version": __version__}
    if args.out:
        _write(parser, args.out, emit_report, report, args.out)
    else:
        sys.stdout.write(render_report(report))
    return 0 if report.passed else 1


# ---------------------------------------------------------------- cell budget

# Cell budget of the largest array one command builds: 2^25 float64s,
# 268 MB.  It admits kernel-stability at 9 atoms and fit-bilinear at 8
# atoms, both at 8 worlds (12 atoms at depth 1), fit-bilinear at 5 atoms
# and 28 worlds, collapse up to --dim 3,728,262 at 1 atom and 246,707 at
# 8, default-width builds at 32 entities and families at 256 entities
# (both at 2 relations); larger sizes exit 2 before any draw or other
# work.  It also bounds the Python objects of a closure's queries, of a
# build's raw samples and of collapse's atoms, the terms a build keeps, all
# of them together, every array collapse, kernel-stability or fit-bilinear
# holds at once, and the work of fit-bilinear's prefix counts.
MAX_CELLS = 1 << 25


def _within_budget(cells: int, flags: str, parser) -> None:
    if cells > MAX_CELLS:
        parser.error(f"{flags} needs more than the {MAX_CELLS}-cell budget")


def _closure_queries(entities: int, relations: int) -> int:
    """N = entities^2 * 4 * relations: a closure holds at most four
    relations per base relation, its orbit under complement and converse."""
    return entities ** 2 * 4 * relations


# Cells charged per query of a closure, at least: its logical images and
# family arrays and, in `families`, its text in the report, held as blocks
# and once joined.  At 64 to 256 entities and 2 relations under Python 3.11
# `families` traces 347-350 bytes per query with tracemalloc and a width-1
# build 109, so 512 bytes, 1.46 times what `families` holds.
QUERY_OBJECT_CELLS = 64

# Cells charged per raw sample of a build, at least: 2 KB of 8-byte cells,
# sized for two Python term objects per sample.  The stacked factors hold
# less: at 2 entities, 1 relation and width 1 under Python 3.11 the traced
# peak is about 110 bytes per sample in the build and 140 in the form
# audit, so the charge overstates it, and the limits it sets are kept.
SAMPLE_OBJECT_CELLS = 256


def _term_cells(entities: int, relations: int, context_dim, terms,
                u_arrays: int = 1, v_arrays: int = 2) -> int:
    """The kept factors: per raw sample, its two entities x entities x
    width rows of the stacked u factors, or, if more, SAMPLE_OBJECT_CELLS
    plus its two rows of up to 4 * relations cells of the stacked v
    factors, each charged for the `u_arrays` and `v_arrays` of its size
    held at once.  A build holds u once and v twice: the form audit holds
    one more array of v's size.

    A default term count is at most 2 * relations, since a closure holds at
    most N/2 families, and is charged as that many.
    """
    n = _closure_queries(entities, relations)
    width = n // 2 if context_dim is None else context_dim
    if terms is None:
        terms = 2 * relations
    return terms * max(u_arrays * 2 * entities ** 2 * width,
                       SAMPLE_OBJECT_CELLS + v_arrays * 8 * relations)


def _build_cells(entities: int, relations: int, context_dim, terms) -> int:
    """Per query, its row of the N x width feature matrix or, if more, its
    Python objects; or the kept terms, if more.  The default width of one
    column per family is at most N/2, since every family holds a query and
    its negation."""
    n = _closure_queries(entities, relations)
    width = n // 2 if context_dim is None else context_dim
    return max(n * max(width, QUERY_OBJECT_CELLS),
               _term_cells(entities, relations, context_dim, terms))


def _parity_cells(entities: int, relations: int, context_dim,
                  terms) -> int:
    """The build's cells or, if more, the kept factors three times over:
    the parity split holds u and v and both halves of each."""
    return max(_build_cells(entities, relations, context_dim, terms),
               _term_cells(entities, relations, context_dim, terms, 3, 3))


def _isotypic_cells(entities: int, relations: int, context_dim,
                    terms) -> int:
    """The build's cells or, if more, 3 n! w^2, room for three stacks of
    the n! lifts of the span, r x r each for r <= w.  The check holds far
    less: it adds each lift into its class sum as it comes and keeps only
    the class sums, the projectors and the lifts of the generators (0 1)
    and the n-cycle, whose commutation with the projectors it checks.  At
    n = 5 and 10 relations the peak RSS is 100 MB against the charge's
    259 MB (Python 3.11, NumPy 2.4, one OpenBLAS thread).  The span rank r
    is at most the width and at most the family count, which is at most
    n(n+1) relations, so w is the smaller of the two.  n! alone is over the
    budget from 11 entities on, so the factorial is capped there.
    """
    width = (_closure_queries(entities, relations) // 2
             if context_dim is None else context_dim)
    w = min(width, entities * (entities + 1) * relations)
    return max(_build_cells(entities, relations, context_dim, terms),
               3 * math.factorial(min(entities, 11)) * w * w)


def _families_cells(entities: int, relations: int) -> int:
    """Every query's charge: its report text outweighs its four entries of
    the (4, N) table of logical images."""
    return QUERY_OBJECT_CELLS * _closure_queries(entities, relations)


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


def _build(args: argparse.Namespace, seed: int, parser):
    rng = np.random.default_rng(seed)
    algebra = _random_algebra(args, rng, parser)
    n_families = family_count(algebra)
    context_dim = args.context_dim
    if context_dim is None:
        # smallest shape that can reach full representative rank
        context_dim = n_families
    terms = args.terms
    if terms is None:
        # one raw sample spans at most |E|^2 row directions
        terms = max(1, -(-n_families // args.entities ** 2))
    parity = None if args.parity == "both" else args.parity
    return build_slp_map(algebra, context_dim, terms, parity, seed)


# ---------------------------------------------------------------- subcommands

def _laws_cells(entities: int, exhaustive: bool, pairs: int,
                triples: int) -> int:
    """One cell per relation entry drawn or held: entities^2 for each
    unary relation, pair and triple member.  --exhaustive holds all
    2^(entities^2) relations at once, which admits at most 4 entities;
    the power is capped past the budget."""
    unary = 2 ** min(entities ** 2, 32) if exhaustive else pairs
    return entities ** 2 * (unary + 2 * pairs + 3 * triples)


def _mismatches(lhs: Relation, rhs: Relation) -> int:
    """How many relations of two equal-shaped stacks differ."""
    return int(np.any(lhs.matrix != rhs.matrix, axis=(-2, -1)).sum())


def _cmd_relalg_laws(args, seed, parser) -> Report:
    entity_set = EntitySet.of_size(args.entities)
    rng = np.random.default_rng(seed)
    unary = (all_relations(entity_set) if args.exhaustive
             else random_relation(entity_set, rng, shape=(args.pairs,)))
    pair = random_relation(entity_set, rng, shape=(args.pairs, 2))
    r, s = pair[:, 0], pair[:, 1]
    triple = random_relation(entity_set, rng, shape=(args.triples, 3))
    a, b, c = triple[:, 0], triple[:, 1], triple[:, 2]
    failures = {
        "double_negation": _mismatches(negate(negate(unary)), unary),
        "double_converse": _mismatches(converse(converse(unary)), unary),
        "negate_converse_commute": _mismatches(negate(converse(unary)),
                                               converse(negate(unary))),
        "converse_of_composition": _mismatches(
            converse(compose(r, s)), compose(converse(s), converse(r))),
        "associativity": _mismatches(compose(compose(a, b), c),
                                     compose(a, compose(b, c))),
    }
    total = sum(failures.values())
    return Report(
        check="relalg_laws", passed=total == 0, max_deviation=float(total),
        details={"entities": args.entities, "exhaustive": bool(args.exhaustive),
                 "unary_relations_checked": len(unary.matrix),
                 "pairs": args.pairs, "triples": args.triples,
                 "failures": failures},
    )


def _cmd_families(args, seed, parser) -> Report:
    rng = np.random.default_rng(seed)
    algebra = _random_algebra(args, rng, parser)
    families = compute_families(algebra)
    # reversal fixes the representative of a size-2 orbit
    sizes = np.where(families[:, 2] == families[:, 0], 2, 4)
    return Report(
        check="families", passed=True, max_deviation=0.0,
        details={"n_families": len(families), "n_queries": int(sizes.sum()),
                 "orbit_sizes": np.unique(sizes).tolist(),
                 "families": Layout(functools.partial(
                     families_text, families, algebra))},
    )


def _cmd_build_slp(args, seed, parser) -> Report:
    built = _build(args, seed, parser)
    equiv = check_logical_equivariance(built.feature_map)
    rank = check_slp(built.feature_map)
    if args.save:
        _write(parser, args.save, save_feature_map, built.feature_map,
               path=args.save, fmt=args.fmt)
    return Report(
        check="build_slp", passed=equiv.passed and rank.passed,
        max_deviation=max(equiv.max_deviation, rank.max_deviation),
        details={"equivariance": equiv.to_dict(), "slp_rank": rank.to_dict(),
                 "redrawn": built.redrawn, "dim": built.dim,
                 "saved": str(args.save) if args.save else None},
    )


def _cmd_verify_slp(args, seed, parser) -> Report:
    try:
        fmap = load_feature_map(args.load, args.fmt)
    except (OSError, ValueError, KeyError, TypeError, RecursionError,
            csv.Error) as exc:
        parser.error(f"cannot load {args.load}: {type(exc).__name__}: {exc}")
    n_queries = len(fmap.matrix)
    _within_budget(n_queries ** 2, f"the N x N span projector of a loaded "
                   f"map of N = {n_queries} queries", parser)
    equiv = check_logical_equivariance(fmap, tol=args.tol)
    rank = check_slp(fmap)
    blocks = check_family_kernel_decomposition(fmap)
    return Report(
        check="verify_slp",
        passed=equiv.passed and rank.passed and blocks.passed,
        max_deviation=max(equiv.max_deviation, rank.max_deviation,
                          blocks.max_deviation),
        details={"equivariance": equiv.to_dict(), "slp_rank": rank.to_dict(),
                 "kernel_decomposition": blocks.to_dict(),
                 "loaded": str(args.load)},
    )


def _cmd_factorize(args, seed, parser) -> Report:
    built = _build(args, seed, parser)
    form = verify_factorized_form(built)
    split = negation_split(built.feature_map)
    passed = form.passed and split.plus_dim == 0
    return Report(
        check="factorize", passed=passed, max_deviation=form.max_deviation,
        details={"form": form.to_dict(),
                 "negation_split": {"plus_dim": split.plus_dim,
                                    "minus_dim": split.minus_dim,
                                    "span_dim": split.span_dim},
                 "lift_rank": built.feature_map.spectrum.span_margin(),
                 "redrawn": built.redrawn},
    )


def _cmd_isotypic(args, seed, parser) -> Report:
    if args.entities > 5:
        parser.error("isotypic decomposition materializes Sym(n); --entities <= 5")
    built = _build(args, seed, parser)
    details = {"tol": args.tol,
               "lift_rank": built.feature_map.spectrum.span_margin()}
    try:
        projectors, props, offenders = isotypic_decompose(built.feature_map)
    except KernelNotInvariantError as exc:
        g = exc.renaming
        details.update(error="renaming does not preserve the kernel",
                       renaming={"perm": list(g.perm), "sign": g.sign})
        return Report(check="isotypic", passed=False,
                      max_deviation=exc.deviation, details=details)
    # the first property at the maximum names the failure
    name = max(offenders, key=props.__getitem__)
    worst = props[name]
    details.update(properties=props, irreps=[
        {"partition": list(p.irrep), "dim": p.irrep_dim,
         "image_dim": p.image_dim} for p in projectors])
    passed = worst <= args.tol
    if not passed:
        details.update(failing_property=name, offender=offenders[name])
    return Report(check="isotypic", passed=passed,
                  max_deviation=worst, details=details)


def _cmd_parity(args, seed, parser) -> Report:
    built = _build(args, seed, parser)
    n = built.feature_map.n
    # (h, t) -> (t, h) on the pair space; r -> conv r on the relations
    pair_dims = involution_dims(np.arange(n * n).reshape(n, n).T.ravel())
    rel_dims = involution_dims(built.feature_map.algebra.images[2])
    try:
        decomp = parity_decompose(built, tol=args.tol)
    except ConverseInvarianceError as exc:
        return Report(
            check="parity", passed=False, max_deviation=exc.deviation,
            details={"error": "converse invariance failed",
                     "query": list(exc.query), "tol": args.tol},
        )
    return Report(
        check="parity", passed=decomp.max_cross_residual <= args.tol,
        max_deviation=decomp.max_cross_residual,
        details={"tol": args.tol,
                 "cross_residual": decomp.max_cross_residual,
                 "n_term_pairs": len(decomp.u_plus),
                 "pair_space_dims": list(pair_dims),
                 "relation_space_dims": list(rel_dims)},
    )


def _support_size(atoms: int, depth: int) -> int:
    """N compounds: 2 atoms literals at depth 1, else all 4^atoms - 1 literal
    sets; past 31 atoms every count is over budget, so the power is capped."""
    return 2 * atoms if depth == 1 else 4 ** min(atoms, 32) - 1


# Cells charged for the Python objects of one kernel-stability run, its
# parser, contexts and report: about 500 cells traced under Python 3.11,
# past the first run's imports.
STABILITY_OBJECT_CELLS = 4096


def _stability_cells(atoms: int, worlds: int, depth: int) -> int:
    """The arrays check_kernel_stability holds at once, summed: five N x
    worlds arrays (the features, and one generator's gather, its
    projection onto the span, its residual and the squares of the
    residual's column norms), the SVD's two factors, min(N, worlds) (N +
    worlds) cells, three N-long index arrays (the support's codes and one
    gather's image codes and rows), the 2^(2 atoms)-entry image table,
    indexed by literal code at any depth, and STABILITY_OBJECT_CELLS.  The
    2 atoms generator gathers are work, one at a time, and not charged."""
    n = _support_size(atoms, depth)
    k = min(n, worlds)
    return (5 * n * worlds + k * (n + worlds) + 3 * n + 4 ** min(atoms, 32)
            + STABILITY_OBJECT_CELLS)


def _fit_cells(atoms: int, worlds: int, depth: int) -> int:
    """The arrays fit_bilinear holds at once, or its work if larger, plus
    the 4^atoms-entry image table, which is held beside either.

    A worlds-model row is 0 or the indicator of a partial truth assignment,
    and a class of equal world columns is one truth assignment of the
    atoms, so the fit sees m <= min(N, 2^worlds, 3^atoms) distinct rows
    and c <= min(worlds, 2^atoms) classes.  At depth >= 2 the worlds model
    holds the product law, so the fit never walks the pairs.  Its fit
    holds, at once, 10 tables of m x m x c cells (the group sums, the
    weighted blocks and their QR factor, the target table, the pair tables
    and their temporaries) and 3 copies of the m min(m, c) x c^2 ordered
    design, whose rows the QR compressed.  Per world, the features, truth
    draws, law-check masks and world-class sort trace 13 cells at 1 atom
    (16 at 2 atoms and depth 1), charged 24.  One block of at most max(m,
    PAIR_BLOCK) prefix counts is charged too.  Work:
    the model's build and the law check each take 2 atoms passes over the
    N x worlds features, and the prefix counts visit N x m cells.  At
    depth 1 the support is the N = 2 atoms literals, and their pair walk is
    far smaller than the image table, indexed by literal code.
    """
    n = _support_size(atoms, depth)
    m = min(n, 2 ** min(worlds, 64), 3 ** min(atoms, 32))
    c = min(worlds, 2 ** min(atoms, 32))
    fit = 10 * m * m * c + 3 * m * min(m, c) * c * c
    return (max(2 * atoms * n * worlds, 24 * worlds, n * m, PAIR_BLOCK, fit)
            + 4 ** min(atoms, 32))


def _cmd_kernel_stability(args, seed, parser) -> Report:
    assignment, _ = possible_worlds_assignment(args.atoms, args.worlds, seed,
                                               args.depth)
    report = check_kernel_stability(assignment)
    report.details.update(atoms=args.atoms, worlds=args.worlds,
                          depth=args.depth)
    return report


def _cmd_fit_bilinear(args, seed, parser) -> Report:
    assignment, _ = possible_worlds_assignment(args.atoms, args.worlds, seed,
                                               args.depth)
    fit = fit_bilinear(assignment)
    p, q, image = fit.worst_pair
    return Report(
        check="fit_bilinear", passed=fit.max_residual <= args.tol,
        max_deviation=fit.max_residual,
        details={"tol": args.tol, "max_residual": fit.max_residual,
                 "uniqueness_gap": fit.uniqueness_gap,
                 "n_constraints": fit.n_constraints,
                 "n_pairs_skipped": fit.n_pairs_skipped,
                 "n_groups": fit.n_groups,
                 "worst_pair": {"p": repr(p), "q": repr(q),
                                "image": repr(image),
                                "residual": fit.max_residual},
                 "atoms": args.atoms, "worlds": args.worlds},
    )


# Cells charged per atom of `collapse`: its feature's row view, its norm in
# the report and the norm's JSON text.  At dim 1 under Python 3.11 the peak
# RSS grows by about 350 bytes per atom, 44 cells.
ATOM_OBJECT_CELLS = 64


def _collapse_cells(atoms: int, dim: int) -> int:
    """Every array the certificate holds at once, for m = 2 atoms rows and
    P = k(k+1)/2 unknowns, k = min(atoms, dim): per dim, the features and
    their stack, the m targets, and lstsq's max(m, P)-row right-hand side,
    2 min(m, P)-row work (as measured) and P-row solution and its copy, or,
    after the solve, the solution, fit and residual; plus each atom's
    objects, its k^2 outer products, and the m x P design twice."""
    m = 2 * atoms
    k = min(atoms, dim)
    p = k * (k + 1) // 2
    return (dim * (3 * m + p + max(m, p + min(m, p)))
            + atoms * (ATOM_OBJECT_CELLS + k * k) + 2 * m * p)


def _cmd_collapse(args, seed, parser) -> Report:
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
    return Report(check="collapse_certificate", passed=passed,
                  max_deviation=deviation, details=details)


# the flag type that checks each number of a gradlab config, given the
# value's JSON text: it rejects strings, bools, nulls, floats given for
# integers, NaN and infinities
_GRADLAB_VALUES = {"entity_count": _at_least(2), "relations": _at_least(1),
                   "hidden": _at_least(1), "epochs": _at_least(0),
                   "seed": _at_least(0), "density": _density,
                   "lr": _positive, "eta": _edit_step}
_GRADLAB_KEYS = {*_GRADLAB_VALUES, "arch", "block"}


def _gradlab_cells(arch: str, entities: int, relations: int,
                   hidden: int) -> int:
    """The largest array a gradlab run builds.  slp_linear builds the
    N x hidden feature matrix of N = entities^2 * 4 * relations queries,
    which bounds its kept terms and its gathered training rows.  The mlp's
    T = 2 * relations * entities^2 training rows are encoded as T x input
    one-hot rows, input = 2 * entities + classes + 1 with at most
    2 * relations complement classes, and pass through T x hidden
    activations; its weights are hidden x input and hidden x hidden."""
    if arch == "slp_linear":
        return _closure_queries(entities, relations) * hidden
    rows = 2 * relations * entities ** 2
    inputs = 2 * entities + 2 * relations + 1
    return max(rows, hidden) * max(inputs, hidden)


def _read_gradlab_config(args, parser) -> dict:
    """The keys, types, ranges and size of a gradlab config; a bad one is a
    usage error."""
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8 and integers past Python's
        # int/str digit limit; RecursionError, arrays nested too deep
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
    if config["block"] not in BLOCK_NAMES:
        parser.error(f"unknown block {config['block']!r}")
    for key, parse in _GRADLAB_VALUES.items():
        if key != "seed" or config.get(key) is not None:
            try:
                parse(json.dumps(config[key]))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"config {key}: {exc}")
    sizes = (config["entity_count"], config["relations"], config["hidden"])
    _within_budget(_gradlab_cells(config["arch"], *sizes),
                   "an {} run at entity_count {}, relations {}, hidden {}"
                   .format(config["arch"], *sizes), parser)
    return config


def _cmd_gradlab(args, seed, parser) -> Report:
    config = _read_gradlab_config(args, parser)
    if config.get("seed") is not None:
        if args.seed is not None:
            parser.error("seed given both in config and on the command line")
        seed = config["seed"]
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
        return Report(check="gradlab", passed=False, max_deviation=0.0,
                      details={"error": str(exc), "config": config},
                      provenance={"seed": seed})
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
        _write(parser, args.histogram, args.histogram.write_text,
               alignment.histogram_csv(), "utf-8")
    return Report(
        check="gradlab", passed=passed, max_deviation=deviation,
        details={"alignment": alignment.to_dict(),
                 "final_loss": result.losses[-1] if result.losses else None,
                 "accuracy": result.accuracy,
                 "edit_step": {"query": list(rep_query),
                               "eta": config["eta"],
                               "exact": edit.exact_delta,
                               "first_order": edit.first_order_delta},
                 "histogram_csv": str(args.histogram) if args.histogram else None},
        provenance={"seed": seed},
    )


def _cmd_audit(args, seed, parser) -> Report:
    fmap = _build(args, seed, parser).feature_map
    n_families = len(fmap.families)
    if args.family >= n_families:
        parser.error(f"--family must be in [0, {n_families})")
    return propagation_audit(fmap, args.family, args.eta)


# -------------------------------------------------------------------- parser

def _command(subs, name: str, run, help: str, size=None):
    """Register `run(args, seed, parser) -> Report` as subcommand `name`.

    `size` is the (cells, flag dests) pair `main` charges against the cell
    budget before anything runs: `cells` takes the value of each dest.
    """
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--seed", type=_at_least(0), default=None,
                     help="RNG seed (default: SLPLAB_SEED env, then 0)")
    sub.add_argument("--out", type=Path, default=None,
                     help="report path (default: stdout)")
    sub.set_defaults(run=run, size=size)
    return sub


def _build_command(subs, name: str, run, help: str, cells=_build_cells):
    """A subcommand that builds a feature map from the shared build flags,
    charged `cells` of them (the build's own, by default)."""
    sub = _command(subs, name, run, help, size=(
        cells, ("entities", "relations", "context_dim", "terms")))
    sub.add_argument("--entities", type=_at_least(2), default=3,
                     help="the N x width feature matrix of N = entities^2 * "
                          "4 * relations queries, and at least "
                          f"{QUERY_OBJECT_CELLS} cells per query, must fit "
                          f"in {MAX_CELLS} cells: at width 1, at most 256 "
                          "entities at 2 relations and 362 at 1")
    sub.add_argument("--relations", type=_at_least(1), default=2,
                     help="number of random base relations")
    sub.add_argument("--density", type=_density, default=0.5)
    sub.add_argument("--context-dim", type=_at_least(1), default=None,
                     help="feature width (default: one per family, at most "
                          "N/2)")
    sub.add_argument("--terms", type=_at_least(1), default=None,
                     help="raw samples per block (default: fewest that can "
                          "reach full representative rank); the 2 * terms * "
                          "entities^2 * width cells of the kept terms must "
                          f"fit in {MAX_CELLS} cells")
    sub.add_argument("--parity", choices=["+", "-", "both"], default="both")
    return sub


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="slplab",
        description="verification suites for sign-linked-pair feature geometry")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = _command(subs, "relalg-laws", _cmd_relalg_laws,
                   "negation/converse/composition laws",
                   size=(_laws_cells, ("entities", "exhaustive", "pairs",
                                       "triples")))
    sub.add_argument("--entities", type=_at_least(1), default=3,
                     help="at most 31 at the default counts: entities^2 cells "
                          "per unary relation, two per pair and three per "
                          f"triple must fit in {MAX_CELLS} cells")
    sub.add_argument("--exhaustive", action="store_true",
                     help="run unary laws over every relation; at most 4 "
                          "entities")
    sub.add_argument("--pairs", type=_at_least(0), default=10000)
    sub.add_argument("--triples", type=_at_least(0), default=1000)

    sub = _command(subs, "families", _cmd_families,
                   "logical family partition as JSON",
                   size=(_families_cells, ("entities", "relations")))
    sub.add_argument("--entities", type=_at_least(2), default=3,
                     help="at most 256 at 2 relations and 362 at 1: "
                          f"{QUERY_OBJECT_CELLS} cells per query, of N = "
                          "entities^2 * 4 * relations, must fit in "
                          f"{MAX_CELLS} cells")
    sub.add_argument("--relations", type=_at_least(1), default=2)
    sub.add_argument("--density", type=_density, default=0.5)

    sub = _build_command(subs, "build-slp", _cmd_build_slp,
                         "seeded equivariant feature build")
    sub.add_argument("--save", type=Path, default=None,
                     help="persist the feature map")
    sub.add_argument("--fmt", choices=["json", "csv"], default="json")

    sub = _command(subs, "verify-slp", _cmd_verify_slp,
                   "re-check a stored feature map")
    sub.add_argument("--load", type=Path, required=True)
    sub.add_argument("--fmt", choices=["json", "csv"], default="json")
    sub.add_argument("--tol", type=_tolerance, default=numerics.REL_TOL,
                     help="equivariance tolerance for loaded maps")

    _build_command(subs, "factorize", _cmd_factorize,
                   "factorized-form audit + negation split")

    sub = _build_command(subs, "isotypic", _cmd_isotypic,
                         "isotypic projector properties",
                         cells=_isotypic_cells)
    sub.add_argument("--tol", type=_tolerance, default=numerics.PROJECTOR_TOL)

    sub = _build_command(subs, "parity", _cmd_parity,
                         "matched-parity decomposition audit",
                         cells=_parity_cells)
    sub.add_argument("--tol", type=_tolerance, default=0.0)

    sub = _command(subs, "kernel-stability", _cmd_kernel_stability,
                   "conjunction kernel stability on a worlds model",
                   size=(_stability_cells, ("atoms", "worlds", "depth")))
    sub.add_argument("--atoms", type=_at_least(1), default=3,
                     help="at most 9 at 8 worlds, 12 at depth 1: six N x "
                          "worlds arrays, N = 4^atoms - 1 (2 atoms at depth "
                          "1), and the 4^atoms-entry image table must fit "
                          f"in {MAX_CELLS} cells")
    sub.add_argument("--worlds", type=_at_least(1), default=8)
    sub.add_argument("--depth", type=_at_least(1), default=2)

    sub = _command(subs, "fit-bilinear", _cmd_fit_bilinear,
                   "symmetric bilinear fit on a worlds model",
                   size=(_fit_cells, ("atoms", "worlds", "depth")))
    sub.add_argument("--atoms", type=_at_least(1), default=3,
                     help="at most 8 at 8 worlds, 5 at 16 to 28 worlds, 12 at "
                          "depth 1: 2 atoms passes over the N x worlds "
                          "features, 24 cells a world or the fit's tables, "
                          "and beside them the 4^atoms-entry image table, "
                          f"must fit in {MAX_CELLS} cells")
    sub.add_argument("--worlds", type=_at_least(1), default=8)
    sub.add_argument("--depth", type=_at_least(1), default=2)
    sub.add_argument("--tol", type=_tolerance, default=1e-9)

    sub = _command(subs, "collapse", _cmd_collapse,
                   "idempotence-vs-sign-flip certificate",
                   size=(_collapse_cells, ("atoms", "dim")))
    sub.add_argument("--atoms", type=_at_least(1), default=1,
                     help="at most 435,771 at dim 1")
    sub.add_argument("--dim", type=_at_least(1), default=4,
                     help="at most 3,728,262 at 1 atom and 246,707 at 8: "
                          "every array of dim cells held at once must fit "
                          f"in {MAX_CELLS} cells")
    sub.add_argument("--neg-equiv", action=argparse.BooleanOptionalAction,
                     default=True)
    sub.add_argument("--tolerance", type=_tolerance, default=1e-8)

    sub = _command(subs, "gradlab", _cmd_gradlab,
                   "gradient alignment experiment")
    sub.add_argument("--config", type=Path, required=True,
                     help="JSON run config")
    sub.add_argument("--histogram", type=Path, default=None,
                     help="write the cosine histogram CSV here")

    sub = _build_command(subs, "audit", _cmd_audit,
                         "rank-one edit propagation audit")
    sub.add_argument("--family", type=_at_least(0), default=0,
                     help="family index, below the family count")
    sub.add_argument("--eta", type=_edit_step, default=0.1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.size is not None:
            cells, dests = args.size
            values = [getattr(args, dest) for dest in dests]
            _within_budget(cells(*values), " ".join(
                f"--{dest.replace('_', '-')}"
                + ("" if value is True else f" {value}")
                for dest, value in zip(dests, values)
                if value is not None and value is not False), parser)
        seed = _resolve_seed(args, parser)
        return _finish(args.run(args, seed, parser), args, seed, parser)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
