"""Symmetric-group characters and permutation matrices.

Characters are computed by the Murnaghan-Nakayama rule in the beta-number
(abacus) encoding: removing a border strip of length k from a partition is
moving one bead from position b to the empty position b - k, with sign
(-1)^(number of beads strictly between them).  For every n the conjugacy
classes of Sym(n) are its cycle types and every complex irreducible is
realizable over the rationals (James, The Representation Theory of the
Symmetric Groups, LNM 682), so the usual isotypic projector formula applies
verbatim to real representations.  The commands stop at n <= 5 only
because they materialize the group.  The explicit small
irreducibles (trivial, sign, standard) and the class-size and hook-length
oracles that the characters are tested against live beside the tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, weakly decreasing parts, lexicographic descending."""
    result: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            result.append(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(n, n, ())
    return result


@lru_cache(maxsize=None)
def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation, sorted descending; each permutation
    is walked once per process."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _beta(lam: tuple[int, ...], beads: int) -> tuple[int, ...]:
    padded = list(lam) + [0] * (beads - len(lam))
    return tuple(padded[i] + (beads - 1 - i) for i in range(beads))


def _beta_to_partition(beta: Iterable[int]) -> tuple[int, ...]:
    ordered = sorted(beta, reverse=True)
    lam = tuple(b - (len(ordered) - 1 - i) for i, b in enumerate(ordered))
    return tuple(p for p in lam if p > 0)


def _strip_removals(lam: tuple[int, ...],
                    k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(partition after removing a k-strip, sign) for each removable strip."""
    beads = len(lam) if lam else 1
    beta = set(_beta(lam, beads))
    for b in sorted(beta):
        target = b - k
        if target < 0 or target in beta:
            continue
        crossed = sum(1 for c in beta if target < c < b)
        new_beta = (beta - {b}) | {target}
        yield _beta_to_partition(new_beta), -1 if crossed % 2 else 1


@lru_cache(maxsize=None)
def mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character of the irreducible labeled by lam at cycle type mu."""
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    total = 0
    for smaller, sign in _strip_removals(lam, k):
        total += sign * mn_character(smaller, rest)
    return total


def irrep_dimension(lam: tuple[int, ...]) -> int:
    return mn_character(lam, tuple([1] * sum(lam)))


def permutation_matrix(perm: tuple[int, ...]) -> np.ndarray:
    n = len(perm)
    mat = np.zeros((n, n))
    for i, p in enumerate(perm):
        mat[p, i] = 1.0
    return mat
