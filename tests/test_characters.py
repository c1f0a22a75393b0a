"""Symmetric-group characters against frozen tables and counting oracles.

The S3 and S4 character tables below are standard references, keyed by
partition (rows) and cycle type (columns); dimensions are cross-checked by
the hook-length formula and by the sum-of-squares count |G|.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import perm_sign, standard_rep
from slplab.characters import (cycle_type, irrep_dimension, mn_character,
                               partitions, permutation_matrix)
from slplab.queryspace import symmetric_group


def class_size(mu: tuple[int, ...]) -> int:
    """Number of permutations with cycle type mu: n! / prod(i^m_i * m_i!)."""
    n = sum(mu)
    z = 1
    for length in set(mu):
        m = mu.count(length)
        z *= length ** m * math.factorial(m)
    return math.factorial(n) // z


def hook_length_dimension(lam: tuple[int, ...]) -> int:
    """Independent dimension oracle: n! over the product of hook lengths."""
    n = sum(lam)
    cols = [0] * (lam[0] if lam else 0)
    for row_len in lam:
        for j in range(row_len):
            cols[j] += 1
    prod = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            prod *= (row_len - j) + (cols[j] - i) - 1
    return math.factorial(n) // prod


def trivial_rep(perms) -> list[np.ndarray]:
    return [np.ones((1, 1)) for _ in perms]


def sign_rep(perms) -> list[np.ndarray]:
    return [np.array([[float(perm_sign(p))]]) for p in perms]


# the small irreps realized as matrices, by label
IRREPS = {"trivial": lambda perms, n: trivial_rep(perms),
          "sign": lambda perms, n: sign_rep(perms),
          "standard": standard_rep}

# rows: partition; columns: cycle type. Classical tables.
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}

S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def test_partitions_against_counting_oracle():
    # p(n) for n = 1..7: 1, 2, 3, 5, 7, 11, 15
    expected_counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
    for n, count in expected_counts.items():
        parts = partitions(n)
        assert len(parts) == count
        for lam in parts:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert len(set(parts)) == count


@given(st.permutations(range(5)))
def test_cycle_type_partitions_n(perm):
    ct = cycle_type(tuple(perm))
    assert sum(ct) == 5
    assert sorted(ct, reverse=True) == list(ct)


@given(st.permutations(range(5)))
def test_perm_sign_matches_inversion_parity(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(5), 2)
                     if perm[i] > perm[j])
    assert perm_sign(tuple(perm)) == (-1) ** inversions


def test_class_sizes_sum_to_group_order():
    for n in (3, 4, 5):
        total = sum(class_size(ct) for ct in
                    {cycle_type(p) for p in symmetric_group(n)})
        assert total == math.factorial(n)
        # class_size agrees with direct counting
        counts: dict = {}
        for p in symmetric_group(n):
            counts[cycle_type(p)] = counts.get(cycle_type(p), 0) + 1
        for ct, c in counts.items():
            assert class_size(ct) == c


def test_mn_characters_match_frozen_s3_table():
    for lam, row in S3_TABLE.items():
        for ct, value in row.items():
            assert mn_character(lam, ct) == value


def test_mn_characters_match_frozen_s4_table():
    for lam, row in S4_TABLE.items():
        for ct, value in row.items():
            assert mn_character(lam, ct) == value


def test_character_table_shape_and_orthogonality():
    for n in (3, 4, 5):
        parts = partitions(n)
        table = {lam: {mu: mn_character(lam, mu) for mu in parts}
                 for lam in parts}
        cts = sorted({cycle_type(p) for p in symmetric_group(n)})
        order = math.factorial(n)
        for lam, mu in itertools.product(parts, parts):
            inner = sum(class_size(ct) * table[lam][ct] * table[mu][ct]
                        for ct in cts)
            assert inner == (order if lam == mu else 0)


def test_dimensions_hook_length_cross_check():
    for n in range(1, 7):
        for lam in partitions(n):
            assert irrep_dimension(lam) == hook_length_dimension(lam)
    # sum of squared dimensions equals |G|
    for n in (3, 4, 5):
        assert sum(irrep_dimension(lam) ** 2 for lam in partitions(n)) == \
            math.factorial(n)


def test_permutation_matrix_is_representation():
    perms = symmetric_group(3)
    for p, q in itertools.product(perms, perms):
        composed = tuple(p[q[i]] for i in range(3))
        assert np.array_equal(
            permutation_matrix(p) @ permutation_matrix(q),
            permutation_matrix(composed))


@pytest.mark.parametrize("label,dim_by_n", [
    ("trivial", lambda n: 1),
    ("sign", lambda n: 1),
    ("standard", lambda n: n - 1),
])
def test_irrep_matrices_are_homomorphisms(label, dim_by_n):
    for n in (3, 4):
        perms = symmetric_group(n)
        mats = dict(zip(perms, IRREPS[label](perms, n)))
        assert mats[perms[0]].shape == (dim_by_n(n), dim_by_n(n))
        for p, q in itertools.product(perms, perms):
            composed = tuple(p[q[i]] for i in range(n))
            assert np.allclose(mats[p] @ mats[q], mats[composed], atol=1e-12)


def test_irrep_traces_match_characters():
    # matrix realizations must reproduce the MN character values
    label_to_partition = {3: {"trivial": (3,), "sign": (1, 1, 1),
                              "standard": (2, 1)},
                          4: {"trivial": (4,), "sign": (1, 1, 1, 1),
                              "standard": (3, 1)}}
    for n, mapping in label_to_partition.items():
        perms = symmetric_group(n)
        for label, lam in mapping.items():
            for p, mat in zip(perms, IRREPS[label](perms, n)):
                assert np.isclose(np.trace(mat),
                                  mn_character(lam, cycle_type(p)), atol=1e-12)


def test_trivial_and_sign_reps_explicit():
    perms = symmetric_group(4)
    for p, mat in zip(perms, trivial_rep(perms)):
        assert np.array_equal(mat, np.ones((1, 1)))
    for p, mat in zip(perms, sign_rep(perms)):
        assert mat.shape == (1, 1) and mat[0, 0] == perm_sign(p)


def test_standard_rep_orthogonal_complement_of_ones():
    # standard rep acts on the sum-zero subspace; the all-ones vector is fixed
    perms = symmetric_group(3)
    for p, mat in zip(perms, standard_rep(perms, 3)):
        assert mat.shape == (2, 2)
        # det of the standard-rep matrix is the permutation sign for n=3
        assert np.isclose(np.linalg.det(mat), perm_sign(p), atol=1e-12)
