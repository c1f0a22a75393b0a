"""Relation-algebra operations against set-semantics oracles.

Every bitset operation is checked against an independent reimplementation on
Python sets of pairs; the algebraic laws are checked exhaustively at |E| = 3
and property-based at other sizes.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (brute_compose, brute_converse, brute_negate, pairs_of,
                      proper_relation_strategy, relation_from_set,
                      relation_strategy, witnesses)
from slplab.relalg import (EntitySet, Relation, all_relations, close_unary,
                           compose, converse, negate, random_relation)


# ------------------------------------------------------------------- oracles

@given(relation_strategy(3))
def test_negate_matches_set_complement(r):
    assert pairs_of(negate(r)) == brute_negate(r)


@given(relation_strategy(3))
def test_converse_matches_pair_swap(r):
    assert pairs_of(converse(r)) == brute_converse(r)


@given(relation_strategy(3), relation_strategy(3))
def test_compose_matches_witness_semantics(r, s):
    assert pairs_of(compose(r, s)) == brute_compose(r, s)


@given(relation_strategy(4), relation_strategy(4))
def test_compose_matches_witness_semantics_n4(r, s):
    assert pairs_of(compose(r, s)) == brute_compose(r, s)


@given(relation_strategy(3), relation_strategy(3),
       st.integers(0, 2), st.integers(0, 2))
def test_witnesses_match_definition(r, s, h, t):
    expected = {b for b in range(3)
                if r.contains(h, b) and s.contains(b, t)}
    assert witnesses(r, s, h, t) == expected


def test_compose_has_no_early_exit_shortcut():
    # all-to-all through every middle: composition of full with full is full
    entity_set = EntitySet.of_size(3)
    full = negate(Relation(entity_set, 0))
    assert compose(full, full) == full
    # empty absorbs on either side
    empty = Relation(entity_set, 0)
    assert compose(full, empty) == empty
    assert compose(empty, full) == empty


# ---------------------------------------------------------- exhaustive laws

def test_unary_laws_exhaustive_512():
    entity_set = EntitySet.of_size(3)
    seen = 0
    for r in all_relations(entity_set):
        assert negate(negate(r)) == r
        assert converse(converse(r)) == r
        assert negate(converse(r)) == converse(negate(r))
        seen += 1
    assert seen == 512


def test_converse_never_equals_negation_exhaustive():
    # diagonal pairs (x, x) are fixed by converse but flipped by negation
    entity_set = EntitySet.of_size(3)
    for r in all_relations(entity_set):
        assert converse(r) != negate(r)


@given(relation_strategy(4), relation_strategy(4))
def test_converse_antihomomorphism(r, s):
    assert converse(compose(r, s)) == compose(converse(s), converse(r))


@given(relation_strategy(4), relation_strategy(4), relation_strategy(4))
def test_composition_associative(r, s, t):
    assert compose(compose(r, s), t) == compose(r, compose(s, t))


# ------------------------------------------------------------------- closure

@given(proper_relation_strategy(3))
def test_closure_contains_all_four_images(r):
    algebra = close_unary([r])
    closed = set(algebra.closed)
    for image in (r, negate(r), converse(r), negate(converse(r))):
        assert image in closed


@given(st.lists(proper_relation_strategy(3), min_size=1, max_size=3))
def test_closure_size_bound_and_idempotence(rels):
    algebra = close_unary(rels)
    assert algebra.size <= 4 * len(rels)
    again = close_unary(list(algebra.closed))
    assert set(again.closed) == set(algebra.closed)


@given(proper_relation_strategy(3))
def test_neg_conv_tables_are_involutions(r):
    algebra = close_unary([r])
    for i in range(algebra.size):
        assert algebra.neg(algebra.neg(i)) == i
        assert algebra.conv(algebra.conv(i)) == i
        assert algebra.neg(i) != i
        # proven side fact: converse never equals complement
        assert algebra.conv(i) != algebra.neg(i)


def test_closure_of_symmetric_diagonal_free_relation_has_size_4():
    # converse-fixed base: orbit {r, not r} only, but closure still holds both
    entity_set = EntitySet.of_size(3)
    r = Relation.from_pairs(entity_set, [(0, 1), (1, 0)], "sym")
    algebra = close_unary([r])
    assert algebra.size == 2
    assert algebra.conv(0) == 0 and algebra.conv(1) == 1


def test_from_pairs_rejects_out_of_range():
    entity_set = EntitySet.of_size(2)
    with pytest.raises(ValueError):
        Relation.from_pairs(entity_set, [(0, 3)])


def test_random_relation_density_and_determinism():
    entity_set = EntitySet.of_size(4)
    r1 = random_relation(entity_set, np.random.default_rng(7), 0.5)
    r2 = random_relation(entity_set, np.random.default_rng(7), 0.5)
    assert r1 == r2
    dense = random_relation(entity_set, np.random.default_rng(7), 0.999)
    assert len(pairs_of(dense)) >= 12


# ------------------------------------------------------ set-oracle sampling

def test_mixed_law_on_random_sets():
    # ((not r); s)~  ==  s~ ; (not r)~ computed entirely in set semantics
    rng = np.random.default_rng(11)
    entity_set = EntitySet.of_size(4)
    for _ in range(50):
        r = random_relation(entity_set, rng)
        s = random_relation(entity_set, rng)
        lhs = converse(compose(negate(r), s))
        expected = brute_compose(
            relation_from_set(entity_set, brute_converse(s)),
            relation_from_set(entity_set, brute_converse(
                relation_from_set(entity_set, brute_negate(r)))))
        assert pairs_of(lhs) == expected
