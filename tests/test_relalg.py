"""Relation-algebra operations against set-semantics oracles.

Every bitset operation is checked against an independent reimplementation on
Python sets of pairs; the algebraic laws are checked exhaustively at |E| = 3
and property-based at other sizes.  The closure is checked against a
breadth-first fixed point and the table of images it derives from partner
tuples.
"""

import itertools

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
    _, neg, conv, _ = algebra.images
    for i in range(algebra.size):
        assert neg[neg[i]] == i
        assert conv[conv[i]] == i
        assert neg[i] != i
        # proven side fact: converse never equals complement
        assert conv[i] != neg[i]


def test_closure_of_symmetric_diagonal_free_relation_has_size_4():
    # converse-fixed base: orbit {r, not r} only, but closure still holds both
    entity_set = EntitySet.of_size(3)
    r = Relation.from_pairs(entity_set, [(0, 1), (1, 0)], "sym")
    algebra = close_unary([r])
    assert algebra.size == 2
    assert algebra.images[2].tolist() == [0, 1]


def reference_closure(base):
    """The closure as a breadth-first fixed point under complement and
    converse, and its (4, size) image table derived from the complement and
    converse partner tuples: (closed relations, table)."""
    entity_set = base[0].entity_set
    closed, index = [], {}

    def add(r):
        if r.bits not in index:
            index[r.bits] = len(closed)
            closed.append(r)
        return index[r.bits]

    for r in base:
        add(r)
    frontier = list(closed)
    while frontier:
        nxt = []
        for r in frontier:
            for image in (negate(r), converse(r)):
                if image.bits not in index:
                    add(image)
                    nxt.append(image)
        frontier = nxt
    neg = np.array([index[r.bits ^ entity_set.full_mask()] for r in closed])
    conv = np.array([index[converse(r).bits] for r in closed])
    return closed, np.stack([np.arange(len(closed)), neg, conv, neg[conv]])


def assert_closure_matches_reference(base):
    algebra = close_unary(base)
    closed, images = reference_closure(base)
    assert [r.bits for r in algebra.closed] == [r.bits for r in closed]
    assert algebra.images.dtype == images.dtype
    assert np.array_equal(algebra.images, images)
    assert algebra.size <= 4 * len(base)


def test_closure_matches_reference_on_every_small_base():
    # every base of 1-3 relations on 2 entities, empty and full included,
    # so every coincidence between base relations and their images occurs
    relations = list(all_relations(EntitySet.of_size(2)))
    seen = 0
    for count in (1, 2, 3):
        for base in itertools.product(relations, repeat=count):
            assert_closure_matches_reference(base)
            seen += 1
    assert seen == 16 + 16 ** 2 + 16 ** 3 == 4368


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closure_matches_reference_with_forced_coincidences(n):
    # base relations drawn freely or as an image of an earlier one
    rng = np.random.default_rng(n)
    entity_set = EntitySet.of_size(n)
    images = (lambda r: r, negate, converse, lambda r: converse(negate(r)))
    for _ in range(200):
        base = [random_relation(entity_set, rng)]
        for _ in range(int(rng.integers(0, 5))):
            if rng.random() < 0.5:
                base.append(random_relation(entity_set, rng))
            else:
                earlier = base[int(rng.integers(len(base)))]
                base.append(images[int(rng.integers(4))](earlier))
        assert_closure_matches_reference(base)


def test_closure_images_are_read_only(algebra_3):
    with pytest.raises(ValueError, match="read-only"):
        algebra_3.images[0, 0] = 1


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
