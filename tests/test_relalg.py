"""Relation-algebra operations against set-semantics oracles.

Every matrix operation is checked against an independent reimplementation on
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
                      proper_relation_strategy, relation_from_code,
                      relation_from_set, relation_strategy, witnesses)
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
                if r.matrix[h, b] and s.matrix[b, t]}
    assert witnesses(r, s, h, t) == expected


def test_compose_has_no_early_exit_shortcut():
    # all-to-all through every middle: composition of full with full is full
    entity_set = EntitySet.of_size(3)
    empty = Relation.from_pairs(entity_set, [])
    full = negate(empty)
    assert compose(full, full) == full
    # empty absorbs on either side
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
    """The closure as a breadth-first fixed point under set complement and
    pair swap, and its (4, size) image table derived from the complement
    and converse partner tuples: (closed relations, table)."""
    entity_set = base[0].entity_set
    closed, index = [], {}

    def add(pair_set):
        key = frozenset(pair_set)
        if key not in index:
            index[key] = len(closed)
            closed.append(relation_from_set(entity_set, key))
        return index[key]

    for r in base:
        add(pairs_of(r))
    frontier = list(closed)
    while frontier:
        nxt = []
        for r in frontier:
            for image in (brute_negate(r), brute_converse(r)):
                if frozenset(image) not in index:
                    nxt.append(closed[add(image)])
        frontier = nxt
    neg = np.array([index[frozenset(brute_negate(r))] for r in closed])
    conv = np.array([index[frozenset(brute_converse(r))] for r in closed])
    return closed, np.stack([np.arange(len(closed)), neg, conv, neg[conv]])


def assert_closure_matches_reference(base):
    algebra = close_unary(base)
    closed, images = reference_closure(base)
    assert list(algebra.closed) == closed
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


@pytest.mark.parametrize("pairs, error", [
    ([(-1, 0)], ValueError), ([(3, 0)], ValueError), ([(0, 0, 0)], ValueError),
    ([(1.5, 0)], TypeError), ([(1.0, 0)], TypeError), ([("a", 0)], TypeError),
    ([(0, None)], TypeError), (5, TypeError)])
def test_from_pairs_takes_only_integer_pairs_in_range(pairs, error):
    # a float is no index, even an integral one, and -1 does not wrap
    with pytest.raises(error):
        Relation.from_pairs(EntitySet.of_size(3), pairs)


def test_from_pairs_reads_a_bool_as_an_int_and_a_repeat_once():
    entity_set = EntitySet.of_size(3)
    expected = Relation.from_pairs(entity_set, [(1, 1), (0, 2)])
    assert Relation.from_pairs(entity_set, [(True, 1), (0, 2)]) == expected
    assert Relation.from_pairs(entity_set,
                               [(1, 1), (0, 2), (1, 1)]) == expected
    assert list(expected.pairs()) == [(0, 2), (1, 1)]
    assert all(type(x) is int for pair in expected.pairs() for x in pair)


def test_relation_matrix_is_a_read_only_boolean_copy():
    entity_set = EntitySet.of_size(2)
    source = np.eye(2, dtype=bool)
    r = Relation(entity_set, source, "r")
    source[0, 1] = True
    assert list(r.pairs()) == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="read-only"):
        r.matrix[0, 1] = True
    for bad in (np.eye(2, dtype=int), np.ones((3, 3), bool), np.ones(4, bool)):
        with pytest.raises(ValueError, match="boolean"):
            Relation(entity_set, bad)
    # the name is metadata: equal relations hash alike whatever their names
    same = Relation.from_pairs(entity_set, [(1, 1), (0, 0)])
    assert same == r and hash(same) == hash(r)
    assert r != Relation(EntitySet(("a", "b")), r.matrix)
    assert r != r[None] and r[None][0] == r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_relations_is_one_stack_in_bit_code_order(n):
    stack = all_relations(EntitySet.of_size(n))
    assert stack.matrix.shape == (2 ** (n * n), n, n)
    assert [stack[c] for c in range(2 ** (n * n))] == [
        relation_from_code(n, c) for c in range(2 ** (n * n))]


def test_operations_act_elementwise_over_stacks():
    # every pair of relations on 2 entities, as one broadcast product
    stack = all_relations(EntitySet.of_size(2))
    products = compose(stack[:, None], stack[None, :])
    assert products.matrix.shape == (16, 16, 2, 2)
    for i, r in enumerate(stack):
        assert negate(stack)[i] == negate(r)
        assert converse(stack)[i] == converse(r)
        assert pairs_of(negate(stack)[i]) == brute_negate(r)
        assert pairs_of(converse(stack)[i]) == brute_converse(r)
        for j, s in enumerate(stack):
            assert products[i, j] == compose(r, s)
            assert pairs_of(products[i, j]) == brute_compose(r, s)


@pytest.mark.parametrize("n, shape", [(3, (7,)), (4, (5, 2)), (31, (100,))])
def test_a_stack_draws_what_one_draw_per_relation_draws(n, shape):
    # 100 relations on 31 entities span two RNG blocks
    entity_set = EntitySet.of_size(n)
    stack = random_relation(entity_set, np.random.default_rng(3), 0.3,
                            shape=shape)
    rng = np.random.default_rng(3)
    singles = [random_relation(entity_set, rng, 0.3)
               for _ in range(int(np.prod(shape)))]
    assert stack.matrix.shape == (*shape, n, n)
    assert [Relation(entity_set, m) for m in
            stack.matrix.reshape(-1, n, n)] == singles
    # the cells of one relation in C order, one rng.random() each
    rng = np.random.default_rng(3)
    cells = [rng.random() < 0.3 for _ in range(n * n)]
    assert singles[0] == Relation(entity_set,
                                  np.array(cells).reshape(n, n))


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
