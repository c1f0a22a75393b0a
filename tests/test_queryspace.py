"""Logical four-group orbits, signs, and the renaming action."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (enumerate_queries, families_to_json,
                      proper_relation_strategy)
from slplab.queryspace import (GroupElementH, LogicalOp, Query,
                               apply_logical, apply_renaming,
                               compute_families, decode_queries,
                               families_text, family_count,
                               logical_images, symmetric_group)
from slplab.relalg import (EntitySet, Relation, RelationAlgebra, close_unary,
                           converse)

# one or two proper base relations on 2 to 4 entities
small_bases = st.integers(2, 4).flatmap(
    lambda n: st.lists(proper_relation_strategy(n), min_size=1, max_size=2))


def brute_orbit(q, algebra):
    """Independent closure of {q} under negation and reversal on raw tuples."""
    _, negation, conversion, _ = algebra.images.tolist()

    def neg(p):
        return Query(p.head, negation[p.rel], p.tail)

    def rev(p):
        return Query(p.tail, conversion[p.rel], p.head)

    seen = {q}
    frontier = [q]
    while frontier:
        p = frontier.pop()
        for image in (neg(p), rev(p)):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def families_by_query(algebra):
    """The partition worked out one query at a time: each query's orbit, its
    minimum as representative, and signs from the representative's orbit.
    One (representative, {member: sign}) pair per family, in representative
    order."""
    def orbit(q):
        return {op: apply_logical(op, q, algebra) for op in LogicalOp}

    families = {}
    for q in enumerate_queries(algebra):
        rep = min(orbit(q).values())
        if rep in families:
            continue
        sign_sets = {}
        for op, p in orbit(rep).items():
            sign_sets.setdefault(p, set()).add(op.sign)
        assert all(len(signs) == 1 for signs in sign_sets.values())
        families[rep] = {p: signs.pop() for p, signs in sign_sets.items()}
    return [(rep, families[rep]) for rep in sorted(families)]


def assert_partition_matches_query_by_query(algebra):
    """The (F, 4) array against the query-by-query oracle: representatives,
    members, signs and orbit sizes, and its JSON form and text too."""
    queries = enumerate_queries(algebra)
    families = compute_families(algebra)
    oracle = families_by_query(algebra)
    assert families.shape == (len(oracle), 4)
    assert families.dtype.kind == "i"
    for row, (rep, signs) in zip(families.tolist(), oracle):
        members = [queries[p] for p in row]
        assert members[0] == rep
        assert set(members) == set(signs)
        assert len(set(row)) == len(signs) in (2, 4)
        for op, q in zip(LogicalOp, members):
            assert signs[q] == op.sign
    doc = families_to_json(families, algebra)
    assert doc == [
        {"representative": list(rep),
         "members": [{"query": list(q), "sign": signs[q]}
                     for q in sorted(signs)]}
        for rep, signs in oracle]
    assert "".join(families_text(families, algebra)) == json.dumps(
        doc, indent=2, sort_keys=True)


# -------------------------------------------------------------- group table

def test_sign_character():
    assert LogicalOp.ID.sign == 1
    assert LogicalOp.REV.sign == 1
    assert LogicalOp.NEG.sign == -1
    assert LogicalOp.NEGREV.sign == -1
    # character property: sign is a homomorphism to {+1, -1}, where the
    # product of two operations XORs their position bits
    ops = list(LogicalOp)
    for i, j in itertools.product(range(4), range(4)):
        assert ops[i ^ j].sign == ops[i].sign * ops[j].sign


@given(proper_relation_strategy(3), st.integers(0, 2), st.integers(0, 2))
def test_apply_logical_matches_composition(r, h, t):
    algebra = close_unary([r])
    q = Query(h, 0, t)
    ops = list(LogicalOp)  # the product XORs the position bits
    for i, j in itertools.product(range(4), range(4)):
        assert apply_logical(ops[i], apply_logical(ops[j], q, algebra),
                             algebra) == apply_logical(ops[i ^ j], q, algebra)


# ------------------------------------------------------------------- orbits

@given(small_bases)
def test_logical_images_match_apply_logical(base):
    algebra = close_unary(base)
    queries = enumerate_queries(algebra)
    images = logical_images(algebra)
    assert images.shape == (4, len(queries))
    assert images.dtype.kind == "i"
    for k, op in enumerate(LogicalOp):
        assert [queries[p] for p in images[k]] == \
            [apply_logical(op, q, algebra) for q in queries]


@given(small_bases)
def test_relation_images_match_apply_logical(base):
    algebra = close_unary(base)
    images = algebra.images
    assert images.shape == (4, algebra.size)
    assert images.dtype.kind == "i"
    for r in range(algebra.size):
        assert images[:, r].tolist() == [
            apply_logical(op, Query(0, r, 1), algebra).rel for op in LogicalOp]


@given(small_bases)
def test_orbit_matches_brute_closure(base):
    algebra = close_unary(base)
    queries = enumerate_queries(algebra)
    for i, column in enumerate(logical_images(algebra).T):
        assert {queries[p] for p in column} == brute_orbit(queries[i], algebra)


@given(small_bases)
def test_families_match_query_by_query_partition(base):
    assert_partition_matches_query_by_query(close_unary(base))


def family_of(q, algebra):
    """The members of q's family, as positions in LogicalOp order."""
    position = enumerate_queries(algebra).index(q)
    return next(row for row in compute_families(algebra).tolist()
                if position in row)


def test_orbit_size_4_for_asymmetric_offdiagonal(algebra_3):
    fam = family_of(Query(0, 0, 1), algebra_3)
    assert len(set(fam)) == 4


def test_orbit_size_2_for_symmetric_diagonal():
    entity_set = EntitySet.of_size(3)
    sym = Relation.from_pairs(entity_set, [(0, 1), (1, 0)], "sym")
    algebra = close_unary([sym])
    assert converse(sym) == sym
    fam = family_of(Query(1, 0, 1), algebra)
    # reversal fixes the representative: columns 2-3 repeat columns 0-1
    assert len(set(fam)) == 2 and fam[2:] == fam[:2]
    assert_partition_matches_query_by_query(algebra)


def hand_built_algebra(negation, conversion):
    """One entity and a table of images from hand-set partner tables; only
    their lengths and entries matter to the query space."""
    entity_set = EntitySet.of_size(1)
    r = Relation.from_pairs(entity_set, [(0, 0)])
    neg, conv = np.array(negation), np.array(conversion)
    images = np.stack([np.arange(len(neg)), neg, conv, neg[conv]])
    return RelationAlgebra(entity_set, (r,), (r,) * len(negation), images)


def test_sign_clash_is_an_assertion():
    # negation fixes every relation, so q and its negation coincide
    with pytest.raises(AssertionError, match="inconsistent sign"):
        compute_families(hand_built_algebra((0, 1), (0, 1)))


def test_partition_gap_is_an_assertion():
    # converse is no involution: relations 2 and 3 reach the orbit {0, 1}
    # but no representative's orbit reaches them
    with pytest.raises(AssertionError, match="partition"):
        compute_families(hand_built_algebra((1, 0, 3, 2), (0, 1, 0, 3)))


@given(proper_relation_strategy(4))
def test_partition_properties(r):
    algebra = close_unary([r])
    families = compute_families(algebra).tolist()
    queries = enumerate_queries(algebra)
    seen: set = set()
    for fam in families:
        members = set(fam)
        assert len(members) in (2, 4)
        assert fam[0] == min(members)
        assert not members & seen
        seen |= members
    assert seen == set(range(len(queries)))
    assert [fam[0] for fam in families] == sorted(fam[0] for fam in families)


def _maybe_symmetric(r: Relation, symmetric: bool) -> Relation:
    """r, or r joined to its converse: a converse-fixed relation."""
    if not symmetric:
        return r
    return Relation(r.entity_set, r.matrix | converse(r).matrix, r.name)


@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.builds(_maybe_symmetric, proper_relation_strategy(n), st.booleans()),
    min_size=1, max_size=3)))
def test_family_count_matches_the_partition(base):
    algebra = close_unary(base)
    assert family_count(algebra) == len(compute_families(algebra))


@given(proper_relation_strategy(3))
def test_signs_well_defined_all_four_elements(r):
    algebra = close_unary([r])
    queries = enumerate_queries(algebra)
    for fam in compute_families(algebra).tolist():
        rep = queries[fam[0]]
        for op, p in zip(LogicalOp, fam):
            assert apply_logical(op, rep, algebra) == queries[p]
        # every op mapping rep to the same member has equal sign
        for p in fam:
            signs = {op.sign for op in LogicalOp
                     if apply_logical(op, rep, algebra) == queries[p]}
            assert len(signs) == 1


@given(small_bases)
def test_decode_queries_inverts_the_query_order(base):
    algebra = close_unary(base)
    queries = enumerate_queries(algebra)
    n, size = algebra.entity_set.n, algebra.size
    positions = np.arange(len(queries))
    assert decode_queries(positions, n, size) == [list(q) for q in queries]
    assert decode_queries(len(queries) - 1, n, size) == list(queries[-1])
    assert decode_queries(positions.reshape(-1, 2), n, size) == \
        [[list(a), list(b)] for a, b in zip(queries[::2], queries[1::2])]


# ----------------------------------------------------------------- renaming

@given(proper_relation_strategy(3), st.permutations(range(3)),
       st.sampled_from([1, -1]), st.integers(0, 2), st.integers(0, 2))
def test_renaming_is_action(r, perm, sign, h, t):
    algebra = close_unary([r])
    g = GroupElementH(tuple(perm), sign)
    q = Query(h, 0, t)
    gq = apply_renaming(g, q, algebra)
    inverse = GroupElementH(tuple(int(i) for i in np.argsort(perm)), sign)
    assert apply_renaming(inverse, gq, algebra) == q


@given(proper_relation_strategy(3), st.permutations(range(3)))
def test_renaming_commutes_with_logical_ops(r, perm):
    # renamings act entity-wise and negation acts relation-wise: they commute
    algebra = close_unary([r])
    g = GroupElementH(tuple(perm), 1)
    for q in enumerate_queries(algebra):
        for op in LogicalOp:
            lhs = apply_renaming(g, apply_logical(op, q, algebra), algebra)
            rhs = apply_logical(op, apply_renaming(g, q, algebra), algebra)
            assert lhs == rhs


@given(proper_relation_strategy(3), st.permutations(range(3)),
       st.sampled_from([1, -1]))
def test_renaming_preserves_families_and_relative_signs(r, perm, sign):
    algebra = close_unary([r])
    queries = enumerate_queries(algebra)
    families = compute_families(algebra).tolist()
    owner = {queries[p]: j for j, fam in enumerate(families) for p in fam}
    signs = {queries[p]: op.sign for fam in families
             for op, p in zip(LogicalOp, fam)}
    g = GroupElementH(tuple(perm), sign)
    for fam in families:
        members = {queries[p] for p in fam}
        images = {apply_renaming(g, q, algebra) for q in members}
        target_ids = {owner[p] for p in images}
        assert len(target_ids) == 1, "renaming must map orbits onto orbits"
        target = families[target_ids.pop()]
        assert images == {queries[p] for p in target}
        # relative signs within the family are preserved (global flip allowed)
        flips = {signs[q] * signs[apply_renaming(g, q, algebra)]
                 for q in members}
        assert len(flips) == 1


@given(small_bases, st.data())
def test_renaming_acts_elementwise_on_index_arrays(base, data):
    algebra = close_unary(base)
    n, size = algebra.entity_set.n, algebra.size
    g = GroupElementH(tuple(data.draw(st.permutations(range(n)))),
                      data.draw(st.sampled_from([1, -1])))
    image = apply_renaming(g, Query(*np.indices((n, size, n))), algebra)
    assert all(a.shape == (n, size, n) for a in image)
    for h, r, t in itertools.product(range(n), range(size), range(n)):
        # the definition on raw tuples
        expected = (g.perm[h], r if g.sign == 1 else algebra.images[1, r],
                    g.perm[t])
        assert tuple(a[h, r, t] for a in image) == expected
        assert apply_renaming(g, Query(h, r, t), algebra) == expected


# --------------------------------------------------------------- generation

def test_symmetric_group_materializes_small_n():
    assert len(symmetric_group(3)) == 6
    assert len(set(symmetric_group(4))) == 24
    with pytest.raises(ValueError):
        symmetric_group(6)


def test_families_to_json_shape(algebra_2):
    families = compute_families(algebra_2)
    doc = families_to_json(families, algebra_2)
    assert len(doc) == len(families)
    assert isinstance(doc, list)
    for entry in doc:
        assert set(entry) == {"representative", "members"}
        assert all(set(m) == {"query", "sign"} for m in entry["members"])
        rep = entry["representative"]
        assert rep in [m["query"] for m in entry["members"]]
        signs = {tuple(m["query"]): m["sign"] for m in entry["members"]}
        assert signs[tuple(rep)] == 1
