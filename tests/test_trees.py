"""Degree-weight families, increasing tree containers, growth processes and
enumeration, with dual-route totals against direct enumeration sums."""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stirlperm import bijections as bj
from stirlperm import perms, trees
from stirlperm.harness import chi_square_gof, chi_square_two_sample


# ---------------------------------------------------------------------------
# families and weights
# ---------------------------------------------------------------------------


def test_family_constructors():
    fam = trees.k_plane_family(2)
    assert (fam.phi0, fam.c1, fam.c2) == (1, 2, -1)
    assert fam.alpha == 1
    fam = trees.ary_family(3)
    assert (fam.phi0, fam.c1, fam.c2) == (1, 2, 1)
    assert fam.arity == 3
    fam = trees.bundled_family(2)
    assert (fam.phi0, fam.c1, fam.c2) == (1, 3, -1)
    assert trees.plane_recursive_family() == trees.bundled_family(1)
    assert trees.recursive_family().kind == trees.RECURSIVE


def test_family_validation():
    with pytest.raises(ValueError):
        trees.ary_family(1)
    with pytest.raises(ValueError):
        trees.k_plane_family(1)
    with pytest.raises(ValueError):
        trees.DegreeWeightFamily(trees.GENERALIZED_PLANE, 1, 1, 1)


def test_degree_weights_known_families():
    # 3-ary: binomial weights; plane k=2: all ones; plane recursive: w_d = 1
    ary = trees.ary_family(3)
    assert [ary.degree_weight(d) for d in range(4)] == [1, 3, 3, 1]
    plane2 = trees.k_plane_family(2)
    assert [plane2.degree_weight(d) for d in range(5)] == [1] * 5
    rec = trees.recursive_family()
    assert rec.degree_weight(3) == Fraction(1, 6)
    plane3 = trees.k_plane_family(3)
    assert [plane3.degree_weight(d) for d in range(4)] == [
        Fraction(1),
        Fraction(1),
        Fraction(3, 2),
        Fraction(5, 2),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_total_weight_closed_form_matches_enumeration_sum(n):
    """The closed-form total must equal the plane-tree enumeration sum for
    every family shape (the exponential one collapses label orderings)."""
    families = [
        trees.ary_family(2),
        trees.ary_family(3),
        trees.k_plane_family(2),
        trees.k_plane_family(3),
        trees.bundled_family(1),
        trees.bundled_family(2),
        trees.recursive_family(),
    ]
    plane_trees = list(trees.enumerate_plane_trees(n))
    for fam in families:
        total = sum(trees.tree_weight(t, fam) for t in plane_trees)
        assert total == fam.total_weight(n), fam


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_total_weight_product_matches_binomial_form(n):
    families = [
        trees.ary_family(2),
        trees.ary_family(5),
        trees.k_plane_family(3),
        trees.bundled_family(2),
        trees.recursive_family(),
        trees.DegreeWeightFamily(trees.GENERALIZED_PLANE, Fraction(3, 2), Fraction(5, 3), -1),
    ]
    for fam in families:
        assert fam.total_weight(n) == oracles.total_weight_binomial(fam, n), fam


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_plane_family_total_counts_k_stirling(n, k):
    fam = trees.k_plane_family(k)
    assert fam.total_weight(n + 1) == perms.count_k_stirling(n, k)


def test_plane_recursive_total_weight_order_four():
    # weight-one plane trees: totals 1, 1, 3, 15 match the double factorials
    fam = trees.k_plane_family(2)
    assert [fam.total_weight(n) for n in range(1, 5)] == [1, 1, 3, 15]


@pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (4, 3)])
def test_ary_family_total_counts_trees(d, n):
    fam = trees.ary_family(d)
    assert fam.total_weight(n) == len(list(trees.enumerate_ary_trees(n, d)))
    assert fam.total_weight(n) == perms.count_k_stirling(n, d - 1)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 4), (3, 3)])
def test_bundled_family_total_counts_trees(m, n):
    fam = trees.bundled_family(m)
    assert fam.total_weight(n) == len(list(trees.enumerate_bundled_trees(n, m)))


def test_recursive_family_total_is_factorial():
    fam = trees.recursive_family()
    assert [fam.total_weight(n) for n in range(1, 6)] == [1, 1, 2, 6, 24]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_attach_probabilities_sum_to_one(seed):
    fam = trees.k_plane_family(3)
    tree = trees.grow_plane_tree(fam, 9, seed)
    probs = [fam.attach_probability(d, tree.order) for d in tree.degrees()]
    assert sum(probs) == 1

    ary = trees.ary_family(3)
    atree = trees.grow_ary_tree(3, 9, seed)
    probs = [ary.attach_probability(d, atree.order) for d in atree.degrees()]
    assert sum(probs) == 1

    rec = trees.recursive_family()
    assert sum(rec.attach_probability(0, 9) for _ in range(9)) == 1


def test_attach_probability_is_the_kind_specific_rule():
    """One formula serves dAry and generalizedPlane families."""
    families = [trees.ary_family(d) for d in (2, 3, 4)]
    families += [trees.k_plane_family(k) for k in (2, 3)]
    families += [trees.bundled_family(m) for m in (1, 2, 3)]
    families.append(trees.recursive_family())
    for fam in families:
        for order in range(1, 8):
            for degree in range(order):
                expected = oracles.attach_probability_by_kind(fam, degree, order)
                assert fam.attach_probability(degree, order) == expected, (fam, degree, order)


def test_tree_weight_zero_outside_support():
    fam = trees.ary_family(2)
    overfull = trees.AryIncreasingTree(3, (0, 1, 1, 1), (0, 1, 2, 3))
    assert trees.tree_weight(overfull, fam) == 0


# ---------------------------------------------------------------------------
# ary trees
# ---------------------------------------------------------------------------


def test_ary_tree_validation():
    with pytest.raises(trees.InvalidTreeError):
        trees.AryIncreasingTree(3, (0, 3), (0, 1))  # parent above child
    with pytest.raises(trees.InvalidTreeError):
        trees.AryIncreasingTree(3, (0, 1, 1), (0, 1, 1))  # duplicate slot
    with pytest.raises(trees.InvalidTreeError):
        trees.AryIncreasingTree(3, (0, 1), (0, 4))  # slot out of range
    with pytest.raises(trees.InvalidTreeError):
        trees.AryIncreasingTree(1, (0,), (0,))  # arity too small


@pytest.mark.parametrize(
    "cls,args,message",
    [
        (trees.AryIncreasingTree, (3, (0, 1, 3), (0, 1, 2)), "node 3 needs a smaller parent, got 3"),
        (trees.AryIncreasingTree, (3, (0, 0), (0, 1)), "node 2 needs a smaller parent, got 0"),
        (trees.AryIncreasingTree, (3, (0, 1), (0, 4)), "slot of node 2 out of range: 4"),
        (trees.AryIncreasingTree, (3, (0, 1, 2), (0, 1, 0)), "slot of node 3 out of range: 0"),
        (bj.FIncreasingTree, (2, (0, 1), (0, 3)), "slot of node 2 out of range: 3"),
        (bj.FIncreasingTree, (2, (0, 1, 2), (0, 2, 5)), "slot of node 3 out of range: 5"),
        (trees.AryIncreasingTree, (3, (0, 1, 1), (0, 2, 2)), "slot 2 of node 1 used twice"),
        (bj.FIncreasingTree, (1, (0, 1, 2, 2), (0, 1, 3, 3)), "slot 3 of node 2 used twice"),
        # the nodes are checked in turn: the first bad node is reported
        (trees.AryIncreasingTree, (2, (0, 1, 1, 5), (0, 1, 1, 1)), "slot 1 of node 1 used twice"),
    ],
)
def test_ary_tree_validation_messages(cls, args, message):
    with pytest.raises(trees.InvalidTreeError, match=f"^{re.escape(message)}$"):
        cls(*args)


def test_ary_tree_json_roundtrip():
    t = trees.AryIncreasingTree(3, (0, 1, 2), (0, 2, 3))
    assert trees.AryIncreasingTree.from_json_dict(t.to_json_dict()) == t


def test_ary_stats_small_example():
    t = trees.AryIncreasingTree(3, (0, 1), (0, 1))
    st_ = trees.ary_stats(t)
    assert st_.interior_by_slot == (1, 0, 0)
    assert st_.exterior_by_slot == (1, 2, 2)
    assert st_.left_right == 2
    assert st_.leaves == 1


@pytest.mark.parametrize("n,arity", [(1, 3), (2, 3), (3, 3), (4, 3), (3, 4)])
def test_ary_stats_against_oracle(n, arity):
    for t in trees.enumerate_ary_trees(n, arity):
        st_ = trees.ary_stats(t)
        assert st_.left_right == oracles.left_right_count(t)
        assert sum(st_.interior_by_slot) == n - 1
        assert all(
            e == n - i for e, i in zip(st_.exterior_by_slot, st_.interior_by_slot)
        )
        assert st_.leaves == sum(1 for d in t.degrees() if d == 0)


def test_enumerate_ary_counts():
    # 1, 3, 15, 105 for ternary; 1, 2, 6, 24... no: (d-1)i+1 products
    assert [len(list(trees.enumerate_ary_trees(n, 3))) for n in range(1, 5)] == [
        1,
        3,
        15,
        105,
    ]
    assert [len(list(trees.enumerate_ary_trees(n, 2))) for n in range(1, 5)] == [
        1,
        2,
        6,
        24,
    ]


def test_grow_ary_tree_uniform_chi_square():
    support = {t: 0 for t in trees.enumerate_ary_trees(3, 3)}
    for seed in range(6000):
        support[trees.grow_ary_tree(3, 3, seed)] += 1
    _, pvalue = chi_square_gof(list(support.values()), [1 / 15] * 15)
    assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# bundled trees
# ---------------------------------------------------------------------------


def test_bundled_tree_validation():
    with pytest.raises(trees.InvalidTreeError):
        trees.BundledIncreasingTree(2, (0, 2), (0, 1), (0, 1))
    with pytest.raises(trees.InvalidTreeError):
        trees.BundledIncreasingTree(2, (0, 1), (0, 3), (0, 1))  # bundle index
    with pytest.raises(trees.InvalidTreeError):
        trees.BundledIncreasingTree(2, (0, 1), (0, 1), (0, 2))  # position gap


@pytest.mark.parametrize(
    "arrays,message",
    [
        (((0, 2), (0, 1), (0, 1)), "node 2 needs a smaller parent, got 2"),
        (((0, 1), (0, 3), (0, 1)), "bundle of node 2 out of range: 3"),
        (((0, 1), (0, 0), (0, 1)), "bundle of node 2 out of range: 0"),
        (((0, 1, 1), (0, 1, 1), (0, 1, 3)), "positions in bundle 1 of node 1 are not contiguous: [1, 3]"),
        (((0, 1, 1), (0, 2, 2), (0, 2, 2)), "positions in bundle 2 of node 1 are not contiguous: [2, 2]"),
        (((0, 1, 1), (0, 1, 1), (0, 0, 1)), "positions in bundle 1 of node 1 are not contiguous: [0, 1]"),
        (((0, 1, 2), (0, 1, 2), (0, 1, 2)), "positions in bundle 2 of node 2 are not contiguous: [2]"),
        # groups are checked in the order of their first child, not sorted
        (
            ((0, 1, 1, 1, 1), (0, 2, 1, 2, 1), (0, 1, 2, 3, 2)),
            "positions in bundle 2 of node 1 are not contiguous: [1, 3]",
        ),
        # every node's parent and bundle are checked before any positions
        (((0, 1, 1, 3), (0, 1, 1, 4), (0, 1, 1, 1)), "bundle of node 4 out of range: 4"),
    ],
)
def test_bundled_tree_validation_messages(arrays, message):
    with pytest.raises(trees.InvalidTreeError, match=f"^{re.escape(message)}$"):
        trees.BundledIncreasingTree(2, *arrays)


def test_bundled_children_follow_their_positions():
    t = trees.BundledIncreasingTree(2, (0, 1, 1, 1), (0, 1, 1, 1), (0, 3, 1, 2))
    assert t.bundles_of(1) == ((3, 4, 2), ())


def test_bundled_tree_json_roundtrip():
    t = trees.BundledIncreasingTree(2, (0, 1, 1), (0, 2, 2), (0, 1, 2))
    assert trees.BundledIncreasingTree.from_json_dict(t.to_json_dict()) == t
    assert t.bundles_of(1) == ((), (2, 3))


def test_bundled_stats_single_node():
    # matches the word "1": one ascent, one descent, no plateau
    t = trees.BundledIncreasingTree(2, (0,), (0,), (0,))
    prof = trees.bundled_stats(t)
    assert (prof.bundle_ascents, prof.bundle_descents, prof.empty_bundles) == (1, 1, 0)


def test_bundled_stats_doctest_tree():
    t = trees.BundledIncreasingTree(2, (0, 1), (0, 1), (0, 1))
    prof = trees.bundled_stats(t)
    assert (prof.bundle_ascents, prof.bundle_descents, prof.empty_bundles) == (1, 2, 2)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2)])
def test_enumerate_bundled_trees_counts(n, m):
    expected = 1
    for level in range(1, n):
        expected *= level * (m + 1) - 1
    listed = list(trees.enumerate_bundled_trees(n, m))
    assert len(set(listed)) == expected
    keys = [(t.parent, t.bundle, t.pos_in_bundle) for t in listed]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# enumeration order and streaming
# ---------------------------------------------------------------------------


def _sequence_key(seq):
    """Top-level labels of a sequence of node forms and the child labels of
    each node by bundle, read with a stack."""
    rows, stack = {}, list(seq)
    while stack:
        node = stack.pop()
        rows[node.label] = tuple(tuple(c.label for c in b) for b in node.bundles)
        stack.extend(c for b in node.bundles for c in b)
    return tuple(t.label for t in seq), tuple(sorted(rows.items()))


def _slot_key(t):
    return t.parent, t.slot


def _bundled_key(t):
    return t.parent, t.bundle, t.pos_in_bundle


# sha256 over the enumerated arrays (one repr per line) of orders 1..6, or
# 1..5 for sequences, as the enumerators yielded them when they built and
# sorted every tree
FROZEN_TREE_ORDER = {
    "ary2": (partial(trees.enumerate_ary_trees, arity=2), _slot_key, 6,
             "ba0145a5e635f66ac31bf8fc3985c76e58abccbfd6de5fed76638e0fad1f0eea"),
    "ary3": (partial(trees.enumerate_ary_trees, arity=3), _slot_key, 6,
             "e1f17232fe045ae35122326e0342629de7985fe412b47fecbf53a75573cbaa2c"),
    "ary4": (partial(trees.enumerate_ary_trees, arity=4), _slot_key, 6,
             "6c7bab21119f23457f84efabcc6a7316bc531a35a1f9f5db264268cf463352f2"),
    "f1": (partial(bj.enumerate_f_trees, root_slot_count=1), _slot_key, 6,
           "fcf87f0a2385ad4248939dede2bb814e2b6738b4a234d812c3a35fe9d7fe9902"),
    "f2": (partial(bj.enumerate_f_trees, root_slot_count=2), _slot_key, 6,
           "466bfa7c7d9e9907130178f098b68d2433ae31b301b041790e084aeb4d390da9"),
    "f3": (partial(bj.enumerate_f_trees, root_slot_count=3), _slot_key, 6,
           "c000d7ee51dec5be775ac90fd9e0dc6de13069db3ab4f985502d6ccbe11487c2"),
    "bundled1": (partial(trees.enumerate_bundled_trees, bundle_count=1), _bundled_key, 6,
                 "18640cf58773c86b858c1a851621b8b260f70c185f0db58a7d71a90c99ff24c5"),
    "bundled2": (partial(trees.enumerate_bundled_trees, bundle_count=2), _bundled_key, 6,
                 "1836eb6f19566cba5756d79aaca29397bd37491bb84973a75a880b7cf36c0dc9"),
    "bundled3": (partial(trees.enumerate_bundled_trees, bundle_count=3), _bundled_key, 6,
                 "0e695713ab76e468aaab96ca6281d83063ab98e09ed5a241f99cc554bef9ed51"),
    "plane": (trees.enumerate_plane_trees, _bundled_key, 6,
              "18640cf58773c86b858c1a851621b8b260f70c185f0db58a7d71a90c99ff24c5"),
    "seq1": (partial(bj.enumerate_bundled_sequences, bundle_count=1), _sequence_key, 5,
             "e1f98f8c74bf640f232c0c7dc59a030dc0c1fc64372d28f9eccb1257f77d7aba"),
    "seq2": (partial(bj.enumerate_bundled_sequences, bundle_count=2), _sequence_key, 5,
             "7c407db3feb3e7d7709fb6be2222e45ccdfd15198f932da30ac17bb72fca8421"),
    "seq3": (partial(bj.enumerate_bundled_sequences, bundle_count=3), _sequence_key, 5,
             "e1bf1147d62fcc1ddbd23aa0a41b1389dd81cd46eb1cb429258ca1c5f208ff9f"),
}


@pytest.mark.parametrize("family", sorted(FROZEN_TREE_ORDER))
def test_tree_enumeration_order_frozen(family):
    enumerate_trees, key, max_order, expected = FROZEN_TREE_ORDER[family]
    digest = hashlib.sha256()
    for n in range(1, max_order + 1):
        for tree in enumerate_trees(n):
            digest.update(repr(key(tree)).encode() + b"\n")
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "enumerate_trees,arity,root_slots",
    [
        (partial(trees.enumerate_ary_trees, arity=2), 2, 2),
        (partial(trees.enumerate_ary_trees, arity=3), 3, 3),
        (partial(trees.enumerate_ary_trees, arity=4), 4, 4),
        (partial(bj.enumerate_f_trees, root_slot_count=1), 3, 1),
        (partial(bj.enumerate_f_trees, root_slot_count=2), 4, 2),
        (partial(bj.enumerate_f_trees, root_slot_count=3), 5, 3),
    ],
    ids=["ary2", "ary3", "ary4", "f1", "f2", "f3"],
)
def test_slot_tree_enumeration_matches_level_oracle(enumerate_trees, arity, root_slots, n):
    listed = [_slot_key(t) for t in enumerate_trees(n)]
    assert listed == oracles.slot_tree_arrays_by_levels(n, arity, root_slots)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bundled_tree_enumeration_matches_insertion_oracle(m, n):
    listed = [_bundled_key(t) for t in trees.enumerate_bundled_trees(n, m)]
    assert listed == oracles.bundled_tree_arrays_by_insertion(n, m)


@pytest.mark.parametrize(
    "enumerate_trees",
    [partial(trees.enumerate_bundled_trees, 7, 2), partial(trees.enumerate_ary_trees, 7, 3)],
    ids=["bundled-7-2", "ary-7-3"],
)
def test_tree_enumeration_streams(enumerate_trees):
    """The first trees arrive without the other hundreds of thousands being
    built."""
    tracemalloc.start()
    try:
        first = list(itertools.islice(enumerate_trees(), 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(first)) == 1000
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "enumerate_trees",
    [
        partial(trees.enumerate_ary_trees, 2000, 3),
        partial(trees.enumerate_bundled_trees, 2000, 2),
        partial(bj.enumerate_f_trees, 2000, 2),
    ],
    ids=["ary", "bundled", "f-tree"],
)
def test_first_tree_of_a_large_order_does_not_recurse(enumerate_trees):
    tree = next(enumerate_trees())
    assert tree.order == 2000
    assert tree.parent[1:] == tuple(sorted(tree.parent[1:]))


def _validated(tree):
    """The same tree through the validating public constructor."""
    if isinstance(tree, trees.BundledIncreasingTree):
        return trees.BundledIncreasingTree(
            tree.bundle_count, tree.parent, tree.bundle, tree.pos_in_bundle
        )
    if isinstance(tree, bj.FIncreasingTree):
        return bj.FIncreasingTree(tree.root_slot_count, tree.parent, tree.slot)
    return trees.AryIncreasingTree(tree.arity, tree.parent, tree.slot)


@pytest.mark.parametrize(
    "enumerate_trees",
    [partial(trees.enumerate_ary_trees, arity=a) for a in (2, 3, 4)]
    + [partial(bj.enumerate_f_trees, root_slot_count=k) for k in (1, 2, 3)]
    + [partial(trees.enumerate_bundled_trees, bundle_count=m) for m in (1, 2, 3)],
    ids=["ary2", "ary3", "ary4", "f1", "f2", "f3", "bundled1", "bundled2", "bundled3"],
)
def test_enumerated_trees_equal_validated_trees(enumerate_trees):
    """The enumerators skip validation; each tree they hand over equals the
    one its constructor builds from the same arrays, children index included."""
    for n in range(1, 6):
        for tree in enumerate_trees(n):
            checked = _validated(tree)
            assert type(tree) is type(checked) and tree == checked
            nodes = range(1, n + 1)
            if isinstance(tree, trees.BundledIncreasingTree):
                assert [tree.bundles_of(v) for v in nodes] == [checked.bundles_of(v) for v in nodes]
                assert trees.bundled_stats(tree) == oracles.bundled_stats_by_nodes(checked)
            else:
                slots = range(1, tree.arity + 1)
                assert [tree.child(v, s) for v in nodes for s in slots] == [
                    checked.child(v, s) for v in nodes for s in slots
                ]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 4), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_bundled_stats_matches_node_oracle_on_grown_trees(seed, m, n):
    tree = oracles.grow_bundled_tree_scan(m, n, seed)
    assert trees.bundled_stats(tree) == oracles.bundled_stats_by_nodes(tree)


# sha256 over the JSON of grow_plane_tree(family, n, seed), one line per
# tree, for n in 1, 2, 3, 10, 200 and seeds 0..19 (k-plane 2 and bundled 1
# are one family)
FROZEN_PLANE_GROWTH = {
    "k-plane-2": (trees.k_plane_family(2),
                  "00f4c43443ac5451edac3b9556591a8db78fb1c7d940d124e245766879302f14"),
    "k-plane-3": (trees.k_plane_family(3),
                  "f59a4323853275f9d9a58af2074a2fc4140989feeef5d9e60722b3a964a7922b"),
    "k-plane-5": (trees.k_plane_family(5),
                  "032ae68991a5bef988ef0007f188fdaeae02a2fb4885177f8662f19be2e357e9"),
    "bundled-1": (trees.bundled_family(1),
                  "00f4c43443ac5451edac3b9556591a8db78fb1c7d940d124e245766879302f14"),
    "bundled-3": (trees.bundled_family(3),
                  "ac1d09516febb687bb3beedd87aa8886e2b6d4cdf72e00fab19ac99d0f543f02"),
    "recursive": (trees.recursive_family(),
                  "28359b1faf2606fe622a4f808d5abc73bd676c10bb161d9b404333b094ad2325"),
}


@pytest.mark.parametrize("family", sorted(FROZEN_PLANE_GROWTH))
def test_grow_plane_tree_output_frozen(family):
    fam, expected = FROZEN_PLANE_GROWTH[family]
    digest = hashlib.sha256()
    for n in (1, 2, 3, 10, 200):
        for seed in range(20):
            tree = trees.grow_plane_tree(fam, n, seed)
            digest.update(json.dumps(tree.to_json_dict()).encode() + b"\n")
    assert digest.hexdigest() == expected


def _decoded_bundled_tree(m: int, n: int, seed) -> trees.BundledIncreasingTree:
    """A uniform m-bundled tree (m >= 2): the tree of a uniform bundled word."""
    return bj.decode_bundled_tree(perms.sample_bundled(n, m - 1, seed))


@pytest.mark.parametrize(
    "grow,support,size",
    [
        (
            partial(trees.grow_plane_tree, trees.plane_recursive_family(), 3),
            partial(trees.enumerate_bundled_trees, 3, 1),
            3,
        ),
        (partial(_decoded_bundled_tree, 2, 3), partial(trees.enumerate_bundled_trees, 3, 2), 10),
        (partial(_decoded_bundled_tree, 3, 3), partial(trees.enumerate_bundled_trees, 3, 3), 21),
        (
            partial(trees.grow_plane_tree, trees.plane_recursive_family(), 4),
            partial(trees.enumerate_plane_trees, 4),
            15,
        ),
    ],
    ids=["bundled-1", "bundled-2", "bundled-3", "plane-recursive"],
)
def test_grow_bundled_tree_uniform_chi_square(grow, support, size):
    support = {t: 0 for t in support()}
    assert len(support) == size
    for seed in range(5000):
        support[grow(seed)] += 1
    _, pvalue = chi_square_gof(list(support.values()), [1 / size] * size)
    assert pvalue > 1e-3


def test_grow_plane_tree_weight_proportional_chi_square():
    """Order-3 sanity: the weighted growth hits each plane tree with
    probability weight/total."""
    fam = trees.k_plane_family(3)
    support = list(trees.enumerate_plane_trees(3))
    weights = [trees.tree_weight(t, fam) for t in support]
    total = sum(weights)
    counts = Counter(trees.grow_plane_tree(fam, 3, seed) for seed in range(6000))
    observed = [counts.get(t, 0) for t in support]
    _, pvalue = chi_square_gof(observed, [w / total for w in weights])
    assert pvalue > 1e-3
    assert sum(observed) == 6000


@pytest.mark.parametrize(
    "grow,m,a,b",
    [
        (partial(trees.grow_plane_tree, trees.k_plane_family(2)), 1, 1, 1),
        (partial(trees.grow_plane_tree, trees.k_plane_family(3)), 1, 1, 2),
    ],
    ids=["plane-2", "plane-3"],
)
def test_token_growth_matches_weight_scan_oracle(grow, m, a, b):
    """The token-list grower and the cumulative weight scan give the same
    law on order-4 shapes (two-sample chi-square)."""
    n, draws = 4, 8000
    rng = np.random.default_rng(11)
    tokens = Counter(
        tuple(t.bundles_of(v) for v in range(1, n + 1))
        for t in (grow(n, rng) for _ in range(draws))
    )
    rng = np.random.default_rng(12)
    scan = Counter(
        tuple(tuple(map(tuple, row)) for row in oracles.grow_bundles_scan(m, a, b, n, rng))
        for _ in range(draws)
    )
    support = sorted(set(tokens) | set(scan))
    _, pvalue = chi_square_two_sample(
        [tokens.get(s, 0) for s in support], [scan.get(s, 0) for s in support]
    )
    assert pvalue > 1e-3


def test_grow_plane_tree_rejects_dary_families():
    with pytest.raises(ValueError):
        trees.grow_plane_tree(trees.ary_family(3), 5, 1)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_grown_trees_are_well_formed(seed, n):
    t = trees.grow_ary_tree(3, n, seed)
    assert t.order == n
    b = oracles.grow_bundled_tree_scan(2, n, seed)
    assert b.order == n
    assert sum(len(bun) for bun in b.bundles_of(1)) >= 1 or n == 1
