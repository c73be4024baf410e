"""Codec pairs between permutation families and tree families: frozen small
anchors, exhaustive roundtrips with exact image sets, and the statistic
transfer."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stirlperm import bijections as bj
from stirlperm import cli, perms, trees


def word(text: str) -> perms.GenStirlingPerm:
    return perms.GenStirlingPerm.parse(text)


# ---------------------------------------------------------------------------
# ary codec
# ---------------------------------------------------------------------------


def test_ary_decode_frozen_order_two():
    pairs = {
        "1122": ((0, 1), (0, 3)),
        "1221": ((0, 1), (0, 2)),
        "2211": ((0, 1), (0, 1)),
    }
    for text, (parent, slot) in pairs.items():
        t = bj.decode_ary_tree(word(text))
        assert (t.parent, t.slot) == (parent, slot)
        assert bj.encode_ary_tree(t).word == word(text).word


def test_ary_decode_frozen_order_three():
    t = bj.decode_ary_tree(word("233211"))
    assert t.arity == 3
    assert t.parent == (0, 1, 2)
    assert t.slot == (0, 1, 2)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_ary_codec_image_is_exactly_the_family(n, k):
    image = {bj.encode_ary_tree(t).word for t in trees.enumerate_ary_trees(n, k + 1)}
    family = {p.word for p in perms.enumerate_k_stirling(n, k)}
    assert image == family
    for p in perms.enumerate_k_stirling(n, k):
        assert bj.encode_ary_tree(bj.decode_ary_tree(p)).word == p.word


@pytest.mark.parametrize("n,arity", [(2, 3), (3, 3), (4, 3), (3, 4)])
def test_ary_encode_matches_recursive_oracle(n, arity):
    for t in trees.enumerate_ary_trees(n, arity):
        assert bj.encode_ary_tree(t).word == tuple(oracles.ary_code(t))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 60))
@settings(max_examples=50, deadline=None)
def test_ary_roundtrip_on_grown_trees(seed, n):
    t = trees.grow_ary_tree(4, n, seed)
    assert bj.decode_ary_tree(bj.encode_ary_tree(t)) == t


def test_ary_decode_requires_uniform_multiplicities():
    with pytest.raises(perms.InvalidPermutationError):
        bj.decode_ary_tree(word("122"))


# ---------------------------------------------------------------------------
# bundled codec
# ---------------------------------------------------------------------------


def test_bundled_decode_frozen_pairs():
    t = bj.decode_bundled_tree(word("2221"))
    assert (t.bundle_count, t.parent, t.bundle, t.pos_in_bundle) == (
        2,
        (0, 1),
        (0, 1),
        (0, 1),
    )
    t = bj.decode_bundled_tree(word("1222"))
    assert (t.bundle_count, t.parent, t.bundle, t.pos_in_bundle) == (
        2,
        (0, 1),
        (0, 2),
        (0, 1),
    )


def test_bundled_stats_equal_word_statistics_frozen():
    for text, expected in {
        "2221": (1, 2, 2),
        "3332221": (1, 3, 4),
        "3331222": (2, 2, 4),
        "2333221": (2, 3, 3),
    }.items():
        prof = perms.stat_profile(word(text))
        assert (prof.ascents, prof.descents, prof.plateaux) == expected
        t = bj.decode_bundled_tree(word(text))
        b = trees.bundled_stats(t)
        assert (b.bundle_ascents, b.bundle_descents, b.empty_bundles) == expected


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_bundled_codec_image_is_exactly_the_family(n, k):
    image = {
        bj.encode_bundled_tree(t).word
        for t in trees.enumerate_bundled_trees(n, k + 1)
    }
    family = {p.word for p in perms.enumerate_bundled(n, k)}
    assert image == family
    for p in perms.enumerate_bundled(n, k):
        assert bj.encode_bundled_tree(bj.decode_bundled_tree(p)).word == p.word


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_bundled_encode_matches_recursive_oracle(n, m):
    for t in trees.enumerate_bundled_trees(n, m):
        assert bj.encode_bundled_tree(t).word == tuple(oracles.bundled_code(t))


@pytest.mark.parametrize("m,count", [(2, 973), (3, 3721)])
def test_bundled_code_is_contour_code_of_f_tree(m, count):
    """The bundled code of a tree is the depth-first contour code of its
    F-tree, the root having ``m`` slots and the other nodes ``m + 2``."""
    trees_seen = 0
    for n in range(1, 6):
        for t in trees.enumerate_bundled_trees(n, m):
            contour = oracles.ary_code(bj.f_tree_from_bundled(t))
            assert bj.encode_bundled_tree(t).word == tuple(contour)
            trees_seen += 1
    assert trees_seen == count


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_bundled_roundtrip_on_grown_trees(seed, n):
    t = oracles.grow_bundled_tree_scan(3, n, seed)
    assert bj.decode_bundled_tree(bj.encode_bundled_tree(t)) == t


def test_bundled_decode_rejects_wrong_multiset():
    with pytest.raises(perms.InvalidPermutationError):
        bj.decode_bundled_tree(word("1122"))  # uniform, not (k, k+2, ...)


# ---------------------------------------------------------------------------
# sequence bijection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_seq_bijection_roundtrip_and_count(n, m):
    seqs = list(oracles.bundled_sequences(n, m))
    image = set()
    for seq in seqs:
        t = bj.seq_to_ary_tree(seq)
        assert t.arity == m + 2
        assert bj.ary_tree_to_seq(t) == seq
        image.add(t)
    assert len(image) == len(seqs)
    assert len(seqs) == perms.count_k_stirling(n, m + 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_seq_bijection_at_zero_bundles_is_permutations_and_binary_trees(n):
    """A sequence of 0-bundle nodes is a permutation of 1..n, and its tree is
    binary: both directions round-trip on every object of order n."""
    for tree in trees.enumerate_ary_trees(n, 2):
        assert bj.seq_to_ary_tree(bj.ary_tree_to_seq(tree)) == tree
    for labels in itertools.permutations(range(1, n + 1)):
        seq = tuple(bj.BundledNode(label, ()) for label in labels)
        tree = bj.seq_to_ary_tree(seq)
        assert tree.arity == 2
        assert bj.ary_tree_to_seq(tree) == seq


def test_seq_bijection_image_is_all_trees():
    got = {bj.seq_to_ary_tree(s) for s in oracles.bundled_sequences(3, 1)}
    assert got == set(trees.enumerate_ary_trees(3, 3))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerated_sequences_match_recursive_oracle(n, m):
    listed = list(bj.enumerate_bundled_sequences(n, m))
    assert len(listed) == len(set(listed)) == perms.count_k_stirling(n, m + 1)
    assert set(listed) == set(oracles.bundled_sequences(n, m))


def test_bundled_node_json_roundtrip():
    t = trees.BundledIncreasingTree(2, (0, 1, 1), (0, 1, 2), (0, 1, 1))
    node = bj.bundled_subtree_node(t)
    assert bj.BundledNode.from_json_dict(node.to_json_dict()) == node
    assert bj.bundled_node_to_tree(node) == t
    assert node.min_label() == 1
    assert sorted(node.labels()) == [1, 2, 3]


@pytest.mark.parametrize("root", [0, -1, 4])
def test_bundled_subtree_node_refuses_a_root_the_tree_lacks(root):
    t = trees.BundledIncreasingTree(2, (0, 1, 2), (0, 1, 2), (0, 1, 1))
    with pytest.raises(trees.InvalidTreeError, match=f"^root must be in 1..n, got {root}$"):
        bj.bundled_subtree_node(t, root)
    assert bj.bundled_subtree_node(t, 3) == bj.BundledNode(3, ((), ()))
    assert bj.bundled_subtree_node(t, 2) == bj.BundledNode(2, ((), (bj.BundledNode(3, ((), ())),)))


def _deep_chain_json(n: int, last: int, bundle: int) -> dict:
    """JSON of a chain 1 - 2 - ... - (n-1) through second bundles, whose
    last node, labelled ``last``, sits in bundle ``bundle`` of node n-1."""
    data = {"label": last, "bundles": [[], []]}
    bundles = [[], []]
    bundles[bundle - 1].append(data)
    data = {"label": n - 1, "bundles": bundles}
    for v in range(n - 2, 0, -1):
        data = {"label": v, "bundles": [[], [data]]}
    return data


def test_bundled_node_json_reads_deep_chains():
    """A 3000-deep chain loads without recursion, and ``==`` and ``hash``
    read it with a stack too."""
    n = 3000
    assert sys.getrecursionlimit() < 3 * n
    node = bj.BundledNode.from_json_dict(_deep_chain_json(n, n, 2))
    rows = {v: ((), (v + 1,) if v < n else ()) for v in range(1, n + 1)}
    assert shape((node,)) == ((1,), rows)
    same = bj.BundledNode.from_json_dict(_deep_chain_json(n, n, 2))
    assert same is not node
    assert same == node
    assert not same != node
    assert hash(same) == hash(node)
    assert len({node, same}) == 1
    relabelled = bj.BundledNode.from_json_dict(_deep_chain_json(n, n + 1, 2))
    assert relabelled != node
    assert not relabelled == node
    moved = bj.BundledNode.from_json_dict(_deep_chain_json(n, n, 1))
    assert moved != node
    assert node != (node.label, node.bundles)


def _random_node(rng, depth: int):
    """A node form of at most ``depth`` levels, with any int labels and
    bundle counts, and bundles of zero, one or more nodes."""
    bundles = tuple(
        tuple(_random_node(rng, depth - 1) for _ in range(rng.choice([0, 1, 1, 2, 3]) if depth else 0))
        for _ in range(rng.randrange(4))
    )
    return bj.BundledNode(rng.randint(-5, 50), bundles)


def test_bundled_node_repr_is_the_generated_one():
    """``repr`` writes the text of the generated dataclass repr, the comma of
    a one-element tuple included, on shallow random node forms, every
    sequence of order 4 and a few odd field values."""
    rng = random.Random("bundled-node-repr")
    nodes = [_random_node(rng, rng.randrange(5)) for _ in range(300)]
    for m in (1, 2, 3):
        nodes += [node for seq in oracles.bundled_sequences(4, m) for node in seq]
    nodes += [
        bj.BundledNode("1", [[]]),
        bj.BundledNode(1, ((bj.BundledNode(2, ()), [bj.BundledNode(3, ((),))], None),)),
    ]
    for node in nodes:
        assert repr(node) == oracles.bundled_node_repr(node)


def test_bundled_node_repr_of_a_deep_chain():
    """A 3000-deep chain is written without recursion."""
    n = 3000
    assert sys.getrecursionlimit() < 3 * n
    node = bj.BundledNode(n, ((),))
    for v in range(n - 1, 0, -1):
        node = bj.BundledNode(v, ((node,),))
    heads = "".join(f"BundledNode(label={v}, bundles=((" for v in range(1, n))
    assert repr(node) == heads + f"BundledNode(label={n}, bundles=((),))" + ",),))" * (n - 1)


def test_seq_to_ary_rejects_bad_sequences():
    with pytest.raises(trees.InvalidTreeError):
        bj.seq_to_ary_tree(())
    # labels must partition 1..n
    lone = bj.BundledNode(2, ((), ()))
    with pytest.raises(trees.InvalidTreeError):
        bj.seq_to_ary_tree((lone,))


def test_seq_to_ary_rejects_repeated_labels_and_mixed_bundle_counts():
    leaf = bj.BundledNode(2, ((), ()))
    with pytest.raises(trees.InvalidTreeError, match="twice"):
        bj.seq_to_ary_tree((bj.BundledNode(1, ((leaf,), (leaf,))),))
    with pytest.raises(trees.InvalidTreeError, match="bundle counts"):
        bj.seq_to_ary_tree((bj.BundledNode(1, ((bj.BundledNode(2, ((),)),), ())),))
    with pytest.raises(trees.InvalidTreeError, match="bundle counts"):
        bj.bundled_node_to_tree(bj.BundledNode(1, ((bj.BundledNode(2, ((),)),), ())))


def _node(label, *bundles):
    return bj.BundledNode(label, tuple(bundles))


@pytest.mark.parametrize(
    "node",
    [_node(2, (_node(1, ()),)), _node(1, (_node(3, (_node(2, ()),)),))],
    ids=["at-the-root", "below-the-root"],
)
def test_node_forms_must_have_increasing_labels(node):
    """A child labelled below its owner is refused, not turned into some
    other valid tree."""
    with pytest.raises(trees.InvalidTreeError):
        bj.seq_to_ary_tree((node,))
    with pytest.raises(trees.InvalidTreeError):
        bj.bundled_node_to_tree(node)


def shape(seq):
    """Top-level labels of a sequence of node forms and the child labels of
    each node by bundle, read with a stack: dataclass ``==`` would recurse
    once per level of a deep tree."""
    rows = {}
    stack = list(seq)
    while stack:
        node = stack.pop()
        rows[node.label] = tuple(tuple(c.label for c in b) for b in node.bundles)
        for b in node.bundles:
            stack.extend(b)
    return tuple(t.label for t in seq), rows


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seq_codec_matches_cartesian_oracle(n, m):
    if m:
        seqs = oracles.bundled_sequences(n, m)
    else:  # sequences of 0-bundle nodes are the permutations of 1..n
        seqs = (tuple(bj.BundledNode(v, ()) for v in p)
                for p in itertools.permutations(range(1, n + 1)))
    for seq in seqs:
        t = bj.seq_to_ary_tree(seq)
        assert (t.arity, t.parent, t.slot) == oracles.seq_to_ary_arrays(seq)
    for t in trees.enumerate_ary_trees(n, m + 2):
        assert shape(bj.ary_tree_to_seq(t)) == shape(oracles.ary_to_seq(t))


DEEP = 10_000


def _deep_ary_tree(name: str) -> trees.AryIncreasingTree:
    n = DEEP
    if name == "middle-chain":
        return trees.AryIncreasingTree(4, range(n), [0] + [2] * (n - 1))
    if name == "flat":
        return trees.AryIncreasingTree(4, range(n), [0] + [4] * (n - 1))
    # caterpillar: spine 1, 3, 5, ... through slot 2, leaf v+1 in slot 1 of spine node v
    parent = [0] + [v - 1 if v % 2 == 0 else v - 2 for v in range(2, n + 1)]
    slot = [0] + [1 if v % 2 == 0 else 2 for v in range(2, n + 1)]
    return trees.AryIncreasingTree(3, parent, slot)


def _deep_sequence_shape(name: str):
    n = DEEP
    if name == "middle-chain":  # one bundled chain
        return (1,), {v: ((v + 1,) if v < n else (), ()) for v in range(1, n + 1)}
    if name == "flat":  # n single nodes
        return tuple(range(1, n + 1)), {v: ((), ()) for v in range(1, n + 1)}
    rows = {v: ((),) for v in range(2, n + 1, 2)}
    rows.update({v: ((v + 3, v + 2) if v + 2 < n else (),) for v in range(1, n, 2)})
    return (2, 1), rows


@pytest.mark.parametrize("name", ["middle-chain", "flat", "caterpillar"])
def test_seq_codec_round_trips_deep_shapes(name):
    assert sys.getrecursionlimit() < DEEP
    t = _deep_ary_tree(name)
    seq = bj.ary_tree_to_seq(t)
    assert shape(seq) == _deep_sequence_shape(name)
    assert bj.seq_to_ary_tree(seq) == t


# ---------------------------------------------------------------------------
# forest-of-trees form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
def test_f_tree_bijection_roundtrip_and_count(n, k):
    ftrees = list(bj.enumerate_f_trees(n, k))
    image = set()
    for ft in ftrees:
        bt = bj.bundled_from_f_tree(ft)
        assert bj.f_tree_from_bundled(bt) == ft
        image.add(bt)
    assert image == set(trees.enumerate_bundled_trees(n, k))


def test_f_tree_json_roundtrip_and_validation():
    for ft in bj.enumerate_f_trees(3, 2):
        assert bj.FIncreasingTree.from_json_dict(ft.to_json_dict()) == ft
    with pytest.raises(trees.InvalidTreeError):
        bj.FIncreasingTree(2, (0, 1), (0, 3))  # root slot out of range
    ok = bj.FIncreasingTree(2, (0, 1, 2), (0, 2, 4))  # non-root slots run to k+2
    assert ok.order == 3
    assert ok.root_slot_count == 2
    with pytest.raises(trees.InvalidTreeError):
        bj.FIncreasingTree(2, (0, 1, 2), (0, 2, 5))  # non-root slot k+3
    with pytest.raises(trees.InvalidTreeError, match="root_slot_count"):
        bj.FIncreasingTree(0, (0,), (0,))
    single = bj.FIncreasingTree(3, (0,), (0,))
    assert single.free_slots() == [(1, 1), (1, 2), (1, 3)]
    assert bj.bundled_from_f_tree(single) == trees.BundledIncreasingTree(3, (0,), (0,), (0,))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_f_tree_roundtrip_on_grown_trees(seed, n):
    bt = oracles.grow_bundled_tree_scan(2, n, seed)
    ft = bj.f_tree_from_bundled(bt)
    assert bj.bundled_from_f_tree(ft) == bt
    attached = {(ft.parent[u - 1], ft.slot[u - 1]): u for u in range(2, n + 1)}
    for v in range(1, n + 1):
        for s in range(1, (2 if v == 1 else 4) + 1):
            assert ft.child(v, s) == attached.get((v, s), 0)
    assert len(ft.free_slots()) == 2 + 4 * (n - 1) - (n - 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f_tree_codec_matches_cartesian_oracle(n, k):
    for bt in trees.enumerate_bundled_trees(n, k):
        ft = bj.f_tree_from_bundled(bt)
        assert (ft.parent, ft.slot) == oracles.f_tree_arrays(bt)
    for ft in bj.enumerate_f_trees(n, k):
        bt = bj.bundled_from_f_tree(ft)
        assert (bt.parent, bt.bundle, bt.pos_in_bundle) == oracles.bundled_arrays_from_f_tree(ft)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 200), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_codecs_match_cartesian_oracle_on_grown_trees(seed, n, m):
    at = trees.grow_ary_tree(m + 2, n, seed)
    seq = bj.ary_tree_to_seq(at)
    assert shape(seq) == shape(oracles.ary_to_seq(at))
    assert bj.seq_to_ary_tree(seq) == at
    bt = oracles.grow_bundled_tree_scan(m, n, seed)
    whole = (bj.bundled_subtree_node(bt),)
    assert shape(whole) == shape((oracles.bundled_node(bt),))
    t = bj.seq_to_ary_tree(whole)
    assert (t.arity, t.parent, t.slot) == oracles.seq_to_ary_arrays(whole)
    ft = bj.f_tree_from_bundled(bt)
    assert (ft.parent, ft.slot) == oracles.f_tree_arrays(bt)
    assert (bt.parent, bt.bundle, bt.pos_in_bundle) == oracles.bundled_arrays_from_f_tree(ft)
    assert bj.bundled_from_f_tree(ft) == bt


def _deep_bundled_tree(name: str) -> trees.BundledIncreasingTree:
    n = DEEP
    if name == "chain":
        return trees.BundledIncreasingTree(2, range(n), [0] + [1] * (n - 1), [0] + [1] * (n - 1))
    return trees.BundledIncreasingTree(2, [0] + [1] * (n - 1), [0] + [1] * (n - 1), range(n))


@pytest.mark.parametrize("name", ["chain", "star"])
def test_f_tree_codec_round_trips_deep_shapes(name):
    assert sys.getrecursionlimit() < DEEP
    n = DEEP
    bt = _deep_bundled_tree(name)
    if name == "chain":
        slots = (0, 1) + (2,) * (n - 2)  # bundle 1 of a non-root node is slot 2
    else:
        slots = (0, 1) + (4,) * (n - 2)  # each later sibling in the last slot
    ft = bj.f_tree_from_bundled(bt)
    assert (ft.parent, ft.slot) == (tuple(range(n)), slots)
    assert bj.bundled_from_f_tree(ft) == bt
    node = bj.bundled_subtree_node(bt)
    assert node.labels() == set(range(1, n + 1))
    assert bj.bundled_node_to_tree(node) == bt


# ---------------------------------------------------------------------------
# stack decoders against the segment decoders
# ---------------------------------------------------------------------------


def assert_decoders_match_segment_oracles(word: perms.GenStirlingPerm) -> None:
    """Decode ``word`` with whichever word codec its multiset fits and compare
    the arrays with the segment decoder of :mod:`oracles`."""
    k = word.multiplicities[0]
    if word.uniform_k is not None:
        t = bj.decode_ary_tree(word)
        assert (t.parent, t.slot) == oracles.ary_arrays_by_range_min(word.word, k)
    if word.order == 1 or word.multiplicities[1] == k + 2:
        b = bj.decode_bundled_tree(word)
        expected = oracles.bundled_arrays_by_segments(word.word, k)
        assert (b.parent, b.bundle, b.pos_in_bundle) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_word_decoders_match_segment_oracles(n, k):
    for p in perms.enumerate_k_stirling(n, k):
        assert_decoders_match_segment_oracles(p)
    for p in perms.enumerate_bundled(n, k):
        assert_decoders_match_segment_oracles(p)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 200), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_word_decoders_match_segment_oracles_on_grown_trees(seed, n, k):
    at = trees.grow_ary_tree(k + 1, n, seed)
    assert_decoders_match_segment_oracles(bj.encode_ary_tree(at))
    bt = oracles.grow_bundled_tree_scan(k + 1, n, seed)
    assert_decoders_match_segment_oracles(bj.encode_bundled_tree(bt))


@pytest.mark.parametrize(
    "name", ["middle-chain", "flat", "caterpillar", "bundled-chain", "bundled-star"]
)
def test_word_decoders_match_segment_oracles_on_deep_shapes(name):
    if name.startswith("bundled-"):
        tree = _deep_bundled_tree(name.removeprefix("bundled-"))
        word, decode = bj.encode_bundled_tree(tree), bj.decode_bundled_tree
    else:
        tree = _deep_ary_tree(name)
        word, decode = bj.encode_ary_tree(tree), bj.decode_ary_tree
    assert_decoders_match_segment_oracles(word)
    assert decode(word) == tree


# ---------------------------------------------------------------------------
# statistic transfer
# ---------------------------------------------------------------------------


def test_transfer_identities_spot_check_k2():
    """For every ternary tree of order 3 the word statistics line up with
    the slot statistics: refined ascents with interior slots shifted by one,
    totals with exterior slots, blocks with the extreme-slot path count."""
    k = 2
    for t in trees.enumerate_ary_trees(3, k + 1):
        p = bj.encode_ary_tree(t)
        prof = perms.stat_profile(p)
        slots = trees.ary_stats(t)
        for j in range(1, k + 1):
            assert prof.j_ascent(j) == slots.interior_by_slot[j]
            assert prof.j_descent(j) == slots.interior_by_slot[j - 1]
        for j in range(1, k):
            assert prof.j_plateau(j) == slots.exterior_by_slot[j]
        assert prof.ascents == slots.exterior_by_slot[0]
        assert prof.descents == slots.exterior_by_slot[k]
        assert prof.plateaux == sum(slots.exterior_by_slot[1:k])
        assert perms.block_decomposition(p).count == slots.left_right


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3)])
def test_verify_stat_transfer_clean(n, k):
    report = bj.verify_stat_transfer(n, k)
    assert report.ok
    assert report.counterexamples == ()
    assert report.ary_examined == perms.count_k_stirling(n, k)
    assert report.bundled_examined == len(
        list(trees.enumerate_bundled_trees(n, k + 1))
    )
    data = report.to_json_dict()
    assert data["ok"] is True
    assert data["counterexamples"] == []


def test_verify_stat_transfer_without_bundled():
    report = bj.verify_stat_transfer(3, 2, include_bundled=False)
    assert report.ok
    assert report.bundled_examined == 0


def _shift_ary_stats(original):
    """``ary_stats`` with one more node in slot 1 of trees whose last node
    hangs from the root."""

    def shifted(tree):
        ts = original(tree)
        if tree.parent[-1] != 1:
            return ts
        d = ts.interior_by_slot
        return dataclasses.replace(ts, interior_by_slot=(d[0] + 1,) + d[1:])

    return shifted


def _shift_bundled_stats(original):
    """``bundled_stats`` with one descent fewer on trees whose last node
    sits first in its bundle."""

    def shifted(tree):
        bs = original(tree)
        if tree.pos_in_bundle[-1] != 1:
            return bs
        return dataclasses.replace(bs, bundle_descents=bs.bundle_descents - 1)

    return shifted


def _shift_stat_profile(original):
    """``stat_profile`` with one plateau more, in its first refined count
    and its total, on words that start with label 1."""

    def shifted(perm):
        prof = original(perm)
        if perm.word[0] != 1:
            return prof
        jp = prof.j_plateaux
        jp = (jp[0] + 1,) + jp[1:] if jp else jp
        return dataclasses.replace(prof, plateaux=prof.plateaux + 1, j_plateaux=jp)

    return shifted


SHIFTS = {
    "ary_stats": _shift_ary_stats,
    "bundled_stats": _shift_bundled_stats,
    "stat_profile": _shift_stat_profile,
}


@pytest.mark.parametrize("n,k", [(4, 2), (3, 3), (4, 1)])
@pytest.mark.parametrize("patched", [*sorted(SHIFTS), "all"])
def test_verify_reports_faults_like_the_object_oracle(monkeypatch, patched, n, k):
    """With a statistic shifted on some trees, the report lists the same
    counterexamples, in the same order, as the one-check-at-a-time loop."""
    for name in SHIFTS if patched == "all" else (patched,):
        monkeypatch.setattr(bj, name, SHIFTS[name](getattr(bj, name)))
    report = bj.verify_stat_transfer(n, k)
    expected = oracles.verify_stat_transfer_by_objects(n, k)
    assert not report.ok
    assert report.to_json_dict() == expected.to_json_dict()
    kinds = {bad["kind"] for bad in report.counterexamples}
    assert kinds == ({"ary"} if patched == "ary_stats" else
                     {"bundled"} if patched == "bundled_stats" else {"ary", "bundled"})


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (2, 4)])
def test_verify_matches_the_object_oracle_when_clean(n, k):
    report = bj.verify_stat_transfer(n, k)
    assert report.ok
    assert report.to_json_dict() == oracles.verify_stat_transfer_by_objects(n, k).to_json_dict()


# ---------------------------------------------------------------------------
# trusted hand-over of decoded trees; node forms read as JSON dicts in place
# ---------------------------------------------------------------------------


def assert_as_validated(tree) -> None:
    """``tree`` holds exactly what the validating constructor builds from
    its arrays: the same fields, the same children index in the same order,
    and nothing else."""
    validated = type(tree).from_json_dict(tree.to_json_dict())
    assert vars(tree) == vars(validated)
    index = "_kids" if isinstance(tree, trees.AryIncreasingTree) else "_groups"
    assert list(getattr(tree, index)) == list(getattr(validated, index))
    assert all(type(getattr(tree, f.name)) is type(getattr(validated, f.name))
               for f in dataclasses.fields(tree))


def decoded_from(tree) -> list:
    """Every decoder output that starts from ``tree``: the tree again
    through its word, its node form or its F-tree, and the other codec's
    tree."""
    if isinstance(tree, bj.FIncreasingTree):
        bundled = bj.bundled_from_f_tree(tree)
        return [bundled, bj.f_tree_from_bundled(bundled)]
    if isinstance(tree, trees.AryIncreasingTree):
        out = [bj.decode_ary_tree(bj.encode_ary_tree(tree))]
        if tree.arity >= 3:
            out.append(bj.seq_to_ary_tree(bj.ary_tree_to_seq(tree)))
        return out
    ftree = bj.f_tree_from_bundled(tree)
    out = [ftree, bj.bundled_from_f_tree(ftree),
           bj.bundled_node_to_tree(bj.bundled_subtree_node(tree))]
    if tree.bundle_count >= 2:
        out.append(bj.decode_bundled_tree(bj.encode_bundled_tree(tree)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_decoders_hand_over_what_the_constructor_builds(n):
    sources = [trees.enumerate_ary_trees(n, arity) for arity in (2, 3, 4)]
    sources += [bj.enumerate_f_trees(n, k) for k in (1, 2, 3)]
    sources += [trees.enumerate_bundled_trees(n, m) for m in (1, 2, 3)]
    for tree in itertools.chain(*sources):
        outputs = decoded_from(tree)
        for out in outputs:
            assert_as_validated(out)
        assert tree in outputs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decoders_hand_over_what_the_constructor_builds_on_sampled_words(k):
    n = 2000
    ary = bj.decode_ary_tree(perms.sample_k_stirling(n, k, 20 + k))
    bundled = bj.decode_bundled_tree(perms.sample_bundled(n, k, 30 + k))
    for tree in (ary, bundled):
        assert_as_validated(tree)
        for out in decoded_from(tree):
            assert_as_validated(out)


def test_decoders_run_no_tree_constructor_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("a tree constructor ran its checks")

    ary = bj.decode_ary_tree(word("23321144"))
    bundled = bj.decode_bundled_tree(word("1223332444"))
    seq, node = bj.ary_tree_to_seq(ary), bj.bundled_subtree_node(bundled)
    ftree = bj.f_tree_from_bundled(bundled)
    for cls in (trees.AryIncreasingTree, trees.BundledIncreasingTree):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert bj.decode_ary_tree(word("23321144")) == ary
    assert bj.decode_bundled_tree(word("1223332444")) == bundled
    assert bj.seq_to_ary_tree(seq) == ary
    assert bj.seq_to_ary_tree([t.to_json_dict() for t in seq]) == ary
    assert bj.bundled_node_to_tree(node) == bundled
    assert bj.f_tree_from_bundled(bundled) == ftree
    assert bj.bundled_from_f_tree(ftree) == bundled


def test_decoders_build_no_bundled_index_of_their_own(monkeypatch, capsys, tmp_path):
    def refuse(*args):
        raise AssertionError("a bundled children index was rebuilt from the arrays")

    ary = bj.decode_ary_tree(word("23321144"))
    bundled = bj.decode_bundled_tree(word("1223332444"))
    seq, node = bj.ary_tree_to_seq(ary), bj.bundled_subtree_node(bundled)
    ftree = bj.f_tree_from_bundled(bundled)
    ftree_json, ary_json = tmp_path / "ftree.json", tmp_path / "ary.json"
    ftree_json.write_text(json.dumps(ftree.to_json_dict()))
    ary_json.write_text(json.dumps(ary.to_json_dict()))
    expected = {}
    for argv in (("bundled", "1223332444"), ("ftree", "--input", str(ftree_json)),
                 ("seq", "--input", str(ary_json))):
        assert cli.main(["decode", "--bijection", *argv]) == 0
        expected[argv] = capsys.readouterr().out
    monkeypatch.setattr(trees, "_bundle_index", refuse)
    assert bj.decode_bundled_tree(word("1223332444")) == bundled
    assert bj.bundled_from_f_tree(ftree) == bundled
    assert bj.bundled_node_to_tree(node) == bundled
    assert bj.ary_tree_to_seq(ary) == seq
    for argv, out in expected.items():
        assert cli.main(["decode", "--bijection", *argv]) == 0
        assert capsys.readouterr().out == out


def _outcome(convert, items):
    """What ``convert`` makes of ``items``: its tree, or the type and
    message of the error it raises."""
    try:
        return convert(items)
    except trees.InvalidTreeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seq_dict_reader_matches_the_node_route(n, m):
    arity = m + 2
    for tree in trees.enumerate_ary_trees(n, arity):
        items = [t.to_json_dict() for t in bj.ary_tree_to_seq(tree)]
        tree_of_dicts = bj.seq_to_ary_tree(items)
        assert tree_of_dicts == oracles.seq_to_ary_tree_by_nodes(items) == tree
        assert_as_validated(tree_of_dicts)


def test_seq_dict_reader_matches_the_node_route_on_sampled_words():
    for k in (1, 2, 3):
        tree = bj.decode_ary_tree(perms.sample_k_stirling(2000, k, 40 + k))
        items = [t.to_json_dict() for t in bj.ary_tree_to_seq(tree)]
        assert bj.seq_to_ary_tree(items) == oracles.seq_to_ary_tree_by_nodes(items) == tree


# values a fuzzed field may take instead of a valid one
_ODD_VALUES = (0, -1, 7, True, 2.0, "1", None, [], [[]], {}, [1], [{}])


def _nodes(items: list) -> list:
    """Every dict of the node forms ``items``, read with a stack."""
    out, stack = [], list(items)
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            out.append(node)
            bundles = node.get("bundles")
            for b in bundles if isinstance(bundles, list) else ():
                if isinstance(b, list):
                    stack += b
    return out


def _fuzzed(items: list, rng) -> list:
    """A copy of the node forms ``items`` with one to three random faults."""
    items = json.loads(json.dumps(items))
    for _ in range(rng.randint(1, 3)):
        nodes = _nodes(items)
        node = rng.choice(nodes) if nodes else None
        fault = rng.randrange(10)
        if node is None or fault == 0:
            items.insert(rng.randint(0, len(items)), rng.choice(_ODD_VALUES))
        elif fault == 1:
            node["label"] = rng.choice(_ODD_VALUES)
        elif fault == 2:
            node["label"] = rng.choice(nodes).get("label")
        elif fault == 3:
            node.pop(rng.choice(["label", "bundles"]), None)
        elif fault == 4:
            node["bundles"] = rng.choice(_ODD_VALUES)
        elif fault == 5 and isinstance(node.get("bundles"), list):
            node["bundles"].append([])
        elif fault == 6 and isinstance(node.get("bundles"), list) and node["bundles"]:
            node["bundles"].pop()
        elif fault == 7 and isinstance(node.get("bundles"), list) and node["bundles"]:
            bundle = rng.choice(node["bundles"])
            if isinstance(bundle, list):
                bundle.append(rng.choice(_ODD_VALUES))
        elif fault == 8 and isinstance(node.get("label"), int):
            node["label"] += rng.choice([-2, -1, 1, 2, len(nodes)])
        elif fault == 9 and len(items) > 1:
            items.pop(rng.randrange(len(items)))
    return items


@pytest.mark.parametrize("m", [0, 1, 2])
def test_seq_dict_reader_fails_like_the_node_route(m):
    """Fuzzed node forms give the same tree, or the same error type and
    message, read in place as through ``BundledNode.from_json_dict``."""
    rng = random.Random(f"seq-fuzz/{m}")
    failures = 0
    for n in (1, 2, 3, 5, 8):
        for _ in range(60):
            tree = bj.decode_ary_tree(perms.sample_k_stirling(n, m + 1, rng.randrange(2**31)))
            items = _fuzzed([t.to_json_dict() for t in bj.ary_tree_to_seq(tree)], rng)
            expected = _outcome(oracles.seq_to_ary_tree_by_nodes, items)
            assert _outcome(bj.seq_to_ary_tree, items) == expected, items
            failures += isinstance(expected, tuple)
    assert failures >= 200
